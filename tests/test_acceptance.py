"""Acceptance gate: one test per primary criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` and in
the verbose test listing) and asserts the criterion at its stated
tolerance. The Pima reproduction degrades to the synthetic-probit
consistency suite and an explicit skip when the dataset file is absent.
"""

import pathlib

import numpy as np
import pytest

from bbalpha import autodiff as ad
from bbalpha import energy as en
from bbalpha import likelihoods as lk
from bbalpha import oracle, predict
from bbalpha.cli import run_toy_predictive
from bbalpha.energy import AlphaParam
from bbalpha.expfam import FactorizedGaussian
from bbalpha.diagnostics import gradient_bias_study
from bbalpha.optim import TrainConfig, default_prior, train


def _report(name, ok):
    print("%s: %s" % ("PASS" if ok else "FAIL", name))
    assert ok, name


# ---------------------------------------------------------------------------
# criterion 1: VB-limit equivalence

def _split_probit(seed):
    data = lk.gen_synthetic_probit(seed, n=150, d=3)
    rng = np.random.default_rng([seed, 1])
    perm = rng.permutation(data.n)
    tr, te = data.subset(perm[:120]), data.subset(perm[120:])
    return lk.standardize_train_test(tr, te)


def _probit_test_ll(q, model, te, seed):
    lls = []
    for i in range(te.n):
        probs = predict.predict_probit(q, model, te.features[i][None], 200,
                                       [seed, i])[0]
        lls.append(np.log(max(probs[1] if te.targets[i] > 0 else probs[0], 1e-300)))
    return float(np.mean(lls))


def test_criterion_vb_limit_equivalence():
    ok = True
    # probit: identical splits, identical seeds, alpha=1e-6 vs the VB path
    for seed in (0, 1):
        tr, te = _split_probit(seed)
        model = lk.ProbitRegression(tr.d)
        kw = dict(k_samples=30, batch_size=30, epochs=40,
                  learning_rate=0.05, seed=seed)
        q_a, _, _ = train(model, tr, default_prior(tr.d),
                          TrainConfig(alpha=1e-6, **kw))
        q_v, _, _ = train(model, tr, default_prior(tr.d),
                          TrainConfig(alpha="vb", **kw))
        ll_a = _probit_test_ll(q_a, model, te, seed)
        ll_v = _probit_test_ll(q_v, model, te, seed)
        ok &= abs(ll_a - ll_v) < 1e-3
        # energies on shared samples at the trained posterior
        eps = np.random.default_rng([seed, 5]).standard_normal((200, tr.d))
        e_a = en.bbalpha_energy_mc(q_v, default_prior(tr.d), model, tr,
                                   np.arange(tr.n), AlphaParam(1e-6, tr.n), eps)
        e_v = en.vb_energy_mc(q_v, default_prior(tr.d), model, tr,
                              np.arange(tr.n), eps)
        ok &= abs(e_a.value - e_v.value) / abs(e_v.value) < 1e-4

    # toy-cubic MLP: same comparison with a small network
    data = lk.gen_toy_cubic(0)
    model = lk.MLPRegression(1, 20, log_sigma2=np.log(9.0))
    kw = dict(k_samples=30, batch_size=20, epochs=60, learning_rate=0.01, seed=0)
    q_a, _, _ = train(model, data, default_prior(model.theta_dim),
                      TrainConfig(alpha=1e-6, **kw))
    q_v, _, _ = train(model, data, default_prior(model.theta_dim),
                      TrainConfig(alpha="vb", **kw))
    lls = []
    for q in (q_a, q_v):
        lls.append(np.mean([predict.predict_loglik_regression(
            q, model, data.features[i][None], data.targets[i], 100, [7, i])[0]
            for i in range(data.n)]))
    ok &= abs(lls[0] - lls[1]) < 1e-3
    _report("VB-limit equivalence (probit + toy-cubic MLP)", ok)


# ---------------------------------------------------------------------------
# criterion 2: Pima desk-scale reproduction (degrades when data is absent)

PIMA_CANDIDATES = [pathlib.Path(__file__).parent.parent / "data" / "pima.csv",
                   pathlib.Path("/root/data/pima.csv")]


def _synthetic_probit_consistency():
    """Fallback suite: small-split probit runs stay finite and better than
    chance across the alpha grid."""
    tr, te = _split_probit(3)
    model = lk.ProbitRegression(tr.d)
    for a in (1e-6, 0.5, 1.0):
        cfg = TrainConfig(alpha=a, k_samples=30, batch_size=30, epochs=40,
                          learning_rate=0.05, seed=3)
        q, _, trace = train(model, tr, default_prior(tr.d), cfg)
        assert np.all(np.isfinite(trace.energy))
        ll = _probit_test_ll(q, model, te, 3)
        assert ll > np.log(0.5)  # beats a coin flip on held-out data


def test_criterion_pima_table1():
    path = next((p for p in PIMA_CANDIDATES if p.exists()), None)
    if path is None:
        _synthetic_probit_consistency()
        print("SKIP: Pima Table-1 reproduction (dataset unavailable; "
              "synthetic-probit consistency suite ran instead)")
        pytest.skip("Pima dataset not available offline")
    data = lk.load_csv(path, lk.CsvSchema(target="Outcome", task="probit"))
    lls, errs = [], []
    for a in (1e-6, 0.5, 1.0):
        cfg = {"dataset": None}
        split_lls, split_errs = [], []
        for s in range(50):
            rng = np.random.default_rng([11, s])
            perm = rng.permutation(data.n)
            k = int(round(0.9 * data.n))
            tr, te = data.subset(perm[:k]), data.subset(perm[k:])
            tr, te = lk.standardize_train_test(tr, te)
            model = lk.ProbitRegression(tr.d)
            q, _, _ = train(model, tr, default_prior(tr.d),
                            TrainConfig(alpha=a, k_samples=100, batch_size=32,
                                        epochs=200, seed=s))
            split_lls.append(_probit_test_ll(q, model, te, s))
            correct = sum(
                int((predict.predict_probit(q, model, te.features[i][None], 100,
                                            [s, i])[0][1] >= 0.5)
                    == (te.targets[i] > 0)) for i in range(te.n))
            split_errs.append(1.0 - correct / te.n)
        lls.append(np.mean(split_lls))
        errs.append(np.mean(split_errs))
    ok = all(abs(l - (-0.501)) <= 0.03 for l in lls)
    ok &= all(abs(e - 0.234) <= 0.02 for e in errs)
    _report("Pima Table-1 reproduction", ok)


# ---------------------------------------------------------------------------
# criterion 3: closed-form worked examples

def test_criterion_worked_example_closed_forms():
    grid = np.arange(0.1, 1.95, 0.1)
    X1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    X2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    y = np.zeros(2)
    ok = True
    for X, lam_fn in ((X1, oracle.example1_lambda), (X2, oracle.example2_lambda)):
        variances = []
        for a in grid:
            q = oracle.bbalpha_fixed_point(X, y, 1.0, float(a))
            lam_fp = 0.5 * (1.0 / q.var[0] - 1.0)
            ok &= abs(lam_fp - lam_fn(float(a), 1.0)) < 1e-8
            variances.append(q.var[0])
        ok &= all(np.diff(variances) > 0)  # strictly monotone in alpha
    # alpha -> 0 limits of the closed forms
    lam1 = oracle.example1_lambda(1e-9, 1.0)
    ok &= abs(1.0 / (1.0 + 2.0 * lam1) - 0.5) < 1e-6  # true posterior variance
    for s2 in (0.5, 1.0, 2.0):
        lam2 = oracle.example2_lambda(1e-9, s2)
        ok &= abs(lam2 - 1.0 / s2) < 1e-6  # mean-field VB precision
    _report("worked-example closed forms (fixed point to 1e-8, monotone "
            "variance, alpha->0 limits)", ok)


# ---------------------------------------------------------------------------
# criterion 4: lower bound

def test_criterion_lower_bound():
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(100):
        n = int(rng.integers(3, 15))
        d = int(rng.integers(1, 5))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n) * rng.uniform(0.5, 3.0)
        s2 = float(rng.uniform(0.2, 3.0))
        data = lk.Dataset(X, y)
        model = lk.LinearRegression(d, s2)
        q = FactorizedGaussian(rng.normal(0, 1.0, size=d),
                               rng.normal(-0.5, 1.0, size=d))
        a = float(rng.uniform(0.05, n - 0.05))
        cert = en.lower_bound_certificate(q, default_prior(d), model, data,
                                          AlphaParam(a, n))
        ok &= cert >= -1e-8
    _report("lower bound E - G~(N) >= -1e-8 on 100 random conjugate "
            "instances", ok)


# ---------------------------------------------------------------------------
# criterion 5: stationarity consistency

def test_criterion_stationarity_consistency():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([1.0, 2.0])
    data = lk.Dataset(X, y)
    model = lk.LinearRegression(2, 1.0)
    alpha = AlphaParam(1.0, 2)

    cfg = TrainConfig(alpha=1.0, energy_mode="exact", epochs=4000,
                      batch_size=2, learning_rate=0.02, init_log_var=-2.0,
                      seed=0)
    q, _, _ = train(model, data, default_prior(2), cfg)
    res = en.stationarity_residual(q, default_prior(2), model, data, alpha)
    ok = res <= 1e-6

    truth = oracle.true_posterior_linreg(X, y, 1.0)
    q_ep, sites = oracle.power_ep_message_passing(X, y, 1.0, 1.0)
    ok &= np.allclose(q_ep.mu, truth.mu, atol=1e-8)
    ok &= np.allclose(np.diag(q_ep.cov), np.diag(truth.cov), atol=1e-8)

    # the tied site must differ from the per-datum EP sites
    q_fp = oracle.bbalpha_fixed_point(X, y, 1.0, 1.0)
    nat = q_fp.to_nat()
    tied = ((nat.eta1 - 0.0) / 2.0, (nat.eta2 + 0.5) / 2.0)
    diff = max(max(np.max(np.abs(s1 - tied[0])), np.max(np.abs(s2 - tied[1])))
               for (s1, s2) in sites)
    ok &= diff > 1e-3
    _report("stationarity consistency (optimizer residual %.1e, EP recovery, "
            "tied/untied gap %.3f)" % (res, diff), ok)


# ---------------------------------------------------------------------------
# criterion 6: gradient correctness

def test_criterion_gradient_correctness():
    rng = np.random.default_rng(7)
    ok = True
    worst = 0.0

    def check(f, slots):
        nonlocal ok, worst
        rep = ad.check_gradient(f, slots, tol=1e-5)
        ok &= rep.passed
        worst = max(worst, rep.max_rel_err)

    for i in range(20):
        n, d, k = 6, 2, 8
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        data = lk.Dataset(X, y)
        eps = rng.standard_normal((k, d))
        a = float(rng.uniform(0.2, 1.5))
        model = lk.LinearRegression(d, float(rng.uniform(0.3, 2.0)))
        mu0 = rng.normal(0, 0.4, size=d)
        lv0 = rng.normal(-1.0, 0.4, size=d)
        pm = np.zeros(d)
        plv = np.zeros(d)

        # MC alpha energy through reparameterization and log-sum-exp
        check(lambda mu, lv: en._mc_expr(mu, lv, pm, plv, model, X, y, n, a, eps),
              [mu0, lv0])
        # VB energy path
        check(lambda mu, lv: en._mc_expr(mu, lv, pm, plv, model, X, y, n, None,
                                         eps), [mu0, lv0])
        # exact conjugate energy
        check(lambda mu, lv: en._exact_expr(mu, lv, pm, plv, X, y,
                                            model.sigma2, a, n), [mu0, lv0])

        # probit likelihood (log Phi adjoint)
        pro = lk.ProbitRegression(d)
        yy = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        check(lambda Th: ad.asum(pro.batch_log_lik(Th, X, yy)),
              [rng.normal(size=(3, d))])

        # MLP regression with trainable noise
        mlp = lk.MLPRegression(d, 3, log_sigma2=0.2)
        check(lambda Th, h: ad.asum(mlp.batch_log_lik(Th, X, y, hyper=h[0])),
              [rng.normal(size=(3, mlp.theta_dim)) * 0.5, np.array([0.1])])

        # MLP classification softmax
        cls = lk.MLPClassification(d, 3, 3, 3)
        yc = rng.integers(0, 3, size=n)
        check(lambda Th: ad.asum(cls.batch_log_lik(Th, X, yc)),
              [rng.normal(size=(3, cls.theta_dim)) * 0.5])

    _report("gradient correctness (120 FD checks x 20 instances, worst rel "
            "err %.2e)" % worst, ok)


# ---------------------------------------------------------------------------
# criterion 7: bias/variance study

def test_criterion_bias_variance_study():
    rng = np.random.default_rng(0)
    n, d = 100, 2
    X = rng.normal(size=(n, d))
    y = X @ np.array([0.8, -0.4]) + rng.normal(0, 0.5, size=n)
    data = lk.Dataset(X, y)
    model = lk.LinearRegression(d, 0.25)
    post = oracle.true_posterior_linreg(X, y, 0.25)
    q = FactorizedGaussian(post.mu, np.log(np.diag(post.cov)))

    report = gradient_bias_study(model, data, q, default_prior(d),
                                 alphas=[0.5, 1.0], ks=[1, 5, 10],
                                 n_minibatches=15, n_repeats=600,
                                 k_truth=10000, batch_size=32, seed=0)
    ok = True
    for a in (0.5, 1.0):
        cells = [report.cell(a, k).bias_net for k in (1, 5, 10)]
        ok &= cells[0] > cells[1] > cells[2]  # strictly decreasing in K
    for k in (1, 5, 10):
        ok &= report.cell(0.5, k).bias_net < report.cell(1.0, k).bias_net
    for a in (0.5, 1.0):
        cell = report.cell(a, 10)
        ok &= cell.grad_std >= 100.0 * abs(cell.bias_net)
    _report("bias/variance study (net bias monotone in K and alpha; "
            "grad_std >= 100x net bias at K=10)", ok)


# ---------------------------------------------------------------------------
# criterion 8: toy cubic predictive spread

def test_criterion_toy_cubic_predictive_spread():
    alphas = [1e-6, 0.5, 1.0]
    results = run_toy_predictive(alphas, seed=0)
    stds = [float(results[a][2].mean()) for a in alphas]
    ok = stds[0] < stds[1] < stds[2]
    _report("toy cubic predictive std strictly increasing in alpha "
            "(%.4f < %.4f < %.4f)" % tuple(stds), ok)


# ---------------------------------------------------------------------------
# criterion 9: negative-alpha stability substitute for full-scale runs

def test_criterion_three_class_stability():
    data = lk.gen_three_class(0, n=120)
    ok = True
    for a in (-1.0, 1e-6, 0.5, 1.0):
        model = lk.MLPClassification(2, 20, 20, 3)
        cfg = TrainConfig(alpha=a, k_samples=20, batch_size=30, epochs=30,
                          learning_rate=0.02, seed=0)
        _, _, trace = train(model, data, default_prior(model.theta_dim), cfg)
        ok &= bool(np.all(np.isfinite(trace.energy)))
    _report("3-class MLP trains with finite energy for alpha in "
            "{-1, 1e-6, 0.5, 1}", ok)
