"""Posterior-predictive helpers."""

import numpy as np
import pytest
from scipy import special, stats

from bbalpha import likelihoods as lk
from bbalpha import predict
from bbalpha.expfam import FactorizedGaussian

from reference_models import log_lik as ref_log_lik, output as ref_output


def _theta(q, k_samples, seed):
    """All K samples, from the blocks prediction draws them in."""
    return np.concatenate(list(predict._theta_blocks(q, k_samples, seed)))


def test_theta_samples_match_moments():
    q = FactorizedGaussian([1.0, -2.0], [np.log(4.0), np.log(0.25)])
    blocks = list(predict._theta_blocks(q, 200000, 1))
    assert len(blocks) == 7                 # 32,768 samples of 16 bytes a block
    assert all(b.nbytes <= predict.THETA_BLOCK for b in blocks)
    theta = np.concatenate(blocks)
    assert np.allclose(theta.mean(axis=0), q.mu, atol=0.02)
    assert np.allclose(theta.std(axis=0), [2.0, 0.5], atol=0.02)


def test_theta_samples_are_mu_plus_sd_times_the_draw():
    # the blocks' draws are, in order, the rows of one (K, P) draw
    rng = np.random.default_rng(0)
    for dim, k_samples, n_blocks in ((3, 5, 1), (3000, 50, 3)):
        q = FactorizedGaussian(rng.normal(size=dim), rng.normal(size=dim))
        eps = np.random.default_rng(7).standard_normal((k_samples, dim))
        want = np.exp(0.5 * q.log_var) * eps + q.mu
        blocks = list(predict._theta_blocks(q, k_samples, 7))
        assert len(blocks) == n_blocks
        theta = np.concatenate(blocks)
        assert theta.shape == (k_samples, dim)
        assert theta.tobytes() == want.tobytes()


def test_regression_loglik_collapses_to_point_estimate():
    model = lk.LinearRegression(2, sigma2=0.25)
    q = FactorizedGaussian([1.0, -1.0], [-30.0, -30.0])
    x, y = np.array([0.5, 0.2]), 0.4
    ll = predict.predict_loglik_regression(q, model, x[None], y, 1, None)[0]
    expect = stats.norm.logpdf(y, loc=q.mu @ x, scale=0.5)
    assert np.isclose(ll, expect, atol=1e-6)


def test_regression_loglik_jacobian_correction():
    model = lk.LinearRegression(1, sigma2=1.0)
    q = FactorizedGaussian([0.0], [-30.0])
    x = np.array([1.0])
    # with y_std = 2 the density shrinks by log 2
    base = predict.predict_loglik_regression(q, model, x[None], 0.0, 1, None)[0]
    scaled = predict.predict_loglik_regression(q, model, x[None], 0.0, 1, None,
                                               y_mean=0.0, y_std=2.0)[0]
    assert np.isclose(base - scaled, np.log(2.0))


def test_probit_probabilities_sum_to_one():
    model = lk.ProbitRegression(2)
    q = FactorizedGaussian([2.0, 0.0], [-2.0, -2.0])
    probs = predict.predict_probit(q, model, np.array([1.0, 0.0])[None], 500, 0)[0]
    assert np.isclose(probs.sum(), 1.0)
    assert probs[1] > 0.8  # strongly positive logit


def test_probit_tight_posterior_matches_ndtr():
    model = lk.ProbitRegression(1)
    q = FactorizedGaussian([0.7], [-30.0])
    probs = predict.predict_probit(q, model, np.array([1.0])[None], 50, 0)[0]
    assert np.isclose(probs[1], special.ndtr(0.7), atol=1e-5)


def test_class_probabilities_normalize():
    model = lk.MLPClassification(2, 4, 3, 3)
    rng = np.random.default_rng(0)
    q = FactorizedGaussian(rng.normal(size=model.theta_dim),
                           np.full(model.theta_dim, -3.0))
    probs = predict.predict_class(q, model, np.array([0.3, -0.2])[None], 20, 1)[0]
    assert probs.shape == (3,)
    assert np.isclose(probs.sum(), 1.0)
    assert np.all(probs >= 0.0)


def test_regression_stats_include_observation_noise():
    model = lk.LinearRegression(1, sigma2=4.0)
    q = FactorizedGaussian([1.0], [-30.0])
    mean, std = predict.predictive_regression_stats(
        q, model, np.array([[2.0]]), 100, 0, log_sigma2=np.log(4.0))
    assert np.isclose(mean[0], 2.0, atol=1e-5)
    assert np.isclose(std[0], 2.0, atol=1e-4)  # all noise, no weight spread


def test_regression_stats_spread_grows_with_posterior_variance():
    model = lk.MLPRegression(1, 10, log_sigma2=0.0)
    rng = np.random.default_rng(1)
    mu = rng.normal(size=model.theta_dim)
    tight = FactorizedGaussian(mu, np.full(model.theta_dim, -8.0))
    wide = FactorizedGaussian(mu, np.full(model.theta_dim, -1.0))
    X = np.linspace(-2, 2, 9)[:, None]
    _, s_tight = predict.predictive_regression_stats(tight, model, X, 200, 2)
    _, s_wide = predict.predictive_regression_stats(wide, model, X, 200, 2)
    assert s_wide.mean() > s_tight.mean()


# ---------------------------------------------------------------------------
# batched rows against a per-row, per-sample loop on the same draws

def _fixture(model, seed):
    rng = np.random.default_rng(seed)
    q = FactorizedGaussian(0.5 * rng.normal(size=model.theta_dim),
                           np.full(model.theta_dim, -2.0))
    return q, rng.normal(size=(11, model.d_in if hasattr(model, "d_in")
                               else model.theta_dim))


def _noise_log_var(model):
    if hasattr(model, "log_sigma2"):
        return model.log_sigma2
    return np.log(model.sigma2)


REGRESSION_MODELS = [lk.LinearRegression(3, sigma2=0.5),
                     lk.MLPRegression(3, 6, log_sigma2=0.3)]


@pytest.mark.parametrize("model", REGRESSION_MODELS, ids=lambda m: m.kind)
def test_batched_loglik_regression_matches_per_row_loop(model):
    q, X = _fixture(model, 10)
    y = np.random.default_rng(11).normal(2.0, 3.0, size=X.shape[0])
    got = predict.predict_loglik_regression(q, model, X, y, 30, 4,
                                            y_mean=1.5, y_std=2.5)
    theta = _theta(q, 30, 4)
    ref = [special.logsumexp([ref_log_lik(model, th, x, (t - 1.5) / 2.5)
                              for th in theta]) - np.log(30) - np.log(2.5)
           for x, t in zip(X, y)]
    assert got.shape == (X.shape[0],)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("model", REGRESSION_MODELS, ids=lambda m: m.kind)
def test_batched_regression_stats_match_per_row_loop(model):
    q, X = _fixture(model, 12)
    mean, std = predict.predictive_regression_stats(q, model, X, 30, 5)
    theta = _theta(q, 30, 5)
    outs = np.array([[np.squeeze(ref_output(model, th, x)) for th in theta]
                     for x in X])
    np.testing.assert_allclose(mean, outs.mean(axis=1), rtol=1e-12, atol=0)
    np.testing.assert_allclose(
        std, np.sqrt(outs.var(axis=1) + np.exp(_noise_log_var(model))),
        rtol=1e-12, atol=0)


def test_batched_probit_matches_per_row_loop():
    model = lk.ProbitRegression(3)
    q, X = _fixture(model, 13)
    probs = predict.predict_probit(q, model, X, 30, 6)
    theta = _theta(q, 30, 6)
    p_pos = np.array([np.mean([special.ndtr(th @ x) for th in theta]) for x in X])
    assert probs.shape == (X.shape[0], 2)
    np.testing.assert_allclose(probs[:, 1], p_pos, rtol=1e-12, atol=0)
    np.testing.assert_allclose(probs[:, 0], 1.0 - p_pos, rtol=1e-12, atol=0)


def test_batched_class_matches_per_row_loop():
    model = lk.MLPClassification(3, 5, 4, 3)
    q, X = _fixture(model, 14)
    probs = predict.predict_class(q, model, X, 30, 7)
    theta = _theta(q, 30, 7)
    ref = []
    for x in X:
        logits = [ref_output(model, th, x) for th in theta]
        ref.append(np.mean([np.exp(l - special.logsumexp(l)) for l in logits],
                           axis=0))
    assert probs.shape == (X.shape[0], 3)
    np.testing.assert_allclose(probs, ref, rtol=1e-12, atol=0)


def _public_calls(n_rows):
    """{name: (model, K, call)} for each public function, whose calls return
    one array; the MLPs' K samples span several theta blocks."""
    rng = np.random.default_rng(16)
    cls = lk.MLPClassification(2, 50, 50, 3)         # P 2,853: 22 a block
    reg = lk.MLPRegression(2, 100, log_sigma2=0.1)     # P 401: 163 a block
    prb, lin = lk.ProbitRegression(2), lk.LinearRegression(2, sigma2=0.5)
    q = {m: FactorizedGaussian(0.3 * rng.normal(size=m.theta_dim),
                               np.full(m.theta_dim, -2.0))
         for m in (cls, reg, prb, lin)}
    X, y = rng.normal(size=(n_rows, 2)), rng.normal(size=n_rows)
    return {
        "class": (cls, 100, lambda: predict.predict_class(q[cls], cls, X, 100, 3)),
        "loglik_mlp": (reg, 500, lambda: predict.predict_loglik_regression(
            q[reg], reg, X, y, 500, 3, y_mean=0.5, y_std=2.0)),
        "stats_mlp": (reg, 500, lambda: np.stack(
            predict.predictive_regression_stats(q[reg], reg, X, 500, 3))),
        "probit": (prb, 100, lambda: predict.predict_probit(q[prb], prb, X, 100, 3)),
        "loglik_linreg": (lin, 100, lambda: predict.predict_loglik_regression(
            q[lin], lin, X, y, 100, 3)),
        "stats_linreg": (lin, 100, lambda: np.stack(
            predict.predictive_regression_stats(q[lin], lin, X, 100, 3))),
    }


@pytest.mark.parametrize("n_rows, row_block", [(30, 256), (23, 5)],
                         ids=["one_row_block", "five_row_blocks"])
@pytest.mark.parametrize("name", ["class", "loglik_mlp", "stats_mlp", "probit",
                                  "loglik_linreg", "stats_linreg"])
def test_theta_blocks_do_not_change_a_bit(monkeypatch, name, n_rows, row_block):
    # against one batch_forward over all K samples per row block; the
    # linear models' samples fit in one block, the MLPs' span three or more
    model, k_samples, call = _public_calls(n_rows)[name]
    n_blocks = -(-k_samples // predict._block_rows(model.theta_dim))
    assert (n_blocks >= 3) == model.kind.startswith("mlp")
    row_blocks = -(-n_rows // row_block)
    monkeypatch.setattr(predict, "ROW_BLOCK", row_block)
    forward, sizes = model.batch_forward, []
    monkeypatch.setattr(model, "batch_forward",
                        lambda theta, Xb: sizes.append(len(theta)) or forward(theta, Xb))
    got = call()
    assert len(sizes) == n_blocks * row_blocks
    assert sum(sizes) == k_samples * row_blocks
    monkeypatch.setattr(predict, "THETA_BLOCK", 2 ** 62)
    sizes.clear()
    want = call()
    assert sizes == [k_samples] * row_blocks
    assert got.tobytes() == want.tobytes()


def test_row_blocks_do_not_change_results(monkeypatch):
    rng = np.random.default_rng(15)
    X, y = rng.normal(size=(23, 2)), rng.normal(size=23)
    reg = lk.MLPRegression(2, 5, log_sigma2=0.1)
    prb = lk.ProbitRegression(2)
    cls = lk.MLPClassification(2, 4, 4, 3)
    q_reg, q_prb, q_cls = (_fixture(m, 0)[0] for m in (reg, prb, cls))
    calls = [
        lambda: predict.predict_loglik_regression(q_reg, reg, X, y, 20, 1),
        lambda: np.stack(predict.predictive_regression_stats(q_reg, reg, X, 20, 1)),
        lambda: predict.predict_probit(q_prb, prb, X, 20, 1),
        lambda: predict.predict_class(q_cls, cls, X, 20, 1),
    ]
    one_block = [f() for f in calls]
    monkeypatch.setattr(predict, "ROW_BLOCK", 5)   # 23 rows: 5 blocks
    for f, ref in zip(calls, one_block):
        np.testing.assert_allclose(f(), ref, rtol=1e-12, atol=0)


def test_unseeded_row_blocks_see_the_same_samples(monkeypatch):
    # seed=None draws one fresh stream that every row block and theta block
    # reuses, so equal rows in different row blocks get equal results
    model = lk.MLPClassification(2, 4, 4, 3)
    q, _ = _fixture(model, 0)
    monkeypatch.setattr(predict, "ROW_BLOCK", 5)
    monkeypatch.setattr(predict, "THETA_BLOCK", 8 * model.theta_dim * 3)
    probs = predict.predict_class(q, model, np.tile([0.3, -0.2], (12, 1)), 10, None)
    assert (probs == probs[0]).all()


@pytest.mark.parametrize("seed", [np.random.default_rng(0), np.random.PCG64(0)],
                         ids=["generator", "bit_generator"])
def test_a_generator_seed_is_refused(seed):
    model = lk.ProbitRegression(2)
    q, _ = _fixture(model, 0)
    with pytest.raises(TypeError, match="seed must be None, an int"):
        predict.predict_probit(q, model, np.ones((3, 2)), 10, seed)
