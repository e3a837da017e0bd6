"""Gradient bias/variance study plumbing on a small conjugate problem."""

import numpy as np
import pytest

from bbalpha import autodiff as ad
from bbalpha import energy as en
from bbalpha import likelihoods as lk
from bbalpha.diagnostics import BiasRow, gradient_bias_study
from bbalpha.errors import ConfigError
from bbalpha.expfam import FactorizedGaussian
from bbalpha.optim import default_prior


def _problem(seed=0, n=40, d=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = X @ np.array([0.8, -0.4]) + rng.normal(0, 0.5, size=n)
    data = lk.Dataset(X, y)
    model = lk.LinearRegression(d, 0.25)
    q = FactorizedGaussian(np.array([0.7, -0.3]), np.array([-2.0, -2.0]))
    return model, data, q, default_prior(d)


def _small_study(**kw):
    model, data, q, prior = _problem()
    args = dict(alphas=[1.0], ks=[1, 5], n_minibatches=2, n_repeats=50,
                k_truth=2000, batch_size=16, seed=0)
    args.update(kw)
    return gradient_bias_study(model, data, q, prior, **args)


@pytest.mark.parametrize("kw", [{"ks": []}, {"ks": [1, 0]}, {"n_minibatches": 0},
                                {"n_repeats": 0}, {"k_truth": 0}, {"batch_size": 0}],
                         ids=["ks_empty", "ks_0", "n_minibatches_0", "n_repeats_0",
                              "k_truth_0", "batch_size_0"])
def test_study_rejects_empty_counts(kw):
    with pytest.raises(ConfigError, match="must be >= 1"):
        _small_study(**kw)


def test_study_makes_one_evaluation_per_estimate_and_one_site_step_per_column(
        monkeypatch):
    # the benchmark's traced check counts value_and_grad calls: one per
    # estimator evaluation, whatever the study shares between them
    calls = {"value_and_grad": 0, "_site": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def spy(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        monkeypatch.setattr(module, name, spy)

    counted(ad, "value_and_grad")
    counted(en, "_site")
    alphas, ks, n_minibatches, n_repeats = [0.5, 1.0], [1, 3, 5], 3, 7
    _small_study(alphas=alphas, ks=ks, n_minibatches=n_minibatches,
                 n_repeats=n_repeats, k_truth=100)
    columns = n_minibatches * (len(alphas) + 1)
    assert calls == {"value_and_grad": columns * (1 + len(ks) * n_repeats),
                     "_site": columns}


def test_report_has_all_cells():
    report = _small_study()
    assert report.n_minibatches == 2
    assert report.k_truth == 2000
    for a in (1.0, "vb"):
        for k in (1, 5):
            row = report.cell(a, k)
            assert isinstance(row, BiasRow)
            assert row.bias_raw >= 0.0
            assert row.grad_std >= 0.0
    with pytest.raises(KeyError):
        report.cell(0.33, 1)


def test_vb_net_bias_is_zero_by_construction():
    report = _small_study()
    for k in (1, 5):
        assert report.cell("vb", k).bias_net == pytest.approx(0.0, abs=1e-15)


def test_study_is_deterministic_in_seed():
    r1 = _small_study()
    r2 = _small_study()
    for a, b in zip(r1.rows, r2.rows):
        assert a.bias_raw == b.bias_raw
        assert a.grad_std == b.grad_std


def test_grad_std_shrinks_with_k():
    report = _small_study(n_repeats=200)
    assert report.cell(1.0, 5).grad_std < report.cell(1.0, 1).grad_std


def test_csv_round_trip(tmp_path):
    report = _small_study()
    path = tmp_path / "bias.csv"
    report.to_csv(path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "alpha,k,bias_raw,bias_net,grad_std"
    assert len(lines) == 1 + len(report.rows)
