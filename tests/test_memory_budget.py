"""Allocation budget of one MC energy-plus-gradient evaluation and of
prediction.

The tracemalloc peak of one `bbalpha_energy_mc` call, counted in (K, B)
arrays for linear regression at K = 10,000 and in (K, P) arrays for the
three-class MLP: each evaluation allocates only the (K, .) arrays it keeps
and a few transient ones.  The caller's draws and data are allocated
before tracing starts, so they do not count.  Inside `ad.reuse_buffers` a
second evaluation takes those arrays from the pool the first one filled.
Prediction is counted in theta blocks: it draws and evaluates its K samples
one block at a time, so its peak does not grow with K.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from bbalpha import autodiff as ad
from bbalpha import energy as en
from bbalpha import likelihoods as lk
from bbalpha import predict
from bbalpha.expfam import FactorizedGaussian
from bbalpha.optim import default_prior

# arrays of the problem's unit size: linreg keeps resid and the node's
# value, in which alpha_energy forms w and the linreg VJP its scratch; the
# reparam and mlp VJPs write into theta and into the hidden activations
BUDGET = {"linreg": 2.5, "mlp_classification": 4.5}
POOLED_BUDGET = 1.5   # the same, for an evaluation inside reuse_buffers


def _peak_bytes(call):
    call()                             # first-call set-up is not counted
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _problem(kind, rng):
    """(model, data, K, B, bytes of one unit array)."""
    if kind == "linreg":
        n, d, K, B = 100, 2, 10000, 32
        X = rng.normal(size=(n, d))
        y = X @ rng.normal(size=d) + rng.normal(0.0, 0.5, size=n)
        model = lk.LinearRegression(d, 0.25)
        unit = K * B * 8
    else:
        n, K, B = 64, 20, 32
        X = rng.normal(size=(n, 2))
        y = rng.integers(0, 3, size=n)
        model = lk.MLPClassification(2, 50, 50, 3)
        unit = K * model.theta_dim * 8
    return model, lk.Dataset(X, y), K, B, unit


def _evaluation(kind, alpha):
    """(one MC evaluation as a call, bytes of one unit array)."""
    rng = np.random.default_rng(0)
    model, data, K, B, unit = _problem(kind, rng)
    dim = model.theta_dim
    q = FactorizedGaussian(rng.normal(0.0, 0.3, size=dim), np.full(dim, -3.0))
    prior = default_prior(dim)
    eps = rng.standard_normal((K, dim))
    a = None if alpha is None else en.AlphaParam(alpha, data.n)
    batch = np.arange(B)
    return (lambda: en.bbalpha_energy_mc(q, prior, model, data, batch, a,
                                         eps)), unit


@pytest.mark.parametrize("alpha", [0.5, None])
@pytest.mark.parametrize("kind", ["linreg", "mlp_classification"])
def test_one_evaluation_stays_within_budget(kind, alpha):
    call, unit = _evaluation(kind, alpha)
    peak = _peak_bytes(call)
    assert peak <= BUDGET[kind] * unit, "peak %.2f unit arrays" % (peak / unit)


@pytest.mark.parametrize("alpha", [0.5, None])
@pytest.mark.parametrize("kind", ["linreg", "mlp_classification"])
def test_a_pooled_evaluation_stays_within_budget(kind, alpha, monkeypatch):
    call, unit = _evaluation(kind, alpha)
    with ad.reuse_buffers():
        call()
        # pool buffers are mappings tracemalloc does not see: the second
        # evaluation must take every one of them from the pool
        mapped = []
        monkeypatch.setattr(ad, "_mapped", lambda *a: mapped.append(a))
        peak = _peak_bytes(call)
    assert not mapped
    assert peak <= POOLED_BUDGET * unit, "peak %.2f unit arrays" % (peak / unit)


@pytest.mark.parametrize("alpha", [0.5, None])
def test_a_pooled_mlp_evaluation_maps_two_theta_sized_buffers(alpha,
                                                              monkeypatch):
    # theta, and alpha_energy's theta^2, which it hands back before the
    # mlp VJP asks for its (K, P) gradient
    call, _ = _evaluation("mlp_classification", alpha)
    model, _, K, _, _ = _problem("mlp_classification", np.random.default_rng(0))
    mapped, real = [], ad._mapped
    monkeypatch.setattr(ad, "_mapped",
                        lambda shape, dtype: mapped.append(shape)
                        or real(shape, dtype))
    with ad.reuse_buffers():
        call()
    assert mapped.count((K, model.theta_dim)) == 2


def test_prediction_peak_stays_within_one_budget_at_k_100_and_400():
    # two theta blocks (one drawn while the last one is still held), their
    # activations over 30 rows, and the (K, C, 30) outputs the reduction
    # reads, small at these K; the whole (K, P) theta is 4.4 blocks at K = 100
    model = lk.MLPClassification(2, 50, 50, 3)
    P = model.theta_dim
    rng = np.random.default_rng(0)
    q = FactorizedGaussian(rng.normal(0.0, 0.3, size=P), np.full(P, -3.0))
    X = rng.normal(size=(30, 2))
    budget = 3.5 * predict.THETA_BLOCK
    for k_samples in (100, 400):
        peak = _peak_bytes(lambda: predict.predict_class(q, model, X, k_samples, 1))
        assert peak <= budget, "K %d: peak %.2f theta blocks" % (
            k_samples, peak / predict.THETA_BLOCK)


def test_softmax_average_holds_few_output_arrays_at_256_rows():
    # at K = 400 the (K, C, 256) outputs outweigh a theta block's
    # activations: the concatenated logits, logsumexp's shifted
    # exponentials and its (K, 1, B) rows, with the softmax formed in the
    # logits' own array
    model = lk.MLPClassification(2, 50, 50, 3)
    P, K, rows = model.theta_dim, 400, predict.ROW_BLOCK
    rng = np.random.default_rng(0)
    q = FactorizedGaussian(rng.normal(0.0, 0.3, size=P), np.full(P, -3.0))
    X = rng.normal(size=(rows, 2))
    unit = K * model.n_classes * rows * 8
    peak = _peak_bytes(lambda: predict.predict_class(q, model, X, K, 1))
    assert peak <= 3.5 * unit, "peak %.2f output arrays" % (peak / unit)
