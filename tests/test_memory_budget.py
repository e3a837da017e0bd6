"""Allocation budget of one MC energy-plus-gradient evaluation.

The tracemalloc peak of one `bbalpha_energy_mc` call, counted in (K, B)
arrays for linear regression at K = 10,000 and in (K, P) arrays for the
three-class MLP: each evaluation allocates only the (K, .) arrays it keeps
and a few transient ones.  The caller's draws and data are allocated
before tracing starts, so they do not count.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from bbalpha import energy as en
from bbalpha import likelihoods as lk
from bbalpha.expfam import FactorizedGaussian
from bbalpha.optim import default_prior

BUDGET = 6.0          # arrays of the problem's unit size


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


@pytest.mark.parametrize("alpha", [0.5, None])
@pytest.mark.parametrize("kind", ["linreg", "mlp_classification"])
def test_one_evaluation_stays_within_budget(kind, alpha):
    rng = np.random.default_rng(0)
    model, data, K, B, unit = _problem(kind, rng)
    dim = model.theta_dim
    q = FactorizedGaussian(rng.normal(0.0, 0.3, size=dim), np.full(dim, -3.0))
    prior = default_prior(dim)
    eps = rng.standard_normal((K, dim))
    a = None if alpha is None else en.AlphaParam(alpha, data.n)
    batch = np.arange(B)

    peak = _peak_bytes(lambda: en.bbalpha_energy_mc(q, prior, model, data,
                                                    batch, a, eps))
    assert peak <= BUDGET * unit, "peak %.2f unit arrays" % (peak / unit)
