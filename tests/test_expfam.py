"""Exponential-family arithmetic for diagonal Gaussians."""

import numpy as np
import pytest

from bbalpha.errors import NonNormalizable, ShapeMismatch
from bbalpha.energy import _prior_mv
from bbalpha.expfam import FactorizedGaussian, NaturalParams
from bbalpha.oracle import _diag_log_partition


def test_nat_meanvar_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mu = rng.normal(size=4)
        var = rng.uniform(0.1, 5.0, size=4)
        nat = FactorizedGaussian(mu, np.log(var)).to_nat()
        back_mu, back_log_var = _prior_mv(nat, 4)
        assert np.allclose(back_mu, mu)
        assert np.allclose(np.exp(back_log_var), var)


def test_natural_params_must_be_normalizable():
    with pytest.raises(NonNormalizable):
        NaturalParams(np.zeros(2), np.array([-1.0, 0.5]))
    with pytest.raises(ShapeMismatch):
        NaturalParams(np.zeros(2), -np.ones(3))


def test_log_partition_against_quadrature():
    # 1-d check: Z(lambda) = int exp(eta1 t + eta2 t^2) dt
    nat = NaturalParams([0.7], [-0.4])
    t = np.linspace(-40, 40, 400001)
    integrand = np.exp(nat.eta1[0] * t + nat.eta2[0] * t * t)
    assert np.isclose(_diag_log_partition(nat.eta1, nat.eta2),
                      np.log(np.trapezoid(integrand, t)), atol=1e-8)


def test_log_partition_is_additive_over_dims():
    a = NaturalParams([0.3], [-0.2])
    b = NaturalParams([-1.0], [-0.7])
    ab = NaturalParams([0.3, -1.0], [-0.2, -0.7])
    logz = lambda n: _diag_log_partition(n.eta1, n.eta2)
    assert np.isclose(logz(ab), logz(a) + logz(b))


def test_factorized_gaussian_rejects_nonfinite():
    with pytest.raises(NonNormalizable):
        FactorizedGaussian([np.nan], [0.0])
