"""Energy estimators: MC vs closed form, VB limit, bound and stationarity."""

import numpy as np
import pytest

from bbalpha import energy as en
from bbalpha import likelihoods as lk
from bbalpha import oracle
from bbalpha.energy import AlphaParam
from bbalpha.errors import ImproperCavity
from bbalpha.expfam import FactorizedGaussian, NaturalParams
from bbalpha.optim import default_prior


def _conjugate_problem(seed, n=12, d=3, sigma2=0.8):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    data = lk.Dataset(X, y)
    model = lk.LinearRegression(d, sigma2)
    q = FactorizedGaussian(rng.normal(0, 0.3, size=d),
                           rng.normal(-0.5, 0.3, size=d))
    return data, model, q, default_prior(d)


def test_alpha_param_validation():
    with pytest.raises(ValueError):
        AlphaParam(0.0, 10)
    with pytest.raises(ValueError):
        AlphaParam(10.0, 10)
    assert AlphaParam(-1.0, 10).alpha == -1.0


def test_mc_estimator_converges_to_exact_energy():
    data, model, q, prior = _conjugate_problem(0)
    alpha = AlphaParam(0.8, data.n)
    exact = en.bbalpha_energy_exact(q, prior, model, data, alpha)
    eps = np.random.default_rng(1).standard_normal((400000, q.dim))
    est = en.bbalpha_energy_mc(q, prior, model, data, np.arange(data.n),
                               alpha, eps)
    assert np.isclose(est.value, exact, rtol=2e-3)


def test_vb_mc_converges_to_exact_free_energy():
    data, model, q, prior = _conjugate_problem(2)
    exact = en.vb_energy_exact(q, prior, model, data)
    eps = np.random.default_rng(3).standard_normal((400000, q.dim))
    est = en.vb_energy_mc(q, prior, model, data, np.arange(data.n), eps)
    assert np.isclose(est.value, exact, rtol=2e-3)


def test_exact_energy_approaches_vb_as_alpha_vanishes():
    data, model, q, prior = _conjugate_problem(4)
    vb = en.vb_energy_exact(q, prior, model, data)
    gaps = [abs(en.bbalpha_energy_exact(q, prior, model, data,
                                        AlphaParam(a, data.n)) - vb)
            for a in (1e-2, 1e-3, 1e-4)]
    # the gap closes linearly in alpha
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[0] / gaps[1] == pytest.approx(10.0, rel=0.2)
    assert gaps[1] / gaps[2] == pytest.approx(10.0, rel=0.2)


def test_mc_alpha_near_zero_matches_vb_on_shared_eps():
    data, model, q, prior = _conjugate_problem(5)
    eps = np.random.default_rng(6).standard_normal((200, q.dim))
    batch = np.arange(data.n)
    a = en.bbalpha_energy_mc(q, prior, model, data, batch,
                             AlphaParam(1e-6, data.n), eps)
    v = en.vb_energy_mc(q, prior, model, data, batch, eps)
    assert np.isclose(a.value, v.value, rtol=1e-4)
    assert np.allclose(a.grad, v.grad, rtol=1e-3, atol=1e-6)


def test_minibatch_estimator_is_unbiased_over_batches():
    # average of per-batch energies over a partition equals the full-batch
    # energy (the data term is linear in the batch composition)
    data, model, q, prior = _conjugate_problem(7, n=8)
    alpha = AlphaParam(0.5, data.n)
    eps = np.random.default_rng(8).standard_normal((500, q.dim))
    full = en.bbalpha_energy_mc(q, prior, model, data, np.arange(8), alpha, eps)
    halves = [en.bbalpha_energy_mc(q, prior, model, data, idx, alpha, eps).value
              for idx in (np.arange(4), np.arange(4, 8))]
    assert np.isclose(np.mean(halves), full.value, rtol=1e-10)


def test_improper_cavity_raises():
    data, model, q, prior = _conjugate_problem(10)
    # a huge positive alpha removes far more precision than q carries
    big = AlphaParam(10000.0, data.n)
    eps = np.random.default_rng(0).standard_normal((10, q.dim))
    with pytest.raises(ImproperCavity):
        en.bbalpha_energy_mc(q, prior, model, data, np.arange(data.n), big, eps)
    with pytest.raises(ImproperCavity):
        en.bbalpha_energy_exact(q, prior, model, data, big)


def test_empty_batch_rejected():
    data, model, q, prior = _conjugate_problem(11)
    eps = np.zeros((5, q.dim))
    with pytest.raises(ValueError):
        en.bbalpha_energy_mc(q, prior, model, data, np.array([], dtype=int),
                             AlphaParam(0.5, data.n), eps)


def test_exact_energy_requires_conjugate_model():
    data, model, q, prior = _conjugate_problem(12)
    probit = lk.ProbitRegression(q.dim)
    with pytest.raises(ValueError):
        en.bbalpha_energy_exact(q, prior, probit, data, AlphaParam(0.5, data.n))


def test_lower_bound_certificate_positive():
    data, model, q, prior = _conjugate_problem(13)
    for a in (0.5, 1.0, 5.0):
        cert = en.lower_bound_certificate(q, prior, model, data,
                                          AlphaParam(a, data.n))
        assert cert >= -1e-8
    with pytest.raises(ValueError):
        en.lower_bound_certificate(q, prior, model, data,
                                   AlphaParam(float(data.n + 1), data.n))


def test_certificate_bound_matches_dense_oracle():
    # G~(N) = E - certificate against -mean_n(log_norm_n - log Z0), where
    # log_norm_n is the dense-algebra tilted normalizer of prior * p_n^N
    for seed in range(20):
        data, model, q, prior = _conjugate_problem(100 + seed)
        if seed % 2:
            rng = np.random.default_rng(seed)
            var = rng.uniform(0.3, 3.0, size=q.dim)
            prior = NaturalParams(rng.normal(size=q.dim) / var, -0.5 / var)
        alpha = AlphaParam(0.5, data.n)
        g = (en.bbalpha_energy_exact(q, prior, model, data, alpha)
             - en.lower_bound_certificate(q, prior, model, data, alpha))
        log_norms = [oracle.tilted_moments_linreg(
            prior.eta1, prior.eta2, x, t, model.sigma2, float(data.n))[2]
            for x, t in zip(data.features, data.targets)]
        want = -np.mean(np.array(log_norms)
                        - oracle._diag_log_partition(prior.eta1, prior.eta2))
        assert g == pytest.approx(want, rel=1e-10)


def test_stationarity_residual_zero_at_fixed_point():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(6, 2))
    y = rng.normal(size=6)
    s2 = 1.0
    a = 0.7
    q = oracle.bbalpha_fixed_point(X, y, s2, a)
    data = lk.Dataset(X, y)
    model = lk.LinearRegression(2, s2)
    res = en.stationarity_residual(q, default_prior(2), model, data,
                                   AlphaParam(a, 6))
    assert res < 1e-9


def test_stationarity_residual_positive_off_fixed_point():
    data, model, q, prior = _conjugate_problem(15)
    res = en.stationarity_residual(q, prior, model, data,
                                   AlphaParam(0.7, data.n))
    assert res > 1e-3
