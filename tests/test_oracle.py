"""Ground-truth oracles: divergences, tilted moments, fixed points, power EP."""

import numpy as np
import pytest

from bbalpha import oracle
from bbalpha.errors import (ConfigError, DomainError, NoConvergence,
                            UndefinedDivergence)
from bbalpha.oracle import GaussianDist


def _rand_gauss(rng, d):
    a = rng.normal(size=(d, d))
    return GaussianDist(rng.normal(size=d), a @ a.T + d * np.eye(d))


def test_kl_zero_iff_equal():
    rng = np.random.default_rng(0)
    p = _rand_gauss(rng, 3)
    q = _rand_gauss(rng, 3)
    assert oracle.kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)
    assert oracle.kl_divergence(p, q) > 0.0


@pytest.mark.parametrize("mu, cov, needle", [
    ([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]], "symmetric"),
    ([0.0, 0.0], [[1.0, 0.0], [0.0, -1.0]], "positive definite"),
    ([0.0, 0.0], [[1.0]], "does not match a mean of length 2"),
    ([0.0, 0.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "does not match"),
    ([np.nan], [[1.0]], "finite"),
], ids=["asymmetric", "indefinite", "short", "not_square", "nan_mean"])
def test_gaussian_rejects_bad_covariance(mu, cov, needle):
    with pytest.raises(ConfigError, match=needle):
        GaussianDist(mu, cov)


def test_kl_closed_form_1d():
    p = GaussianDist([1.0], [[2.0]])
    q = GaussianDist([0.0], [[1.0]])
    expect = 0.5 * (2.0 + 1.0 - 1.0 + np.log(1.0 / 2.0))
    assert np.isclose(oracle.kl_divergence(p, q), expect)


def test_alpha_divergence_limits_dispatch():
    rng = np.random.default_rng(1)
    p, q = _rand_gauss(rng, 2), _rand_gauss(rng, 2)
    assert oracle.alpha_divergence(p, q, 1.0) == oracle.kl_divergence(p, q)
    assert oracle.alpha_divergence(p, q, 0.0) == oracle.kl_divergence(q, p)


def test_alpha_divergence_continuity_at_limits():
    rng = np.random.default_rng(2)
    p, q = _rand_gauss(rng, 2), _rand_gauss(rng, 2)
    assert np.isclose(oracle.alpha_divergence(p, q, 1.0 - 1e-6),
                      oracle.kl_divergence(p, q), atol=1e-4)
    assert np.isclose(oracle.alpha_divergence(p, q, 1e-6),
                      oracle.kl_divergence(q, p), atol=1e-4)


def test_alpha_divergence_nonnegative_and_zero_at_equal():
    rng = np.random.default_rng(3)
    p, q = _rand_gauss(rng, 2), _rand_gauss(rng, 2)
    for a in [-1.0, -0.5, 0.25, 0.5, 0.75, 1.5]:
        try:
            d = oracle.alpha_divergence(p, q, a)
        except UndefinedDivergence:
            continue
        assert d >= 0.0, a
        assert oracle.alpha_divergence(p, p, a) == pytest.approx(0.0, abs=1e-10)


def test_alpha_divergence_hellinger_symmetry():
    rng = np.random.default_rng(4)
    p, q = _rand_gauss(rng, 2), _rand_gauss(rng, 2)
    assert np.isclose(oracle.alpha_divergence(p, q, 0.5),
                      oracle.alpha_divergence(q, p, 0.5))


def test_alpha_divergence_undefined_when_blend_not_pd():
    p = GaussianDist([0.0], [[10.0]])
    q = GaussianDist([0.0], [[0.1]])
    with pytest.raises(UndefinedDivergence):
        oracle.alpha_divergence(p, q, 5.0)


def test_alpha_divergence_against_quadrature_1d():
    p = GaussianDist([0.5], [[1.5]])
    q = GaussianDist([-0.3], [[0.8]])
    a = 0.7
    t = np.linspace(-30, 30, 200001)
    lp = -0.5 * (t - 0.5) ** 2 / 1.5 - 0.5 * np.log(2 * np.pi * 1.5)
    lq = -0.5 * (t + 0.3) ** 2 / 0.8 - 0.5 * np.log(2 * np.pi * 0.8)
    integral = np.trapezoid(np.exp(a * lp + (1 - a) * lq), t)
    expect = (1.0 - integral) / (a * (1 - a))
    assert np.isclose(oracle.alpha_divergence(p, q, a), expect, atol=1e-8)


def test_true_posterior_matches_direct_formula():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(8, 3))
    y = rng.normal(size=8)
    s2 = 0.7
    post = oracle.true_posterior_linreg(X, y, s2)
    prec = np.eye(3) + X.T @ X / s2
    assert np.allclose(np.linalg.inv(post.cov), prec)
    assert np.allclose(prec @ post.mu, X.T @ y / s2)
    with pytest.raises(DomainError):
        oracle.true_posterior_linreg(X, y, 0.0)


def test_tilted_moments_against_quadrature_1d():
    # 1-d cavity times a Gaussian likelihood to the power alpha
    cav1, cav2 = np.array([0.4]), np.array([-0.6])
    x, y, s2, a = np.array([1.3]), 0.9, 0.5, 0.7
    t = np.linspace(-20, 20, 400001)
    log_cav = cav1[0] * t + cav2[0] * t * t
    log_lik = -0.5 * np.log(2 * np.pi * s2) - (y - x[0] * t) ** 2 / (2 * s2)
    w = np.exp(log_cav + a * log_lik)
    Z = np.trapezoid(w, t)
    mean = np.trapezoid(t * w, t) / Z
    second = np.trapezoid(t * t * w, t) / Z
    mu, cov, log_norm = oracle.tilted_moments_linreg(cav1, cav2, x, y, s2, a)
    assert np.isclose(mu[0], mean, atol=1e-9)
    assert np.isclose(cov[0, 0], second - mean ** 2, atol=1e-9)
    assert np.isclose(log_norm, np.log(Z), atol=1e-9)


def test_fixed_point_matches_example1_closed_form():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.zeros(2)
    for a in [0.3, 0.8, 1.5]:
        for s2 in [0.5, 1.0, 2.0]:
            q = oracle.bbalpha_fixed_point(X, y, s2, a)
            lam_fp = 0.5 * (1.0 / q.var[0] - 1.0)
            assert np.isclose(lam_fp, oracle.example1_lambda(a, s2), atol=1e-9)


def test_fixed_point_matches_example2_closed_form():
    X = np.array([[1.0, -1.0], [-1.0, 1.0]])
    y = np.zeros(2)
    for a in [0.3, 0.8, 1.5]:
        q = oracle.bbalpha_fixed_point(X, y, 1.0, a)
        lam_fp = 0.5 * (1.0 / q.var[0] - 1.0)
        assert np.isclose(lam_fp, oracle.example2_lambda(a, 1.0), atol=1e-9)


def test_example_closed_forms_domain():
    for fn in (oracle.example1_lambda, oracle.example2_lambda):
        with pytest.raises(DomainError):
            fn(2.0, 1.0)
        with pytest.raises(DomainError):
            fn(0.0, 1.0)
        with pytest.raises(DomainError):
            fn(0.5, -1.0)
        for sigma2 in (np.inf, np.nan):
            with pytest.raises(DomainError, match="sigma2 must be positive and finite"):
                fn(0.5, sigma2)
        # lambda, about 1 / sigma2, is beyond the float range: no warning
        with pytest.raises(DomainError, match="is not finite"):
            fn(0.5, 1e-320)


@pytest.mark.parametrize("sigma2", [1e-300, 1e-3, 1.0, 1e6, 1e12, 1e16, 1e150,
                                    1e308])
@pytest.mark.parametrize("alpha", [0.01, 1.0, 1.99])
def test_example_closed_forms_match_mpmath(alpha, sigma2):
    mpmath = pytest.importorskip("mpmath")
    # the printed forms, in enough digits that their cancellation is exact
    with mpmath.workdps(700):
        a, s = mpmath.mpf(alpha), mpmath.mpf(sigma2)
        want = [(mpmath.sqrt(a ** 2 - 2 * a + (s + 1) ** 2) - a - s + 1)
                / (2 * s * (2 - a)),
                (mpmath.sqrt(4 * a ** 2 - 8 * a + s ** 2 + 4 * s + 4)
                 - (2 * a + s - 2)) / (2 * s * (2 - a))]
        got = [oracle.example1_lambda(alpha, sigma2),
               oracle.example2_lambda(alpha, sigma2)]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-15 * w, (g, w)


def test_fixed_point_no_convergence_carries_trace():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NoConvergence) as e:
        oracle.bbalpha_fixed_point(X, np.zeros(2), 1.0, 0.5, max_iter=2)
    assert len(e.value.trace) == 2


def test_power_ep_recovers_conjugate_posterior():
    # diagonal-design data keeps the true posterior factorized, so diagonal
    # sites are exact and one EP pass lands on the true posterior
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([1.0, 2.0])
    s2 = 1.0
    q, sites = oracle.power_ep_message_passing(X, y, s2, alpha=1.0)
    truth = oracle.true_posterior_linreg(X, y, s2)
    assert np.allclose(q.mu, truth.mu, atol=1e-10)
    assert np.allclose(np.diag(q.cov), np.diag(truth.cov), atol=1e-10)
    assert len(sites) == 2


def test_ep_energy_constraint_residual_zero_for_tied_cavities():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([1.0, 2.0])
    a, N = 0.7, 2
    q = oracle.bbalpha_fixed_point(X, y, 1.0, a)
    q_nat = q.to_nat()
    prior1 = np.zeros(2)
    prior2 = -0.5 * np.ones(2)
    l1 = (q_nat.eta1 - prior1) / N
    l2 = (q_nat.eta2 - prior2) / N
    cavs = [(q_nat.eta1 - a * l1, q_nat.eta2 - a * l2)] * N
    _, residual = oracle.ep_energy_constrained(q_nat, cavs,
                                               oracle.NaturalParams(prior1, prior2),
                                               X, y, 1.0, a)
    assert residual < 1e-10
