"""Ground-truth machinery for verification.

Closed-form Gaussian alpha/KL divergences, exact conjugate posteriors, the
damped moment-matching fixed point of the tied-site energy, the printed
closed-form site precisions for the two worked linear-regression examples,
untied power-EP message passing, and the constrained-EP energy evaluator.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DomainError, ImproperCavity, ImproperTilted,
                     NoConvergence, UndefinedDivergence)
from .expfam import FactorizedGaussian, NaturalParams

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class GaussianDist:
    """Multivariate Gaussian with full covariance."""

    mu: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", np.atleast_1d(np.asarray(self.mu, float)))
        object.__setattr__(self, "cov", np.atleast_2d(np.asarray(self.cov, float)))
        if self.cov.shape != (self.mu.size, self.mu.size):
            raise ConfigError("covariance of shape %s does not match a mean of "
                              "length %d" % (self.cov.shape, self.mu.size))
        if not (np.all(np.isfinite(self.mu)) and np.all(np.isfinite(self.cov))):
            raise ConfigError("mean and covariance must be finite")
        if not np.allclose(self.cov, self.cov.T, atol=1e-12):
            raise ConfigError("covariance must be symmetric")
        if np.any(np.linalg.eigvalsh(self.cov) <= 0.0):
            raise ConfigError("covariance must be positive definite")

    @property
    def dim(self):
        return self.mu.size


def _quad(a, b, prec):
    """(a - b)' prec (a - b), with a and b scaled by a power of two so that
    their difference cannot overflow: the plain product's bits where it is
    finite, and inf, not NaN, where it overflows."""
    e = np.frexp(max(np.abs(a).max(), np.abs(b).max()))[1]
    d = np.ldexp(a, -e) - np.ldexp(b, -e)
    return np.ldexp(d @ prec @ d, 2 * e)


def kl_divergence(p: GaussianDist, q: GaussianDist) -> float:
    """KL[p||q] = E_p[log p - log q], closed form."""
    cov_q_inv = np.linalg.inv(q.cov)
    _, ld_p = np.linalg.slogdet(p.cov)
    _, ld_q = np.linalg.slogdet(q.cov)
    return float(0.5 * (np.trace(cov_q_inv @ p.cov) + _quad(q.mu, p.mu, cov_q_inv)
                        - p.dim + ld_q - ld_p))


def alpha_divergence(p: GaussianDist, q: GaussianDist, alpha) -> float:
    """D_alpha[p||q] = (1 - int p^a q^(1-a)) / (a (1-a)) for Gaussians, where
    2 log int p^a q^(1-a) = a log|P_p| + (1-a) log|P_q| - log|P_a|
    - a (1-a) dm' P_p P_a^-1 P_q dm for precisions P and P_a = a P_p + (1-a) P_q.

    alpha = 1 and alpha = 0 dispatch to the KL limits.  Raises
    UndefinedDivergence when P_a is not positive definite (the divergence is
    +infinity).  A value beyond the float range is inf, and one that is not
    a number there, such as at a precision beyond it, raises DomainError.
    """
    with np.errstate(all="ignore"):         # NaN is caught below
        if alpha in (0.0, 1.0):
            value = kl_divergence(p, q) if alpha == 1.0 else kl_divergence(q, p)
        else:
            prec_p, prec_q = np.linalg.inv(p.cov), np.linalg.inv(q.cov)
            blend_prec = alpha * prec_p + (1 - alpha) * prec_q
            if np.any(np.linalg.eigvalsh(blend_prec) <= 0.0):
                raise UndefinedDivergence("blend precision not PD at alpha=%g" % alpha)
            spread = _quad(p.mu, q.mu, prec_p @ np.linalg.solve(blend_prec, prec_q))
            log_int = 0.5 * (alpha * np.linalg.slogdet(prec_p)[1]
                             + (1 - alpha) * np.linalg.slogdet(prec_q)[1]
                             - np.linalg.slogdet(blend_prec)[1]
                             - alpha * (1 - alpha) * spread)
            value = (1.0 - np.exp(log_int)) / (alpha * (1.0 - alpha))
    if np.isnan(value):
        raise DomainError("D_alpha at alpha=%g is not a number in floating point"
                          % alpha)
    return float(value)


def true_posterior_linreg(X, y, sigma2) -> GaussianDist:
    """Exact posterior under a unit-Gaussian prior on the weights."""
    if not 0 < sigma2 < np.inf:
        raise DomainError("sigma2 must be positive and finite")
    X = np.atleast_2d(np.asarray(X, float))
    y = np.atleast_1d(np.asarray(y, float))
    d = X.shape[1]
    with np.errstate(over="ignore"):
        prec = np.eye(d) + (X.T @ X) / sigma2
    if not np.all(np.isfinite(prec)):
        raise DomainError("the posterior precision X'X / sigma2 is not finite "
                          "in floating point")
    try:
        cov = np.linalg.inv(prec)
    except np.linalg.LinAlgError:
        raise DomainError("the posterior precision X'X / sigma2 is singular "
                          "in floating point") from None
    mu = cov @ (X.T @ y) / sigma2
    return GaussianDist(mu, 0.5 * (cov + cov.T))


def tilted_moments_linreg(cav_eta1, cav_eta2, x, y, sigma2, alpha):
    """Moments of cavity * likelihood^alpha for one Gaussian-likelihood datum.

    The cavity is diagonal (eta1, eta2); the likelihood adds the rank-one
    precision (alpha/sigma2) x x^T.  Returns (mean, covariance, log_norm)
    where log_norm includes the likelihood's alpha-powered normalizer.
    """
    cav_eta1 = np.atleast_1d(np.asarray(cav_eta1, float))
    cav_eta2 = np.atleast_1d(np.asarray(cav_eta2, float))
    x = np.atleast_1d(np.asarray(x, float))
    d = -2.0 * cav_eta2
    if np.any(d <= 0.0):
        raise ImproperCavity("cavity eta2 >= 0")
    c = alpha / sigma2
    prec = np.diag(d) + c * np.outer(x, x)
    vals = np.linalg.eigvalsh(prec)
    if np.any(vals <= 0.0):
        raise ImproperTilted("tilted precision not positive definite")
    h = cav_eta1 + c * y * x
    cov = np.linalg.inv(prec)
    cov = 0.5 * (cov + cov.T)
    mu = cov @ h
    sign, logdet = np.linalg.slogdet(prec)
    log_norm = (0.5 * h @ mu + 0.5 * x.size * _LOG_2PI - 0.5 * logdet
                - 0.5 * alpha * np.log(2 * np.pi * sigma2)
                - alpha * y * y / (2 * sigma2))
    return mu, cov, float(log_norm)


def bbalpha_fixed_point(X, y, sigma2, alpha, damping=0.5, tol=1e-12,
                        max_iter=20000) -> FactorizedGaussian:
    """Damped fixed-point iteration on the averaged moment-matching condition.

    Each sweep computes every tilted distribution in closed form, averages
    first and (diagonal) second moments, converts the averaged moments back
    to natural parameters and damps the natural-parameter update.
    """
    X = np.atleast_2d(np.asarray(X, float))
    y = np.atleast_1d(np.asarray(y, float))
    N, dim = X.shape
    prior = NaturalParams(np.zeros(dim), -0.5 * np.ones(dim))
    e1 = prior.eta1.copy()
    e2 = prior.eta2.copy()
    trace = []
    for it in range(max_iter):
        l1 = (e1 - prior.eta1) / N
        l2 = (e2 - prior.eta2) / N
        cav1 = e1 - alpha * l1
        cav2 = e2 - alpha * l2
        first = np.zeros(dim)
        second = np.zeros(dim)
        for n in range(N):
            m, cov, _ = tilted_moments_linreg(cav1, cav2, X[n], y[n], sigma2, alpha)
            first += m
            second += np.diag(cov) + m ** 2
        first /= N
        second /= N
        var = second - first ** 2
        if np.any(var <= 0.0):
            raise ImproperTilted("averaged moments give non-positive variance")
        e1_new = first / var
        e2_new = -0.5 / var
        delta = max(np.max(np.abs(first - (-0.5 * e1 / e2))),
                    np.max(np.abs(second - (-0.5 / e2 + (0.5 * e1 / e2) ** 2))))
        trace.append(delta)
        e1 = (1 - damping) * e1 + damping * e1_new
        e2 = (1 - damping) * e2 + damping * e2_new
        if delta < tol:
            var_q = -0.5 / e2
            return FactorizedGaussian(e1 * var_q, np.log(var_q))
    raise NoConvergence("no fixed point after %d sweeps (last delta %.3e)"
                        % (max_iter, trace[-1]), trace)


def example1_lambda(alpha, sigma2) -> float:
    """Closed-form tied site precision for the axis-aligned two-point design."""
    return _closed_form(alpha, sigma2, sigma2)


def example2_lambda(alpha, sigma2) -> float:
    """Closed-form tied site precision for the anti-symmetric two-point design:
    example 1's at half the noise variance."""
    return _closed_form(alpha, sigma2, 0.5 * sigma2)


def _closed_form(alpha, sigma2, s):
    """Example 1's lambda = (sqrt(D) - alpha - s + 1) / (2 s (2 - alpha)) at
    noise variance s, with D = (s + 1)^2 - alpha (2 - alpha), in numpy floats.

    Rationalizing the numerator gives lambda = 1 / (sqrt(D) + s + alpha - 1),
    a sum for alpha > 1; for alpha <= 1, sqrt(D) - (1 - alpha) =
    s (s + 2) / (sqrt(D) + 1 - alpha), so lambda = 1 / (s (1 + (s + 2) /
    (sqrt(D) + 1 - alpha))).  With D = (1 - alpha)^2 + s (s + 2) nothing
    cancels, and halving the denominators keeps them inside the float range.
    """
    if not 0 < alpha < 2:
        raise DomainError("closed forms valid for 0 < alpha < 2")
    if not 0 < sigma2 < np.inf:
        raise DomainError("sigma2 must be positive and finite")
    s = np.float64(s)
    with np.errstate(over="ignore", divide="ignore"):
        root = np.hypot(1.0 - alpha, np.sqrt(s) * np.sqrt(s + 2.0))
        if alpha <= 1:
            value = 0.5 / (s * (0.5 + 0.5 * (s + 2.0) / (root + (1.0 - alpha))))
        else:
            value = 0.5 / (0.5 * root + 0.5 * s + 0.5 * (alpha - 1.0))
    if not np.isfinite(value):
        raise DomainError("lambda at alpha=%g, sigma2=%g is not finite in "
                          "floating point" % (alpha, sigma2))
    return float(value)


def power_ep_message_passing(X, y, sigma2, alpha, passes=50, tol=1e-13):
    """Untied power-EP sweeps with diagonal sites on conjugate regression.

    Returns the final q (as a diagonal GaussianDist) and the per-datum site
    natural parameters, a list of (eta1, eta2) pairs.
    """
    X = np.atleast_2d(np.asarray(X, float))
    y = np.atleast_1d(np.asarray(y, float))
    N, dim = X.shape
    prior1 = np.zeros(dim)
    prior2 = -0.5 * np.ones(dim)
    sites = [(np.zeros(dim), np.zeros(dim)) for _ in range(N)]
    q1 = prior1.copy()
    q2 = prior2.copy()
    for _ in range(passes):
        moved = 0.0
        for n in range(N):
            s1, s2 = sites[n]
            cav1 = q1 - alpha * s1
            cav2 = q2 - alpha * s2
            if np.any(cav2 >= 0.0):
                raise ImproperCavity("cavity eta2 >= 0 for site %d" % n)
            m, cov, _ = tilted_moments_linreg(cav1, cav2, X[n], y[n], sigma2, alpha)
            var = np.diag(cov)
            t1 = m / var
            t2 = -0.5 / var
            new_s1 = (t1 - cav1) / alpha
            new_s2 = (t2 - cav2) / alpha
            moved = max(moved, np.max(np.abs(new_s1 - s1)),
                        np.max(np.abs(new_s2 - s2)))
            sites[n] = (new_s1, new_s2)
            q1 = prior1 + sum(s[0] for s in sites)
            q2 = prior2 + sum(s[1] for s in sites)
        if moved < tol:
            break
    var_q = -0.5 / q2
    return GaussianDist(q1 * var_q, np.diag(var_q)), sites


def ep_energy_constrained(q_nat: NaturalParams, cavities, prior: NaturalParams,
                          X, y, sigma2, alpha):
    """Constrained power-EP energy value and its constraint residual.

    Evaluation only, no solver.  The residual is the max-norm violation of
    (N - alpha) lambda_q + alpha lambda_0 = sum_n lambda_cavity_n.
    """
    X = np.atleast_2d(np.asarray(X, float))
    y = np.atleast_1d(np.asarray(y, float))
    N = X.shape[0]
    logZ0 = _diag_log_partition(prior.eta1, prior.eta2)
    logZq = _diag_log_partition(q_nat.eta1, q_nat.eta2)
    total = logZ0 + (N / alpha - 1.0) * logZq
    sum1 = np.zeros(q_nat.dim)
    sum2 = np.zeros(q_nat.dim)
    for n, (c1, c2) in enumerate(cavities):
        _, _, log_norm = tilted_moments_linreg(c1, c2, X[n], y[n], sigma2, alpha)
        total -= log_norm / alpha
        sum1 += c1
        sum2 += c2
    res1 = (N - alpha) * q_nat.eta1 + alpha * prior.eta1 - sum1
    res2 = (N - alpha) * q_nat.eta2 + alpha * prior.eta2 - sum2
    residual = float(max(np.max(np.abs(res1)), np.max(np.abs(res2))))
    return float(total), residual


def _diag_log_partition(e1, e2):
    var = -0.5 / e2
    mu = e1 * var
    return float(np.sum(0.5 * mu ** 2 / var + 0.5 * np.log(2 * np.pi * var)))
