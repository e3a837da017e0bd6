"""Tied-site power-EP energies.

Monte-Carlo reparameterized estimator of the alpha energy with minibatch
scaling, its variational (alpha -> 0) counterpart, the closed-form energy
for conjugate linear regression, the lower-bound certificate and the
moment-matching stationarity residual.

The central numerical decision: log E_q[(p/f)^alpha] is always computed as
logsumexp(alpha * delta_k) - log K with a max shift, never by exponentiating
alpha * delta directly.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ImproperCavity, ImproperTilted
from .expfam import FactorizedGaussian, NaturalParams, nat_to_meanvar

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class AlphaParam:
    """Divergence parameter alpha together with the dataset size N."""

    alpha: float
    n_data: int

    def __post_init__(self):
        if self.alpha == 0.0:
            raise ValueError("alpha = 0 is served by the VB energy path")
        if self.alpha == self.n_data:
            raise ValueError("alpha = N makes the site exponent degenerate")


@dataclass
class EnergyEstimate:
    """Energy value, gradient over trainable slots and sampling provenance."""

    value: float
    grad: np.ndarray
    alpha: float
    k: int
    batch_ids: np.ndarray


def _prior_mv(prior: NaturalParams):
    mv = nat_to_meanvar(prior)
    return mv.mu, np.log(mv.var)


def _nat_from_mu_logvar(mu, log_var):
    inv_var = ad.exp(-log_var)
    return mu * inv_var, -0.5 * inv_var


def _log_partition_expr(mu, log_var):
    return ad.asum(0.5 * mu * mu * ad.exp(-log_var) + 0.5 * (_LOG_2PI + log_var))


def _check_cavity(log_var, p_log_var, n_data, alpha):
    """Numeric properness check of lambda_q - alpha * lambda."""
    e2q = -0.5 * np.exp(-log_var)
    e20 = -0.5 * np.exp(-p_log_var)
    cav2 = e2q - alpha * (e2q - e20) / n_data
    if np.any(cav2 >= 0.0):
        raise ImproperCavity("cavity eta2 >= 0 at alpha=%g" % alpha)


def _mc_expr(mu, log_var, p_mu, p_log_var, model, X, y, n_data, alpha, eps,
             hyper=None, vb=False):
    """Shared MC energy expression; alpha is ignored when vb=True."""
    K, B = eps.shape[0], X.shape[0]
    eta1q, eta2q = _nat_from_mu_logvar(mu, log_var)
    eta1_0, eta2_0 = _nat_from_mu_logvar(p_mu, p_log_var)
    logZq = _log_partition_expr(mu, log_var)
    logZ0 = _log_partition_expr(p_mu, p_log_var)
    l1 = (eta1q - eta1_0) / n_data
    l2 = (eta2q - eta2_0) / n_data

    theta = mu + ad.exp(0.5 * log_var) * eps          # (K, dim)
    logf = ad.dot(theta, l1) + ad.dot(theta * theta, l2)   # (K,)
    loglik = model.batch_log_lik(theta, X, y, hyper=hyper)  # (K, B)
    delta = loglik - ad.reshape(logf, (K, 1))

    if vb:
        like = ad.asum(delta) / K
        return logZ0 - logZq - (n_data / B) * like
    lse = ad.logsumexp(alpha * delta, axis=0) - np.log(K)   # (B,)
    return logZ0 - logZq - (n_data / (alpha * B)) * ad.asum(lse)


def _slots_and_unpack(q, hyper, learn_noise, prior, learn_prior):
    p_mu, p_log_var = _prior_mv(prior)
    slots = [q.mu.copy(), q.log_var.copy()]
    if learn_noise:
        slots.append(np.atleast_1d(float(hyper)))
    if learn_prior:
        slots.extend([p_mu.copy(), p_log_var.copy()])

    def unpack(vs):
        mu, log_var = vs[0], vs[1]
        i = 2
        h = hyper
        pm, plv = p_mu, p_log_var
        if learn_noise:
            h = vs[i][0]
            i += 1
        if learn_prior:
            pm, plv = vs[i], vs[i + 1]
        return mu, log_var, h, pm, plv

    return slots, unpack


def bbalpha_energy_mc(q: FactorizedGaussian, prior: NaturalParams, model, data,
                      batch, alpha: AlphaParam, eps, hyper=None,
                      learn_noise=False, learn_prior=False) -> EnergyEstimate:
    """Reparameterized minibatch estimator of the tied-site alpha energy.

    `eps` is a (K, dim) matrix of standard-normal draws supplied by the
    caller, which controls the refresh schedule.  The gradient covers
    (mu, log_var) plus, when enabled, log sigma2 and the prior slots.
    """
    batch = np.asarray(batch, dtype=int)
    if batch.size == 0:
        raise ValueError("empty minibatch")
    a, N = alpha.alpha, alpha.n_data
    _check_cavity(q.log_var, _prior_mv(prior)[1], N, a)
    X, y = data.features[batch], data.targets[batch]
    slots, unpack = _slots_and_unpack(q, hyper, learn_noise, prior, learn_prior)

    def f(*vs):
        mu, log_var, h, pm, plv = unpack(vs)
        return _mc_expr(mu, log_var, pm, plv, model, X, y, N, a, eps, hyper=h)

    value, grads = ad.value_and_grad(f, slots)
    return EnergyEstimate(value, np.concatenate([np.ravel(g) for g in grads]),
                          a, eps.shape[0], batch)


def vb_energy_mc(q: FactorizedGaussian, prior: NaturalParams, model, data,
                 batch, eps, hyper=None, learn_noise=False,
                 learn_prior=False) -> EnergyEstimate:
    """Monte-Carlo variational free energy, the alpha -> 0 limit."""
    batch = np.asarray(batch, dtype=int)
    if batch.size == 0:
        raise ValueError("empty minibatch")
    X, y = data.features[batch], data.targets[batch]
    slots, unpack = _slots_and_unpack(q, hyper, learn_noise, prior, learn_prior)

    def f(*vs):
        mu, log_var, h, pm, plv = unpack(vs)
        return _mc_expr(mu, log_var, pm, plv, model, X, y, data.n, None, eps,
                        hyper=h, vb=True)

    value, grads = ad.value_and_grad(f, slots)
    return EnergyEstimate(value, np.concatenate([np.ravel(g) for g in grads]),
                          0.0, eps.shape[0], batch)


# ---------------------------------------------------------------------------
# closed forms for conjugate linear regression

def _exact_expr(mu, log_var, p_mu, p_log_var, X, y, sigma2, alpha, n_data):
    """Closed form of the tied-site energy for Gaussian likelihoods.

    The rank-one tilted precision diag(d) + (alpha/sigma2) x x^T is handled
    with Sherman-Morrison and the matrix determinant lemma so the whole
    expression stays within elementwise autodiff primitives.
    """
    N, dim = X.shape
    eta1q, eta2q = _nat_from_mu_logvar(mu, log_var)
    eta1_0, eta2_0 = _nat_from_mu_logvar(p_mu, p_log_var)
    logZq = _log_partition_expr(mu, log_var)
    logZ0 = _log_partition_expr(p_mu, p_log_var)
    l1 = (eta1q - eta1_0) / n_data
    l2 = (eta2q - eta2_0) / n_data
    cav1 = eta1q - alpha * l1
    cav2 = eta2q - alpha * l2
    d = -2.0 * cav2
    if np.any(ad._val(d) <= 0.0):
        raise ImproperCavity("cavity eta2 >= 0 at alpha=%g" % alpha)
    c = alpha / sigma2

    h = ad.reshape(cav1, (1, dim)) + c * y[:, None] * X      # (N, dim)
    inv_d = ad.reshape(1.0 / d, (1, dim))
    s1 = ad.asum(h * h * inv_d, axis=1)
    s2 = ad.asum(h * X * inv_d, axis=1)
    s3 = ad.asum(X * X * inv_d, axis=1)
    denom = 1.0 + c * s3
    if np.any(ad._val(denom) <= 0.0):
        raise ImproperTilted("tilted precision not positive definite")
    quad = s1 - c * s2 * s2 / denom
    logdet = ad.asum(ad.log(d)) + ad.log(denom)              # (N,)
    logint = (-0.5 * alpha * np.log(2 * np.pi * sigma2)
              - alpha * y * y / (2.0 * sigma2)
              + 0.5 * quad + 0.5 * dim * _LOG_2PI - 0.5 * logdet)
    log_eq = logint - logZq
    return logZ0 - logZq - ad.asum(log_eq) / alpha


def bbalpha_energy_exact(q: FactorizedGaussian, prior: NaturalParams, model,
                         data, alpha: AlphaParam) -> float:
    """Exact tied-site energy; conjugate (Gaussian-likelihood) models only."""
    if model.kind != "linreg":
        raise ConfigError("exact energy requires a conjugate linreg model")
    p_mu, p_log_var = _prior_mv(prior)
    return float(_exact_expr(q.mu, q.log_var, p_mu, p_log_var, data.features,
                             np.asarray(data.targets, float), model.sigma2,
                             alpha.alpha, alpha.n_data))


def bbalpha_energy_exact_grad(q, prior, model, data, alpha: AlphaParam,
                              learn_prior=False) -> EnergyEstimate:
    """Exact energy with its gradient over (mu, log_var[, prior slots])."""
    if model.kind != "linreg":
        raise ConfigError("exact energy requires a conjugate linreg model")
    X = data.features
    y = np.asarray(data.targets, float)
    slots, unpack = _slots_and_unpack(q, None, False, prior, learn_prior)

    def f(*vs):
        mu, log_var, _, pm, plv = unpack(vs)
        return _exact_expr(mu, log_var, pm, plv, X, y, model.sigma2,
                           alpha.alpha, alpha.n_data)

    value, grads = ad.value_and_grad(f, slots)
    return EnergyEstimate(value, np.concatenate([np.ravel(g) for g in grads]),
                          alpha.alpha, 0, np.arange(data.n))


def vb_energy_exact(q: FactorizedGaussian, prior: NaturalParams, model,
                    data) -> float:
    """Closed-form variational free energy for conjugate linear regression.

    E_q[log p(y|theta,x)] is analytic for the Gaussian likelihood; the KL
    term is the diagonal-Gaussian KL from q to the prior.
    """
    if model.kind != "linreg":
        raise ConfigError("exact energy requires a conjugate linreg model")
    mv_p = nat_to_meanvar(prior)
    var_q = q.var
    kl = 0.5 * np.sum(np.log(mv_p.var) - q.log_var
                      + (var_q + (q.mu - mv_p.mu) ** 2) / mv_p.var - 1.0)
    X, y = data.features, np.asarray(data.targets, float)
    s2 = model.sigma2
    resid = y - X @ q.mu
    exp_ll = np.sum(-0.5 * np.log(2 * np.pi * s2)
                    - (resid ** 2 + (X ** 2) @ var_q) / (2 * s2))
    return float(kl - exp_ll)


def lower_bound_certificate(q, prior, model, data, alpha: AlphaParam) -> float:
    """E(lambda_0, lambda_q) minus its q-independent lower bound G~(N).

    G~(N) = -(1/N) sum_n log int p0 p(y_n|.)^N is the exact energy at
    alpha = N with q equal to the prior.
    """
    if alpha.alpha > alpha.n_data:
        raise ValueError("certificate only holds for alpha <= N")
    e = bbalpha_energy_exact(q, prior, model, data, alpha)
    N = alpha.n_data
    p_mu, p_log_var = _prior_mv(prior)
    g = _exact_expr(p_mu, p_log_var, p_mu, p_log_var, data.features,
                    np.asarray(data.targets, float), model.sigma2, float(N), N)
    return e - float(g)


def stationarity_residual(q, prior, model, data, alpha: AlphaParam) -> float:
    """Max-norm violation of the averaged moment-matching condition.

    E_q[s(theta)] versus the average of tilted-distribution moments, with
    all tilted moments computed in closed form (conjugate model only).
    """
    from .oracle import tilted_moments_linreg
    if model.kind != "linreg":
        raise ConfigError("stationarity residual requires a conjugate model")
    a, N = alpha.alpha, alpha.n_data
    q_nat = q.to_nat()
    prior_e1, prior_e2 = prior.eta1, prior.eta2
    l1 = (q_nat.eta1 - prior_e1) / N
    l2 = (q_nat.eta2 - prior_e2) / N
    cav1 = q_nat.eta1 - a * l1
    cav2 = q_nat.eta2 - a * l2
    if np.any(cav2 >= 0.0):
        raise ImproperCavity("cavity eta2 >= 0 at alpha=%g" % a)
    X, y = data.features, np.asarray(data.targets, float)
    first = np.zeros(q.dim)
    second = np.zeros(q.dim)
    for n in range(data.n):
        m, cov, _ = tilted_moments_linreg(cav1, cav2, X[n], y[n],
                                          model.sigma2, a)
        first += m
        second += np.diag(cov) + m ** 2
    first /= data.n
    second /= data.n
    var_q = q.var
    res1 = np.abs(q.mu - first)
    res2 = np.abs(var_q + q.mu ** 2 - second)
    return float(max(res1.max(), res2.max()))
