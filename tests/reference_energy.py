"""The Monte-Carlo and exact energies recorded op by op on the tape.

These are the expressions the library evaluated before each energy became
one hand-differentiated node; every step is a tape primitive, so their
gradients come from the primitives' VJPs alone.  Tests compare the fused
nodes' values and gradients against them.
"""

import numpy as np

from bbalpha import autodiff as ad
from bbalpha.errors import ImproperCavity, ImproperTilted

_LOG_2PI = np.log(2.0 * np.pi)


def _nat_from_mu_logvar(mu, log_var):
    inv_var = ad.exp(-log_var)
    return mu * inv_var, -0.5 * inv_var


def _log_partition_expr(mu, log_var):
    return ad.asum(0.5 * mu * mu * ad.exp(-log_var) + 0.5 * (_LOG_2PI + log_var))


def mc_expr(mu, log_var, p_mu, p_log_var, model, X, y, n_data, alpha, eps,
            hyper=None):
    """MC energy; alpha=None gives the variational free energy."""
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

    if alpha is None:
        like = ad.asum(delta) / K
        return logZ0 - logZq - (n_data / B) * like
    lse = ad.logsumexp(alpha * delta, axis=0) - np.log(K)   # (B,)
    return logZ0 - logZq - (n_data / (alpha * B)) * ad.asum(lse)


def exact_expr(mu, log_var, p_mu, p_log_var, X, y, sigma2, alpha, n_data):
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
