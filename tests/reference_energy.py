"""The Monte-Carlo energy recorded op by op on the tape.

This is the expression the library evaluated before its Gaussian arithmetic
became one hand-differentiated node; every step is a tape primitive, so its
gradient comes from the primitives' VJPs alone.  Tests compare the fused
node's value and gradient against it.
"""

import numpy as np

from bbalpha import autodiff as ad

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
