"""Posterior-predictive evaluation: Monte-Carlo mixtures over q samples.

Every function draws its K parameter samples once and evaluates all rows of
X with the model's `batch_forward`, ROW_BLOCK rows at a time, so peak memory
is bounded by K x ROW_BLOCK model activations whatever the number of rows.
Results are per-row arrays; every row sees the same K samples.
"""

import numpy as np

from . import autodiff as ad

# Test rows per batched forward pass.
ROW_BLOCK = 256


def _theta_samples(q, k_samples, seed):
    if k_samples == 1 and seed is None:
        return q.mu[None, :]
    theta = np.random.default_rng(seed).standard_normal((k_samples, q.dim))
    theta *= np.exp(0.5 * q.log_var)
    theta += q.mu
    return theta


def _noise_log_var(model, log_sigma2):
    if log_sigma2 is not None:
        return log_sigma2
    if hasattr(model, "log_sigma2"):
        return model.log_sigma2
    return np.log(model.sigma2)


def _by_row_block(fn, X, *row_args):
    """Apply fn(X_block, *row_arg_blocks) to consecutive row blocks and
    concatenate its (B, ...) result, or each array of a tuple result."""
    X = np.atleast_2d(np.asarray(X, float))
    parts = [fn(X[i:i + ROW_BLOCK], *(a[i:i + ROW_BLOCK] for a in row_args))
             for i in range(0, max(X.shape[0], 1), ROW_BLOCK)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def predict_loglik_regression(q, model, X, y, k_samples, seed, log_sigma2=None,
                              y_mean=0.0, y_std=1.0):
    """Per row of X, log of the K-component predictive mixture density at
    the raw-scale target y; returns (B,).

    The model operates on standardized targets; the Jacobian correction
    -log(y_std) maps the density back to the original scale.  seed=None with
    k_samples=1 collapses to the posterior-mean parameters.
    """
    theta = _theta_samples(q, k_samples, seed)
    log_sigma2 = _noise_log_var(model, log_sigma2)
    y_s = (np.atleast_1d(np.asarray(y, float)) - y_mean) / y_std

    def block(Xb, yb):
        outs = model.batch_forward(theta, Xb)        # (K, B)
        comp = (-0.5 * np.log(2 * np.pi) - 0.5 * log_sigma2
                - (yb[None, :] - outs) ** 2 / (2 * np.exp(log_sigma2)))
        return ad.logsumexp(comp, axis=0)

    lse = _by_row_block(block, X, y_s)
    return lse - np.log(theta.shape[0]) - np.log(y_std)


def predict_probit(q, model, X, k_samples, seed):
    """Monte-Carlo class probabilities [P(y=-1), P(y=+1)] per row; (B, 2)."""
    theta = _theta_samples(q, k_samples, seed)

    def block(Xb):
        p_pos = ad.norm_cdf(model.batch_forward(theta, Xb)).mean(axis=0)
        return np.stack([1.0 - p_pos, p_pos], axis=1)

    return _by_row_block(block, X)


def predict_class(q, model, X, k_samples, seed):
    """Monte-Carlo averaged softmax class probabilities per row; (B, C)."""
    theta = _theta_samples(q, k_samples, seed)

    def block(Xb):
        logits = model.batch_forward(theta, Xb)      # (K, C, B)
        probs = np.exp(logits - np.expand_dims(ad.logsumexp(logits, axis=1), 1))
        return probs.mean(axis=0).T

    return _by_row_block(block, X)


def predictive_regression_stats(q, model, X, k_samples, seed, log_sigma2=None):
    """Predictive mean and standard deviation on each row of X.

    Variance is the spread of network outputs across posterior samples plus
    the observation noise.
    """
    theta = _theta_samples(q, k_samples, seed)
    noise_var = np.exp(_noise_log_var(model, log_sigma2))

    def block(Xb):
        outs = model.batch_forward(theta, Xb)        # (K, B)
        return outs.mean(axis=0), np.sqrt(outs.var(axis=0) + noise_var)

    return _by_row_block(block, X)
