"""Posterior-predictive evaluation: Monte-Carlo mixtures over q samples.

Every function evaluates the rows of X with the model's `batch_forward`,
ROW_BLOCK rows at a time, and the K parameter samples THETA_BLOCK bytes of
them at a time, into the (K, ..., B) per-sample outputs of a row block that
its reduction reads.  So the samples and the model's activations take one
theta block and its activations over ROW_BLOCK rows, whatever K and the
number of rows; only those outputs, a few numbers per sample and row, grow
with K.  Results are per-row arrays; every row sees the same K samples,
drawn again for each row block, so a seed is None, an int, a sequence of
ints or a SeedSequence, and a Generator is refused.
"""

import numpy as np

from . import autodiff as ad

# Test rows per batched forward pass.
ROW_BLOCK = 256
# Bytes of parameter samples theta per batched forward pass.
THETA_BLOCK = 2 ** 19


def _block_rows(dim):
    """Samples per theta block: as many as fit in THETA_BLOCK, at least one."""
    return max(1, THETA_BLOCK // (8 * dim))


def _theta_blocks(q, k_samples, seed):
    """The (K, P) samples theta = mu + sd * eps as consecutive row blocks of
    at most THETA_BLOCK bytes; the eps are, in order, the rows of one
    (K, P) draw.  seed=None with k_samples=1 yields the posterior mean."""
    if k_samples == 1 and seed is None:
        yield q.mu[None, :]
        return
    rng = np.random.default_rng(seed)
    sd = np.exp(0.5 * q.log_var)
    rows = _block_rows(q.dim)
    for k in range(0, k_samples, rows):
        theta = rng.standard_normal((min(rows, k_samples - k), q.dim))
        theta *= sd
        theta += q.mu
        yield theta


def _sample_outputs(q, model, k_samples, seed):
    """A function of a row block Xb that returns `model.batch_forward` of
    all K samples on it, (K, ..., B), run one theta block at a time.  The
    samples are drawn again for each row block from the same seed, so seed
    must be None, an int, a sequence of ints or a SeedSequence; a Generator
    or BitGenerator, whose state moves on, is refused."""
    if isinstance(seed, (np.random.Generator, np.random.BitGenerator)):
        raise TypeError("seed must be None, an int, a sequence of ints or a "
                        "SeedSequence, not a %s" % type(seed).__name__)
    if seed is None and k_samples > 1:
        seed = np.random.SeedSequence()     # the same draws for every row block
    return lambda Xb: np.concatenate([model.batch_forward(theta, Xb) for theta
                                      in _theta_blocks(q, k_samples, seed)])


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
    forward = _sample_outputs(q, model, k_samples, seed)
    log_sigma2 = _noise_log_var(model, log_sigma2)
    y_s = (np.atleast_1d(np.asarray(y, float)) - y_mean) / y_std

    def block(Xb, yb):
        outs = forward(Xb)                           # (K, B)
        comp = (-0.5 * np.log(2 * np.pi) - 0.5 * log_sigma2
                - (yb[None, :] - outs) ** 2 / (2 * np.exp(log_sigma2)))
        return ad.logsumexp(comp, axis=0)

    lse = _by_row_block(block, X, y_s)
    return lse - np.log(k_samples) - np.log(y_std)


def predict_probit(q, model, X, k_samples, seed):
    """Monte-Carlo class probabilities [P(y=-1), P(y=+1)] per row; (B, 2)."""
    forward = _sample_outputs(q, model, k_samples, seed)

    def block(Xb):
        p_pos = ad.norm_cdf(forward(Xb)).mean(axis=0)
        return np.stack([1.0 - p_pos, p_pos], axis=1)

    return _by_row_block(block, X)


def predict_class(q, model, X, k_samples, seed):
    """Monte-Carlo averaged softmax class probabilities per row; (B, C)."""
    forward = _sample_outputs(q, model, k_samples, seed)

    def block(Xb):
        logits = forward(Xb)                         # (K, C, B)
        lse = np.expand_dims(ad.logsumexp(logits, axis=1), 1)
        # the softmax is formed in the logits' own array
        probs = np.exp(np.subtract(logits, lse, out=logits), out=logits)
        return probs.mean(axis=0).T

    return _by_row_block(block, X)


def predictive_regression_stats(q, model, X, k_samples, seed, log_sigma2=None):
    """Predictive mean and standard deviation on each row of X.

    Variance is the spread of network outputs across posterior samples plus
    the observation noise.
    """
    forward = _sample_outputs(q, model, k_samples, seed)
    noise_var = np.exp(_noise_log_var(model, log_sigma2))

    def block(Xb):
        outs = forward(Xb)                           # (K, B)
        return outs.mean(axis=0), np.sqrt(outs.var(axis=0) + noise_var)

    return _by_row_block(block, X)
