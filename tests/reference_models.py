"""References for the batched models of bbalpha.likelihoods: plain-numpy
ones for one theta and one row, and the MLP forward and the linear
regression log-likelihood recorded op by op on the tape.

The parameter vector is unpacked here without library code, in the packing
layout the models document: layer-major, each layer's weight matrix
(n_out, n_in) flattened row-major and followed by its bias (n_out,).
"""

import numpy as np
from scipy import special

from bbalpha import autodiff as ad


def mlp_layer_dims(model):
    """[(n_out, n_in), ...] per layer of an MLP model."""
    if model.kind == "mlp_regression":
        return [(model.n_hidden, model.d_in), (1, model.n_hidden)]
    return [(model.h1, model.d_in), (model.h2, model.h1),
            (model.n_classes, model.h2)]


def unpack(theta, dims):
    """[(W, b), ...] from a packed parameter vector."""
    layers, off = [], 0
    for n_out, n_in in dims:
        W = theta[off:off + n_out * n_in].reshape(n_out, n_in)
        off += n_out * n_in
        layers.append((W, theta[off:off + n_out]))
        off += n_out
    assert off == theta.size
    return layers


def output(model, theta, x):
    """theta^T x for the linear models; the network output (1,) or the
    class logits (C,) for the MLPs."""
    theta, x = np.asarray(theta, float), np.asarray(x, float)
    if model.kind in ("probit", "linreg"):
        return theta @ x
    layers = unpack(theta, mlp_layer_dims(model))
    a = x
    for i, (W, b) in enumerate(layers):
        a = W @ a + b
        if i < len(layers) - 1:
            a = np.maximum(a, 0.0)
    return a


def log_lik(model, theta, x, y, hyper=None):
    """log p(y | theta, x) for one parameter vector and one row."""
    out = output(model, theta, x)
    if model.kind == "probit":
        return special.log_ndtr(y * out)
    if model.kind == "linreg":
        s2 = model.sigma2
        return -0.5 * np.log(2 * np.pi * s2) - (y - out) ** 2 / (2 * s2)
    if model.kind == "mlp_regression":
        ls2 = model.log_sigma2 if hyper is None else hyper
        return (-0.5 * np.log(2 * np.pi) - 0.5 * ls2
                - (y - out[0]) ** 2 / (2 * np.exp(ls2)))
    return out[int(y)] - special.logsumexp(out)


def tape_forward(model, Theta, X):
    """An MLP's batch_forward as the library recorded it before the network
    became one `mlp` node: per layer, take and reshape W and b out of
    Theta, then bmm, add and (but for the output layer) relu."""
    X = np.atleast_2d(np.asarray(X, float))
    K = Theta.shape[0]
    dims = mlp_layer_dims(model)
    A, off = X.T, 0
    for i, (n_out, n_in) in enumerate(dims):
        W = ad.reshape(Theta[:, off:off + n_out * n_in], (K, n_out, n_in))
        off += n_out * n_in
        b = ad.reshape(Theta[:, off:off + n_out], (K, n_out, 1))
        off += n_out
        A = ad.bmm(W, A) + b
        if i < len(dims) - 1:
            A = ad.relu(A)
    if model.kind == "mlp_regression":
        return ad.reshape(A, (K, X.shape[0]))
    return A


def linreg_tape_log_lik(model, Theta, X, y):
    """LinearRegression.batch_log_lik as the library recorded it before it
    became one `linreg` node: dot, sub, mul, div and sub."""
    resid = np.asarray(y, float)[None, :] - ad.dot(Theta, np.asarray(X, float).T)
    return (-0.5 * np.log(2 * np.pi * model.sigma2)
            - resid * resid / (2 * model.sigma2))
