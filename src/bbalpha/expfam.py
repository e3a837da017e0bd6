"""Diagonal-Gaussian exponential-family arithmetic.

Sufficient statistics are fixed as s(theta) = (theta_d, theta_d^2) per
dimension, so eta2 = -1/(2 var) for a normalizable factor.  Natural
parameters of the posterior q and of the prior live in this coordinate
system; the energy code forms the tied site and the cavities from them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonNormalizable, ShapeMismatch


def _as_vec(x):
    return np.atleast_1d(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class NaturalParams:
    """Natural parameters (eta1, eta2) of a normalizable diagonal Gaussian."""

    eta1: np.ndarray
    eta2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eta1", _as_vec(self.eta1))
        object.__setattr__(self, "eta2", _as_vec(self.eta2))
        if self.eta1.shape != self.eta2.shape:
            raise ShapeMismatch("eta1 %s vs eta2 %s" % (self.eta1.shape, self.eta2.shape))
        if np.any(self.eta2 >= 0.0):
            raise NonNormalizable("eta2 must be negative everywhere")

    @property
    def dim(self):
        return self.eta1.size


@dataclass(frozen=True)
class FactorizedGaussian:
    """Variational posterior q with unconstrained (mu, log_var) storage."""

    mu: np.ndarray
    log_var: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", _as_vec(self.mu))
        object.__setattr__(self, "log_var", _as_vec(self.log_var))
        if self.mu.shape != self.log_var.shape:
            raise ShapeMismatch("mu %s vs log_var %s" % (self.mu.shape, self.log_var.shape))
        if not (np.all(np.isfinite(self.mu)) and np.all(np.isfinite(self.log_var))):
            raise NonNormalizable("mu/log_var must be finite")

    @property
    def var(self):
        return np.exp(self.log_var)

    @property
    def dim(self):
        return self.mu.size

    def to_nat(self):
        """eta1 = mu / var, eta2 = -1 / (2 var), with 1 / var as one exp."""
        iv = np.exp(-self.log_var)
        return NaturalParams(self.mu * iv, -0.5 * iv)

