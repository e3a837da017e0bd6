"""Reverse-mode gradients against central finite differences."""

from typing import NamedTuple

import numpy as np

from bbalpha import autodiff as ad


class GradCheckReport(NamedTuple):
    """Per-coordinate comparison of reverse-mode vs central differences;
    `errors` holds one array of errors per slot."""

    max_rel_err: float
    worst_slot: int
    worst_index: tuple
    passed: bool
    errors: list


def check_gradient(f, at, step=1e-4, tol=1e-5, abs_floor=1e-8):
    """Compare value_and_grad's gradients of f against central differences.

    The probes call f on plain arrays, on which every op computes the value
    alone.  Coordinates where both gradients are below `abs_floor` in
    magnitude are compared absolutely; everything else relatively at
    threshold `tol`.  A non-finite probe or gradient is an infinite error,
    so it fails the check.
    """
    at = [np.asarray(a, dtype=float) for a in at]
    _, grads = ad.value_and_grad(f, at)
    max_rel, worst, errors = 0.0, (0, None), []
    for si, (a, g) in enumerate(zip(at, grads)):
        fd = np.zeros_like(a)
        for idx in np.ndindex(a.shape):
            hi = [x.copy() for x in at]
            lo = [x.copy() for x in at]
            hi[si][idx] += step
            lo[si][idx] -= step
            with np.errstate(all="ignore"):
                fd[idx] = (float(f(*hi)) - float(f(*lo))) / (2 * step)
        denom = np.maximum(np.abs(g), np.abs(fd))
        with np.errstate(invalid="ignore"):
            rel = np.abs(g - fd) / np.where(denom < abs_floor, 1.0, denom)
        # a NaN would compare false against tol and pass
        rel = np.where(np.isfinite(rel), rel, np.inf)
        errors.append(rel)
        if rel.size and rel.max() > max_rel:
            max_rel = float(rel.max())
            worst = (si, np.unravel_index(np.argmax(rel), rel.shape))
    return GradCheckReport(max_rel, worst[0], worst[1], max_rel <= tol, errors)
