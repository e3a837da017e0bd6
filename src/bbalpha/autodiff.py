"""Reverse-mode automatic differentiation on a per-evaluation tape.

Scalar-output, array-valued reverse accumulation over a small set of
primitives (arithmetic, exp/log, rectifier, stable log-sum-exp, the normal
log-CDF, matrix products).  Every op works on plain numpy arrays when no
:class:`Var` is involved, so model code can be written once and evaluated
with or without gradients.

The gradients that :func:`value_and_grad` returns are fresh, writable arrays:
they share no memory with each other, with the inputs or with the tape.
"""

import numpy as np
from scipy import special

from .errors import NonFiniteIntermediate

_SQRT2 = np.sqrt(2.0)
_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


class Tape:
    """Ordered record of the Vars created during one evaluation."""

    def __init__(self):
        self.nodes = []


class Var:
    """A node on the tape: a numpy value plus vector-Jacobian closures."""

    __slots__ = ("value", "tape", "parents", "grad", "op_name")

    # make numpy defer to the reflected operators instead of building
    # object arrays of Vars
    __array_ufunc__ = None

    def __init__(self, value, tape, parents=(), op_name="leaf"):
        self.value = np.asarray(value, dtype=float)
        if not np.isfinite(self.value).all():
            raise NonFiniteIntermediate(op_name)
        self.tape = tape
        self.parents = parents  # tuple of (Var, vjp) pairs
        self.grad = None
        self.op_name = op_name
        tape.nodes.append(self)

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, idx):
        return take(self, idx)


def _val(x):
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=float)


def _is_var(*xs):
    return any(isinstance(x, Var) for x in xs)


def _tape_of(*xs):
    for x in xs:
        if isinstance(x, Var):
            return x.tape
    raise ValueError("no Var operand")


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape` to undo numpy broadcasting."""
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _binary(name, fwd, vjp_a, vjp_b):
    # the VJPs bind their operands as default arguments, not closure cells:
    # each cell is one more GC-tracked object, and more of them per node
    # make the cyclic collector run more often and promote live tapes to
    # older generations, where dead tapes then linger
    def op(a, b):
        a_var, b_var = isinstance(a, Var), isinstance(b, Var)
        av = a.value if a_var else np.asarray(a, dtype=float)
        bv = b.value if b_var else np.asarray(b, dtype=float)
        out = fwd(av, bv)
        if not (a_var or b_var):
            return out
        parents = []
        if a_var:
            if av.shape == out.shape:
                vjp = lambda g, av=av, bv=bv: vjp_a(g, av, bv)
            else:
                vjp = lambda g, av=av, bv=bv: _unbroadcast(vjp_a(g, av, bv), av.shape)
            parents.append((a, vjp))
        if b_var:
            if bv.shape == out.shape:
                vjp = lambda g, av=av, bv=bv: vjp_b(g, av, bv)
            else:
                vjp = lambda g, av=av, bv=bv: _unbroadcast(vjp_b(g, av, bv), bv.shape)
            parents.append((b, vjp))
        return Var(out, (a if a_var else b).tape, tuple(parents), name)

    return op


add = _binary("add", lambda a, b: a + b, lambda g, a, b: g, lambda g, a, b: g)
sub = _binary("sub", lambda a, b: a - b, lambda g, a, b: g, lambda g, a, b: -g)
mul = _binary("mul", lambda a, b: a * b, lambda g, a, b: g * b, lambda g, a, b: g * a)
div = _binary("div", lambda a, b: a / b,
              lambda g, a, b: g / b,
              lambda g, a, b: -g * a / (b * b))


def power(a, p):
    """a ** p with a constant exponent p."""
    if not isinstance(a, Var):
        return _val(a) ** p
    av = a.value
    out = av ** p
    return Var(out, a.tape, ((a, lambda g: g * p * av ** (p - 1)),), "pow")


def exp(a):
    if not isinstance(a, Var):
        return np.exp(_val(a))
    out = np.exp(a.value)
    return Var(out, a.tape, ((a, lambda g: g * out),), "exp")


def log(a):
    if not isinstance(a, Var):
        return np.log(_val(a))
    av = a.value
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log(av)
    return Var(out, a.tape, ((a, lambda g: g / av),), "log")


def sqrt(a):
    if not isinstance(a, Var):
        return np.sqrt(_val(a))
    out = np.sqrt(a.value)
    return Var(out, a.tape, ((a, lambda g: g * 0.5 / out),), "sqrt")


def relu(a):
    """max(a, 0); subgradient at 0 defined as 0."""
    if not isinstance(a, Var):
        return np.maximum(_val(a), 0.0)
    av = a.value
    mask = av > 0.0
    return Var(np.maximum(av, 0.0), a.tape, ((a, lambda g: g * mask),), "relu")


def asum(a, axis=None):
    """Sum of elements, optionally along one axis."""
    if not isinstance(a, Var):
        return np.sum(_val(a), axis=axis)
    av = a.value
    out = np.sum(av, axis=axis)

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, av.shape)
        return np.broadcast_to(np.expand_dims(g, axis), av.shape)

    return Var(out, a.tape, ((a, vjp),), "sum")


def _logsumexp_keepdims(a, axis):
    """scipy.special.logsumexp's algorithm for real input, keeping the
    reduced axes: the m tied maxima are counted apart from the shifted sum s
    of the other entries, and the result is log1p(s / m) + log(m) + max.
    Bit-identical to scipy, without its array-API dispatch."""
    if a.ndim == 0:
        return _logsumexp_keepdims(a.reshape(1), axis).reshape(())
    a_max = np.max(a, axis=axis, keepdims=True)
    tied = a == a_max
    m = np.sum(tied, axis=axis, keepdims=True, dtype=float)
    # in a slice of -inf entries, -inf - -inf is NaN; every such entry is a
    # tied maximum and is zeroed below, so the slice gives -inf as in scipy
    with np.errstate(invalid="ignore"):
        e = np.exp(a - a_max)
    e[tied] = 0.0
    s = np.sum(e, axis=axis, keepdims=True)
    return np.log1p(s / m) + np.log(m) + a_max


def logsumexp(a, axis=None):
    """Max-shifted log-sum-exp over one axis or over all elements."""
    if not isinstance(a, Var):
        return np.squeeze(_logsumexp_keepdims(_val(a), axis), axis=axis)
    av = a.value
    out_kd = _logsumexp_keepdims(av, axis)

    def vjp(g):
        soft = np.exp(av - out_kd)
        if axis is None:
            return g * soft
        return np.expand_dims(g, axis) * soft

    return Var(np.squeeze(out_kd, axis=axis), a.tape, ((a, vjp),), "logsumexp")


def log_norm_cdf(z):
    """log Phi(z), stable far into the left tail.

    The adjoint is the inverse Mills ratio phi(z)/Phi(z), written as
    sqrt(2/pi) / erfcx(-z/sqrt(2)).  The scaled complementary error function
    keeps it accurate and finite for large negative z (where it tends to
    -z - 1/z) and makes it exactly 0 for large positive z.
    """
    if not isinstance(z, Var):
        return special.log_ndtr(_val(z))
    zv = z.value
    out = special.log_ndtr(zv)
    ratio = _SQRT_2_OVER_PI / special.erfcx(-zv / _SQRT2)
    return Var(out, z.tape, ((z, lambda g: g * ratio),), "log_norm_cdf")


def dot(a, b):
    """Inner / matrix product: supports 1d.1d, 2d@1d, 1d@2d and 2d@2d."""
    if not _is_var(a, b):
        return _val(a) @ _val(b)
    tape = _tape_of(a, b)
    av, bv = _val(a), _val(b)
    out = av @ bv
    parents = []
    if isinstance(a, Var):
        def vjp_a(g, av=av, bv=bv):
            if av.ndim == 1 and bv.ndim == 1:
                return g * bv
            if av.ndim == 2 and bv.ndim == 1:
                return np.outer(g, bv)
            if av.ndim == 1 and bv.ndim == 2:
                return bv @ g
            return g @ bv.T
        parents.append((a, vjp_a))
    if isinstance(b, Var):
        def vjp_b(g, av=av, bv=bv):
            if av.ndim == 1 and bv.ndim == 1:
                return g * av
            if av.ndim == 2 and bv.ndim == 1:
                return av.T @ g
            if av.ndim == 1 and bv.ndim == 2:
                return np.outer(av, g)
            return av.T @ g
        parents.append((b, vjp_b))
    return Var(out, tape, tuple(parents), "dot")


def bmm(a, b):
    """Batched matrix product via numpy matmul broadcasting rules."""
    if not _is_var(a, b):
        return np.matmul(_val(a), _val(b))
    tape = _tape_of(a, b)
    av, bv = _val(a), _val(b)
    out = np.matmul(av, bv)
    parents = []
    if isinstance(a, Var):
        parents.append((a, lambda g, av=av, bv=bv: _unbroadcast(
            np.matmul(g, np.swapaxes(bv, -1, -2)), av.shape)))
    if isinstance(b, Var):
        parents.append((b, lambda g, av=av, bv=bv: _unbroadcast(
            np.matmul(np.swapaxes(av, -1, -2), g), bv.shape)))
    return Var(out, tape, tuple(parents), "bmm")


def _is_basic_index(idx):
    """True for ints, slices and tuples of them: each source element is
    selected at most once."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(isinstance(i, slice) or (isinstance(i, (int, np.integer))
                                        and not isinstance(i, bool))
               for i in parts)


def take(a, idx):
    """Basic/fancy indexing into a Var."""
    if not isinstance(a, Var):
        return _val(a)[idx]
    av = a.value
    basic = _is_basic_index(idx)

    def vjp(g):
        out = np.zeros_like(av)
        if basic:
            out[idx] = g
        else:
            # fancy indices may repeat; accumulate every occurrence
            np.add.at(out, idx, g)
        return out

    return Var(av[idx], a.tape, ((a, vjp),), "take")


def reshape(a, shape):
    if not isinstance(a, Var):
        return _val(a).reshape(shape)
    av = a.value
    return Var(av.reshape(shape), a.tape,
               ((a, lambda g: np.asarray(g).reshape(av.shape)),), "reshape")


def _backward(out):
    if out.value.shape != ():
        raise ValueError("backward pass requires a scalar output")
    out.grad = np.ones(())
    for node in reversed(out.tape.nodes):
        if node.grad is None:
            continue
        for parent, vjp in node.parents:
            g = vjp(node.grad)
            if parent.grad is None:
                parent.grad = g
            else:
                parent.grad = parent.grad + g
        if node.parents:
            # consumed; only leaf gradients are read after the pass, and a
            # tape awaiting the cyclic GC then holds its values alone
            node.grad = None


def value_and_grad(f, at):
    """Evaluate scalar expression f(*slots) and its gradient per slot.

    `at` is a sequence of arrays; returns (value, [grad per slot]).
    """
    tape = Tape()
    leaves = [Var(np.asarray(a, dtype=float), tape) for a in at]
    out = f(*leaves)
    if not isinstance(out, Var):
        # expression did not touch any slot; gradient is zero
        return float(np.asarray(out)), [np.zeros_like(l.value) for l in leaves]
    _backward(out)
    # a VJP may hand back node.grad itself or a read-only broadcast view;
    # adding +0.0 gives a fresh array, and turns a -0.0 first gradient into
    # the +0.0 an accumulation starting from zeros would give
    grads = [l.grad + 0.0 if l.grad is not None else np.zeros_like(l.value)
             for l in leaves]
    return float(out.value), grads


def gradient(f, at):
    """Gradient of scalar expression f at the given slot values."""
    return value_and_grad(f, at)[1]


class GradCheckReport:
    """Per-coordinate comparison of reverse-mode vs central differences."""

    def __init__(self, max_rel_err, worst_slot, worst_index, passed, errors):
        self.max_rel_err = max_rel_err
        self.worst_slot = worst_slot
        self.worst_index = worst_index
        self.passed = passed
        self.errors = errors

    def __repr__(self):
        return ("GradCheckReport(max_rel_err=%.3e, worst=slot %d idx %s, passed=%s)"
                % (self.max_rel_err, self.worst_slot, self.worst_index, self.passed))


def check_gradient(f, at, step=1e-4, tol=1e-5, abs_floor=1e-8):
    """Compare reverse-mode gradients against central finite differences.

    Coordinates where both gradients are below `abs_floor` in magnitude are
    compared absolutely; everything else relatively at threshold `tol`.
    """
    at = [np.asarray(a, dtype=float) for a in at]
    _, grads = value_and_grad(f, at)

    def eval_at(slots):
        tape = Tape()
        out = f(*[Var(s, tape) for s in slots])
        return float(_val(out))

    max_rel = 0.0
    worst = (0, None)
    errors = []
    for si, a in enumerate(at):
        fd = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            hi = [x.copy() for x in at]
            lo = [x.copy() for x in at]
            hi[si][idx] += step
            lo[si][idx] -= step
            fd[idx] = (eval_at(hi) - eval_at(lo)) / (2 * step)
            it.iternext()
        g = grads[si]
        denom = np.maximum(np.abs(g), np.abs(fd))
        small = denom < abs_floor
        rel = np.where(small, np.abs(g - fd), np.abs(g - fd) / np.where(small, 1.0, denom))
        errors.append(rel)
        if rel.size and rel.max() > max_rel:
            max_rel = float(rel.max())
            worst = (si, np.unravel_index(np.argmax(rel), rel.shape))
    return GradCheckReport(max_rel, worst[0], worst[1], max_rel <= tol, errors)
