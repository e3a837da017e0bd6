"""Reverse-mode automatic differentiation on a per-evaluation tape.

Scalar-output, array-valued reverse accumulation over a small set of
primitives (arithmetic, exp/log, rectifier, stable log-sum-exp, the normal
log-CDF, matrix products).  Every op works on plain numpy arrays when no
:class:`Var` is involved, so model code can be written once and evaluated
with or without gradients.  The normal log-CDF and the plain-array normal
CDF share one numpy kernel of Cody's rational approximations, which
evaluates each element in its own range only.

The gradients that :func:`value_and_grad` returns are fresh, writable arrays:
they share no memory with each other, with the inputs or with the tape.

Inside a :func:`reuse_buffers` block, the fused nodes take their large arrays
from :func:`empty`, which lends them from a pool for the duration of one
:func:`value_and_grad` call: a node's values then live until that call
returns or raises, and the next evaluation writes into the same memory.  The
value and the gradients the call returns are still fresh.  Outside such a
call, :func:`empty` is ``np.empty``.

A buffer is reused once its last reader is done.  A node's value is valid
until its own VJP runs, after its consumers' (its only readers), so that
VJP may write into it; a node that owns its value and whose VJP does not read
it may lend it to its one consumer, as the log-likelihood node does to
`alpha_energy`.  `value_and_grad` reads the root's value before any VJP.
A scratch array that ends before the call does goes back to the pool at its
last use, by :func:`release`, and the next request of its shape and dtype
in the same call takes it: `alpha_energy`'s theta^2 becomes the `mlp` VJP's
(K, P) gradient.
"""

import math
import mmap
import threading
from contextlib import contextmanager

import numpy as np

from .errors import NonFiniteIntermediate


class _Buffers(threading.local):
    """Per-thread state of reuse_buffers: the free buffers, keyed by
    (shape, dtype), while a block is open, and the (free list, buffer)
    pairs lent to the value_and_grad call running inside it."""

    free = None
    lent = None


_buffers = _Buffers()


@contextmanager
def reuse_buffers():
    """Lend each evaluation's arrays from one pool for the whole block.

    Every step of a training loop allocates arrays of the same shapes; kept
    in a pool, they stay mapped, where freed ones are handed back to the
    operating system and faulted in again by the next step.  A nested block
    uses the outer block's pool; the pool is dropped when the outermost
    block exits.
    """
    if _buffers.free is not None:
        yield
        return
    _buffers.free = {}
    try:
        yield
    finally:
        _buffers.free = None


def _mapped(shape, dtype):
    """A pool buffer in an anonymous mapping of its own.  Outside the heap,
    it leaves no hole there for later allocations to miss, and its memory
    goes back to the operating system as soon as the pool drops it."""
    count = math.prod(shape)
    mapping = mmap.mmap(-1, max(count * dtype.itemsize, 1))
    return np.frombuffer(mapping, dtype, count).reshape(shape)


def empty(shape, dtype=float):
    """An uninitialized array, like ``np.empty(shape, dtype)``.

    Inside a reuse_buffers block and a value_and_grad call, it is a buffer of
    the pool that no other request of the same evaluation holds, and it goes
    back to the pool when the call returns or raises.
    """
    lent = _buffers.lent
    if lent is None:
        return np.empty(shape, dtype)
    key = (shape, dtype)            # as given: np.dtype() costs more
    free = _buffers.free.get(key)
    if free is None:
        free = _buffers.free[key] = []
    buf = free.pop() if free else _mapped(shape, np.dtype(dtype))
    lent.append((free, buf))        # the list it goes back to
    return buf


def release(buf):
    """Hand `buf` back to the pool before the value_and_grad call ends.

    The caller must not touch `buf` afterwards: the next :func:`empty` of
    its shape and dtype may return it.  An array the running call has not
    lent, or has lent and taken back already, is left alone, as is any
    array outside a pooled evaluation.
    """
    lent = _buffers.lent
    if lent is None:
        return
    for i in range(len(lent) - 1, -1, -1):     # scratch is lent late
        if lent[i][1] is buf:
            free, _ = lent.pop(i)
            free.append(buf)
            return


class Tape:
    """Ordered record of the Vars created during one evaluation."""

    def __init__(self):
        self.nodes = []


class Var:
    """A node on the tape: a numpy value plus vector-Jacobian closures."""

    __slots__ = ("value", "tape", "parents", "grad", "op_name", "__weakref__")

    # make numpy defer to the reflected operators instead of building
    # object arrays of Vars
    __array_ufunc__ = None

    def __init__(self, value, tape, parents=(), op_name="leaf"):
        if type(value) is not np.ndarray or value.dtype.type is not np.float64:
            value = np.asarray(value, dtype=float)
        # a count of the finite elements is cheaper than .all() on small arrays
        if not (math.isfinite(value) if value.ndim == 0
                else np.count_nonzero(np.isfinite(value)) == value.size):
            raise NonFiniteIntermediate(op_name)
        self.value = value
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

    def __getitem__(self, idx):
        return take(self, idx)


def _val(x):
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=float)


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape` to undo numpy broadcasting; a g of
    that shape already is returned untouched."""
    if np.shape(g) == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _binary(name, fwd, vjp_a, vjp_b):
    # the VJPs bind their operands as default arguments, not closure cells:
    # each cell is one more GC-tracked object, and more of them per node
    # make the cyclic collector run more often while a tape is recorded
    def op(a, b):
        av, bv = _val(a), _val(b)
        return node(fwd(av, bv), name,
                    (a, lambda g, av=av, bv=bv: _unbroadcast(vjp_a(g, av, bv),
                                                             av.shape)),
                    (b, lambda g, av=av, bv=bv: _unbroadcast(vjp_b(g, av, bv),
                                                             bv.shape)))

    return op


add = _binary("add", lambda a, b: a + b, lambda g, a, b: g, lambda g, a, b: g)
sub = _binary("sub", lambda a, b: a - b, lambda g, a, b: g, lambda g, a, b: -g)
mul = _binary("mul", lambda a, b: a * b, lambda g, a, b: g * b, lambda g, a, b: g * a)
div = _binary("div", lambda a, b: a / b,
              lambda g, a, b: g / b,
              lambda g, a, b: -g * a / (b * b))


def node(value, op_name, *parents):
    """A node with hand-written VJPs.

    `parents` are (operand, vjp) pairs; operands that are not Vars get no
    gradient, and without any Var operand the plain value is returned.
    """
    for p in parents:               # most nodes have Vars only
        if not isinstance(p[0], Var):
            parents = tuple(p for p in parents if isinstance(p[0], Var))
            break
    if not parents:
        return value
    return Var(value, parents[0][0].tape, parents, op_name)


def exp(a):
    out = np.exp(_val(a))
    return node(out, "exp", (a, lambda g: g * out))


def log(a):
    av = _val(a)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log(av)
    return node(out, "log", (a, lambda g: g / av))


def relu(a):
    """max(a, 0); subgradient at 0 defined as 0."""
    av = _val(a)
    return node(np.maximum(av, 0.0), "relu", (a, lambda g: g * (av > 0.0)))


def asum(a, axis=None):
    """Sum of elements, optionally along one axis."""
    av = _val(a)

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, av.shape)
        return np.broadcast_to(np.expand_dims(g, axis), av.shape)

    return node(np.sum(av, axis=axis), "sum", (a, vjp))


def logsumexp(a, axis=None):
    """Max-shifted log-sum-exp over one axis or over all elements, with
    scipy.special.logsumexp's algorithm and bits: the m tied maxima count
    apart from the shifted sum s of the others; log1p(s / m) + log(m) + max."""
    av = _val(a)
    x = av.reshape(1) if av.ndim == 0 else av
    x_max = x.max(axis=axis, keepdims=True)
    tied = x == x_max
    m = tied.sum(axis=axis, keepdims=True, dtype=float)
    # in a slice of -inf entries, -inf - -inf is NaN; every such entry is a
    # tied maximum and is zeroed below, so the slice gives -inf as in scipy
    with np.errstate(invalid="ignore"):
        e = np.subtract(x, x_max)
        np.exp(e, out=e)
    e[tied] = 0.0
    s = e.sum(axis=axis, keepdims=True)
    del e, tied                     # the full-size arrays go before the tail
    s /= m
    out_kd = np.log1p(s, out=s)
    out_kd += np.log(m)
    out_kd += x_max
    out_kd = out_kd.reshape(() if av.ndim == 0 else x_max.shape)

    def vjp(g):
        soft = np.exp(av - out_kd)
        if axis is None:
            return g * soft
        return np.expand_dims(g, axis) * soft

    return node(np.squeeze(out_kd, axis=axis), "logsumexp", (a, vjp))


# W. J. Cody, "Rational Chebyshev approximations for the error function",
# Math. Comp. 23 (1969), with the coefficients of R's pnorm.  Three ranges of
# y = |z|, with w = y^2:
#   y <= 0.674:             Phi(-y) = 1/2 - y A(w) / B(w)
#   0.674 < y <= sqrt(32):  Phi(-y) = exp(-w/2) C(y) / D(y)
#   y > sqrt(32):           Phi(-y) = exp(-w/2) (1/sqrt(2 pi)
#                                       - P(1/w) / (w Q(1/w))) / y
# Each element is evaluated in its own range only: the first two share one
# pass over the whole call, where the direct exp(-w/2) is within 2e-15
# relative, and the few elements beyond sqrt(32) are gathered and evaluated
# apart.
_CODY_A = (2.2352520354606839287, 161.02823106855587881, 1067.6894854603709582,
           18154.981253343561249, 0.065682337918207449113)
_CODY_B = (47.20258190468824187, 976.09855173777669322, 10260.932208618978205,
           45507.789335026729956)
_CODY_C = (0.39894151208813466764, 8.8831497943883759412, 93.506656132177855979,
           597.27027639480026226, 2494.5375852903726711, 6848.1904505362823326,
           11602.651437647350124, 9842.7148383839780218,
           1.0765576773720192317e-8)
_CODY_D = (22.266688044328115691, 235.38790178262499861, 1519.377599407554805,
           6485.558298266760755, 18615.571640885098091, 34900.952721145977266,
           38912.003286093271411, 19685.429676859990727)
_CODY_P = (0.21589853405795699, 0.1274011611602473639, 0.022235277870649807,
           0.001421619193227893466, 2.9112874951168792e-5,
           0.02307344176494017303)
_CODY_Q = (1.28426009614491121, 0.468238212480865118, 0.0659881378689285515,
           0.00378239633202758244, 7.29751555083966205e-5)
# A, C, B and D as rows of coefficients of [1, w, w^2, w^3, w^4, y, y w,
# y w^2, y w^3], so that one matrix product evaluates all four
_CODY_ACBD = np.array([
    [_CODY_A[3], _CODY_A[2], _CODY_A[1], _CODY_A[0], _CODY_A[4],
     0.0, 0.0, 0.0, 0.0],
    [_CODY_C[7], _CODY_C[5], _CODY_C[3], _CODY_C[1], _CODY_C[8],
     _CODY_C[6], _CODY_C[4], _CODY_C[2], _CODY_C[0]],
    [_CODY_B[3], _CODY_B[2], _CODY_B[1], _CODY_B[0], 1.0, 0.0, 0.0, 0.0, 0.0],
    [_CODY_D[7], _CODY_D[5], _CODY_D[3], _CODY_D[1], 1.0,
     _CODY_D[6], _CODY_D[4], _CODY_D[2], _CODY_D[0]],
])
# w^5 P(1/w) and w^5 Q(1/w) as columns of coefficients of w^0..w^5
_CODY_PQ = np.array([(_CODY_P[5], 1.0), *zip(_CODY_P[:5], _CODY_Q)])
_POWERS = np.arange(6.0)
_CODY_CENTRAL = 0.67448975
_SQRT32 = np.sqrt(32.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _normal_cdf(zv, log=True):
    """(log Phi(z), phi(z)/Phi(z)) from Cody's ranges, or with log=False
    Phi(z) alone.

    Every element gets its own range.  One pass over the call evaluates the
    central and the middle range on every element, with y clipped at
    sqrt(32) so that nothing overflows, and keeps the one each element is
    in; the few elements beyond sqrt(32), if any, are gathered, evaluated
    by _normal_cdf_tail and written over.  The temporaries are rows of one
    block allocated once per call: kept as separate arrays they cost a
    probit_train entry call up to 20,000 page faults instead of about 250,
    as the allocator handed the top of the heap back and took it again."""
    z = zv.reshape(-1)
    # rows: 0-8 the powers [1, w, .., w^4, y, y w, .., y w^3], 9-12 A, C, B, D
    ws = np.empty((13, z.size))
    W, R = ws[:9], ws[9:]
    y, w = W[5], W[1]
    np.abs(z, out=y)
    tail = None
    # a NaN makes the max NaN, which takes this branch too
    if not y.max(initial=0.0) <= _SQRT32:
        tail = np.flatnonzero(y > _SQRT32)
        np.minimum(y, _SQRT32, out=y)
    # one call per row: a row broadcast over several rows is slower
    np.multiply(y, y, out=w)
    W[0] = 1.0
    np.multiply(w, w, out=W[2])
    np.multiply(w, W[2], out=W[3])
    np.multiply(W[2], W[2], out=W[4])
    for k in (1, 2, 3):
        np.multiply(W[k], y, out=W[5 + k])
    np.matmul(_CODY_ACBD, W, out=R)
    central, middle = R[0], R[1]
    central /= R[2]
    central *= y
    np.subtract(0.5, central, out=central)
    middle /= R[3]
    e = np.multiply(w, -0.5, out=W[0])
    np.exp(e, out=e)
    middle *= e
    # p = Phi(-y); Phi(z) is p for z < 0 and 1 - p for z >= 0
    p = np.where(y <= _CODY_CENTRAL, central, middle)
    neg = z < 0.0
    q = np.subtract(1.0, p, out=central)
    if not log:
        cdf = np.where(neg, p, q)
        if tail is not None:
            cdf[tail] = _normal_cdf_tail(z[tail], log=False)
        return cdf.reshape(zv.shape)
    np.log(p, out=middle)
    np.negative(p, out=R[2])
    np.log1p(R[2], out=R[2])
    value = np.where(neg, middle, R[2])
    ratio = np.where(neg, p, q)
    e *= _INV_SQRT_2PI
    np.divide(e, ratio, out=ratio)
    if tail is not None:
        value[tail], ratio[tail] = _normal_cdf_tail(z[tail])
    return value.reshape(zv.shape), ratio.reshape(zv.shape)


def _normal_cdf_tail(z, log=True):
    """_normal_cdf on elements with |z| > sqrt(32).

    With s = Phi(-y) exp(w/2), log Phi and the ratio of z < 0 are
    log s - w/2 and 1/(sqrt(2 pi) s), finite as far as w is.  exp(-w/2) is
    taken as exp(-a^2/512) exp(-(u - a)(u + a)/512) with u = 16 y and
    a = trunc(u): both exponents are exact to rounding, where exp(-w/2)
    itself would carry w's rounding error, up to 1e-13 relative at y = 38.
    w may overflow and s reach 0, which is silenced."""
    y = np.abs(z)
    # powers of y clipped at 1e30, so that w^5 stays finite; beyond that
    # P/Q has reached its limit
    yc = np.minimum(y, 1e30)
    num, den = np.power.outer(yc * yc, _POWERS).dot(_CODY_PQ).T
    u = 16.0 * yc
    a = np.trunc(u)
    e = (np.exp(a * a * (-1.0 / 512.0))
         * np.exp((u - a) * (u + a) * (-1.0 / 512.0)))
    neg = z < 0.0
    with np.errstate(over="ignore", divide="ignore"):
        w = y * y
        s = (_INV_SQRT_2PI - num / den / w) / y
        p = e * s
        if not log:
            return np.where(neg, p, 1.0 - p)
        return (np.where(neg, np.log(s) - 0.5 * w, np.log1p(-p)),
                np.where(neg, _INV_SQRT_2PI / s, _INV_SQRT_2PI * e / (1.0 - p)))


def norm_cdf(z):
    """Phi(z) of a plain array, from the kernel of log_norm_cdf."""
    return _normal_cdf(np.asarray(z, dtype=float), log=False)


def log_norm_cdf(z):
    """log Phi(z), accurate far into both tails.

    W. J. Cody's rational Chebyshev approximations (Math. Comp. 23, 1969),
    each element in its own range, give the value and the adjoint, the
    inverse Mills ratio phi(z)/Phi(z).  Beyond |z| = sqrt(32), for z < 0
    both come from s = Phi(z) exp(z^2/2), so the ratio 1/(sqrt(2 pi) s)
    stays accurate and finite for large negative z (where it tends to
    -z - 1/z); for large positive z it is exactly 0.
    """
    zv = _val(z)
    value, ratio = _normal_cdf(zv)
    return node(value, "log_norm_cdf", (z, lambda g: g * ratio))


def dot(a, b):
    """Inner / matrix product: supports 1d.1d, 2d@1d, 1d@2d and 2d@2d."""
    av, bv = _val(a), _val(b)

    def vjp_a(g):
        if av.ndim == 1 and bv.ndim == 1:
            return g * bv
        if av.ndim == 2 and bv.ndim == 1:
            return np.outer(g, bv)
        if av.ndim == 1 and bv.ndim == 2:
            return bv @ g
        return g @ bv.T

    def vjp_b(g):
        if av.ndim == 1 and bv.ndim == 1:
            return g * av
        if av.ndim == 2 and bv.ndim == 1:
            return av.T @ g
        if av.ndim == 1 and bv.ndim == 2:
            return np.outer(av, g)
        return av.T @ g

    return node(av @ bv, "dot", (a, vjp_a), (b, vjp_b))


def bmm(a, b):
    """Batched matrix product via numpy matmul broadcasting rules."""
    av, bv = _val(a), _val(b)
    return node(np.matmul(av, bv), "bmm",
                (a, lambda g: _unbroadcast(
                    np.matmul(g, np.swapaxes(bv, -1, -2)), av.shape)),
                (b, lambda g: _unbroadcast(
                    np.matmul(np.swapaxes(av, -1, -2), g), bv.shape)))


def _is_basic_index(idx):
    """True for ints, slices and tuples of them: each source element is
    selected at most once."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(isinstance(i, slice) or (isinstance(i, (int, np.integer))
                                        and not isinstance(i, bool))
               for i in parts)


def take(a, idx):
    """Basic/fancy indexing into a Var."""
    av = _val(a)

    def vjp(g):
        out = np.zeros_like(av)
        if _is_basic_index(idx):
            out[idx] = g
        else:
            # fancy indices may repeat; accumulate every occurrence
            np.add.at(out, idx, g)
        return out

    return node(av[idx], "take", (a, vjp))


def reshape(a, shape):
    av = _val(a)
    return node(av.reshape(shape), "reshape",
                (a, lambda g: np.asarray(g).reshape(av.shape)))


# the backward pass's unit seed, read-only: no VJP writes into its g
_SEED = np.broadcast_to(1.0, ())


def _backward(out):
    if out.value.shape != ():
        raise ValueError("backward pass requires a scalar output")
    out.grad = _SEED
    for node in reversed(out.tape.nodes):
        grad = node.grad
        if grad is None or not node.parents:
            continue
        for parent, vjp in node.parents:
            g = vjp(grad)
            parent.grad = g if parent.grad is None else parent.grad + g
        # consumed; only leaf gradients are read after the pass, and a
        # tape awaiting the cyclic GC then holds its values alone
        node.grad = None


def value_and_grad(f, at):
    """Evaluate scalar expression f(*slots) and its gradient per slot.

    `at` is a sequence of arrays; returns (value, [grad per slot]).  Inside
    a reuse_buffers block, the arrays the nodes took from :func:`empty` go
    back to the pool when this returns or raises.
    """
    if _buffers.free is None:
        return _evaluate(f, at)
    outer, _buffers.lent = _buffers.lent, []
    try:
        return _evaluate(f, at)
    finally:
        for free_list, buf in _buffers.lent:
            free_list.append(buf)
        _buffers.lent = outer


def _evaluate(f, at):
    tape = Tape()
    leaves = [Var(a, tape) for a in at]
    out = f(*leaves)
    if not isinstance(out, Var):
        # expression did not touch any slot; gradient is zero
        return float(np.asarray(out)), [np.zeros_like(l.value) for l in leaves]
    value = float(out.value)        # a VJP may reuse its node's buffer
    _backward(out)
    # without its node list the finished tape is no reference cycle, so it
    # is freed as soon as the caller drops the output, not at the next GC
    tape.nodes.clear()
    # a VJP may hand back node.grad itself or a read-only broadcast view;
    # adding +0.0 gives a fresh array, and turns a -0.0 first gradient into
    # the +0.0 an accumulation starting from zeros would give
    grads = [l.grad + 0.0 if l.grad is not None else np.zeros_like(l.value)
             for l in leaves]
    return value, grads
