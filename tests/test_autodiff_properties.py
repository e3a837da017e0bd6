"""Property tests for tape VJPs on random broadcast-compatible shapes."""

import numpy as np
import pytest

from bbalpha import autodiff as ad

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def broadcast_pairs(draw):
    """Two shapes that broadcast together: equal shapes, a scalar, size-1
    axes and extra leading axes."""
    base = draw(st.lists(st.integers(1, 4), min_size=0, max_size=3))
    shapes = []
    for _ in range(2):
        dims = [1 if draw(st.booleans()) else n for n in base]
        shapes.append(tuple(dims[draw(st.integers(0, len(dims))):]))
    return shapes


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(op=st.sampled_from([ad.add, ad.sub, ad.mul, ad.div]),
                  shapes=broadcast_pairs(), seed=st.integers(0, 2 ** 16))
def test_binary_op_gradients_on_broadcast_shapes(op, shapes, seed):
    rng = np.random.default_rng(seed)
    # keep divisors away from 0 so central differences stay accurate
    a = rng.normal(size=shapes[0])
    b = rng.uniform(0.5, 2.0, size=shapes[1]) * rng.choice([-1.0, 1.0], size=shapes[1])
    # distinct output weights, so a misrouted gradient entry shows
    out_shape = np.broadcast_shapes(*shapes)
    w = np.cos(np.arange(np.prod(out_shape))).reshape(out_shape)

    def f(x, y):
        return ad.asum(op(x, y) * w)

    rep = ad.check_gradient(f, [a, b])
    assert rep.passed, (shapes, rep)


shapes = st.lists(st.integers(1, 4), min_size=0, max_size=3).map(tuple)

# each unary op with an input map that keeps it on its smooth domain
UNARY = {
    "exp": (ad.exp, lambda u: 2.0 * u),
    "log": (ad.log, lambda u: 0.2 + np.abs(2.0 * u)),
    "sqrt": (ad.sqrt, lambda u: 0.2 + np.abs(2.0 * u)),
    # away from the kink at 0
    "relu": (ad.relu, lambda u: np.sign(u) * (0.1 + np.abs(u))),
    "pow": (lambda x: ad.power(x, 2.5), lambda u: 0.2 + np.abs(2.0 * u)),
    "log_norm_cdf": (ad.log_norm_cdf, lambda u: 4.0 * u),
}


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(name=st.sampled_from(sorted(UNARY)), shape=shapes,
                  seed=st.integers(0, 2 ** 16))
def test_unary_op_gradients(name, shape, seed):
    op, domain = UNARY[name]
    rng = np.random.default_rng(seed)
    x = domain(rng.uniform(-1.0, 1.0, size=shape))
    w = np.cos(np.arange(np.prod(shape))).reshape(shape)

    rep = ad.check_gradient(lambda v: ad.asum(op(v) * w), [x])
    assert rep.passed, (name, shape, rep)


@st.composite
def matmul_shapes(draw, batched):
    """Operand shapes for dot (1d and 2d, every combination) or bmm (a
    shared trailing pair, with broadcast leading axes)."""
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    if not batched:
        a = (n, k) if draw(st.booleans()) else (k,)
        b = (k, m) if draw(st.booleans()) else (k,)
        return a, b
    lead = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    a_lead = [1 if draw(st.booleans()) else d for d in lead]
    b_lead = [1 if draw(st.booleans()) else d for d in lead]
    return (tuple(a_lead[draw(st.integers(0, len(lead) - 1)):]) + (n, k),
            tuple(b_lead[draw(st.integers(0, len(lead) - 1)):]) + (k, m))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(batched=st.booleans(), data=st.data(),
                  seed=st.integers(0, 2 ** 16))
def test_matmul_gradients_on_random_shapes(batched, data, seed):
    a_shape, b_shape = data.draw(matmul_shapes(batched))
    op = ad.bmm if batched else ad.dot
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
    out_shape = np.shape(np.matmul(a, b))
    w = np.cos(np.arange(np.prod(out_shape))).reshape(out_shape)

    rep = ad.check_gradient(lambda x, y: ad.asum(op(x, y) * w), [a, b])
    assert rep.passed, (a_shape, b_shape, rep)
