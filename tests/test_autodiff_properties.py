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
