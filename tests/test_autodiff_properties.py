"""Property tests for tape VJPs on random broadcast-compatible shapes, and
for invariances of the MC energy on random problems of every model kind."""

import numpy as np
import pytest

from gradcheck import check_gradient
from bbalpha import autodiff as ad
from bbalpha import energy as en
from bbalpha import likelihoods as lk
from bbalpha.expfam import FactorizedGaussian
from bbalpha.optim import default_prior

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

    rep = check_gradient(f, [a, b])
    assert rep.passed, (shapes, rep)


shapes = st.lists(st.integers(1, 4), min_size=0, max_size=3).map(tuple)

# each unary op with an input map that keeps it on its smooth domain
UNARY = {
    "exp": (ad.exp, lambda u: 2.0 * u),
    "log": (ad.log, lambda u: 0.2 + np.abs(2.0 * u)),
    # away from the kink at 0
    "relu": (ad.relu, lambda u: np.sign(u) * (0.1 + np.abs(u))),
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

    rep = check_gradient(lambda v: ad.asum(op(v) * w), [x])
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

    rep = check_gradient(lambda x, y: ad.asum(op(x, y) * w), [a, b])
    assert rep.passed, (a_shape, b_shape, rep)


KINDS = ["probit", "linreg", "mlp_regression", "mlp_classification"]


def _energy_problem(kind, n, seed, d=2):
    """(model, data, q, prior, eps) for a random problem with n rows."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if kind == "probit":
        model, y = lk.ProbitRegression(d), rng.choice([-1.0, 1.0], size=n)
    elif kind == "linreg":
        model, y = lk.LinearRegression(d, 0.7), rng.normal(size=n)
    elif kind == "mlp_regression":
        model, y = lk.MLPRegression(d, 3), rng.normal(size=n)
    else:
        model, y = lk.MLPClassification(d, 3, 4, 3), rng.integers(0, 3, size=n)
    dim = model.theta_dim
    q = FactorizedGaussian(rng.normal(0.0, 0.5, size=dim),
                           rng.normal(-2.0, 0.3, size=dim))
    eps = rng.standard_normal((int(rng.integers(1, 8)), dim))
    return model, lk.Dataset(X, y), q, default_prior(dim), eps


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(kind=st.sampled_from(KINDS), n=st.integers(2, 12),
                  seed=st.integers(0, 2 ** 16))
def test_alpha_to_zero_meets_vb_energy(kind, n, seed):
    model, data, q, prior, eps = _energy_problem(kind, n, seed)
    batch = np.arange(n)
    vb = en.bbalpha_energy_mc(q, prior, model, data, batch, None, eps)
    small = en.bbalpha_energy_mc(q, prior, model, data, batch,
                                 en.AlphaParam(1e-6, n), eps)
    # the gap is alpha (N / 2B) sum_b var_k(delta_kb) + O(alpha^2); over
    # 2,400 random problems it stayed below 5e-6 (value) and 1.5e-5
    # (gradient) at these scales
    assert small.value == pytest.approx(vb.value, rel=5e-5, abs=1e-7)
    assert np.abs(small.grad - vb.grad).max() <= 2e-4 * (
        1.0 + np.abs(vb.grad).max())


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(kind=st.sampled_from(KINDS), n=st.integers(2, 12),
                  alpha=st.sampled_from([-0.5, 0.5, 1.0, None]),
                  seed=st.integers(0, 2 ** 16))
def test_minibatch_order_does_not_change_energy(kind, n, alpha, seed):
    model, data, q, prior, eps = _energy_problem(kind, n, seed)
    a = None if alpha is None else en.AlphaParam(alpha, n)
    batch = np.random.default_rng(seed).choice(n, size=n - 1, replace=False)
    est = en.bbalpha_energy_mc(q, prior, model, data, batch, a, eps)
    perm = en.bbalpha_energy_mc(q, prior, model, data, batch[::-1], a, eps)
    assert perm.value == pytest.approx(est.value, rel=1e-12, abs=1e-12)
    assert np.abs(perm.grad - est.grad).max() <= 1e-12 * (
        1.0 + np.abs(est.grad).max())


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(kind=st.sampled_from(KINDS), size=st.integers(1, 4),
                  parts=st.integers(2, 4), seed=st.integers(0, 2 ** 16))
def test_vb_energy_over_a_partition_averages_to_full_batch(kind, size, parts,
                                                           seed):
    n = size * parts
    model, data, q, prior, eps = _energy_problem(kind, n, seed)
    full = en.bbalpha_energy_mc(q, prior, model, data, np.arange(n), None, eps)
    order = np.random.default_rng(seed).permutation(n)
    ests = [en.bbalpha_energy_mc(q, prior, model, data, b, None, eps)
            for b in np.split(order, parts)]
    mean = np.mean([e.value for e in ests])
    assert mean == pytest.approx(full.value, rel=1e-12, abs=1e-12)
    mean_grad = np.mean([e.grad for e in ests], axis=0)
    assert np.abs(mean_grad - full.grad).max() <= 1e-12 * (
        1.0 + np.abs(full.grad).max())
