"""The fused MC energy: reparam and alpha_energy nodes against the op-by-op
tape expression, finite differences, the max shift, the finiteness checks
and the freeing of finished tapes."""

import gc
import weakref

import numpy as np
import pytest

from gradcheck import check_gradient
import reference_energy
from bbalpha import autodiff as ad
from bbalpha import energy as en
from bbalpha import likelihoods as lk
from bbalpha.errors import NonFiniteIntermediate
from bbalpha.expfam import FactorizedGaussian, NaturalParams

ALPHAS = [-0.5, 0.5, 1.0, 2.0, None]       # None is the VB energy
KINDS = ["probit", "linreg", "mlp_regression"]


def _problem(kind, learn_prior, seed, n_data=40, B=7, K=6, d=2):
    """(slot values, f(expr) -> slot function) for one random problem; the
    MLP learns its noise through the hyper slot."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(B, d))
    hyper = None
    if kind == "probit":
        model = lk.ProbitRegression(d)
        y = np.where(rng.uniform(size=B) < 0.5, -1.0, 1.0)
    elif kind == "linreg":
        model = lk.LinearRegression(d, 0.7)
        y = rng.normal(size=B)
    else:
        model = lk.MLPRegression(d, 3)
        y = rng.normal(size=B)
        hyper = 0.2
    dim = model.theta_dim
    q = FactorizedGaussian(rng.normal(0, 0.5, size=dim),
                           rng.normal(-1.0, 0.3, size=dim))
    p_var = rng.uniform(0.5, 2.0, size=dim)
    prior = NaturalParams(rng.normal(0, 0.3, size=dim) / p_var, -0.5 / p_var)
    eps = rng.standard_normal((K, dim))
    layout = en.SlotLayout(dim, prior, hyper, hyper is not None, learn_prior)
    slots, unpack = layout.leaves(layout.pack(q)), layout.unpack

    def fn(expr, alpha):
        def f(*vs):
            mu, log_var, h, pm, plv = unpack(vs)
            return expr(mu, log_var, pm, plv, model, X, y, n_data, alpha, eps,
                        hyper=h)
        return f

    return slots, fn


@pytest.mark.parametrize("learn_prior", [False, True])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_fused_energy_matches_tape_reference(alpha, kind, learn_prior):
    # K = 1 is the w = 1 edge; K = 10,000 sums over the samples as
    # matrix-vector products
    for K in (6, 1, 10000):
        slots, fn = _problem(kind, learn_prior, seed=KINDS.index(kind), K=K)
        value, grads = ad.value_and_grad(fn(en._mc_expr, alpha), slots)
        want, want_grads = ad.value_and_grad(
            fn(reference_energy.mc_expr, alpha), slots)
        assert value == pytest.approx(want, rel=1e-12)
        assert len(grads) == len(want_grads)
        for g, w in zip(grads, want_grads):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


@pytest.mark.parametrize("K", [10, 10000])
def test_gradient_reaches_vb_linearly_as_alpha_vanishes(K):
    # the alpha energy's gradient is the VB one plus O(alpha): the tilted
    # weights are 1/K + O(alpha), with no 1/alpha left in the gradient
    rng = np.random.default_rng(4)
    n, d = 60, 3
    X = rng.normal(size=(n, d))
    y = np.where(X @ [1.0, -0.5, 0.3] + 0.3 * rng.normal(size=n) > 0, 1.0, -1.0)
    data, model = lk.Dataset(X, y), lk.ProbitRegression(d)
    q = FactorizedGaussian(rng.normal(0, 0.5, size=d),
                           rng.normal(-1.0, 0.3, size=d))
    prior = NaturalParams(np.zeros(d), np.full(d, -0.5))
    batch, eps = np.arange(16), rng.standard_normal((K, d))
    vb = en.vb_energy_mc(q, prior, model, data, batch, eps).grad
    alphas = [1e-4, 1e-6, 1e-8]
    errs = [np.abs(en.bbalpha_energy_mc(q, prior, model, data, batch,
                                        en.AlphaParam(a, n), eps).grad
                   - vb).max() / np.abs(vb).max() for a in alphas]
    assert errs[-1] <= 1e-6
    for e_big, e_small in zip(errs, errs[1:]):
        assert 95.0 <= e_big / e_small <= 105.0


@pytest.mark.parametrize("learn_prior", [False, True])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_fused_energy_gradient_against_finite_differences(alpha, kind,
                                                          learn_prior):
    slots, fn = _problem(kind, learn_prior, seed=KINDS.index(kind))
    # a small step keeps the MLP's rectifier kinks out of the stencil
    rep = check_gradient(fn(en._mc_expr, alpha), slots, step=1e-6)
    assert rep.passed, rep


@pytest.mark.parametrize("alpha", [0.5, None])
@pytest.mark.parametrize("kind", KINDS)
def test_scaled_energy_scales_gradient(alpha, kind):
    # the node below another op gets a seed other than the root's unit one
    slots, fn = _problem(kind, True, seed=5)
    f = fn(en._mc_expr, alpha)
    value, grads = ad.value_and_grad(f, slots)
    scaled, scaled_grads = ad.value_and_grad(lambda *v: -2.5 * f(*v), slots)
    assert scaled == pytest.approx(-2.5 * value, rel=1e-15)
    for g, w in zip(scaled_grads, grads):
        assert np.abs(g + 2.5 * w).max() <= 1e-12 * np.abs(2.5 * w).max()


class _LinearLogLik:
    """log p = Theta @ W, no normalisation: a free (K, B) log-likelihood."""

    kind = "stub"

    def __init__(self, W):
        self.W = W
        self.theta_dim = W.shape[0]

    def batch_log_lik(self, Theta, X, y, hyper=None):
        return ad.dot(Theta, self.W)


@pytest.mark.parametrize("alpha", [-0.5, 0.5, 2.0])
def test_max_shift_keeps_energy_finite_at_large_tilts(alpha):
    # alpha * delta spans about +-1e3: exp of it alone overflows or
    # underflows to 0, the shifted log-sum-exp does neither
    rng = np.random.default_rng(3)
    dim, B, K = 3, 5, 8
    model = _LinearLogLik(rng.choice([-1.0, 1.0], size=(dim, B)) * 1e3 / abs(alpha))
    X, y = np.zeros((B, 1)), np.zeros(B)
    eps = rng.standard_normal((K, dim))
    mu, lv = rng.normal(size=dim), np.full(dim, -0.5)
    pm, plv = np.zeros(dim), np.zeros(dim)
    tilt = alpha * (eps * np.exp(-0.25) + mu) @ model.W
    assert np.abs(tilt).max() > 1e3

    def fn(expr):
        return lambda m, v: expr(m, v, pm, plv, model, X, y, 50, alpha, eps)

    value, grads = ad.value_and_grad(fn(en._mc_expr), [mu, lv])
    want, want_grads = ad.value_and_grad(fn(reference_energy.mc_expr), [mu, lv])
    assert np.isfinite(value) and all(np.isfinite(g).all() for g in grads)
    assert value == pytest.approx(want, rel=1e-12)
    for g, w in zip(grads, want_grads):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


def _energy(mu, lv, eps, n_data=40.0, alpha=0.5):
    dim = mu.size
    model = _LinearLogLik(np.zeros((dim, 4)))
    X, y = np.zeros((4, 1)), np.zeros(4)
    pm, plv = np.ones(dim), np.zeros(dim)
    return ad.value_and_grad(
        lambda m, v: en._mc_expr(m, v, pm, plv, model, X, y, n_data, alpha,
                                 eps), [mu, lv])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning",
                            "ignore:divide by zero:RuntimeWarning")
@pytest.mark.parametrize("alpha", [0.5, None])
@pytest.mark.parametrize("case", ["site", "delta", "vjp"])
def test_nonfinite_intermediate_trips_alpha_energy(case, alpha):
    eps = np.ones((3, 2))
    mu, lv, n_data = np.full(2, 0.5), np.zeros(2), 40.0
    if case == "site":
        lv = np.array([-800.0, 0.0])      # 1 / var overflows in l1 and l2
    elif case == "delta":
        lv = np.full(2, -1.0)
        eps = np.full((3, 2), 1e160)     # theta^2 overflows in log f
    else:
        # value finite, but sum_k c_k theta_k^2 overflows in the log_var
        # gradient: c_k is about N / K and theta about 1e60
        n_data, eps = 1e200, np.full((3, 2), 1e60)
    with pytest.raises(NonFiniteIntermediate) as e:
        _energy(mu, lv, eps, n_data, alpha)
    assert e.value.op_name == "alpha_energy"


def test_vjp_case_has_finite_value():
    # the "vjp" case above trips on the gradient, not on the value, which
    # the op-by-op expression evaluates without gradients
    eps, mu = np.full((3, 2), 1e60), np.full(2, 0.5)
    model = _LinearLogLik(np.zeros((2, 4)))
    value = reference_energy.mc_expr(mu, np.zeros(2), np.ones(2), np.zeros(2),
                                     model, np.zeros((4, 1)), np.zeros(4),
                                     1e200, 0.5, eps)
    assert np.isfinite(value)


def _recording(model_cls):
    """A subclass of a model class that keeps weak references to its input
    and output nodes."""
    class Recording(model_cls):
        def __init__(self, *args):
            super().__init__(*args)
            self.refs = []

        def batch_log_lik(self, Theta, X, y, hyper=None):
            out = super().batch_log_lik(Theta, X, y, hyper)
            self.refs += [weakref.ref(Theta), weakref.ref(out)]
            return out

    return Recording


@pytest.mark.parametrize("alpha", [0.5, None])
def test_finished_tape_is_freed_without_the_cyclic_gc(alpha):
    rng = np.random.default_rng(0)
    data = lk.Dataset(rng.normal(size=(10, 2)), rng.normal(size=10))
    model = _recording(lk.LinearRegression)(2, 0.5)
    q = FactorizedGaussian(rng.normal(size=2), np.full(2, -1.0))
    prior = NaturalParams(np.zeros(2), np.full(2, -0.5))
    a = None if alpha is None else en.AlphaParam(alpha, data.n)
    gc.disable()
    try:
        est = en.bbalpha_energy_mc(q, prior, model, data, np.arange(10), a,
                                   rng.standard_normal((5, 2)),
                                   learn_prior=True)
        assert np.isfinite(est.value)
        assert len(model.refs) == 2
        assert all(r() is None for r in model.refs)
    finally:
        gc.enable()


def test_check_gradient_probes_are_freed_without_the_cyclic_gc():
    rng = np.random.default_rng(1)
    X, y = rng.normal(size=(4, 2)), rng.normal(size=4)
    model = _recording(lk.MLPRegression)(2, 2)
    dim = model.theta_dim
    eps = rng.standard_normal((3, dim))
    pm, plv = np.zeros(dim), np.zeros(dim)

    def f(mu, log_var):
        return en._mc_expr(mu, log_var, pm, plv, model, X, y, 20, 0.5, eps)

    gc.disable()
    try:
        rep = check_gradient(f, [rng.normal(size=dim), np.full(dim, -1.0)],
                             step=1e-6)
        assert rep.passed, rep
        # the gradient evaluation and two probes per coordinate
        assert len(model.refs) == 2 * (1 + 2 * 2 * dim)
        assert all(r() is None for r in model.refs)
    finally:
        gc.enable()
