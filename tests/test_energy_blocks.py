"""The MC energy over many eps blocks at one (q, minibatch, alpha).

`SlotLayout.mc_estimates` takes the eps-free site step once for all its
blocks.  Each block's value and gradient are byte-identical to one
evaluation whose `_mc_expr` derives the site from its own leaves, each block
costs one `value_and_grad` call, and nothing the caller handed in changes.
"""

import numpy as np
import pytest

from bbalpha import autodiff as ad
from bbalpha import energy as en
from bbalpha import likelihoods as lk
from bbalpha.energy import AlphaParam
from bbalpha.errors import ImproperCavity, ShapeMismatch
from bbalpha.expfam import FactorizedGaussian, NaturalParams

KINDS = ["probit", "linreg", "mlp_regression", "mlp_classification"]
ALPHAS = [0.5, -0.5, None]                  # None is the VB energy
# (learn_noise, learn_prior); only the MLP regression has a noise slot
CASES = [(kind, a, noise, prior) for kind in KINDS for a in ALPHAS
         for noise in ([False, True] if kind == "mlp_regression" else [False])
         for prior in (False, True)]


def _problem(kind, n=20, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    hyper = None
    if kind == "probit":
        model = lk.ProbitRegression(d)
        y = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    elif kind == "linreg":
        model = lk.LinearRegression(d, 0.7)
        y = rng.normal(size=n)
    elif kind == "mlp_regression":
        model = lk.MLPRegression(d, 4)
        y = rng.normal(size=n)
        hyper = -1.5
    else:
        model = lk.MLPClassification(d, 4, 5, 3)
        y = rng.integers(0, 3, size=n)
    dim = model.theta_dim
    q = FactorizedGaussian(rng.normal(0, 0.5, size=dim),
                           rng.normal(-1.0, 0.3, size=dim))
    p_var = rng.uniform(0.5, 2.0, size=dim)
    prior = NaturalParams(rng.normal(0, 0.3, size=dim) / p_var, -0.5 / p_var)
    # blocks of several K, one of them K = 1
    blocks = [rng.standard_normal((k, dim)) for k in (5, 1, 12, 5)]
    return model, lk.Dataset(X, y), q, prior, hyper, blocks


def _one_evaluation(q, prior, model, data, batch, alpha, eps, hyper,
                    learn_noise, learn_prior):
    """(value, gradient) of one evaluation with no shared site: `_mc_expr`
    derives it from the leaves of its own value_and_grad call."""
    a, N = (None, data.n) if alpha is None else (alpha.alpha, alpha.n_data)
    X, y = data.features[batch], data.targets[batch]
    layout = en.SlotLayout(q.dim, prior, hyper, learn_noise, learn_prior)
    slots, unpack = layout.leaves(layout.pack(q)), layout.unpack

    def f(*vs):
        mu, log_var, h, pm, plv = unpack(vs)
        return en._mc_expr(mu, log_var, pm, plv, model, X, y, N, a, eps,
                           hyper=h)

    value, grads = ad.value_and_grad(f, slots)
    return value, np.concatenate(grads)


def _spy_on_evaluations(monkeypatch):
    """The bytes of the leaves handed to each ad.value_and_grad call."""
    calls, value_and_grad = [], ad.value_and_grad

    def spy(f, at):
        calls.append([a.tobytes() for a in at])
        return value_and_grad(f, at)

    monkeypatch.setattr(ad, "value_and_grad", spy)
    return calls


@pytest.mark.parametrize("kind, a, learn_noise, learn_prior", CASES)
def test_blocks_match_one_evaluation_per_block(monkeypatch, kind, a,
                                               learn_noise, learn_prior):
    model, data, q, prior, hyper, blocks = _problem(kind)
    alpha = None if a is None else AlphaParam(a, data.n)
    batch = np.array([3, 17, 0, 8, 11, 5, 12])
    args = (q, prior, model, data, batch, alpha)
    kw = dict(hyper=hyper, learn_noise=learn_noise, learn_prior=learn_prior)
    want = [_one_evaluation(*args, eps, hyper, learn_noise, learn_prior)
            for eps in blocks]
    single = [en.bbalpha_energy_mc(*args, eps, **kw) for eps in blocks]
    given = [q.mu, q.log_var, prior.eta1, prior.eta2, *blocks]
    before = [x.tobytes() for x in given]

    layout = en.SlotLayout(q.dim, prior, hyper, learn_noise, learn_prior)
    calls = _spy_on_evaluations(monkeypatch)
    got = []
    for est in layout.mc_estimates(layout.pack(q), model, data, batch, alpha,
                                   iter(blocks)):
        got.append(est)
        assert len(calls) == len(got)       # one evaluation per block
    assert len(got) == len(blocks)
    for est, one, (value, grad) in zip(got, single, want):
        for e in (est, one):
            assert np.float64(e.value).tobytes() == np.float64(value).tobytes()
            assert e.grad.tobytes() == grad.tobytes()
    # every call took the same leaves, the caller's values, and nothing
    # handed in changed
    assert all(c == calls[0] for c in calls)
    assert calls[0][:2] == before[:2]
    assert [x.tobytes() for x in given] == before


def test_improper_cavity_raises_at_the_first_block(monkeypatch):
    model, data, q, prior, _, blocks = _problem("linreg")
    layout = en.SlotLayout(q.dim, prior)
    calls = _spy_on_evaluations(monkeypatch)
    ests = layout.mc_estimates(layout.pack(q), model, data, np.arange(8),
                               AlphaParam(1e4, data.n), blocks)
    with pytest.raises(ImproperCavity):
        next(ests)
    # the first block's evaluation raised before its energy node; no later
    # block is evaluated
    assert len(calls) == 1
    with pytest.raises(StopIteration):
        next(ests)
    assert len(calls) == 1


@pytest.mark.parametrize("shape", [(5, 1), (5,), (5, 3), (0, 2), (1, 5, 2)])
def test_misshaped_eps_raises_shape_mismatch(shape):
    model, data, *_ = _problem("linreg", d=2)
    q = FactorizedGaussian(np.array([0.3, -0.2]), np.array([-1.0, -2.0]))
    prior = NaturalParams(np.zeros(2), np.full(2, -0.5))
    alpha = AlphaParam(0.5, data.n)
    with pytest.raises(ShapeMismatch):
        en.bbalpha_energy_mc(q, prior, model, data, np.arange(8), alpha,
                             np.zeros(shape))
    # a block iterator raises at the misshaped block, after the good ones
    layout = en.SlotLayout(q.dim, prior)
    ests = layout.mc_estimates(layout.pack(q), model, data, np.arange(8), None,
                               [np.zeros((3, 2)), np.zeros(shape)])
    assert next(ests).grad.shape == (4,)
    with pytest.raises(ShapeMismatch):
        next(ests)
