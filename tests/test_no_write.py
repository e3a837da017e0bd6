"""In-place arithmetic never touches shared arrays.

The energy's nodes compute in place, but only in arrays they allocate
themselves and in one more: `alpha_energy` forms its weights and
dE/dloglik in the log-likelihood array the model returns, the one array
outside its own allocations that it writes.  So the model's last node owns
that array and its VJP gives the same gradient whether or not its value was
overwritten.  The caller's posterior, draws and data, and the incoming
gradient of every hand-written VJP, stay as they were.
"""

import numpy as np
import pytest

from bbalpha import autodiff as ad
from bbalpha import energy as en
from bbalpha import likelihoods as lk
from bbalpha.expfam import FactorizedGaussian, NaturalParams

KINDS = ["probit", "linreg", "mlp_regression", "mlp_classification"]


def _problem(kind, K=6, B=7, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(B, d))
    hyper = None
    if kind == "probit":
        model = lk.ProbitRegression(d)
        y = np.where(rng.uniform(size=B) < 0.5, -1.0, 1.0)
    elif kind == "linreg":
        model = lk.LinearRegression(d, 0.7)
        y = rng.normal(size=B)
    elif kind == "mlp_regression":
        model = lk.MLPRegression(d, 4)
        y = rng.normal(size=B)
        hyper = np.array([0.2])
    else:
        model = lk.MLPClassification(d, 4, 5, 3)
        y = rng.integers(0, 3, size=B)
    dim = model.theta_dim
    q = FactorizedGaussian(rng.normal(0, 0.5, size=dim),
                           rng.normal(-1.0, 0.3, size=dim))
    eps = rng.standard_normal((K, dim))
    return model, q, eps, X, y, hyper


def _read_only(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("alpha", [0.5, None])
@pytest.mark.parametrize("kind", KINDS)
def test_energy_leaves_caller_arrays_unchanged(kind, alpha):
    model, q, eps, X, y, hyper = _problem(kind)
    dim = model.theta_dim
    prior = NaturalParams(np.zeros(dim), np.full(dim, -0.5))
    shared = [q.mu, q.log_var, eps, X, y]
    before = [a.tobytes() for a in shared]
    a = None if alpha is None else en.AlphaParam(alpha, 40)
    en.bbalpha_energy_mc(q, prior, model, lk.Dataset(X, y), np.arange(len(y)),
                         a, eps, hyper=None if hyper is None else hyper[0],
                         learn_noise=hyper is not None, learn_prior=True)
    # the tape's leaves hold the caller's slot arrays themselves here, and
    # the model sees the caller's X and y
    slots = [q.mu, q.log_var] + ([hyper] if hyper is not None else [])

    def f(mu, log_var, *h):
        return en._mc_expr(mu, log_var, np.zeros(dim), np.zeros(dim), model,
                           X, y, 40, alpha, eps, hyper=h[0] if h else None)

    ad.value_and_grad(f, slots)
    assert [a.tobytes() for a in shared] == before


def _check_vjps(node, gs):
    """Every VJP of `node` takes each read-only g and leaves it as it was."""
    assert isinstance(node, ad.Var) and node.parents
    for g in gs:
        before = g.tobytes()
        for _, vjp in node.parents:
            vjp(g)
        assert g.tobytes() == before


def _leaf(a, tape):
    return ad.Var(np.array(a, dtype=float), tape)


def test_reparam_vjps_take_read_only_g():
    _, q, eps, *_ = _problem("linreg")
    tape = ad.Tape()
    out = en._reparam(_leaf(q.mu, tape), _leaf(q.log_var, tape), eps,
                      np.exp(0.5 * q.log_var), np.ones(len(eps)))
    _check_vjps(out, [_read_only(np.cos(np.arange(out.value.size))
                                 .reshape(out.shape))])


@pytest.mark.parametrize("alpha", [0.5, None])
def test_alpha_energy_vjps_take_read_only_g(alpha):
    model, q, eps, X, y, _ = _problem("linreg")
    tape = ad.Tape()
    mu, lv = _leaf(q.mu, tape), _leaf(q.log_var, tape)
    pm, plv = _leaf(np.zeros(q.dim), tape), _leaf(np.zeros(q.dim), tape)
    site = en._site(q.mu, q.log_var, pm.value, plv.value, 40, alpha)
    ones = np.ones(len(eps))
    theta = en._reparam(mu, lv, eps, site[4], ones)
    loglik = model.batch_log_lik(theta, X, y)
    out = en._alpha_energy(mu, lv, pm, plv, theta, loglik, 40, alpha, eps,
                           site, ones)
    # the root's unit seed and any other scalar
    _check_vjps(out, [_read_only(1.0), _read_only(2.5)])


@pytest.mark.parametrize("kind", ["mlp_regression", "mlp_classification"])
def test_mlp_vjp_takes_read_only_g(kind):
    model, _, eps, X, _, _ = _problem(kind)
    out = lk.mlp(_leaf(eps, ad.Tape()), X, model.layer_dims)
    _check_vjps(out, [_read_only(np.sin(np.arange(out.value.size))
                                 .reshape(out.shape))])


def test_linreg_vjp_takes_read_only_g():
    model, _, eps, X, y, _ = _problem("linreg")
    out = model.batch_log_lik(_leaf(eps, ad.Tape()), X, y)
    _check_vjps(out, [_read_only(np.sin(np.arange(out.value.size))
                                 .reshape(out.shape))])


@pytest.mark.parametrize("alpha", [0.5, None])
@pytest.mark.parametrize("kind, learn_noise", [
    ("probit", False), ("linreg", False), ("mlp_regression", False),
    ("mlp_regression", True), ("mlp_classification", False)])
def test_loglik_vjp_does_not_read_its_overwritten_value(kind, learn_noise,
                                                        alpha):
    model, q, eps, X, y, hyper = _problem(kind)
    zeros = np.zeros(q.dim)
    site = en._site(q.mu, q.log_var, zeros, zeros, 40, alpha)
    ones = np.ones(len(eps))

    def nodes():
        tape = ad.Tape()
        mu, lv = _leaf(q.mu, tape), _leaf(q.log_var, tape)
        h = _leaf(hyper, tape) if learn_noise else None
        theta = en._reparam(mu, lv, eps, site[4], ones)
        return mu, lv, theta, model.batch_log_lik(theta, X, y, hyper=h)

    def vjp_outputs(loglik, g):     # in the order the backward pass runs them
        return [np.array(vjp(g)).tobytes() for _, vjp in loglik.parents]

    mu, lv, theta, loglik = nodes()
    out = en._alpha_energy(mu, lv, zeros, zeros, theta, loglik, 40, alpha,
                           eps, site, ones)
    g = next(vjp for v, vjp in out.parents if v is loglik)(ad._SEED)
    # dE/dloglik is the node's own value, overwritten by the energy
    assert g is loglik.value
    clean = vjp_outputs(nodes()[3], g.copy())
    assert vjp_outputs(loglik, g) == clean
