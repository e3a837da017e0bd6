"""The buffer pool of `ad.reuse_buffers`: evaluations inside a block give the
same bits as outside it, no two requests of one evaluation share a buffer,
nothing a caller keeps is overwritten by the next evaluation, the pool is
dropped when the block exits, and the training loop and the bias study
evaluate with the pool active."""

import gc
import weakref

import numpy as np
import pytest

from bbalpha import autodiff as ad
from bbalpha import energy as en
from bbalpha import likelihoods as lk
from bbalpha.diagnostics import gradient_bias_study
from bbalpha.errors import DivergenceDetected
from bbalpha.expfam import FactorizedGaussian
from bbalpha.optim import TrainConfig, default_prior, train

N, B = 40, 16


def _datasets(rng):
    X = rng.normal(size=(N, 2))
    return {
        "probit": (lk.ProbitRegression(2),
                   lk.Dataset(X, np.where(rng.normal(size=N) > 0, 1.0, -1.0))),
        "linreg": (lk.LinearRegression(2, 0.5),
                   lk.Dataset(X, rng.normal(size=N))),
        "mlp_regression": (lk.MLPRegression(2, 4),
                           lk.Dataset(X, rng.normal(size=N))),
        "mlp_classification": (lk.MLPClassification(2, 4, 3, 3),
                               lk.Dataset(X, rng.integers(0, 3, size=N))),
    }


def _evaluations():
    """K = 1, 10,000 and 5 interleaved over every model kind, alpha 0.5 with
    learned prior slots and VB without; MLP regression learns its noise."""
    rng = np.random.default_rng(3)
    calls = []
    for K in (1, 10000, 5):
        for kind, (model, data) in _datasets(rng).items():
            dim = model.theta_dim
            q = FactorizedGaussian(rng.normal(0.0, 0.3, size=dim),
                                   np.full(dim, -2.0))
            eps = rng.standard_normal((K, dim))
            batch = rng.choice(N, size=B, replace=False)
            noise = kind == "mlp_regression"
            for alpha in (en.AlphaParam(0.5, N), None):
                calls.append(lambda model=model, data=data, q=q, eps=eps,
                             batch=batch, alpha=alpha, noise=noise:
                             en.bbalpha_energy_mc(
                                 q, default_prior(model.theta_dim), model,
                                 data, batch, alpha, eps,
                                 hyper=0.1 if noise else None,
                                 learn_noise=noise,
                                 learn_prior=alpha is not None))
    return calls


def test_evaluations_in_the_block_are_bit_identical():
    calls = _evaluations()
    outside = [call() for call in calls]
    with ad.reuse_buffers():
        # the second pass draws every buffer from the pool, with old contents
        for _ in range(2):
            for call, want in zip(calls, outside):
                got = call()
                assert got.value == want.value
                assert np.array_equal(got.grad, want.grad)


def _two_calls(kind):
    """f(T1, T2) = sum(node(T1) * node(T2)) with equal shapes: each VJP
    needs the values of the other call of the same node."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(B, 2))
    if kind == "mlp":
        dims = [(4, 2), (3, 4)]
        node = lambda T: lk.mlp(T, X, dims)
        dim = 4 * 2 + 4 + 3 * 4 + 3
    else:
        model, y = lk.LinearRegression(2, 0.5), rng.normal(size=B)
        node = lambda T: model.batch_log_lik(T, X, y)
        dim = 2

    def f(T1, T2):
        return ad.asum(node(T1) * node(T2))

    return f, [rng.normal(size=(7, dim)), rng.normal(size=(7, dim))]


@pytest.mark.parametrize("kind", ["mlp", "linreg"])
def test_a_node_called_twice_in_one_expression(kind):
    f, at = _two_calls(kind)
    want_value, want = ad.value_and_grad(f, at)
    with ad.reuse_buffers():
        for _ in range(2):
            value, grads = ad.value_and_grad(f, at)
            assert value == want_value
            for g, w in zip(grads, want):
                assert np.array_equal(g, w)


def test_results_survive_the_next_evaluation():
    calls = _evaluations()
    f, at = _two_calls("mlp")
    with ad.reuse_buffers():
        est = calls[0]()
        kept_grad = est.grad.copy()
        value, grads = ad.value_and_grad(f, at)
        kept = [g.copy() for g in grads]
        for call in calls:
            call()
        ad.value_and_grad(f, [a + 1.0 for a in at])
        assert np.array_equal(est.grad, kept_grad)
        for g, k in zip(grads, kept):
            assert np.array_equal(g, k)


def test_plain_array_calls_in_the_block_are_not_lent():
    f, at = _two_calls("mlp")
    rng = np.random.default_rng(2)
    X, y = rng.normal(size=(B, 2)), rng.normal(size=B)
    model = lk.LinearRegression(2, 0.5)
    Theta = rng.normal(size=(7, 2))
    with ad.reuse_buffers():
        ad.value_and_grad(f, at)
        out_mlp = lk.mlp(at[0], X, [(4, 2), (3, 4)])
        out_lin = model.batch_log_lik(Theta, X, y)
        kept_mlp, kept_lin = out_mlp.copy(), out_lin.copy()
        for _ in range(2):
            ad.value_and_grad(f, [a - 0.5 for a in at])
            ad.value_and_grad(lambda T: ad.asum(model.batch_log_lik(T, X, y)),
                              [Theta + 2.0])
        assert np.array_equal(out_mlp, kept_mlp)
        assert np.array_equal(out_lin, kept_lin)


def test_a_raising_evaluation_returns_its_buffers():
    lent = []

    def f(x):
        lent.append(ad.empty((3, 4)))
        if len(lent) == 1:
            raise RuntimeError("boom")
        return ad.asum(x)

    with ad.reuse_buffers():
        with pytest.raises(RuntimeError):
            ad.value_and_grad(f, [np.ones(2)])
        ad.value_and_grad(f, [np.ones(2)])
    assert lent[1] is lent[0]


def test_a_released_buffer_is_lent_once_to_the_next_request_of_its_key():
    got = {}

    def f(x):
        a, b = ad.empty((3, 4)), ad.empty((3, 4))
        ad.release(a)
        ad.release(a)                   # a second release changes nothing
        ad.release(np.empty((3, 4)))    # nor does one of an array not lent
        got["other"] = ad.empty((4, 3))
        got["next"], got["after"] = ad.empty((3, 4)), ad.empty((3, 4))
        got["a"], got["b"] = a, b
        return ad.asum(x)

    with ad.reuse_buffers():
        ad.value_and_grad(f, [np.ones(2)])
        assert got["next"] is got["a"]
        assert got["after"] is not got["a"] and got["after"] is not got["b"]
        assert got["other"] is not got["a"]
        first = got
        got = {}
        # every buffer went back once: the next call takes the same three
        ad.value_and_grad(f, [np.ones(2)])
    ids = lambda d: {id(d[k]) for k in ("a", "b", "after")}
    assert ids(got) == ids(first)


def test_release_outside_a_pooled_evaluation_changes_nothing():
    kept = np.zeros((2, 3))
    ad.release(kept)
    with ad.reuse_buffers():
        ad.release(kept)
        lent = ad.empty((2, 3))         # no evaluation runs: not lent
        assert lent is not kept and ad._buffers.lent is None
    ad.value_and_grad(lambda x: ad.release(kept) or ad.asum(x), [np.ones(2)])
    assert np.array_equal(kept, np.zeros((2, 3)))


def _spy_on_lent_buffers(monkeypatch):
    """Weak references to every buffer ad.empty lends to an evaluation."""
    refs, empty = [], ad.empty

    def spy(shape, dtype=float):
        buf = empty(shape, dtype)
        if ad._buffers.lent is not None:
            refs.append(weakref.ref(buf))
        return buf

    monkeypatch.setattr(ad, "empty", spy)
    return refs


def _linreg_problem(seed=0, n=16):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = X @ np.array([1.0, -1.0]) + rng.normal(0, 0.5, size=n)
    return lk.Dataset(X, y), lk.LinearRegression(2, 0.25)


def test_the_pool_is_dropped_at_block_exit(monkeypatch):
    refs = _spy_on_lent_buffers(monkeypatch)
    data, model = _linreg_problem()
    cfg = TrainConfig(alpha=0.5, k_samples=20, batch_size=8, epochs=3, seed=0)
    train(model, data, default_prior(2), cfg)
    gc.collect()
    assert refs and all(r() is None for r in refs)
    assert ad._buffers.free is None


@pytest.mark.parametrize("settings", [
    dict(learning_rate=40.0, divergence_factor=2.0, epochs=60),
    dict(alpha=500.0),                  # beyond N: an improper cavity at step 0
], ids=["energy_grew", "improper_cavity"])
def test_the_pool_is_dropped_when_train_raises(monkeypatch, settings):
    refs = _spy_on_lent_buffers(monkeypatch)
    data, model = _linreg_problem()
    cfg = TrainConfig(**{**dict(alpha=0.5, k_samples=5, batch_size=16,
                                seed=0), **settings})
    with pytest.raises(DivergenceDetected):
        train(model, data, default_prior(2), cfg)
    gc.collect()
    assert refs and all(r() is None for r in refs)
    assert ad._buffers.free is None


def _spy_on_evaluations(monkeypatch):
    """Whether a pool was active at each call of ad.value_and_grad."""
    active, value_and_grad = [], ad.value_and_grad

    def spy(f, at):
        active.append(ad._buffers.free is not None)
        return value_and_grad(f, at)

    monkeypatch.setattr(ad, "value_and_grad", spy)
    return active


@pytest.mark.parametrize("mode", ["mc", "exact"])
def test_train_evaluates_with_the_pool_active(monkeypatch, mode):
    active = _spy_on_evaluations(monkeypatch)
    data, model = _linreg_problem()
    cfg = TrainConfig(alpha=0.5, k_samples=5, batch_size=8, epochs=2,
                      energy_mode=mode, seed=0)
    train(model, data, default_prior(2), cfg)
    assert len(active) == (2 if mode == "exact" else 4) and all(active)


def test_bias_study_evaluates_with_the_pool_active(monkeypatch):
    active = _spy_on_evaluations(monkeypatch)
    data, model = _linreg_problem(n=30)
    q = FactorizedGaussian(np.array([0.9, -0.9]), np.array([-3.0, -3.0]))
    gradient_bias_study(model, data, q, default_prior(2), alphas=[0.5],
                        ks=[1, 5], n_minibatches=2, n_repeats=3,
                        k_truth=100, batch_size=8)
    # per minibatch and column: one reference and n_repeats per K
    assert len(active) == 2 * 2 * (1 + 2 * 3) and all(active)
