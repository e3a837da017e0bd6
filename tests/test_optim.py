"""Optimizer components and the training loop."""

import pickle

import numpy as np
import pytest

from bbalpha import autodiff as ad
from bbalpha import likelihoods as lk
from bbalpha.energy import AlphaParam, bbalpha_energy_exact
from bbalpha.errors import DivergenceDetected, NonFiniteIntermediate
from bbalpha.optim import (AdamState, TrainConfig, adam_step, default_prior,
                           glorot_layer_dims, init_q, robbins_monro_lr, train)


def test_adam_first_step_is_learning_rate_sized():
    state = AdamState(np.zeros(3), np.zeros(3))
    w = np.zeros(3)
    g = np.array([1.0, -2.0, 0.5])
    w1 = adam_step(state, w, g, lr=0.1)
    # bias correction makes the first step ~ lr * sign(g)
    assert np.allclose(w1, -0.1 * np.sign(g), atol=1e-6)


def test_adam_accumulates_momentum():
    state = AdamState(np.zeros(1), np.zeros(1))
    w = np.zeros(1)
    for _ in range(10):
        w = adam_step(state, w, np.array([1.0]), lr=0.1)
    assert state.t == 10
    assert w[0] < -0.9  # steady descent on a constant gradient


def test_robbins_monro_schedule():
    cfg = TrainConfig(sgd_a=1.0, sgd_b=10.0)
    assert robbins_monro_lr(cfg, 0) == pytest.approx(0.1)
    assert robbins_monro_lr(cfg, 90) == pytest.approx(0.01)


def test_glorot_layer_dims_cover_parameter_vector():
    model = lk.MLPClassification(3, 5, 4, 2)
    total = sum(c for (_, _, c) in glorot_layer_dims(model))
    assert total == model.theta_dim
    model_r = lk.MLPRegression(3, 5)
    total_r = sum(c for (_, _, c) in glorot_layer_dims(model_r))
    assert total_r == model_r.theta_dim


@pytest.mark.parametrize("model, blocks", [
    # (fan_in, fan_out, count) per weight and bias block, written out
    (lk.MLPRegression(3, 5), [(3, 5, 15), (3, 5, 5), (5, 1, 5), (5, 1, 1)]),
    (lk.MLPClassification(3, 5, 4, 2),
     [(3, 5, 15), (3, 5, 5), (5, 4, 20), (5, 4, 4), (4, 2, 8), (4, 2, 2)]),
])
def test_glorot_init_follows_the_layer_layout(model, blocks):
    cfg = TrainConfig(init="glorot", seed=3)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[0])
    want = np.concatenate([rng.normal(0.0, np.sqrt(2.0 / (i + o)), size=c)
                           for i, o, c in blocks])
    assert glorot_layer_dims(model) == blocks
    assert init_q(model, cfg).mu.tobytes() == want.tobytes()


def test_init_q_policies():
    model = lk.MLPRegression(2, 4)
    small = init_q(model, TrainConfig(init="small-normal", init_std=0.1, seed=0))
    assert np.all(small.log_var == -10.0)
    assert np.std(small.mu) < 0.5
    glorot = init_q(model, TrainConfig(init="glorot", seed=0))
    assert glorot.dim == model.theta_dim
    with pytest.raises(ValueError):
        init_q(model, TrainConfig(init="unknown"))


def test_init_q_deterministic_in_seed():
    model = lk.MLPRegression(2, 4)
    a = init_q(model, TrainConfig(seed=5))
    b = init_q(model, TrainConfig(seed=5))
    c = init_q(model, TrainConfig(seed=6))
    assert np.array_equal(a.mu, b.mu)
    assert not np.array_equal(a.mu, c.mu)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=100).validate(10)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0).validate(10)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="sgd", sgd_a=0.0).validate(10)


def _linreg_problem(seed=0, n=16, d=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = np.array([1.0, -1.0])
    y = X @ w + rng.normal(0, 0.5, size=n)
    return lk.Dataset(X, y), lk.LinearRegression(d, 0.25)


def test_train_is_bit_reproducible():
    data, model = _linreg_problem()
    cfg = TrainConfig(alpha=0.5, k_samples=20, batch_size=8, epochs=5, seed=3)
    prior = default_prior(model.theta_dim)
    q1, _, t1 = train(model, data, prior, cfg)
    q2, _, t2 = train(model, data, prior, cfg)
    assert np.array_equal(q1.mu, q2.mu)
    assert np.array_equal(q1.log_var, q2.log_var)
    assert t1.energy == t2.energy


def test_train_decreases_energy():
    data, model = _linreg_problem()
    cfg = TrainConfig(alpha=0.5, k_samples=30, batch_size=16, epochs=80,
                      learning_rate=0.05, seed=0)
    _, _, trace = train(model, data, default_prior(model.theta_dim), cfg)
    assert trace.energy[-1] < trace.energy[0]
    assert len(trace.energy) == len(trace.grad_norm) == len(trace.wall_time) == 80


def test_train_sgd_path_runs():
    data, model = _linreg_problem()
    cfg = TrainConfig(alpha=0.5, optimizer="sgd", sgd_a=0.05, sgd_b=10.0,
                      k_samples=20, batch_size=8, epochs=10, seed=0)
    _, _, trace = train(model, data, default_prior(model.theta_dim), cfg)
    assert np.all(np.isfinite(trace.energy))


def test_train_exact_mode_reaches_analytic_optimum():
    data, model = _linreg_problem(seed=1, n=10)
    cfg = TrainConfig(alpha=0.7, energy_mode="exact", epochs=3000,
                      batch_size=10, learning_rate=0.02, init_log_var=-2.0,
                      seed=0)
    q, _, trace = train(model, data, default_prior(model.theta_dim), cfg)
    from bbalpha.energy import stationarity_residual
    res = stationarity_residual(q, default_prior(model.theta_dim), model,
                                data, AlphaParam(0.7, data.n))
    assert res < 1e-6


def test_train_vb_and_tiny_alpha_agree():
    data, model = _linreg_problem(seed=2)
    kw = dict(k_samples=30, batch_size=16, epochs=40, learning_rate=0.02, seed=9)
    q_vb, _, _ = train(model, data, default_prior(2), TrainConfig(alpha="vb", **kw))
    q_a, _, _ = train(model, data, default_prior(2), TrainConfig(alpha=1e-6, **kw))
    assert np.allclose(q_vb.mu, q_a.mu, atol=1e-6)
    assert np.allclose(q_vb.log_var, q_a.log_var, atol=1e-6)


def test_train_learn_noise_moves_hyper():
    data, _ = _linreg_problem()
    model = lk.MLPRegression(2, 4, log_sigma2=0.0, learn_noise=True)
    cfg = TrainConfig(alpha=0.5, k_samples=20, batch_size=16, epochs=30,
                      learning_rate=0.02, learn_noise=True, seed=0)
    _, hypers, _ = train(model, data, default_prior(model.theta_dim), cfg)
    assert "log_sigma2" in hypers
    assert hypers["log_sigma2"] != 0.0


def test_train_divergence_guard_fires():
    data, model = _linreg_problem()
    cfg = TrainConfig(alpha=0.5, k_samples=5, batch_size=16, epochs=60,
                      learning_rate=40.0, divergence_factor=2.0, seed=0)
    with pytest.raises(DivergenceDetected) as e:
        train(model, data, default_prior(model.theta_dim), cfg)
    assert e.value.epoch is not None


class _DriftModel:
    """log p = -0.1 nats times the number of earlier calls, whatever theta.
    With q started at the prior the epoch-0 energy is exactly 0, and each
    one-step epoch adds N * 0.1 nats to it."""

    kind = "stub"
    theta_dim = 2

    def __init__(self):
        self.calls = 0

    def batch_log_lik(self, Theta, X, y, hyper=None):
        ll = np.full((ad._val(Theta).shape[0], len(y)), -0.1 * self.calls)
        self.calls += 1
        return ll


def test_divergence_guard_ignores_rise_over_near_zero_baseline():
    data, _ = _linreg_problem()
    cfg = TrainConfig(alpha=0.5, k_samples=5, batch_size=16, epochs=4,
                      init_std=0.0, init_log_var=0.0, seed=0)
    _, _, trace = train(_DriftModel(), data, default_prior(2), cfg)
    assert abs(trace.energy[0]) < 1e-12
    assert 4.0 < trace.energy[-1] < 10.0


class _ZeroSqrtModel:
    """log p = sqrt(theta - theta) . x: the value is 0 but the slope is
    infinite, so the first gradient is non-finite while the energy is not."""

    kind = "stub"
    theta_dim = 2

    def batch_log_lik(self, Theta, X, y, hyper=None):
        return ad.dot(ad.sqrt(Theta - Theta), X.T)


class _OverflowModel:
    """log p = (theta * 1e300 * 1e300) . x overflows in the forward pass."""

    kind = "stub"
    theta_dim = 2

    def batch_log_lik(self, Theta, X, y, hyper=None):
        return ad.dot(Theta * 1e300 * 1e300, X.T)


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("alpha", [0.5, "vb"])
def test_train_nonfinite_gradient_raises_at_first_step(alpha):
    data, _ = _linreg_problem()
    cfg = TrainConfig(alpha=alpha, k_samples=5, batch_size=8, epochs=3, seed=0)
    with pytest.raises(DivergenceDetected) as e:
        train(_ZeroSqrtModel(), data, default_prior(2), cfg)
    assert e.value.epoch == 0
    assert e.value.step == 0
    assert e.value.op_name is None


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_train_forward_overflow_raises_divergence_with_op_name():
    data, _ = _linreg_problem()
    cfg = TrainConfig(alpha=0.5, k_samples=5, batch_size=8, epochs=3, seed=0)
    with pytest.raises(DivergenceDetected) as e:
        train(_OverflowModel(), data, default_prior(2), cfg)
    assert (e.value.epoch, e.value.step, e.value.op_name) == (0, 0, "mul")
    assert isinstance(e.value.__cause__, NonFiniteIntermediate)


def test_error_fields_survive_pickling():
    # ProcessPoolExecutor workers send exceptions back pickled
    err = pickle.loads(pickle.dumps(
        DivergenceDetected("boom", epoch=2, step=7, op_name="mul")))
    assert (str(err), err.epoch, err.step, err.op_name) == ("boom", 2, 7, "mul")
    inner = pickle.loads(pickle.dumps(NonFiniteIntermediate("exp")))
    assert inner.op_name == "exp"
    assert str(inner) == str(NonFiniteIntermediate("exp"))
