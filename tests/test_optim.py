"""Optimizer components and the training loop."""

import io
import os
import pickle
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from bbalpha import autodiff as ad
from bbalpha import energy as en
from bbalpha import expfam
from bbalpha import likelihoods as lk
from bbalpha import optim
from bbalpha.diagnostics import gradient_bias_study
from bbalpha.energy import AlphaParam
from bbalpha.errors import (DivergenceDetected, ImproperCavity,
                            NonFiniteIntermediate, ShapeMismatch)
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


def test_adam_step_matches_the_out_of_place_update_bit_for_bit():
    rng = np.random.default_rng(7)
    w = rng.normal(size=11)
    state = AdamState(np.zeros(11), np.zeros(11))
    want, m, v = w, np.zeros(11), np.zeros(11)
    for t in range(1, 6):
        g = rng.normal(size=11) * 10.0 ** rng.uniform(-6, 6, size=11)
        w = adam_step(state, w, g, 0.01)
        m = 0.9 * m + (1 - 0.9) * g
        v = 0.999 * v + (1 - 0.999) * g * g
        m_hat, v_hat = m / (1 - 0.9 ** t), v / (1 - 0.999 ** t)
        want = want - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.array_equal(w, want)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
    assert state.t == 5


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
    for std in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="init_std must be finite and >= 0"):
            TrainConfig(init_std=std).validate(100)
    TrainConfig(init_std=0.0).validate(100)


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
    model = lk.MLPRegression(2, 4, log_sigma2=0.0)
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
    """log p = sqrt(theta - theta) . x, with sqrt a node of its own: the
    value is 0 but the slope is infinite, so the first gradient is
    non-finite while the energy is not."""

    kind = "stub"
    theta_dim = 2

    def batch_log_lik(self, Theta, X, y, hyper=None):
        zero = Theta - Theta
        out = np.sqrt(zero.value)
        root = ad.node(out, "sqrt", (zero, lambda g: g * 0.5 / out))
        return ad.dot(root, X.T)


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


# (None, None): a helper thread that stays on the CPUs it starts on
@pytest.mark.parametrize("threaded", [False, True])
def test_eps_stream_draws_exactly_the_serial_blocks(threaded):
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    blocks = [b.copy() for b in optim._eps_stream(
        rng, 4, (3, 2), (None, None) if threaded else None)]
    want = [ref.standard_normal((3, 2)) for _ in range(4)]
    assert [b.tobytes() for b in blocks] == [w.tobytes() for w in want]
    assert rng.bit_generator.state == ref.bit_generator.state  # no fifth block


class _FailingRng:
    """A generator whose draw number `fails` (from 0) raises."""

    def __init__(self, fails):
        self.rng, self.fails, self.calls = np.random.default_rng(5), fails, 0

    def standard_normal(self, out):
        self.calls += 1
        if self.calls > self.fails:
            raise MemoryError("draw %d" % self.fails)
        return self.rng.standard_normal(out=out)


@pytest.mark.parametrize("threaded", [False, True])
@pytest.mark.parametrize("fails", [0, 2])
def test_a_failing_draw_raises_at_its_own_block(threaded, fails):
    rng, ref = _FailingRng(fails), np.random.default_rng(5)
    before = set(threading.enumerate())
    stream = optim._eps_stream(rng, 4, (3, 2),
                               (None, None) if threaded else None)
    for _ in range(fails):
        assert next(stream).tobytes() == ref.standard_normal((3, 2)).tobytes()
    with pytest.raises(MemoryError, match="draw %d" % fails):
        next(stream)
    assert set(threading.enumerate()) == before     # the helper is joined
    assert rng.calls == fails + 1


@pytest.mark.parametrize("taken", [0, 1, 3, 6])
def test_closing_the_stream_joins_the_helper(taken):
    # the helper draws at most one block ahead of the caller's request, and
    # it may or may not have drawn that block when the stream is closed; a
    # stream closed before its first block starts no helper
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    before = set(threading.enumerate())
    stream = optim._eps_stream(rng, 6, (3, 2), (None, None))
    for _ in range(taken):
        next(stream)
    stream.close()
    assert set(threading.enumerate()) == before
    states = [ref.bit_generator.state]
    for _ in range(6):
        ref.standard_normal((3, 2))
        states.append(ref.bit_generator.state)
    drawn = states.index(rng.bit_generator.state)
    assert drawn in ({0} if taken == 0 else {taken, min(taken + 1, 6)})


def test_streams_under_fast_thread_switching_keep_each_block():
    # four streams at once, eight threads on any CPU count, switching every
    # microsecond: a helper that wrote into the block its caller holds would
    # change it before the caller asks for the next one
    interval, results = sys.getswitchinterval(), []

    def consume(seed):
        ref, ok = np.random.default_rng(seed), True
        for block in optim._eps_stream(np.random.default_rng(seed), 300,
                                       (4, 3), (None, None)):
            held = block.copy()
            time.sleep(0)               # the helper may run now
            ok = (ok and held.tobytes() == block.tobytes()
                  == ref.standard_normal((4, 3)).tobytes())
        results.append(ok)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=consume, args=(seed,))
                   for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [True] * 4


def _wide_linreg(d, n=16):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(n, d)) / np.sqrt(d)
    y = X @ rng.normal(size=d) + rng.normal(0.0, 0.5, size=n)
    return lk.Dataset(X, y), lk.LinearRegression(d, 0.25)


@pytest.fixture
def two_cpus(monkeypatch):
    """Report two allowed CPUs, so that train may start the ε helper on any
    host; the helper's own move is left to the real call."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


# K * dim = 40 draws in line, 40,000 on the helper thread
@pytest.mark.parametrize("d, k, threaded", [(2, 20, False), (400, 100, True)])
@pytest.mark.parametrize("refresh_every", [1, 3])
def test_train_eps_is_the_serial_stream(monkeypatch, two_cpus, d, k, threaded,
                                        refresh_every):
    data, model = _wide_linreg(d)
    # 2 epochs of ceil(16 / 5) = 4 steps: 8 steps, ceil(8 / r) refreshes
    cfg = TrainConfig(alpha=0.5, k_samples=k, batch_size=5, epochs=2,
                      refresh_every=refresh_every, seed=11)
    assert (k * d >= optim._EPS_THREAD_MIN) == threaded
    seen, threads, counts = [], [], []
    energy, stream = en.SlotLayout.mc_estimates, optim._eps_stream

    def spy_energy(layout, w, model, data, batch, alpha, eps_blocks):
        (eps,) = eps_blocks
        seen.append(eps.copy())
        threads.append(threading.active_count())
        return energy(layout, w, model, data, batch, alpha, eps_blocks)

    def spy_stream(rng, n, shape, place=None):
        counts.append(n)
        return stream(rng, n, shape, place)

    monkeypatch.setattr(en.SlotLayout, "mc_estimates", spy_energy)
    monkeypatch.setattr(optim, "_eps_stream", spy_stream)
    before = threading.active_count()
    train(model, data, default_prior(d), cfg)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[2])
    want = []
    for step in range(8):
        if step % refresh_every == 0:
            block = rng.standard_normal((k, d))
        want.append(block.tobytes())
    assert [e.tobytes() for e in seen] == want
    assert counts == [-(-8 // refresh_every)]
    assert threads == [before + threaded] * 8
    assert threading.active_count() == before


@pytest.mark.parametrize("outcome", ["returns", "raises", "exact"])
def test_no_thread_outlives_train(monkeypatch, two_cpus, outcome):
    data, model = _wide_linreg(400)
    cfg = TrainConfig(alpha=0.5, k_samples=100, batch_size=5, epochs=2, seed=0,
                      energy_mode="exact" if outcome == "exact" else "mc")
    name = "exact_estimate" if outcome == "exact" else "mc_estimates"
    energy, threads = getattr(en.SlotLayout, name), []

    def spy(*args, **kw):
        threads.append(threading.active_count())
        if outcome == "raises" and len(threads) == 4:
            raise ImproperCavity("negative cavity precision")
        return energy(*args, **kw)

    monkeypatch.setattr(en.SlotLayout, name, spy)
    before = set(threading.enumerate())
    if outcome == "raises":
        with pytest.raises(DivergenceDetected) as e:
            train(model, data, default_prior(400), cfg)
        assert e.value.step == 3
    else:
        train(model, data, default_prior(400), cfg)
    assert set(threading.enumerate()) == before
    # the helper ran in mc mode, and exact mode draws nothing and starts none
    extra = 0 if outcome == "exact" else 1
    assert set(threads) == {len(before) + extra}


def _threaded_run(monkeypatch):
    """train() on d 400, K 100, where the ε helper draws, and the number of
    threads seen at each of its 8 steps."""
    data, model = _wide_linreg(400)
    cfg = TrainConfig(alpha=0.5, k_samples=100, batch_size=5, epochs=2, seed=3)
    energy, threads = en.SlotLayout.mc_estimates, []

    def spy(*args):
        threads.append(threading.active_count())
        return energy(*args)

    monkeypatch.setattr(en.SlotLayout, "mc_estimates", spy)
    q, _, _ = train(model, data, default_prior(400), cfg)
    return q.mu.tobytes() + q.log_var.tobytes(), threads


def test_one_allowed_cpu_draws_in_line(monkeypatch, two_cpus):
    want, threads = _threaded_run(monkeypatch)
    before = threading.active_count()
    assert threads == [before + 1] * 8
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    got, threads = _threaded_run(monkeypatch)
    assert threads == [before] * 8
    assert got == want


def _no_stat_file(path, *args, **kw):
    if str(path).startswith("/proc/"):
        raise PermissionError(13, "Permission denied", path)
    return open(path, *args, **kw)


@pytest.mark.parametrize("failure", ["setaffinity", "proc", "no_calls"])
def test_helper_placement_never_breaks_a_run(monkeypatch, two_cpus, failure):
    want, _ = _threaded_run(monkeypatch)
    calls = []
    if failure == "setaffinity":
        def fails(pid, cpus):
            calls.append(cpus)
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", fails, raising=False)
        monkeypatch.setattr(optim, "_current_cpu", lambda: 0)
    elif failure == "proc":
        monkeypatch.setattr(optim, "open", _no_stat_file, raising=False)
        assert optim._current_cpu() is None
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    before = threading.active_count()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, threads = _threaded_run(monkeypatch)
    assert caught == []
    assert got == want
    assert threads == [before + 1] * 8      # the helper still draws
    assert calls == ([{1}] if failure == "setaffinity" else [])


@pytest.mark.parametrize("outcome", ["returns", "raises"])
def test_helper_alone_moves_off_the_training_cpu(monkeypatch, outcome):
    real_get = getattr(os, "sched_getaffinity", None)
    real_set = getattr(os, "sched_setaffinity", None)
    if real_get is None or real_set is None:
        pytest.skip("the platform cannot set a thread's CPUs")
    calls = []

    def spy(pid, cpus):
        calls.append((threading.current_thread(), pid, set(cpus)))
        real_set(pid, cpus)

    affinity = real_get(0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "sched_setaffinity", spy)
    monkeypatch.setattr(optim, "_current_cpu", lambda: 0)
    if outcome == "raises":
        def fail(*args):
            raise ImproperCavity("negative cavity precision")

        monkeypatch.setattr(en.SlotLayout, "mc_estimates", fail)
        data, model = _wide_linreg(400)
        cfg = TrainConfig(alpha=0.5, k_samples=100, batch_size=5, epochs=2)
        with pytest.raises(DivergenceDetected):
            train(model, data, default_prior(400), cfg)
    else:
        _threaded_run(monkeypatch)
    assert len(calls) == 1
    thread, pid, cpus = calls[0]
    assert thread is not threading.current_thread()
    assert thread.name == "bbalpha-eps"
    assert (pid, cpus) == (0, {1})
    assert real_get(0) == affinity


def test_current_cpu_reads_field_39(monkeypatch):
    # a command name may hold spaces and parentheses
    fields = ["1234", "(a) (b c)", "R"] + [str(i) for i in range(4, 53)]
    stat = " ".join(fields).encode()
    monkeypatch.setattr(optim, "open", lambda *a: io.BytesIO(stat),
                        raising=False)
    assert optim._current_cpu() == 39


def test_helper_runs_beside_the_training_thread(monkeypatch):
    allowed = optim._allowed_cpus()
    cpu = optim._current_cpu()
    if allowed is None or len(allowed) < 2 or cpu is None:
        pytest.skip("needs two allowed CPUs and Linux's per-thread stat file")
    seen, move_off, current_cpu = [], optim._move_off, optim._current_cpu

    def spy_cpu():
        seen.append(current_cpu())
        return seen[-1]

    def spy_move(allowed, cpu):
        move_off(allowed, cpu)
        seen.append(os.sched_getaffinity(0))

    monkeypatch.setattr(optim, "_current_cpu", spy_cpu)
    monkeypatch.setattr(optim, "_move_off", spy_move)
    _threaded_run(monkeypatch)
    cpu, helper_cpus = seen
    assert helper_cpus == allowed - {cpu}
    assert optim._allowed_cpus() == allowed


@pytest.mark.parametrize("mode", ["mc", "exact"])
def test_train_sets_the_slot_layout_up_once(monkeypatch, mode):
    # 3 epochs of 4 steps (mc) or of 1 step (exact), with a learned prior
    data, model = _wide_linreg(2)
    cfg = TrainConfig(alpha=0.5, k_samples=5, batch_size=4, epochs=3, seed=0,
                      learn_prior=True, energy_mode=mode)
    prior = default_prior(2)
    counts = {"_prior_mv": 0, "FactorizedGaussian": 0, "NaturalParams": 0}

    def count(name, fn):
        def spy(*args):
            counts[name] += 1
            return fn(*args)
        return spy

    monkeypatch.setattr(en, "_prior_mv", count("_prior_mv", en._prior_mv))
    for cls in (expfam.FactorizedGaussian, expfam.NaturalParams):
        monkeypatch.setattr(cls, "__post_init__",
                            count(cls.__name__, cls.__post_init__))
    train(model, data, prior, cfg)
    # init_q's q and the returned q, and the returned prior, which the
    # prior slots' FactorizedGaussian converts
    assert counts == {"_prior_mv": 1, "FactorizedGaussian": 3,
                      "NaturalParams": 1}


def test_prior_of_another_dim_is_a_shape_mismatch():
    data, model = _wide_linreg(2)
    with pytest.raises(ShapeMismatch, match="prior dim 3 vs 2"):
        train(model, data, default_prior(3),
              TrainConfig(alpha=0.5, k_samples=5, batch_size=4, epochs=1))
    q = init_q(model, TrainConfig())
    with pytest.raises(ShapeMismatch, match="prior dim 3 vs 2"):
        en.bbalpha_energy_mc(q, default_prior(3), model, data, np.arange(4),
                             AlphaParam(0.5, data.n), np.zeros((5, 2)))
    with pytest.raises(ShapeMismatch, match="prior dim 3 vs 2"):
        en.bbalpha_energy_exact(q, default_prior(3), model, data,
                                AlphaParam(0.5, data.n))
    with pytest.raises(ShapeMismatch, match="prior dim 3 vs 2"):
        en.vb_energy_exact(q, default_prior(3), model, data)


def test_q_of_another_dim_than_the_model_is_a_shape_mismatch():
    # checked once by the slot layout, before the model reshapes theta
    data, model = _wide_linreg(2)
    mlp = lk.MLPRegression(2, 3)
    q = init_q(model, TrainConfig())
    with pytest.raises(ShapeMismatch, match="q dim 2 vs model theta_dim 13"):
        en.bbalpha_energy_mc(q, default_prior(2), mlp, data, np.arange(4),
                             AlphaParam(0.5, data.n), np.zeros((5, 2)))
    wide = init_q(lk.LinearRegression(3, 1.0), TrainConfig())
    with pytest.raises(ShapeMismatch, match="q dim 3 vs model theta_dim 2"):
        en.bbalpha_energy_exact_grad(wide, default_prior(3), model, data,
                                     AlphaParam(0.5, data.n))
    with pytest.raises(ShapeMismatch, match="q dim 2 vs model theta_dim 13"):
        gradient_bias_study(mlp, data, q, default_prior(2), alphas=[0.5],
                            ks=[1], n_minibatches=1, n_repeats=1, k_truth=2,
                            batch_size=4)


# the five closed forms; exact_grad reaches SlotLayout.exact_estimate
_CLOSED_FORMS = {
    "energy_exact": en.bbalpha_energy_exact,
    "energy_exact_grad": en.bbalpha_energy_exact_grad,
    "vb_energy_exact": lambda q, prior, model, data, alpha:
        en.vb_energy_exact(q, prior, model, data),
    "lower_bound_certificate": en.lower_bound_certificate,
    "stationarity_residual": en.stationarity_residual,
}


@pytest.mark.parametrize("form", sorted(_CLOSED_FORMS))
def test_closed_forms_reject_a_q_of_another_dim_than_the_model(form):
    # one entry check, before numpy's broadcast error inside the form
    data, model = _wide_linreg(2)
    wide = init_q(lk.LinearRegression(3, 1.0), TrainConfig())
    with pytest.raises(ShapeMismatch, match="q dim 3 vs model theta_dim 2"):
        _CLOSED_FORMS[form](wide, default_prior(3), model, data,
                            AlphaParam(0.5, data.n))


def test_grad_norm_is_finite_where_the_squares_overflow():
    # a finite gradient of 1e200 scale, whose squares overflow
    assert optim._norm(np.array([3e200, -4e200])) == pytest.approx(5e200, rel=1e-15)
    g = np.random.default_rng(0).normal(size=7)
    assert optim._norm(g) == float(np.linalg.norm(g))      # bit for bit
    # sigma2 = 1e-300 makes the VB gradient about 1e301 in norm
    data, _ = _wide_linreg(2)
    _, _, trace = train(lk.LinearRegression(2, 1e-300), data, default_prior(2),
                        TrainConfig(alpha="vb", k_samples=5, batch_size=8,
                                    epochs=2))
    assert np.isfinite(trace.grad_norm).all() and min(trace.grad_norm) > 1e290
