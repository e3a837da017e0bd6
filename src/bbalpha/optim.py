"""Stochastic optimization of the energy objectives.

Adam and Robbins-Monro SGD over the slot vector w that energy.SlotLayout
defines, built once per run, with per-epoch batch partitions, periodic
epsilon refresh and a divergence guard.
PRNG streams for initialization, batching and sampling are split from the
master seed so runs are reproducible bit-for-bit.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .energy import AlphaParam, SlotLayout
from .errors import (ConfigError, DivergenceDetected, ImproperCavity,
                     NonFiniteIntermediate)
from .expfam import FactorizedGaussian, NaturalParams


@dataclass
class TrainConfig:
    """Full specification of one training run."""

    alpha: object = "vb"          # float, or "vb" for the variational path
    k_samples: int = 100
    batch_size: int = 32
    epochs: int = 200
    optimizer: str = "adam"       # "adam" or "sgd"
    learning_rate: float = 0.001
    sgd_a: float = 0.1            # Robbins-Monro schedule gamma_t = a / (b + t)
    sgd_b: float = 10.0
    refresh_every: int = 1
    init: str = "small-normal"    # "small-normal" or "glorot"
    init_std: float = 0.1
    init_log_var: float = -10.0
    seed: int = 0
    learn_noise: bool = False
    learn_prior: bool = False
    energy_mode: str = "mc"       # "mc" or "exact" (conjugate models only)
    divergence_factor: float = 10.0

    def validate(self, n_data):
        if self.alpha in (0.0, n_data):
            raise ConfigError("alpha must not be 0 (use 'vb') or the training "
                              "set size %d, got %r" % (n_data, self.alpha))
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError("unknown optimizer %r" % self.optimizer)
        if self.energy_mode not in ("mc", "exact"):
            raise ConfigError("unknown energy_mode %r" % self.energy_mode)
        if self.energy_mode == "exact" and self.alpha == "vb":
            raise ConfigError("energy_mode 'exact' needs a numeric alpha")
        if min(self.epochs, self.k_samples, self.batch_size,
               self.refresh_every) < 1:
            raise ConfigError("epochs, k_samples, batch_size and "
                              "refresh_every must be >= 1")
        if self.energy_mode == "mc" and self.batch_size > n_data:
            raise ConfigError("batch_size exceeds dataset size")
        if self.optimizer == "sgd" and (self.sgd_a <= 0 or self.sgd_b <= 0):
            raise ConfigError("SGD schedule requires a, b > 0")
        if not 0.0 <= self.init_std < np.inf:       # NaN fails too
            raise ConfigError("init_std must be finite and >= 0, got %r"
                              % self.init_std)


@dataclass
class TrainTrace:
    """Per-epoch bookkeeping emitted by train()."""

    energy: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    wall_time: list = field(default_factory=list)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_step(state: AdamState, params, grad, lr, beta1=0.9, beta2=0.999,
              eps_hat=1e-8):
    """One bias-corrected Adam update, moments in place; returns new params."""
    state.t += 1
    tmp = np.multiply(grad, 1 - beta1)
    state.m *= beta1
    state.m += tmp
    state.v *= beta2
    state.v += np.multiply(np.multiply(grad, 1 - beta2, out=tmp), grad, out=tmp)
    np.sqrt(np.divide(state.v, 1 - beta2 ** state.t, out=tmp), out=tmp)
    tmp += eps_hat
    step = np.divide(state.m, 1 - beta1 ** state.t)
    step *= lr
    return np.subtract(params, np.divide(step, tmp, out=step), out=step)


def _norm(g):
    """The 2-norm of g, with g scaled by its largest magnitude only when the
    squares overflow: finite for a finite g unless beyond the float range."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(g)
        if not np.isfinite(norm):
            top = np.abs(g).max()
            norm = top * np.linalg.norm(g / top)
    return float(norm)


def robbins_monro_lr(cfg: TrainConfig, t):
    return cfg.sgd_a / (cfg.sgd_b + t)


def glorot_layer_dims(model):
    """(d_in, d_out, count) blocks covering an MLP's packed parameter vector."""
    if hasattr(model, "layer_dims"):
        blocks = []
        for (nout, nin) in model.layer_dims:
            blocks.append((nin, nout, nout * nin))
            blocks.append((nin, nout, nout))
        return blocks
    return [(model.theta_dim, 1, model.theta_dim)]


def init_q(model, cfg: TrainConfig) -> FactorizedGaussian:
    """Initial q: means per policy, log-variances all at cfg.init_log_var."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[0])
    dim = model.theta_dim
    if cfg.init == "small-normal":
        mu = rng.normal(0.0, cfg.init_std, size=dim)
    elif cfg.init == "glorot":
        parts = []
        for (d_in, d_out, count) in glorot_layer_dims(model):
            std = np.sqrt(2.0 / (d_in + d_out))
            parts.append(rng.normal(0.0, std, size=count))
        mu = np.concatenate(parts)
    else:
        raise ConfigError("unknown init policy %r" % cfg.init)
    return FactorizedGaussian(mu, np.full(dim, float(cfg.init_log_var)))


def default_prior(dim) -> NaturalParams:
    """Standard-normal factorized prior."""
    return NaturalParams(np.zeros(dim), -0.5 * np.ones(dim))


# On a 2-CPU x86 VM a normal takes 12-20 ns to draw, and handing a draw to
# the helper thread on another CPU costs the training thread about 70 us per
# step.  From 1 << 15 normals (0.4-0.6 ms) the overlap saves more than the
# hand-off costs; with a thread for every size, probit training (K*dim = 800,
# a 10 us draw) ran about 30% slower.
_EPS_THREAD_MIN = 1 << 15


def _allowed_cpus():
    """The CPUs this thread may run on; None where the platform cannot say."""
    try:
        return os.sched_getaffinity(0)
    except (AttributeError, OSError):
        return None


def _current_cpu():
    """The CPU this thread runs on now (field 39 of Linux's per-thread stat
    file); None where it cannot be read."""
    try:
        with open("/proc/thread-self/stat", "rb") as f:
            # field 2, the command name, may hold spaces and parentheses
            return int(f.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _move_off(allowed, cpu):
    """Restrict the calling thread to the CPUs in `allowed` other than `cpu`.

    The ε helper runs this once, before its first draw: a new thread starts
    on its creator's CPU, where the draw and the step would take turns.
    Where `allowed` or `cpu` is unknown (None) or the call fails, the
    thread stays where it is.
    """
    if allowed is None or cpu is None:
        return
    try:
        os.sched_setaffinity(0, allowed - {cpu})
    except OSError:
        pass


def _eps_stream(rng, n, shape, pool=None):
    """Yield the n blocks that n calls of rng.standard_normal(shape) give.

    Without a pool one buffer is refilled in line.  With one, the next block
    is drawn into a second buffer on the pool's thread while the caller uses
    the current block, so a yielded block is valid only until the next one
    is requested.  Only the pool's thread touches `rng` once a block is
    submitted, and the blocks come in the same order either way.
    """
    if pool is None:
        buf = np.empty(shape)
        for _ in range(n):
            rng.standard_normal(out=buf)
            yield buf
        return
    bufs = (np.empty(shape), np.empty(shape))
    pending = pool.submit(rng.standard_normal, out=bufs[0])
    for i in range(n):
        pending.result()
        if i + 1 < n:
            pending = pool.submit(rng.standard_normal, out=bufs[(i + 1) % 2])
        yield bufs[i % 2]


# every step allocates (K, .) arrays of the same shapes: a pool lends them,
# where freed ones would go back to the operating system after each step
@ad.reuse_buffers()
def train(model, data, prior, cfg: TrainConfig):
    """Run the training loop; returns (q, hyper dict, TrainTrace).

    The epoch loop shuffles indices without replacement; epsilon is
    refreshed every cfg.refresh_every minibatches.  Raises
    DivergenceDetected when an epoch's mean energy rises above
    cfg.divergence_factor * max(|epoch-0 energy|, 1), at any step whose
    energy or gradient is non-finite, or whose cavity is improper, before
    the optimizer applies it, and at any step whose update leaves a
    non-finite slot.  The error carries the epoch and the global step;
    when a tape op produced the non-finite value (NonFiniteIntermediate) it
    also carries the op name.  It chains the original error.

    In mc mode each epsilon refresh draws a (k_samples, theta_dim) block.
    From _EPS_THREAD_MIN normals per block, and when more than one CPU is
    allowed, one helper thread draws the next block while the current step
    is evaluated.  It moves itself off the training thread's CPU first, so
    that the two run at once; nothing else's CPU affinity changes.  The
    blocks and every output are the same as without it, and the thread is
    joined before train returns or raises.  No RuntimeWarning escapes the
    epoch loop.
    """
    import time

    cfg.validate(data.n)
    if cfg.learn_noise and not hasattr(model, "log_sigma2"):
        raise ConfigError("learn_noise needs a model with a noise slot; "
                          "%s has none" % model.kind)
    dim = model.theta_dim
    layout = SlotLayout(dim, prior, model.log_sigma2 if cfg.learn_noise else None,
                        cfg.learn_noise, cfg.learn_prior)
    w = layout.pack(init_q(model, cfg))
    seqs = np.random.SeedSequence(cfg.seed).spawn(3)
    batch_rng = np.random.default_rng(seqs[1])
    eps_rng = np.random.default_rng(seqs[2])

    alpha = None
    if cfg.alpha != "vb":
        alpha = AlphaParam(float(cfg.alpha), data.n)

    state = AdamState(np.zeros_like(w), np.zeros_like(w))
    trace = TrainTrace()
    # the exact energy takes one full batch per epoch and no eps
    n_refresh, batch_size = 0, data.n
    estimate = lambda w, batch, eps: layout.exact_estimate(w, model, data, alpha)
    if cfg.energy_mode == "mc":
        steps = cfg.epochs * -(-data.n // cfg.batch_size)
        n_refresh, batch_size = -(-steps // cfg.refresh_every), cfg.batch_size
        estimate = lambda w, batch, eps: next(
            layout.mc_estimates(w, model, data, batch, alpha, (eps,)))
    # one allowed CPU leaves the helper nothing to overlap with
    allowed = _allowed_cpus()
    threaded = (n_refresh > 0 and cfg.k_samples * dim >= _EPS_THREAD_MIN
                and (allowed is None or len(allowed) > 1))
    helper = nullcontext()
    if threaded:
        helper = ThreadPoolExecutor(max_workers=1, initializer=_move_off,
                                    initargs=(allowed, _current_cpu()))
    # a non-finite value is reported by the checks, which name the op or the
    # step, not as a warning
    with helper as pool, np.errstate(all="ignore"):
        eps_blocks = _eps_stream(eps_rng, n_refresh, (cfg.k_samples, dim),
                                 pool)
        eps, step = None, 0
        for epoch in range(cfg.epochs):
            t0 = time.perf_counter()
            perm = batch_rng.permutation(data.n)
            epoch_energy = []
            for i in range(0, data.n, batch_size):
                if n_refresh and step % cfg.refresh_every == 0:
                    eps = next(eps_blocks)
                try:
                    est = estimate(w, perm[i:i + batch_size], eps)
                except NonFiniteIntermediate as e:
                    raise DivergenceDetected(
                        "op '%s' produced a non-finite value at epoch %d, step %d"
                        % (e.op_name, epoch, step),
                        epoch=epoch, step=step, op_name=e.op_name) from e
                except ImproperCavity as e:
                    raise DivergenceDetected(
                        "improper cavity at epoch %d, step %d (%s)" % (epoch, step, e),
                        epoch=epoch, step=step) from e
                if not (np.isfinite(est.value) and np.isfinite(est.grad).all()):
                    raise DivergenceDetected(
                        "non-finite energy or gradient at epoch %d, step %d"
                        % (epoch, step), epoch=epoch, step=step)
                if cfg.optimizer == "adam":
                    w = adam_step(state, w, est.grad, cfg.learning_rate)
                else:
                    w = w - robbins_monro_lr(cfg, step + 1) * est.grad
                if not np.isfinite(w).all():
                    raise DivergenceDetected(
                        "non-finite parameters after the update at epoch %d, "
                        "step %d" % (epoch, step), epoch=epoch, step=step)
                epoch_energy.append(est.value)
                step += 1
            mean_e = float(np.mean(epoch_energy))
            trace.energy.append(mean_e)
            trace.grad_norm.append(_norm(est.grad))
            trace.wall_time.append(time.perf_counter() - t0)
            if not np.isfinite(mean_e):
                raise DivergenceDetected("non-finite energy", epoch=epoch)
            # the floor of 1 keeps a near-zero epoch-0 energy from turning a
            # rise of a few nats into a divergence
            baseline = trace.energy[0]
            if (epoch > 0 and mean_e > baseline and abs(mean_e)
                    > cfg.divergence_factor * max(abs(baseline), 1.0)):
                raise DivergenceDetected("energy grew more than %gx"
                                         % cfg.divergence_factor, epoch=epoch)

    q, hypers = layout.results(w)
    return q, hypers, trace
