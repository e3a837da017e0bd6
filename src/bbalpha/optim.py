"""Stochastic optimization of the energy objectives.

Adam and Robbins-Monro SGD over the flattened slot vector
(mu, log_var[, log_sigma2][, prior mean, prior log-var]), with per-epoch
batch partitions, periodic epsilon refresh and a divergence guard.
PRNG streams for initialization, batching and sampling are split from the
master seed so runs are reproducible bit-for-bit.
"""

from dataclasses import dataclass, field

import numpy as np

from .energy import AlphaParam, bbalpha_energy_exact_grad, bbalpha_energy_mc
from .errors import (ConfigError, DivergenceDetected, ImproperCavity,
                     NonFiniteIntermediate)
from .expfam import FactorizedGaussian, NaturalParams, nat_to_meanvar


@dataclass
class TrainConfig:
    """Full specification of one training run."""

    alpha: object = "vb"          # float, or "vb" for the variational path
    k_samples: int = 100
    batch_size: int = 32
    epochs: int = 200
    optimizer: str = "adam"       # "adam" or "sgd"
    learning_rate: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
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
        if self.batch_size > n_data:
            raise ConfigError("batch_size exceeds dataset size")
        if self.optimizer == "sgd" and (self.sgd_a <= 0 or self.sgd_b <= 0):
            raise ConfigError("SGD schedule requires a, b > 0")


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
    """One bias-corrected Adam update; returns new parameters."""
    state.t += 1
    state.m = beta1 * state.m + (1 - beta1) * grad
    state.v = beta2 * state.v + (1 - beta2) * grad * grad
    m_hat = state.m / (1 - beta1 ** state.t)
    v_hat = state.v / (1 - beta2 ** state.t)
    return params - lr * m_hat / (np.sqrt(v_hat) + eps_hat)


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


def _split_slots(w, dim, learn_noise, learn_prior):
    mu = w[:dim]
    log_var = w[dim:2 * dim]
    i = 2 * dim
    hyper = None
    if learn_noise:
        hyper = float(w[i])
        i += 1
    prior = None
    if learn_prior:
        p_mu = w[i:i + dim]
        p_log_var = w[i + dim:i + 2 * dim]
        prior = NaturalParams(p_mu * np.exp(-p_log_var), -0.5 * np.exp(-p_log_var))
    return FactorizedGaussian(mu, log_var), hyper, prior


def train(model, data, prior, cfg: TrainConfig):
    """Run the training loop; returns (q, hyper dict, TrainTrace).

    The epoch loop shuffles indices without replacement; epsilon is
    refreshed every cfg.refresh_every minibatches.  Raises
    DivergenceDetected when an epoch's mean energy rises above
    cfg.divergence_factor * max(|epoch-0 energy|, 1), and at any step whose
    energy or gradient is non-finite, or whose cavity is improper, before
    the optimizer applies it.  The error carries the epoch and the global step;
    when a tape op produced the non-finite value (NonFiniteIntermediate) it
    also carries the op name.  It chains the original error.
    """
    import time

    cfg.validate(data.n)
    dim = model.theta_dim
    q0 = init_q(model, cfg)
    seqs = np.random.SeedSequence(cfg.seed).spawn(3)
    batch_rng = np.random.default_rng(seqs[1])
    eps_rng = np.random.default_rng(seqs[2])

    w = np.concatenate([q0.mu, q0.log_var])
    if cfg.learn_noise:
        w = np.concatenate([w, [getattr(model, "log_sigma2", 0.0)]])
    if cfg.learn_prior:
        mv = nat_to_meanvar(prior)
        w = np.concatenate([w, mv.mu, np.log(mv.var)])

    alpha = None
    if cfg.alpha != "vb":
        alpha = AlphaParam(float(cfg.alpha), data.n)

    state = AdamState(np.zeros_like(w), np.zeros_like(w))
    trace = TrainTrace()
    eps = np.empty((cfg.k_samples, dim))
    step = 0
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        perm = batch_rng.permutation(data.n)
        if cfg.energy_mode == "exact":
            batches = [np.arange(data.n)]
        else:
            batches = [perm[i:i + cfg.batch_size]
                       for i in range(0, data.n, cfg.batch_size)]
        epoch_energy = []
        for batch in batches:
            q, hyper, learned_prior = _split_slots(w, dim, cfg.learn_noise,
                                                   cfg.learn_prior)
            prior_now = learned_prior if learned_prior is not None else prior
            if cfg.energy_mode != "exact" and step % cfg.refresh_every == 0:
                eps_rng.standard_normal(out=eps)
            try:
                if cfg.energy_mode == "exact":
                    est = bbalpha_energy_exact_grad(q, prior_now, model, data,
                                                    alpha, learn_prior=cfg.learn_prior)
                else:
                    est = bbalpha_energy_mc(q, prior_now, model, data, batch,
                                            alpha, eps, hyper=hyper,
                                            learn_noise=cfg.learn_noise,
                                            learn_prior=cfg.learn_prior)
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
                w = adam_step(state, w, est.grad, cfg.learning_rate,
                              cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
            else:
                w = w - robbins_monro_lr(cfg, step + 1) * est.grad
            epoch_energy.append(est.value)
            step += 1
        mean_e = float(np.mean(epoch_energy))
        trace.energy.append(mean_e)
        trace.grad_norm.append(float(np.linalg.norm(est.grad)))
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

    q, hyper, learned_prior = _split_slots(w, dim, cfg.learn_noise, cfg.learn_prior)
    hypers = {}
    if cfg.learn_noise:
        hypers["log_sigma2"] = hyper
    if cfg.learn_prior:
        hypers["prior"] = learned_prior
    return q, hypers, trace
