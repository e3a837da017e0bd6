"""Tied-site power-EP energies.

Monte-Carlo reparameterized estimator of the alpha energy with minibatch
scaling, whose alpha=None case is the variational free energy (the
alpha -> 0 limit), the closed-form energy for conjugate linear regression,
the lower-bound certificate and the moment-matching stationarity residual.

The MC estimator has an eps-free site step (`_site`: the tied site, the
cavity test, logZ0 - logZq) and a per-block step: a `reparam` node for the
K samples, the model's log-likelihood (the samples' one consumer), and one
`alpha_energy` node holding the rest of the diagonal-Gaussian arithmetic,
in place on its own arrays and loglik's, and its closed-form gradient.
`SlotLayout` is the one definition of the slot vector w that every
evaluation takes its leaves from; its `mc_estimates` takes one site step for
all the eps blocks of one (w, minibatch, alpha), and the public
`bbalpha_energy_mc` builds a layout from q.
The exact energy is one `exact_energy` node whose gradient is the
moment-matching residual.  log E_q[(p/f)^alpha] is always
logsumexp(alpha * delta_k) - log K with a max shift, never the log of a mean
of exponentiated alpha * delta.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from .errors import (ConfigError, ImproperCavity, ImproperTilted,
                     NonFiniteIntermediate, ShapeMismatch)
from .expfam import FactorizedGaussian, NaturalParams

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class AlphaParam:
    """Divergence parameter alpha together with the dataset size N."""

    alpha: float
    n_data: int

    def __post_init__(self):
        if self.alpha == 0.0:
            raise ConfigError("alpha = 0 is served by the VB energy path")
        if self.alpha == self.n_data:
            raise ConfigError("alpha = N makes the site exponent degenerate")


@dataclass
class EnergyEstimate:
    """Energy value and its gradient over the trainable slots."""

    value: float
    grad: np.ndarray


def _prior_mv(prior: NaturalParams, dim):
    """The prior's mean -eta1 / (2 eta2) and log variance log(-1 / (2 eta2));
    a prior whose dim is not q's raises here, not as a broadcast error later."""
    if prior.dim != dim:
        raise ShapeMismatch("prior dim %d vs %d" % (prior.dim, dim))
    var = -0.5 / prior.eta2
    return prior.eta1 * var, np.log(var)


def _log_partition(mu, log_var, eta1):
    """Diagonal-Gaussian log Z at (mu, log_var); eta1 is mu * exp(-log_var)."""
    return 0.5 * (eta1 @ mu + log_var.sum() + mu.size * _LOG_2PI)


@lru_cache(maxsize=16)
def _per_k(K):
    """(ones(K), read-only, and log K), made once per sample count K."""
    ones = np.ones(K)
    ones.flags.writeable = False
    return ones, np.log(K)


def _reparam(mu, log_var, eps, sd, ones):
    """theta = mu + sd * eps as one (K, dim) node; sd = exp(log_var / 2)."""
    theta = np.multiply(eps, sd, out=ad.empty(eps.shape))
    theta += ad._val(mu)
    return ad.node(theta, "reparam", (mu, lambda g: ones.dot(g)),
                   (log_var, lambda g: ones.dot(np.multiply(
                       g, eps, out=theta)) * sd * 0.5))    # its readers ran


def _site(m, lv, pm, plv, n_data, alpha):
    """The eps-free part of the energy at one (q, prior, alpha): whether the
    cavity is improper, the site's l1 and l2, logZ0 - logZq, sd, dm, and
    the rows (sd, sd^2) and (iv0, iv0 / 2) that scale the slot gradients."""
    ivq, iv0 = np.exp(-lv), np.exp(-plv)
    e1q, e10 = m * ivq, pm * iv0
    l1 = (e1q - e10) / n_data
    l2 = 0.5 * (iv0 - ivq) / n_data
    # -2 times the cavity eta2; the scaling is exact
    improper = alpha is not None and (ivq + 2.0 * alpha * l2 <= 0.0).any()
    sd = np.exp(0.5 * lv)
    return (improper, l1, l2, _log_partition(pm, plv, e10) - _log_partition(m, lv, e1q),
            sd, m - pm, np.array([sd, sd * sd]), np.array([iv0, 0.5 * iv0]))


def _alpha_energy(mu, log_var, p_mu, p_log_var, theta, loglik, n_data, alpha,
                  eps, site, ones):
    """Everything of the energy but the model's log-likelihood, one node;
    `site` is _site at the slots' values, `ones` a (K,) vector of ones.

    With l1, l2 the tied site's natural parameters and
    delta_kb = loglik_kb - (theta_k . l1 + theta_k^2 . l2), the value is
    logZ0 - logZq - N / (alpha B) sum_b [logsumexp_k(alpha delta_kb) - log K].
    The VJP uses the tilted weights w = softmax_k(alpha delta):
    dE/dloglik = -(N/B) w, and c_k = (N/B) sum_b w_kb sums to N, so with
    a = sd (c @ eps) / N, b = var (c @ eps^2) / N and dm = mu - p_mu,
    dE/dmu = (dm + a) / var0 and dE/dlog_var = (b + a dm) / (2 var0) - 1/2;
    the prior slots get -dE/dmu and -dE/dlog_var - dm dE/dmu / 2.  These
    hold theta's own term c_k (l1 + 2 theta_k l2), which reaches mu and
    log_var through theta = mu + sd eps, so theta gets no gradient here.
    alpha=None is the VB energy, the same node with w = 1/K.  An improper
    cavity raises ImproperCavity here, inside the evaluation.  delta, w and
    dE/dloglik are formed in loglik's value, the one array outside its own
    allocations that the node writes (`bbalpha.autodiff`).
    """
    improper, l1, l2, value, sd, dm, sd_sd2, iv0_half = site
    if improper:
        raise ImproperCavity("cavity eta2 >= 0 at alpha=%g" % alpha)
    th, w = ad._val(theta), ad._val(loglik)
    K, B = w.shape
    th2 = np.multiply(th, th, out=ad.empty(th.shape))
    w -= (th.dot(l1) + th2.dot(l2))[:, None]        # delta, in loglik's value
    if alpha is None:
        value -= (n_data / B) * (w.sum() / K)
        c = np.full(K, n_data / K)
        w.fill(-(n_data / B) / K)                     # dE/dloglik
    else:                                             # max-shifted logsumexp
        w *= alpha
        top = np.maximum.reduce(w, axis=0)
        w -= top
        s = ones.dot(np.exp(w, out=w))                # >= 1: exp(0) is in it
        value -= n_data / (alpha * B) * (np.add.reduce(np.log(s) + top)
                                          - B * _per_k(K)[1])
        r = (n_data / B) / s
        c = w.dot(r)
        w *= -r                                       # dE/dloglik
    # slot gradients in one block, one check; a non-finite w shows in value.
    # Rows 0 and 1 take a and b, then become dE/dmu and dE/dlog_var in place
    G = np.empty((4 if isinstance(p_mu, ad.Var) else 2, sd.size))
    rows, g_mu, g_lv = G[:2], G[0], G[1]
    c.dot(eps, out=g_mu)
    c.dot(np.multiply(eps, eps, out=th2), out=g_lv)
    ad.release(th2)                                   # the model VJP takes it
    rows *= sd_sd2
    rows /= n_data
    g_lv += g_mu * dm
    g_mu += dm
    rows *= iv0_half
    g_lv -= 0.5
    if len(G) == 4:                                   # learned prior slots
        np.negative(rows, out=G[2:])
        G[3] -= 0.5 * dm * g_mu
    if np.count_nonzero(np.isfinite(G)) != G.size:
        raise NonFiniteIntermediate("alpha_energy")
    # the root's unit seed needs no copy of gr
    return ad.node(value, "alpha_energy",
                   *[(v, lambda g, gr=gr: gr if g is ad._SEED else g * gr) for v, gr
                     in zip((mu, log_var, loglik, p_mu, p_log_var),
                            (g_mu, g_lv, w, *G[2:]))])


def _mc_expr(mu, log_var, p_mu, p_log_var, model, X, y, n_data, alpha, eps,
             hyper=None, site=None):
    """MC energy: the model's nodes between two hand-differentiated ones;
    alpha=None gives the VB energy."""
    if site is None:                # the slots' values give one
        site = _site(*map(ad._val, (mu, log_var, p_mu, p_log_var)), n_data, alpha)
    ones = _per_k(len(eps))[0]      # sums over K rows as products: faster
    theta = _reparam(mu, log_var, eps, site[4], ones)    # site[4] is sd
    loglik = model.batch_log_lik(theta, X, y, hyper=hyper)
    return _alpha_energy(mu, log_var, p_mu, p_log_var, theta, loglik, n_data,
                         alpha, eps, site, ones)


class SlotLayout:
    """The slot vector w = [mu, log_var, (log sigma2), (p_mu, p_log_var)] of
    one run: `slots` maps each slot's name to its offsets (the prior group is
    p_mu and p_log_var); the fixed prior's mean and log variance; and
    `hyper`, the fixed noise or the noise slot's initial value.  Leaves are
    views of w, which nothing writes: an update makes a new w."""

    def __init__(self, dim, prior: NaturalParams, hyper=None,
                 learn_noise=False, learn_prior=False):
        self.dim, self.hyper = dim, hyper
        self.learn_noise, self.learn_prior = learn_noise, learn_prior
        self.p_mu, self.p_log_var = _prior_mv(prior, dim)
        names = (["mu", "log_var"] + ["hyper"] * learn_noise
                 + ["p_mu", "p_log_var"] * learn_prior)
        sizes = [1 if name == "hyper" else dim for name in names]
        self.slots = {name: slice(end - n, end) for name, n, end
                      in zip(names, sizes, accumulate(sizes))}

    def pack(self, q: FactorizedGaussian):
        """w at q, the initial noise value and the fixed prior."""
        parts = [q.mu, q.log_var]
        parts += [[float(self.hyper)]] if self.learn_noise else []
        parts += [self.p_mu, self.p_log_var] if self.learn_prior else []
        return np.concatenate(parts)

    def leaves(self, w):
        return [w[s] for s in self.slots.values()]

    def unpack(self, vs):
        """(mu, log_var, hyper, p_mu, p_log_var) from leaves or their Vars."""
        h = vs[2][0] if self.learn_noise else self.hyper
        pm, plv = vs[-2:] if self.learn_prior else (self.p_mu, self.p_log_var)
        return vs[0], vs[1], h, pm, plv

    def results(self, w):
        """(q, the learned hypers) at w, as train returns them."""
        mu, log_var, h, pm, plv = self.unpack(self.leaves(w))
        hypers = {"log_sigma2": float(h)} if self.learn_noise else {}
        if self.learn_prior:
            hypers["prior"] = FactorizedGaussian(pm, plv).to_nat()
        return FactorizedGaussian(mu, log_var), hypers

    def _check_model(self, model):
        if model.theta_dim != self.dim:
            raise ShapeMismatch("q dim %d vs model theta_dim %d"
                                % (self.dim, model.theta_dim))

    def conjugate(self, model, data):
        """(X, y, p_mu, p_log_var) for the conjugate closed forms, their one
        entry: another model kind or a q of another dim raises here, as a
        prior of another dim does when the layout is built."""
        if model.kind != "linreg":
            raise ConfigError("exact energy requires a conjugate linreg model")
        self._check_model(model)
        return (data.features, np.asarray(data.targets, float), self.p_mu,
                self.p_log_var)

    def mc_estimates(self, w, model, data, batch, alpha, eps_blocks):
        """bbalpha_energy_mc at each (K, dim) block of `eps_blocks` in turn,
        one value_and_grad call each; the minibatch and the site step are set
        up once, the site from the very arrays every call takes as leaves."""
        self._check_model(model)
        batch = np.asarray(batch, dtype=int)
        if batch.size == 0:
            raise ValueError("empty minibatch")
        a, N = (None, data.n) if alpha is None else (alpha.alpha, alpha.n_data)
        X, y = data.features[batch], data.targets[batch]
        leaves = self.leaves(w)
        mu, log_var, _, pm, plv = self.unpack(leaves)
        site = _site(mu, log_var, pm, plv, N, a)

        def f(*vs):                 # at the block the loop holds
            mu, log_var, h, pm, plv = self.unpack(vs)
            return _mc_expr(mu, log_var, pm, plv, model, X, y, N, a, eps,
                            hyper=h, site=site)

        for eps in eps_blocks:
            if eps.shape[1:] != (self.dim,) or len(eps) == 0:
                raise ShapeMismatch("eps %s vs (K >= 1, %d)" % (eps.shape, self.dim))
            value, grads = ad.value_and_grad(f, leaves)
            yield EnergyEstimate(value, np.concatenate(grads))

    def exact_estimate(self, w, model, data, alpha: AlphaParam):
        """bbalpha_energy_exact_grad at the slot vector w."""
        X, y, _, _ = self.conjugate(model, data)

        def f(*vs):
            mu, log_var, _, pm, plv = self.unpack(vs)
            return _exact_expr(mu, log_var, pm, plv, X, y, model.sigma2,
                               alpha.alpha, alpha.n_data)

        value, grads = ad.value_and_grad(f, self.leaves(w))
        return EnergyEstimate(value, np.concatenate(grads))


def bbalpha_energy_mc(q: FactorizedGaussian, prior: NaturalParams, model, data,
                      batch, alpha, eps, hyper=None, learn_noise=False,
                      learn_prior=False) -> EnergyEstimate:
    """Reparameterized minibatch estimator of the tied-site alpha energy.

    `alpha` is an AlphaParam, or None for the variational free energy (the
    alpha -> 0 limit).  `eps` is a (K, dim) matrix of standard-normal draws
    supplied by the caller, which controls the refresh schedule.  The
    gradient covers (mu, log_var) plus, when enabled, log sigma2 and the
    prior slots.
    """
    layout = SlotLayout(q.dim, prior, hyper, learn_noise, learn_prior)
    return next(layout.mc_estimates(layout.pack(q), model, data, batch, alpha,
                                    [eps]))


def vb_energy_mc(q: FactorizedGaussian, prior: NaturalParams, model, data,
                 batch, eps, hyper=None, learn_noise=False,
                 learn_prior=False) -> EnergyEstimate:
    """Monte-Carlo variational free energy: bbalpha_energy_mc at alpha=None."""
    return bbalpha_energy_mc(q, prior, model, data, batch, None, eps, hyper,
                             learn_noise, learn_prior)


# ---------------------------------------------------------------------------
# closed forms for conjugate linear regression

def _exact_closed_form(m, lv, pm, plv, X, y, sigma2, alpha, n_data):
    """Exact energy, its gradient over (mu, log_var, p_mu, p_log_var) and
    the averaged tilted moments (mean_n E_n[theta], mean_n E_n[theta^2]).

    The cavity precision is diag(d); row n's tilted precision adds
    (alpha/sigma2) x_n x_n^T, so Sherman-Morrison and the determinant lemma
    give every row's moments m_n of s(theta) = (theta, theta^2) at once.
    With mbar = mean_n m_n and X holding all N rows,
    dE/dlambda_q = (N/alpha - 1)(E_q[s] - mbar) and
    dE/dlambda_0 = E_0[s] - mbar; R rows add (R/N - 1) mbar to the first,
    with R for N in its factor, and scale mbar by R/N in the second.
    """
    rows, dim = X.shape
    ivq, iv0 = np.exp(-lv), np.exp(-plv)
    e1q = m * ivq
    cav1 = e1q - alpha * (e1q - pm * iv0) / n_data
    d = ivq - alpha * (ivq - iv0) / n_data          # -2 * cavity eta2
    if np.any(d <= 0.0):
        raise ImproperCavity("cavity eta2 >= 0 at alpha=%g" % alpha)
    c = alpha / sigma2
    h = cav1 + (c * y)[:, None] * X                 # (rows, dim)
    u = X / d
    denom = 1.0 + c * np.einsum("nd,nd->n", X, u)
    if np.any(denom <= 0.0):
        raise ImproperTilted("tilted precision not positive definite")
    t = c / denom
    mean = h / d
    mean -= (t * np.einsum("nd,nd->n", h, u))[:, None] * u
    second = 1.0 / d - t[:, None] * u * u + mean * mean
    logint = (-0.5 * alpha * np.log(2 * np.pi * sigma2)
              - alpha * y * y / (2.0 * sigma2)
              + 0.5 * np.einsum("nd,nd->n", h, mean) + 0.5 * dim * _LOG_2PI
              - 0.5 * (np.log(d).sum() + np.log(denom)))
    logZq = _log_partition(m, lv, e1q)
    value = _log_partition(pm, plv, pm * iv0) - logZq - (logint - logZq).sum() / alpha

    mb1, mb2 = mean.mean(axis=0), second.mean(axis=0)
    r, f = rows / n_data, rows / alpha - 1.0
    g1q = f * (m - mb1) + (r - 1.0) * mb1
    g2q = f * (np.exp(lv) + m * m - mb2) + (r - 1.0) * mb2
    g1_0, g2_0 = pm - r * mb1, np.exp(plv) + pm * pm - r * mb2
    grads = [g1q * ivq, (0.5 * g2q - g1q * m) * ivq,
             g1_0 * iv0, (0.5 * g2_0 - g1_0 * pm) * iv0]
    return value, grads, (mb1, mb2)


def _exact_expr(mu, log_var, p_mu, p_log_var, X, y, sigma2, alpha, n_data):
    """The closed-form energy of conjugate linear regression, one node."""
    slots = (mu, log_var, p_mu, p_log_var)
    # an overflow is reported by the check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        value, grads, _ = _exact_closed_form(*map(ad._val, slots), X, y,
                                             sigma2, alpha, n_data)
    parents = [(v, gr) for v, gr in zip(slots, grads) if isinstance(v, ad.Var)]
    if not (np.isfinite(value) and all(np.isfinite(gr).all() for _, gr in parents)):
        raise NonFiniteIntermediate("exact_energy")
    return ad.node(value, "exact_energy",
                   *[(v, lambda g, gr=gr: g * gr) for v, gr in parents])


def bbalpha_energy_exact(q: FactorizedGaussian, prior: NaturalParams, model,
                         data, alpha: AlphaParam) -> float:
    """Exact tied-site energy; conjugate (Gaussian-likelihood) models only."""
    X, y, p_mu, p_log_var = SlotLayout(q.dim, prior).conjugate(model, data)
    return float(_exact_expr(q.mu, q.log_var, p_mu, p_log_var, X, y,
                             model.sigma2, alpha.alpha, alpha.n_data))


def bbalpha_energy_exact_grad(q, prior, model, data, alpha: AlphaParam,
                              learn_prior=False) -> EnergyEstimate:
    """Exact energy with its gradient over (mu, log_var[, prior slots])."""
    layout = SlotLayout(q.dim, prior, learn_prior=learn_prior)
    return layout.exact_estimate(layout.pack(q), model, data, alpha)


def vb_energy_exact(q: FactorizedGaussian, prior: NaturalParams, model,
                    data) -> float:
    """Closed-form variational free energy for conjugate linear regression.

    E_q[log p(y|theta,x)] is analytic for the Gaussian likelihood; the KL
    term is the diagonal-Gaussian KL from q to the prior.
    """
    X, y, p_mu, p_log_var = SlotLayout(q.dim, prior).conjugate(model, data)
    var_q = q.var
    kl = 0.5 * np.sum(p_log_var - q.log_var
                      + (var_q + (q.mu - p_mu) ** 2) * np.exp(-p_log_var) - 1.0)
    s2 = model.sigma2
    resid = y - X @ q.mu
    exp_ll = np.sum(-0.5 * np.log(2 * np.pi * s2)
                    - (resid ** 2 + (X ** 2) @ var_q) / (2 * s2))
    return float(kl - exp_ll)


def lower_bound_certificate(q, prior, model, data, alpha: AlphaParam) -> float:
    """E(lambda_0, lambda_q) minus its q-independent lower bound G~(N).

    G~(N) = -(1/N) sum_n log int p0 p(y_n|.)^N is the exact energy at
    alpha = N with q equal to the prior.
    """
    if alpha.alpha > alpha.n_data:
        raise ValueError("certificate only holds for alpha <= N")
    e = bbalpha_energy_exact(q, prior, model, data, alpha)
    N = alpha.n_data
    X, y, p_mu, p_log_var = SlotLayout(q.dim, prior).conjugate(model, data)
    g = _exact_expr(p_mu, p_log_var, p_mu, p_log_var, X, y, model.sigma2,
                    float(N), N)
    return e - float(g)


def stationarity_residual(q, prior, model, data, alpha: AlphaParam) -> float:
    """Max-norm violation of the averaged moment-matching condition.

    E_q[s(theta)] against the average of the closed-form tilted moments
    (conjugate model only): the exact energy's gradient with respect to
    lambda_q without its factor N/alpha - 1.  A non-finite residual raises
    NonFiniteIntermediate naming the closed form, as the exact energy does.
    """
    X, y, p_mu, p_log_var = SlotLayout(q.dim, prior).conjugate(model, data)
    # an overflow is reported by the check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, (first, second) = _exact_closed_form(
            q.mu, q.log_var, p_mu, p_log_var, X, y, model.sigma2, alpha.alpha,
            alpha.n_data)
        res = np.abs(np.concatenate([q.mu - first, q.var + q.mu ** 2 - second]))
    if not np.isfinite(res).all():
        raise NonFiniteIntermediate("exact_energy")
    return float(res.max())
