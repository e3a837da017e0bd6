"""Gradient bias and variance analysis.

For each (K, alpha) cell: the mean of many K-sample gradient estimates is
compared against a large-K reference gradient, averaged over a fixed set of
minibatches.  The same epsilon draws are reused across alpha columns and
the variational baseline (common random numbers), and the baseline's bias
is subtracted so the reported net bias isolates the log-transform bias of
the alpha estimator.
"""

from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from . import autodiff as ad
from .energy import AlphaParam, SlotLayout
from .errors import ConfigError


@dataclass
class BiasRow:
    alpha: object  # float or "vb"
    k: int
    bias_raw: float
    bias_net: float
    grad_std: float


@dataclass
class BiasReport:
    rows: list = field(default_factory=list)
    n_minibatches: int = 0
    n_repeats: int = 0
    k_truth: int = 0

    def cell(self, alpha, k):
        for r in self.rows:
            if r.alpha == alpha and r.k == k:
                return r
        raise KeyError((alpha, k))

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("alpha,k,bias_raw,bias_net,grad_std\n")
            for r in self.rows:
                fh.write("%s,%d,%.10g,%.10g,%.10g\n"
                         % (r.alpha, r.k, r.bias_raw, r.bias_net, r.grad_std))


# the cells repeat evaluations of a few shapes: a pool lends their arrays
@ad.reuse_buffers()
def gradient_bias_study(model, data, q, prior, alphas: list[float] = (1.0, 0.5),
                        ks: list[int] = (1, 5, 10), n_minibatches: int = 15,
                        n_repeats: int = 1000, k_truth: int = 10000,
                        batch_size: int = 32, seed: int = 0,
                        hyper=None) -> BiasReport:
    """Bias (L2 norm / sqrt(dim)) and spread of the MC energy gradient.

    `q` should be a pre-trained posterior.  Minibatch membership and all
    epsilon draws are fixed across (K, alpha) cells so columns are
    comparable.  Its annotated parameters are the keys of the CLI's `bias`
    section.
    """
    if min(min(ks, default=0), n_minibatches, n_repeats, k_truth, batch_size) < 1:
        raise ConfigError("ks (non-empty), n_minibatches, n_repeats, k_truth "
                          "and batch_size must be >= 1")
    rng = np.random.default_rng(seed)
    n = data.n
    batches = [rng.choice(n, size=min(batch_size, n), replace=False)
               for _ in range(n_minibatches)]
    layout = SlotLayout(q.dim, prior, hyper)
    w = layout.pack(q)          # (mu, log_var): the study learns nothing else
    # column label -> the estimator's alpha; None is the VB energy
    columns = {a: AlphaParam(a, n) for a in alphas}
    columns["vb"] = None

    sizes = [(1, k_truth)] + [(n_repeats, k) for k in ks]
    bias = {(a, k): [] for a in columns for k in ks}
    spread = {(a, k): [] for a in columns for k in ks}
    root_dim = np.sqrt(w.size)
    for batch in batches:
        # epsilon blocks shared across columns, drawn when their minibatch
        # comes: the reference block, then n_repeats blocks per K
        eps = [rng.standard_normal((r, k, model.theta_dim)) for r, k in sizes]
        for a, alpha in columns.items():
            ests = layout.mc_estimates(w, model, data, batch, alpha,
                                       chain(*eps))
            g_ref = next(ests).grad
            for k in ks:
                grads = np.array([e.grad for e in islice(ests, n_repeats)])
                g_bar = grads.mean(axis=0)
                bias[(a, k)].append(np.linalg.norm(g_bar - g_ref) / root_dim)
                spread[(a, k)].append(np.sqrt(np.mean(grads.var(axis=0))))

    report = BiasReport(n_minibatches=n_minibatches, n_repeats=n_repeats,
                        k_truth=k_truth)
    for a in columns:
        for k in ks:
            raw = float(np.mean(bias[(a, k)]))
            vb_raw = float(np.mean(bias[("vb", k)]))
            report.rows.append(BiasRow(a, k, raw, raw - vb_raw,
                                       float(np.mean(spread[(a, k)]))))
    return report
