"""Gradient bias and variance analysis.

For each (K, alpha) cell: the mean of many K-sample gradient estimates is
compared against a large-K reference gradient, averaged over a fixed set of
minibatches.  The same epsilon draws are reused across alpha columns and
the variational baseline (common random numbers), and the baseline's bias
is subtracted so the reported net bias isolates the log-transform bias of
the alpha estimator.
"""

from dataclasses import dataclass, field

import numpy as np

from .energy import AlphaParam, bbalpha_energy_mc


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


def gradient_bias_study(model, data, q, prior, alphas, ks, n_minibatches=15,
                        n_repeats=1000, k_truth=10000, batch_size=32, seed=0,
                        hyper=None) -> BiasReport:
    """Bias (L2 norm / sqrt(dim)) and spread of the MC energy gradient.

    `q` should be a pre-trained posterior.  Minibatch membership and all
    epsilon draws are fixed across (K, alpha) cells so columns are
    comparable.
    """
    rng = np.random.default_rng(seed)
    n = data.n
    batches = [rng.choice(n, size=min(batch_size, n), replace=False)
               for _ in range(n_minibatches)]
    dim = 2 * model.theta_dim  # gradient over (mu, log_var)
    # column label -> the estimator's alpha; None is the VB energy
    columns = {a: AlphaParam(a, n) for a in alphas}
    columns["vb"] = None

    # epsilon streams shared across columns: one per (minibatch, purpose)
    eps_truth = []
    eps_reps = []  # [minibatch][k index] -> (n_repeats, K, theta_dim)
    for b in range(n_minibatches):
        eps_truth.append(rng.standard_normal((k_truth, model.theta_dim)))
        per_k = []
        for k in ks:
            per_k.append(rng.standard_normal((n_repeats, k, model.theta_dim)))
        eps_reps.append(per_k)

    bias = {(a, k): [] for a in columns for k in ks}
    spread = {(a, k): [] for a in columns for k in ks}
    root_dim = np.sqrt(dim)
    for b, batch in enumerate(batches):
        for a, alpha in columns.items():
            def grad(eps):
                return bbalpha_energy_mc(q, prior, model, data, batch, alpha,
                                         eps, hyper=hyper).grad[:dim]

            g_ref = grad(eps_truth[b])
            for ki, k in enumerate(ks):
                grads = np.empty((n_repeats, dim))
                for r in range(n_repeats):
                    grads[r] = grad(eps_reps[b][ki][r])
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
