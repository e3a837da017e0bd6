"""The benchmark's workloads: inputs made from a seed, the entry call, checks.

Each workload is one call into a public bbalpha entry point with a fixed
amount of work, so the number of energy-plus-gradient evaluations is known
from the configuration alone.  An *operation* is the unit the output checks
count: one train/test split for the train workloads, one (alpha, K) cell for
the bias study.
"""

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bbalpha  # noqa: E402

# a copy installed elsewhere would be measured in place of the checkout
if Path(bbalpha.__file__).resolve().parent != ROOT / "src" / "bbalpha":
    raise ImportError("bbalpha imported from %s, not from %s"
                      % (bbalpha.__file__, ROOT / "src"))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

from bbalpha import cli, diagnostics, likelihoods, oracle  # noqa: E402
from bbalpha.expfam import FactorizedGaussian  # noqa: E402
from bbalpha.optim import default_prior  # noqa: E402


@dataclass(frozen=True)
class TrainWorkload:
    """In-process `bbalpha train` on a generated dataset, `workers: 1`."""

    name: str
    dataset: dict
    n_features: int
    model: dict
    train: dict
    n_splits: int = 2
    metrics_k: int = 100
    train_fraction: float = 0.9

    def config(self, seed):
        return {
            "dataset": dict(self.dataset, seed=seed),
            "model": dict(self.model),
            "train": dict(self.train),
            "experiment": {"n_splits": self.n_splits, "seed": seed,
                           "workers": 1, "metrics_k": self.metrics_k,
                           "train_fraction": self.train_fraction},
        }

    @property
    def _n_train(self):
        return int(round(self.train_fraction * self.dataset["n"]))

    @property
    def evals(self):
        """Energy-plus-gradient evaluations: one per minibatch step."""
        steps = math.ceil(self._n_train / self.train["batch_size"])
        return self.n_splits * self.train["epochs"] * steps

    @property
    def test_rows(self):
        return self.n_splits * (self.dataset["n"] - self._n_train)

    @property
    def operations(self):
        return self.n_splits

    def prepare(self, seed, workdir):
        """Write the YAML config; the CLI builds the dataset from its seed."""
        path = workdir / "config.yaml"
        path.write_text(yaml.safe_dump(self.config(seed)), encoding="utf-8")
        return {"config": path, "out": workdir / "out"}

    def run(self, inputs):
        return cli.cmd_train(str(inputs["config"]), str(inputs["out"]))

    def check(self, inputs, result):
        """Per split: finite report fields and a posterior file that loads.

        Returns (attempted, failed, summary); the summary's digest covers
        the split results and the posterior files' bytes.
        """
        kw = {k: v for k, v in self.model.items() if k != "kind"}
        theta_dim = likelihoods.make_model(self.model["kind"], self.n_features,
                                           **kw).theta_dim
        with open(inputs["out"] / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        by_split = {}
        for row in report.get("splits", []):
            by_split.setdefault(row.get("split"), []).append(row)
        digest = hashlib.sha256(json.dumps(report.get("splits"),
                                           sort_keys=True).encode())
        failed = 0
        for i in range(self.n_splits):
            rows = by_split.get(i, [])
            ok = len(rows) == 1
            if ok:
                vals = [rows[0].get(k) for k in ("test_ll", "test_error",
                                                  "final_energy")]
                ok = (all(isinstance(v, (int, float)) and math.isfinite(v)
                          for v in vals)
                      and vals[0] <= 0.0 and 0.0 <= vals[1] <= 1.0)
            if ok:
                path = inputs["out"] / ("posterior_split%03d.txt" % i)
                try:
                    q = cli.load_posterior(path)
                    digest.update(path.read_bytes())
                except (OSError, ValueError, IndexError):
                    ok = False
                else:
                    ok = (q.dim == theta_dim and np.all(np.isfinite(q.mu))
                          and np.all(np.isfinite(q.log_var)))
            failed += not ok
        summary = {"test_ll": report.get("avg_test_ll"),
                   "test_error": report.get("avg_test_error"),
                   "digest": digest.hexdigest()}
        return self.operations, failed, summary


@dataclass(frozen=True)
class BiasWorkload:
    """`gradient_bias_study` on conjugate linear regression at the exact
    posterior (the problem of demo 05 and the acceptance test)."""

    name: str
    n: int = 100
    d: int = 2
    sigma2: float = 0.25
    alphas: tuple = (0.5, 1.0)
    ks: tuple = (1, 5, 10)
    n_minibatches: int = 3
    n_repeats: int = 40
    k_truth: int = 10000
    batch_size: int = 32

    @property
    def evals(self):
        """One reference and one per repeat and K, for each column."""
        columns = len(self.alphas) + 1
        return (self.n_minibatches * columns
                * (1 + len(self.ks) * self.n_repeats))

    test_rows = 0

    @property
    def operations(self):
        return (len(self.alphas) + 1) * len(self.ks)

    def prepare(self, seed, workdir):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(self.n, self.d))
        w = rng.normal(size=self.d)
        y = X @ w + rng.normal(0.0, np.sqrt(self.sigma2), size=self.n)
        post = oracle.true_posterior_linreg(X, y, self.sigma2)
        return {"data": likelihoods.Dataset(X, y),
                "model": likelihoods.LinearRegression(self.d, self.sigma2),
                "q": FactorizedGaussian(post.mu, np.log(np.diag(post.cov))),
                "prior": default_prior(self.d), "seed": seed}

    def run(self, inputs):
        return diagnostics.gradient_bias_study(
            inputs["model"], inputs["data"], inputs["q"], inputs["prior"],
            alphas=list(self.alphas), ks=list(self.ks),
            n_minibatches=self.n_minibatches, n_repeats=self.n_repeats,
            k_truth=self.k_truth, batch_size=self.batch_size,
            seed=inputs["seed"])

    def check(self, inputs, report):
        """Per cell: present once and finite; VB rows have zero net bias;
        grad_std falls strictly with K within each column."""
        failed = 0
        for a in list(self.alphas) + ["vb"]:
            prev_std = math.inf
            for k in self.ks:
                rows = [r for r in report.rows if r.alpha == a and r.k == k]
                ok = len(rows) == 1
                if ok:
                    r = rows[0]
                    ok = (all(math.isfinite(v) for v in
                              (r.bias_raw, r.bias_net, r.grad_std))
                          and (a != "vb" or r.bias_net == 0.0)
                          and r.grad_std < prev_std)
                    prev_std = r.grad_std
                failed += not ok
        failed += max(0, len(report.rows) - self.operations)
        rows = [(r.alpha, r.k, r.bias_raw, r.bias_net, r.grad_std)
                for r in report.rows]
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        return self.operations, failed, {"digest": digest}


WORKLOADS = {w.name: w for w in (
    # Small arrays, 39 tape nodes per step: tape overhead dominates.
    TrainWorkload(
        name="probit_train",
        dataset={"kind": "synthetic_probit", "n": 400, "d": 8},
        n_features=8,
        model={"kind": "probit"},
        train={"alpha": 0.5, "k_samples": 100, "batch_size": 32,
               "epochs": 10, "learning_rate": 0.01}),
    # theta_dim 2853: numpy-heavy tape, K x 2853 draws, per-row prediction.
    TrainWorkload(
        name="mlp_train",
        dataset={"kind": "three_class", "n": 300},
        n_features=2,
        model={"kind": "mlp_classification", "n_hidden1": 50,
               "n_hidden2": 50, "n_classes": 3},
        train={"alpha": 0.5, "k_samples": 20, "batch_size": 32,
               "epochs": 5, "learning_rate": 0.01},
        n_splits=1),
    # Thousands of independent tiny evaluations, K from 1 to 10000.
    BiasWorkload(name="bias_study"),
)}
