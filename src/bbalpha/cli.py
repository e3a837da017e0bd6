"""Command-line front end.

Subcommands: train, bias, analytic, toy-predictive, gen-toy, divergence.
Configuration is a single YAML file (nested key/value sections); outputs are
UTF-8 CSV with headers, JSON run reports and a versioned text posterior
format.  Exit codes: 0 success, 2 config error, 3 numerical divergence,
4 IO error.  Commands only raise: the error class sets the code, and the
command group's `invoke` is the one place that exits with it.
"""

import dataclasses
import json
import time

import click
import numpy as np
import yaml

from . import likelihoods as lk
from . import oracle, predict
from .diagnostics import gradient_bias_study
from .errors import BBAlphaError, ConfigError, ParseError, UndefinedDivergence
from .expfam import FactorizedGaussian
from .optim import TrainConfig, default_prior, train

POSTERIOR_HEADER = "bbalpha-posterior v1"


def save_posterior(q, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%s %d\n" % (POSTERIOR_HEADER, q.dim))
        for m, lv in zip(q.mu, q.log_var):
            fh.write("%.17g %.17g\n" % (m, lv))


def load_posterior(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if " ".join(header[:2]) != POSTERIOR_HEADER:
            raise ParseError("%s: not a posterior file" % path)
        if len(header) != 3 or not header[2].isdigit():
            raise ParseError("%s: bad dimension in header %r"
                             % (path, " ".join(header)))
        dim = int(header[2])
        rows = [fh.readline().split() for _ in range(dim)]
    pairs = []
    for line, r in enumerate(rows, start=2):
        try:
            m, lv = (float(v) for v in r)   # a wrong field count is a ValueError
        except ValueError:
            raise ParseError("%s: line %d: expected 'mu log_var', found %r "
                             "(header gives %d rows)"
                             % (path, line, " ".join(r), dim)) from None
        pairs.append((m, lv))
    mu = np.array([m for m, _ in pairs])
    log_var = np.array([lv for _, lv in pairs])
    return FactorizedGaussian(mu, log_var)


def _write_csv(path, header, rows, fmt="%.10g"):
    """Write the `header` line, then each row's numbers in `fmt`, comma-separated."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for r in rows:
            fh.write(",".join(fmt % v for v in r) + "\n")


def _load_config(path):
    """The YAML mapping at `path`; its `dataset` and `model` are required."""
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = yaml.safe_load(fh)
        except yaml.YAMLError as e:
            raise ConfigError("%s: %s" % (path, e)) from None
    if not isinstance(cfg, dict):
        raise ConfigError("config %s: expected a mapping" % path)
    for name in ("dataset", "model"):
        if name not in cfg:
            raise ConfigError("config missing section %r" % name)
    return cfg


def _section(cfg, name):
    """The mapping under `name`; an absent or empty section is {}."""
    section = cfg.get(name)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError("%s section must be a mapping, not %s"
                          % (name, type(section).__name__))
    return section


def _floats(option, text):
    """A comma-separated list of finite numbers given on the command line."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError("%s must be comma-separated numbers, not %r"
                          % (option, text)) from None
    if not np.all(np.isfinite(values)):
        raise ConfigError("%s must be finite, not %r" % (option, text))
    return values


# the callable that takes each dataset kind's keys
_DATASETS = {"csv": lk.csv_dataset, "toy_cubic": lk.gen_toy_cubic,
             "synthetic_probit": lk.gen_synthetic_probit,
             "three_class": lk.gen_three_class}


def _build_dataset(dcfg):
    kind = lk.read_value("dataset", "kind", str, dcfg.get("kind", "csv"))
    if kind not in _DATASETS:
        raise ConfigError("unknown dataset kind %r" % kind)
    keys = {k: v for k, v in dcfg.items() if k != "kind"}
    return _DATASETS[kind](**lk.read_keys("dataset", _DATASETS[kind], keys))


def _build_model(mcfg, data):
    """The model of the `model` section, which must serve `data`'s task."""
    if "kind" not in mcfg:
        raise ConfigError("missing required key model.kind")
    kind = lk.read_value("model", "kind", str, mcfg["kind"])
    model = lk.make_model(kind, data.d, **{str(k): v for k, v in mcfg.items()
                                           if k != "kind"})  # a YAML key may be an int
    if model.task != data.task:
        raise ConfigError("model kind %s serves %s data, not %s data"
                          % (kind, model.task, data.task))
    return model


@dataclasses.dataclass(frozen=True)
class Experiment:
    """The keys of the `experiment` section."""

    n_splits: int = 1
    seed: int = 0
    workers: int = 1
    output_dir: str = "."
    train_fraction: float = 0.9
    metrics_k: int = 100


def _run_split(args):
    (split_idx, cfg, ex) = args
    dataset = _build_dataset(_section(cfg, "dataset"))
    frac, seed = ex.train_fraction, ex.seed
    n_train = int(round(frac * dataset.n)) if 0.0 < frac < 1.0 else 0
    if not 0 < n_train < dataset.n:
        raise ConfigError("experiment train_fraction %r leaves an empty split "
                          "of the %d rows" % (frac, dataset.n))

    rng = np.random.default_rng([seed, split_idx])
    perm = rng.permutation(dataset.n)
    tr, te = dataset.subset(perm[:n_train]), dataset.subset(perm[n_train:])
    tr, te = lk.standardize_train_test(tr, te)

    model = _build_model(_section(cfg, "model"), tr)
    tconf = TrainConfig(**lk.read_keys("train", TrainConfig, _section(cfg, "train"),
                                       counts=False))
    tconf.seed = int(np.random.default_rng([seed, split_idx, 7]).integers(2 ** 31))
    q, hypers, trace = train(model, tr, default_prior(model.theta_dim), tconf)

    log_sigma2 = hypers.get("log_sigma2")
    pred_seed = [seed, split_idx, 13]
    X, y = te.features, te.targets
    if te.task in ("probit", "classification"):
        if te.task == "probit":
            probs = predict.predict_probit(q, model, X, ex.metrics_k, pred_seed)
            labels = (y > 0).astype(int)         # column 1 holds P(y=+1)
            hits = (probs[:, 1] >= 0.5) == (y > 0)
        else:
            probs = predict.predict_class(q, model, X, ex.metrics_k, pred_seed)
            labels = y.astype(int)
            hits = np.argmax(probs, axis=1) == labels
        lls = np.log(np.maximum(probs[np.arange(te.n), labels], 1e-300))
        err = float(1.0 - np.sum(hits) / te.n)
    else:
        y_raw = y * te.y_std + te.y_mean
        lls = predict.predict_loglik_regression(
            q, model, X, y_raw, ex.metrics_k, pred_seed, log_sigma2=log_sigma2,
            y_mean=te.y_mean, y_std=te.y_std)
        mean, _ = predict.predictive_regression_stats(
            q, model, X, ex.metrics_k, pred_seed, log_sigma2=log_sigma2)
        err = float(np.sqrt(np.mean((mean * te.y_std + te.y_mean - y_raw) ** 2)))
    avg_ll = float(np.mean(lls))
    return {"split": split_idx, "test_ll": avg_ll, "test_error": err,
            "final_energy": trace.energy[-1], "q": q}


def cmd_train(config_path, out_dir=None):
    """Run the full split/train/evaluate pipeline; returns the report dict.
    A failure raises BBAlphaError or OSError, whose class sets the exit code."""
    import pathlib

    cfg = _load_config(config_path)
    ex = Experiment(**lk.read_keys("experiment", Experiment,
                                   _section(cfg, "experiment")))
    # never more processes than splits: one split runs in this process
    workers = min(ex.workers, ex.n_splits)
    out = pathlib.Path(out_dir or ex.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    jobs = [(i, cfg, ex) for i in range(ex.n_splits)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_split, jobs))
    else:
        results = [_run_split(j) for j in jobs]

    results.sort(key=lambda r: r["split"])
    lls = np.array([r["test_ll"] for r in results])
    errs = np.array([r["test_error"] for r in results])
    se = lambda v: float(np.std(v, ddof=1) / np.sqrt(len(v))) if len(v) > 1 else 0.0
    fields = ("split", "test_ll", "test_error", "final_energy")
    report = {
        "config": {k: v for k, v in cfg.items()},
        "seed": ex.seed,
        "n_splits": ex.n_splits,
        "splits": [{k: r[k] for k in fields} for r in results],
        "avg_test_ll": float(lls.mean()),
        "se_test_ll": se(lls),
        "avg_test_error": float(errs.mean()),
        "se_test_error": se(errs),
        "wall_time_s": time.perf_counter() - t0,
    }
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    _write_csv(out / "metrics.csv", ",".join(fields),
               ([r[k] for k in fields] for r in results))
    for r in results:
        save_posterior(r["q"], out / ("posterior_split%03d.txt" % r["split"]))
    return report


class _ErrorBoundary(click.Group):
    """Every command's errors end here: the error class gives the exit code
    (`BBAlphaError.exit_code`, 4 for `OSError`) and the user one line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (BBAlphaError, OSError) as e:
            code = e.exit_code if isinstance(e, BBAlphaError) else 4
            label = {2: "config error", 3: "divergence", 4: "IO error"}[code]
            click.echo("%s: %s" % (label, " ".join(str(e).split())), err=True)
            ctx.exit(code)


@click.group(cls=_ErrorBoundary)
def main():
    """Alpha-divergence minimization experiments."""


@main.command("train")
@click.argument("config_path", type=click.Path(exists=True))
@click.option("--out-dir", default=None, help="Output directory override.")
def train_cmd(config_path, out_dir):
    """Train per the config file and emit report, metrics and posteriors."""
    report = cmd_train(config_path, out_dir)
    click.echo("avg test LL %.4f +- %.4f, error %.4f +- %.4f"
               % (report["avg_test_ll"], report["se_test_ll"],
                  report["avg_test_error"], report["se_test_error"]))


@main.command("bias")
@click.argument("config_path", type=click.Path(exists=True))
@click.option("--out", default="bias.csv", help="Output CSV path.")
def bias_cmd(config_path, out):
    """Gradient bias/variance study; one CSV row per (alpha, K) cell."""
    cfg = _load_config(config_path)
    kw = lk.read_keys("bias", gradient_bias_study, _section(cfg, "bias"))
    dataset = _build_dataset(_section(cfg, "dataset"))
    model = _build_model(_section(cfg, "model"), dataset)
    tconf = TrainConfig(**lk.read_keys("train", TrainConfig, _section(cfg, "train"),
                                       counts=False))
    q, hypers, _ = train(model, dataset, default_prior(model.theta_dim), tconf)
    report = gradient_bias_study(model, dataset, q, default_prior(model.theta_dim),
                                 hyper=hypers.get("log_sigma2"), **kw)
    report.to_csv(out)
    ks = sorted({r.k for r in report.rows})
    ok = all(report.cell(a, ks[i]).bias_net >= report.cell(a, ks[i + 1]).bias_net
             for a in {r.alpha for r in report.rows} if a != "vb"
             for i in range(len(ks) - 1))
    click.echo("monotone-in-K net bias: %s" % ("pass" if ok else "FAIL"))


def _grid(alpha_min, alpha_max, steps):
    """The alpha grid; a span that is not finite, NaN included, exits 2."""
    if not np.isfinite(alpha_max - alpha_min):
        raise ConfigError("--alpha-min %r to --alpha-max %r is not a finite grid"
                          % (alpha_min, alpha_max))
    return np.linspace(alpha_min, alpha_max, steps)


@main.command("analytic")
@click.option("--example", type=click.Choice(["1", "2"]), required=True)
@click.option("--sigma2", type=float, default=1.0)
@click.option("--alpha-min", type=float, default=0.01)
@click.option("--alpha-max", type=float, default=1.99)
@click.option("--steps", type=click.IntRange(min=1), default=100)
@click.option("--out", default="analytic.csv")
def analytic_cmd(example, sigma2, alpha_min, alpha_max, steps, out):
    """Closed-form tied-site solutions over an alpha grid."""
    if example == "1":
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        lam_fn = oracle.example1_lambda
    else:
        X = np.array([[1.0, -1.0], [-1.0, 1.0]])
        lam_fn = oracle.example2_lambda
    y = np.zeros(2)
    try:
        truth = oracle.true_posterior_linreg(X, y, sigma2)
    except BBAlphaError as e:
        raise ConfigError("--sigma2 %r: %s" % (sigma2, e)) from None
    true_var = float(truth.cov[0, 0])
    rows = []
    for a in _grid(alpha_min, alpha_max, steps):
        lam = lam_fn(a, sigma2)
        q_var = 1.0 / (1.0 + 2.0 * lam)
        q_dist = oracle.GaussianDist(np.zeros(2), q_var * np.eye(2))
        kl = oracle.kl_divergence(q_dist, truth)
        rows.append((a, lam, q_var, true_var, kl))
    _write_csv(out, "alpha,lambda,q_variance,true_variance,kl_to_truth", rows)
    click.echo("wrote %d rows to %s" % (len(rows), out))


def run_toy_predictive(alphas, seed, epochs=600, k_samples=50, n_hidden=100,
                       grid=None, pred_samples=200):
    """Train on the cubic toy data with frozen noise variance 9 and a
    unit-variance weight prior; returns {alpha: (grid, mean, std)}."""
    data = lk.gen_toy_cubic(seed)
    if grid is None:
        grid = np.linspace(-4.0, 4.0, 41)
    out = {}
    for a in alphas:
        model = lk.MLPRegression(1, n_hidden, log_sigma2=np.log(9.0))
        cfg = TrainConfig(alpha=a, k_samples=k_samples, batch_size=data.n,
                          epochs=epochs, learning_rate=0.01, seed=seed)
        q, _, _ = train(model, data, default_prior(model.theta_dim), cfg)
        mean, std = predict.predictive_regression_stats(
            q, model, grid[:, None], pred_samples, [seed, 99])
        out[a] = (grid, mean, std)
    return out


@main.command("toy-predictive")
@click.option("--alphas", default="1e-6,0.5,1.0", help="Comma-separated list.")
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--epochs", type=int, default=600)
@click.option("--out", default="toy_predictive.csv")
def toy_predictive_cmd(alphas, seed, epochs, out):
    """Predictive mean/std on the cubic toy task for several alphas."""
    alpha_list = _floats("--alphas", alphas)
    results = run_toy_predictive(alpha_list, seed, epochs=epochs)
    _write_csv(out, "alpha,x,pred_mean,pred_std",
               ((a, *row) for a in alpha_list for row in zip(*results[a])))
    click.echo("wrote %s" % out)


@main.command("gen-toy")
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--out", default="toy_cubic.csv")
def gen_toy_cmd(seed, out):
    """Write the cubic toy dataset as CSV."""
    data = lk.gen_toy_cubic(seed)
    _write_csv(out, "x,y", zip(data.features[:, 0], data.targets), "%.17g")
    click.echo("wrote %s" % out)


@main.command("divergence")
@click.option("--mu1", default="0", help="Comma-separated mean of p.")
@click.option("--var1", default="1", help="Comma-separated variances of p.")
@click.option("--mu2", default="0", help="Comma-separated mean of q.")
@click.option("--var2", default="1", help="Comma-separated variances of q.")
@click.option("--alpha-min", type=float, default=-1.0)
@click.option("--alpha-max", type=float, default=2.0)
@click.option("--steps", type=click.IntRange(min=1), default=31)
@click.option("--out", default="divergence.csv")
def divergence_cmd(mu1, var1, mu2, var2, alpha_min, alpha_max, steps, out):
    """Tabulate D_alpha between two diagonal Gaussians over an alpha grid."""
    p = oracle.GaussianDist(_floats("--mu1", mu1), np.diag(_floats("--var1", var1)))
    q = oracle.GaussianDist(_floats("--mu2", mu2), np.diag(_floats("--var2", var2)))
    rows = []
    for a in _grid(alpha_min, alpha_max, steps):
        try:
            rows.append((a, oracle.alpha_divergence(p, q, float(a))))
        except UndefinedDivergence:
            rows.append((a, np.inf))        # written as inf
    _write_csv(out, "alpha,divergence", rows)
    click.echo("wrote %s" % out)


if __name__ == "__main__":
    main()
