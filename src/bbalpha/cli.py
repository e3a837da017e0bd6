"""Command-line front end.

Subcommands: train, bias, analytic, toy-predictive, gen-toy, divergence.
Configuration is a single YAML file (nested key/value sections); outputs are
UTF-8 CSV with headers, JSON run reports and a versioned text posterior
format.  Exit codes: 0 success, 2 config error, 3 numerical divergence,
4 IO error.
"""

import dataclasses
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import click
import numpy as np
import yaml

from . import likelihoods as lk
from . import oracle, predict
from .diagnostics import gradient_bias_study
from .errors import (BBAlphaError, ConfigError, DivergenceDetected,
                     MissingColumn, ParseError)
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
            raise BBAlphaError("%s: not a posterior file" % path)
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


def _load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh)
    except OSError as e:
        click.echo("config IO error: %s" % e, err=True)
        sys.exit(4)
    except yaml.YAMLError as e:
        click.echo("config parse error: %s" % e, err=True)
        sys.exit(2)
    if not isinstance(cfg, dict):
        click.echo("config %s: expected a mapping" % path, err=True)
        sys.exit(2)
    return cfg


def _required(section, cfg, key):
    if key not in cfg:
        raise ConfigError("missing required key %s.%s" % (section, key))
    return cfg[key]


def _build_dataset(dcfg):
    kind = dcfg.get("kind", "csv")
    seed = int(dcfg.get("seed", 0))
    if kind == "csv":
        schema = lk.CsvSchema(target=_required("dataset", dcfg, "target"),
                              task=dcfg.get("task", "regression"),
                              feature_columns=dcfg.get("feature_columns"))
        return lk.load_csv(_required("dataset", dcfg, "path"), schema)
    if kind == "toy_cubic":
        return lk.gen_toy_cubic(seed, n=int(dcfg.get("n", 20)))
    if kind == "synthetic_probit":
        return lk.gen_synthetic_probit(seed, n=int(dcfg.get("n", 200)),
                                       d=int(dcfg.get("d", 4)))
    if kind == "three_class":
        return lk.gen_three_class(seed, n=int(dcfg.get("n", 120)))
    raise ConfigError("unknown dataset kind %r" % kind)


def _build_model(mcfg, n_features):
    kw = {k: v for k, v in mcfg.items() if k != "kind"}
    return lk.make_model(_required("model", mcfg, "kind"), n_features, **kw)


def _train_value(key, value, kind):
    """A `train:` value as its TrainConfig field type.  Numbers, and strings
    such as YAML's unquoted 1e-3, widen to float; alpha is a float or 'vb'."""
    if key == "alpha" and value == "vb":
        return value
    if kind in (float, object):
        if not isinstance(value, bool):
            try:
                return float(value)
            except (TypeError, ValueError):
                pass
    elif isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ConfigError("train %s must be %s, not %r" % (
        key, "a number or 'vb'" if kind is object else kind.__name__, value))


def _train_config(tcfg):
    tcfg = {} if tcfg is None else tcfg
    if not isinstance(tcfg, dict):
        raise ConfigError("train section must be a mapping, not %s"
                          % type(tcfg).__name__)
    kinds = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    unknown = sorted(str(k) for k in tcfg if k not in kinds)
    if unknown:
        raise ConfigError("unknown train key(s): %s" % ", ".join(unknown))
    return TrainConfig(**{k: _train_value(k, v, kinds[k])
                          for k, v in tcfg.items()})


def _run_split(args):
    (split_idx, cfg, seed) = args
    dataset = _build_dataset(cfg["dataset"])
    mcfg = cfg["model"]
    ex = cfg.get("experiment", {})
    frac = float(ex.get("train_fraction", 0.9))
    metrics_k = int(ex.get("metrics_k", 100))

    rng = np.random.default_rng([seed, split_idx])
    perm = rng.permutation(dataset.n)
    n_train = int(round(frac * dataset.n))
    tr, te = dataset.subset(perm[:n_train]), dataset.subset(perm[n_train:])
    tr, te = lk.standardize_train_test(tr, te)

    model = _build_model(mcfg, tr.d)
    tconf = _train_config(cfg.get("train"))
    tconf.seed = int(np.random.default_rng([seed, split_idx, 7]).integers(2 ** 31))
    q, hypers, trace = train(model, tr, default_prior(model.theta_dim), tconf)

    log_sigma2 = hypers.get("log_sigma2", getattr(model, "log_sigma2", None))
    pred_seed = [seed, split_idx, 13]
    X, y = te.features, te.targets
    if te.task in ("probit", "classification"):
        if te.task == "probit":
            probs = predict.predict_probit(q, model, X, metrics_k, pred_seed)
            labels = (y > 0).astype(int)         # column 1 holds P(y=+1)
            hits = (probs[:, 1] >= 0.5) == (y > 0)
        else:
            probs = predict.predict_class(q, model, X, metrics_k, pred_seed)
            labels = y.astype(int)
            hits = np.argmax(probs, axis=1) == labels
        lls = np.log(np.maximum(probs[np.arange(te.n), labels], 1e-300))
        err = float(1.0 - np.sum(hits) / te.n)
    else:
        y_raw = y * te.y_std + te.y_mean
        lls = predict.predict_loglik_regression(
            q, model, X, y_raw, metrics_k, pred_seed, log_sigma2=log_sigma2,
            y_mean=te.y_mean, y_std=te.y_std)
        mean, _ = predict.predictive_regression_stats(
            q, model, X, metrics_k, pred_seed, log_sigma2=log_sigma2)
        err = float(np.sqrt(np.mean((mean * te.y_std + te.y_mean - y_raw) ** 2)))
    avg_ll = float(np.mean(lls))
    return {"split": split_idx, "test_ll": avg_ll, "test_error": err,
            "final_energy": trace.energy[-1], "q": q}


def cmd_train(config_path, out_dir=None):
    """Run the full split/train/evaluate pipeline; returns the report dict."""
    import pathlib

    cfg = _load_config(config_path)
    for section in ("dataset", "model"):
        if section not in cfg:
            click.echo("config missing section %r" % section, err=True)
            sys.exit(2)
    ex = cfg.get("experiment", {})
    n_splits = int(ex.get("n_splits", 1))
    seed = int(ex.get("seed", 0))
    workers = int(ex.get("workers", 1))
    out = pathlib.Path(out_dir or ex.get("output_dir", "."))
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    jobs = [(i, cfg, seed) for i in range(n_splits)]
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_run_split, jobs))
        else:
            results = [_run_split(j) for j in jobs]
    except (ConfigError, MissingColumn) as e:
        click.echo("config error: %s" % e, err=True)
        sys.exit(2)
    except DivergenceDetected as e:
        click.echo("divergence: %s" % e, err=True)
        sys.exit(3)
    except (OSError, ParseError) as e:
        click.echo("IO error: %s" % e, err=True)
        sys.exit(4)

    results.sort(key=lambda r: r["split"])
    lls = np.array([r["test_ll"] for r in results])
    errs = np.array([r["test_error"] for r in results])
    se = lambda v: float(np.std(v, ddof=1) / np.sqrt(len(v))) if len(v) > 1 else 0.0
    report = {
        "config": {k: v for k, v in cfg.items()},
        "seed": seed,
        "n_splits": n_splits,
        "splits": [{k: r[k] for k in ("split", "test_ll", "test_error",
                                      "final_energy")} for r in results],
        "avg_test_ll": float(lls.mean()),
        "se_test_ll": se(lls),
        "avg_test_error": float(errs.mean()),
        "se_test_error": se(errs),
        "wall_time_s": time.perf_counter() - t0,
    }
    try:
        with open(out / "report.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        with open(out / "metrics.csv", "w", encoding="utf-8") as fh:
            fh.write("split,test_ll,test_error,final_energy\n")
            for r in results:
                fh.write("%d,%.10g,%.10g,%.10g\n"
                         % (r["split"], r["test_ll"], r["test_error"],
                            r["final_energy"]))
        for r in results:
            save_posterior(r["q"], out / ("posterior_split%03d.txt" % r["split"]))
    except OSError as e:
        click.echo("IO error: %s" % e, err=True)
        sys.exit(4)
    return report


@click.group()
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
    try:
        dataset = _build_dataset(cfg["dataset"])
        model = _build_model(cfg["model"], dataset.d)
        tconf = _train_config(cfg.get("train"))
        q, hypers, _ = train(model, dataset, default_prior(model.theta_dim), tconf)
        b = cfg.get("bias", {})
        report = gradient_bias_study(
            model, dataset, q, default_prior(model.theta_dim),
            alphas=[float(a) for a in b.get("alphas", [1.0, 0.5])],
            ks=[int(k) for k in b.get("ks", [1, 5, 10])],
            n_minibatches=int(b.get("n_minibatches", 15)),
            n_repeats=int(b.get("n_repeats", 1000)),
            k_truth=int(b.get("k_truth", 10000)),
            batch_size=int(b.get("batch_size", 32)),
            seed=int(b.get("seed", 0)),
            hyper=hypers.get("log_sigma2"))
    except DivergenceDetected as e:
        click.echo("divergence: %s" % e, err=True)
        sys.exit(3)
    except (KeyError, ValueError, MissingColumn) as e:
        click.echo("config error: %s" % e, err=True)
        sys.exit(2)
    except (OSError, ParseError) as e:
        click.echo("IO error: %s" % e, err=True)
        sys.exit(4)
    report.to_csv(out)
    ks = sorted({r.k for r in report.rows})
    ok = all(report.cell(a, ks[i]).bias_net >= report.cell(a, ks[i + 1]).bias_net
             for a in {r.alpha for r in report.rows} if a != "vb"
             for i in range(len(ks) - 1))
    click.echo("monotone-in-K net bias: %s" % ("pass" if ok else "FAIL"))


@main.command("analytic")
@click.option("--example", type=click.Choice(["1", "2"]), required=True)
@click.option("--sigma2", type=float, default=1.0)
@click.option("--alpha-min", type=float, default=0.01)
@click.option("--alpha-max", type=float, default=1.99)
@click.option("--steps", type=int, default=100)
@click.option("--out", default="analytic.csv")
def analytic_cmd(example, sigma2, alpha_min, alpha_max, steps, out):
    """Closed-form tied-site solutions over an alpha grid."""
    from .errors import DomainError

    if example == "1":
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        lam_fn = oracle.example1_lambda
    else:
        X = np.array([[1.0, -1.0], [-1.0, 1.0]])
        lam_fn = oracle.example2_lambda
    y = np.zeros(2)
    truth = oracle.true_posterior_linreg(X, y, sigma2)
    true_var = float(truth.cov[0, 0])
    grid = np.linspace(alpha_min, alpha_max, steps)
    try:
        rows = []
        for a in grid:
            lam = lam_fn(a, sigma2)
            q_var = 1.0 / (1.0 + 2.0 * lam)
            q_dist = oracle.GaussianDist(np.zeros(2), q_var * np.eye(2))
            kl = oracle.kl_divergence(q_dist, truth)
            rows.append((a, lam, q_var, true_var, kl))
    except DomainError as e:
        click.echo("domain error: %s" % e, err=True)
        sys.exit(2)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("alpha,lambda,q_variance,true_variance,kl_to_truth\n")
        for r in rows:
            fh.write("%.10g,%.10g,%.10g,%.10g,%.10g\n" % r)
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
@click.option("--seed", type=int, default=0)
@click.option("--epochs", type=int, default=600)
@click.option("--out", default="toy_predictive.csv")
def toy_predictive_cmd(alphas, seed, epochs, out):
    """Predictive mean/std on the cubic toy task for several alphas."""
    alpha_list = [float(a) for a in alphas.split(",")]
    try:
        results = run_toy_predictive(alpha_list, seed, epochs=epochs)
    except DivergenceDetected as e:
        click.echo("divergence: %s" % e, err=True)
        sys.exit(3)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("alpha,x,pred_mean,pred_std\n")
        for a in alpha_list:
            grid, mean, std = results[a]
            for x, m, s in zip(grid, mean, std):
                fh.write("%.10g,%.10g,%.10g,%.10g\n" % (a, x, m, s))
    click.echo("wrote %s" % out)


@main.command("gen-toy")
@click.option("--seed", type=int, default=0)
@click.option("--out", default="toy_cubic.csv")
def gen_toy_cmd(seed, out):
    """Write the cubic toy dataset as CSV."""
    data = lk.gen_toy_cubic(seed)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for x, y in zip(data.features[:, 0], data.targets):
            fh.write("%.17g,%.17g\n" % (x, y))
    click.echo("wrote %s" % out)


@main.command("divergence")
@click.option("--mu1", default="0", help="Comma-separated mean of p.")
@click.option("--var1", default="1", help="Comma-separated variances of p.")
@click.option("--mu2", default="0", help="Comma-separated mean of q.")
@click.option("--var2", default="1", help="Comma-separated variances of q.")
@click.option("--alpha-min", type=float, default=-1.0)
@click.option("--alpha-max", type=float, default=2.0)
@click.option("--steps", type=int, default=31)
@click.option("--out", default="divergence.csv")
def divergence_cmd(mu1, var1, mu2, var2, alpha_min, alpha_max, steps, out):
    """Tabulate D_alpha between two diagonal Gaussians over an alpha grid."""
    parse = lambda s: np.array([float(v) for v in s.split(",")])
    p = oracle.GaussianDist(parse(mu1), np.diag(parse(var1)))
    q = oracle.GaussianDist(parse(mu2), np.diag(parse(var2)))
    from .errors import UndefinedDivergence

    with open(out, "w", encoding="utf-8") as fh:
        fh.write("alpha,divergence\n")
        for a in np.linspace(alpha_min, alpha_max, steps):
            try:
                d = oracle.alpha_divergence(p, q, float(a))
                fh.write("%.10g,%.10g\n" % (a, d))
            except UndefinedDivergence:
                fh.write("%.10g,inf\n" % a)
    click.echo("wrote %s" % out)


if __name__ == "__main__":
    main()
