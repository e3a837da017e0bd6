"""Command-line interface: file formats, exit codes and small end-to-end runs."""

import concurrent.futures
import copy
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from bbalpha import cli
from bbalpha import likelihoods as lk
from bbalpha.diagnostics import gradient_bias_study
from bbalpha.expfam import FactorizedGaussian
from bbalpha.optim import TrainConfig


@pytest.fixture
def runner():
    return CliRunner()


def test_posterior_round_trip(tmp_path):
    q = FactorizedGaussian([0.1, -2.0, 3.5], [-1.0, 0.0, 2.0])
    path = tmp_path / "post.txt"
    cli.save_posterior(q, path)
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert first == "bbalpha-posterior v1 3"
    back = cli.load_posterior(path)
    assert np.array_equal(back.mu, q.mu)
    assert np.array_equal(back.log_var, q.log_var)


def test_load_posterior_rejects_other_files(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("hello world\n", encoding="utf-8")
    from bbalpha.errors import BBAlphaError
    with pytest.raises(BBAlphaError):
        cli.load_posterior(path)


def test_gen_toy_writes_csv(runner, tmp_path):
    out = tmp_path / "toy.csv"
    result = runner.invoke(cli.main, ["gen-toy", "--seed", "3", "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 21


def test_analytic_example1(runner, tmp_path):
    out = tmp_path / "an.csv"
    result = runner.invoke(cli.main, ["analytic", "--example", "1",
                                      "--steps", "10", "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "alpha,lambda,q_variance,true_variance,kl_to_truth"
    assert len(lines) == 11
    # true posterior variance for the identity design at sigma2=1 is 0.5
    row = lines[1].split(",")
    assert float(row[3]) == pytest.approx(0.5)


@pytest.mark.parametrize("example, scale", [("1", 0.5), ("2", 1.0)],
                         ids=["example1", "example2"])
def test_analytic_sigma2_1e308_exits_0_with_lambda_at_its_limit(runner, tmp_path,
                                                                 example, scale):
    # (sigma2 + 1) ** 2 overflows, and lambda tends to scale / sigma2
    out = tmp_path / "a.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(cli.main, ["analytic", "--example", example,
                                          "--sigma2", "1e308", "--steps", "3",
                                          "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_allclose(rows[:, 1], scale / 1e308, rtol=1e-9)


def test_analytic_rejects_out_of_domain(runner, tmp_path):
    result = runner.invoke(cli.main, ["analytic", "--example", "2",
                                      "--alpha-max", "2.5",
                                      "--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 2


def test_divergence_table(runner, tmp_path):
    out = tmp_path / "div.csv"
    result = runner.invoke(cli.main, ["divergence", "--mu1", "0,0",
                                      "--var1", "1,1", "--mu2", "1,0",
                                      "--var2", "2,1", "--steps", "7",
                                      "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 8
    vals = [line.split(",")[1] for line in lines[1:]]
    assert all(v == "inf" or float(v) >= 0.0 for v in vals)


# a value beyond the float range is inf; one below it, such as the
# Hellinger-type limit 1 / (alpha (1 - alpha)) = 4 at alpha 0.5, is finite
@pytest.mark.parametrize("argv, column", [
    (["--mu1", "1e308", "--mu2", "-1e308"], ["inf", "4", "inf"]),
    (["--mu1", "1e308", "--mu2", "1e308"], ["-0", "0", "-0"]),
    (["--mu1", "1e308,0", "--mu2", "-1e308,0", "--var1", "1,1", "--var2", "1,1",
      "--alpha-min", "0", "--alpha-max", "1"], ["inf", "4", "inf"]),
], ids=["means_apart", "means_equal", "kl_limits"])
def test_divergence_at_the_float_range_writes_no_nan(runner, tmp_path, argv, column):
    out = tmp_path / "div.csv"
    result = runner.invoke(cli.main, ["divergence", *argv, "--steps", "3",
                                      "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text(encoding="utf-8").strip().splitlines()[1:]
    assert [line.split(",")[1] for line in lines] == column


# sha256 of each CSV the commands write, so that a change to the writer
# keeps every byte; the divergence table holds 7 undefined (inf) rows
@pytest.mark.parametrize("argv, name, digest", [
    (["train", "{cfg}"], "out/metrics.csv",
     "7cefa4e71116065e32b2eb7826fb1f04571c634f1b2cdeb609b6bd3e2a0b5953"),
    (["analytic", "--example", "1", "--out", "{tmp}/t.csv"], "t.csv",
     "eea760757cb148503335b651af279fd52e8b3d932df6f615145ec51b744be63c"),
    (["divergence", "--mu1", "0,0", "--var1", "1,1", "--mu2", "1,0",
      "--var2", "4,1", "--out", "{tmp}/t.csv"], "t.csv",
     "9e13e03f2a11d7157269ec99c40bcb7b3bffd755e91d5a3a4b9dcaee9d08f570"),
    (["gen-toy", "--out", "{tmp}/t.csv"], "t.csv",
     "b5a7afbdfd8795c3af275a5bcabd006b0b90018e138b025f17877a563c285be4"),
    (["toy-predictive", "--alphas", "0.5", "--epochs", "3", "--out", "{tmp}/t.csv"],
     "t.csv", "169b8ce981c63b3776a8d65f4686cf5ccdfa18a3907116024584f0abec1b9d2b"),
], ids=["metrics", "analytic", "divergence", "gen_toy", "toy_predictive"])
def test_csv_bytes_are_pinned(runner, tmp_path, argv, name, digest):
    cfg = _tiny_train_config(tmp_path)
    result = runner.invoke(cli.main, [a.format(cfg=cfg, tmp=tmp_path) for a in argv])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def _write_config(path, cfg):
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return str(path)


def _tiny_train_config(tmp_path, **overrides):
    cfg = {
        "dataset": {"kind": "synthetic_probit", "seed": 1, "n": 60, "d": 2},
        "model": {"kind": "probit"},
        "train": {"alpha": 0.5, "k_samples": 10, "batch_size": 20,
                  "epochs": 5, "learning_rate": 0.05},
        "experiment": {"n_splits": 2, "seed": 0,
                       "output_dir": str(tmp_path / "out")},
    }
    cfg.update(overrides)
    return _write_config(tmp_path / "cfg.yaml", cfg)


def test_train_pipeline_outputs(runner, tmp_path):
    path = _tiny_train_config(tmp_path)
    result = runner.invoke(cli.main, ["train", path])
    assert result.exit_code == 0, result.output
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["n_splits"] == 2
    assert len(report["splits"]) == 2
    assert np.isfinite(report["avg_test_ll"])
    lines = (out / "metrics.csv").read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "split,test_ll,test_error,final_energy"
    assert len(lines) == 3
    assert (out / "posterior_split000.txt").exists()
    assert (out / "posterior_split001.txt").exists()


def test_train_pipeline_is_deterministic(runner, tmp_path):
    path = _tiny_train_config(tmp_path)
    r1 = runner.invoke(cli.main, ["train", path, "--out-dir", str(tmp_path / "a")])
    r2 = runner.invoke(cli.main, ["train", path, "--out-dir", str(tmp_path / "b")])
    assert r1.exit_code == 0 and r2.exit_code == 0
    ma = (tmp_path / "a" / "metrics.csv").read_text(encoding="utf-8")
    mb = (tmp_path / "b" / "metrics.csv").read_text(encoding="utf-8")
    assert ma == mb


def test_train_vb_alpha_string(runner, tmp_path):
    path = _tiny_train_config(tmp_path)
    cfg = yaml.safe_load(open(path, encoding="utf-8"))
    cfg["train"]["alpha"] = "vb"
    cfg["experiment"]["n_splits"] = 1
    path = _write_config(tmp_path / "cfg_vb.yaml", cfg)
    result = runner.invoke(cli.main, ["train", path])
    assert result.exit_code == 0, result.output


def _csv_train_config(tmp_path, **dataset):
    """A probit CSV file and a one-split config reading it; `dataset`
    entries override or, when None, delete the dataset keys."""
    data_path = tmp_path / "data.csv"
    rng = np.random.default_rng(0)
    with open(data_path, "w", encoding="utf-8") as fh:
        fh.write("x1,x2,label\n")
        for _ in range(60):
            x = rng.normal(size=2)
            y = 1 if x[0] + x[1] > 0 else 0
            fh.write("%.6f,%.6f,%d\n" % (x[0], x[1], y))
    dcfg = {"kind": "csv", "path": str(data_path), "target": "label",
            "task": "probit"}
    dcfg.update(dataset)
    cfg = {
        "dataset": {k: v for k, v in dcfg.items() if v is not None},
        "model": {"kind": "probit"},
        "train": {"alpha": 1.0, "k_samples": 10, "batch_size": 18,
                  "epochs": 5, "learning_rate": 0.05},
        "experiment": {"n_splits": 1, "output_dir": str(tmp_path / "out")},
    }
    return _write_config(tmp_path / "cfg.yaml", cfg)


def test_train_csv_dataset(runner, tmp_path):
    path = _csv_train_config(tmp_path)
    result = runner.invoke(cli.main, ["train", path])
    assert result.exit_code == 0, result.output


def test_missing_config_section_exits_2(runner, tmp_path):
    path = _write_config(tmp_path / "bad.yaml", {"dataset": {"kind": "toy_cubic"}})
    result = runner.invoke(cli.main, ["train", path])
    assert result.exit_code == 2


def test_malformed_yaml_exits_2(runner, tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("dataset: [unclosed\n", encoding="utf-8")
    result = runner.invoke(cli.main, ["train", str(path)])
    assert result.exit_code == 2


def test_non_mapping_config_exits_2(runner, tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a list\n", encoding="utf-8")
    result = runner.invoke(cli.main, ["train", str(path)])
    assert result.exit_code == 2


def test_divergent_run_exits_3(runner, tmp_path):
    path = _tiny_train_config(tmp_path)
    cfg = yaml.safe_load(open(path, encoding="utf-8"))
    cfg["train"].update({"learning_rate": 50.0, "epochs": 60,
                         "divergence_factor": 2.0, "k_samples": 5})
    cfg["experiment"]["n_splits"] = 1
    path = _write_config(tmp_path / "cfg_div.yaml", cfg)
    result = runner.invoke(cli.main, ["train", path])
    assert result.exit_code == 3


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_forward_overflow_run_exits_3(runner, tmp_path):
    path = _tiny_train_config(tmp_path)
    cfg = yaml.safe_load(open(path, encoding="utf-8"))
    cfg["train"].update({"learning_rate": 1000.0, "epochs": 60,
                         "divergence_factor": 2.0, "k_samples": 5})
    cfg["experiment"]["n_splits"] = 1
    path = _write_config(tmp_path / "cfg_div.yaml", cfg)
    result = runner.invoke(cli.main, ["train", path])
    assert result.exit_code == 3
    assert "op 'log_norm_cdf'" in result.stderr


def test_bias_command(runner, tmp_path):
    cfg = {
        "dataset": {"kind": "synthetic_probit", "seed": 0, "n": 60, "d": 2},
        "model": {"kind": "probit"},
        "train": {"alpha": 0.5, "k_samples": 10, "batch_size": 20,
                  "epochs": 5, "learning_rate": 0.05},
        "bias": {"alphas": [0.5], "ks": [1, 5], "n_minibatches": 2,
                 "n_repeats": 40, "k_truth": 500, "batch_size": 16},
    }
    path = _write_config(tmp_path / "cfg.yaml", cfg)
    out = tmp_path / "bias.csv"
    result = runner.invoke(cli.main, ["bias", path, "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "alpha,k,bias_raw,bias_net,grad_std"
    assert "monotone-in-K net bias" in result.output


def test_toy_predictive_command(runner, tmp_path):
    out = tmp_path / "toy.csv"
    result = runner.invoke(cli.main, ["toy-predictive", "--alphas", "0.5",
                                      "--epochs", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "alpha,x,pred_mean,pred_std"
    assert len(lines) == 42


def test_load_posterior_rejects_truncated_file(tmp_path):
    from bbalpha.errors import BBAlphaError
    for body in ("bbalpha-posterior v1 3\n0.5 -1\n",
                 "bbalpha-posterior v1 2\n0.5 -1\n0.5\n",
                 "bbalpha-posterior v1 1\n0.5 oops\n",
                 "bbalpha-posterior v1\n0.5 -1\n",
                 "bbalpha-posterior v1 x\n"):
        path = tmp_path / "post.txt"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(BBAlphaError):
            cli.load_posterior(path)


def _assert_one_line_exit(result, code, needle):
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and needle in lines[0], result.stderr


def test_unknown_dataset_kind_exits_2(runner, tmp_path):
    path = _tiny_train_config(tmp_path, dataset={"kind": "nope"})
    result = runner.invoke(cli.main, ["train", path])
    _assert_one_line_exit(result, 2, "unknown dataset kind 'nope'")


def test_unknown_model_kind_exits_2(runner, tmp_path):
    path = _tiny_train_config(tmp_path, model={"kind": "nope"})
    result = runner.invoke(cli.main, ["train", path])
    _assert_one_line_exit(result, 2, "unknown model kind 'nope'")


@pytest.mark.parametrize("model, needle", [
    ({"kind": "linreg", "sigam2": 0.1}, "unknown model key(s) for linreg: sigam2"),
    ({"kind": "mlp_regression", "learn_noise": True},
     "unknown model key(s) for mlp_regression: learn_noise"),
], ids=["linreg_typo", "mlp_learn_noise"])
def test_unknown_model_key_exits_2(runner, tmp_path, model, needle):
    path = _tiny_train_config(tmp_path, model=model)
    result = runner.invoke(cli.main, ["train", path])
    _assert_one_line_exit(result, 2, needle)


def test_learn_noise_on_linreg_exact_exits_2(runner, tmp_path):
    # linreg has a fixed sigma2 and no noise slot to learn
    path = _tiny_train_config(
        tmp_path, dataset={"kind": "toy_cubic", "seed": 0, "n": 40},
        model={"kind": "linreg", "sigma2": 0.1},
        train={"alpha": 0.5, "energy_mode": "exact", "learn_noise": True,
               "epochs": 5, "learning_rate": 0.05})
    result = runner.invoke(cli.main, ["train", path])
    _assert_one_line_exit(result, 2, "learn_noise needs a model with a noise "
                                     "slot; linreg has none")


def test_exact_mode_ignores_batch_size(runner, tmp_path):
    # 18 training rows against the default batch_size of 32, which the
    # exact energy never uses
    path = _tiny_train_config(
        tmp_path, dataset={"kind": "toy_cubic", "seed": 0, "n": 20},
        model={"kind": "linreg", "sigma2": 9.0},
        train={"alpha": 0.5, "energy_mode": "exact", "epochs": 5})
    result = runner.invoke(cli.main, ["train", path])
    assert result.exit_code == 0, result.output


def test_unknown_train_key_exits_2(runner, tmp_path):
    path = _tiny_train_config(tmp_path)
    cfg = yaml.safe_load(open(path, encoding="utf-8"))
    cfg["train"]["learning_rat"] = 0.1
    path = _write_config(tmp_path / "cfg_key.yaml", cfg)
    result = runner.invoke(cli.main, ["train", path])
    _assert_one_line_exit(result, 2, "unknown train key(s): learning_rat")


def test_improper_cavity_run_exits_3(runner, tmp_path):
    path = _tiny_train_config(tmp_path)
    cfg = yaml.safe_load(open(path, encoding="utf-8"))
    cfg["train"]["alpha"] = 500.0   # beyond N: the cavity precision turns negative
    cfg["experiment"]["n_splits"] = 1
    path = _write_config(tmp_path / "cfg_cav.yaml", cfg)
    result = runner.invoke(cli.main, ["train", path])
    _assert_one_line_exit(result, 3, "improper cavity at epoch 0, step 0")


def test_divergent_run_with_workers_exits_3(runner, tmp_path):
    path = _tiny_train_config(tmp_path)
    cfg = yaml.safe_load(open(path, encoding="utf-8"))
    cfg["train"].update({"learning_rate": 50.0, "epochs": 60,
                         "divergence_factor": 2.0, "k_samples": 5})
    cfg["experiment"]["workers"] = 2
    path = _write_config(tmp_path / "cfg_div.yaml", cfg)
    result = runner.invoke(cli.main, ["train", path])
    _assert_one_line_exit(result, 3, "divergence:")


def test_workers_never_exceed_the_splits(runner, tmp_path, monkeypatch):
    # a fake pool that maps in this process: no worker process starts
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    assert concurrent.futures.ProcessPoolExecutor is InProcessPool
    for workers, n_splits in ((5000, 2), (3, 1)):
        path = _tiny_train_config(tmp_path, experiment={
            "n_splits": n_splits, "workers": workers,
            "output_dir": str(tmp_path / "out")})
        result = runner.invoke(cli.main, ["train", path])
        assert result.exit_code == 0, result.output
    # the single split ran in process, with no pool
    assert started == [2]


@pytest.mark.parametrize("key", ["target", "path"])
def test_missing_csv_dataset_key_exits_2(runner, tmp_path, key):
    path = _csv_train_config(tmp_path, **{key: None})
    result = runner.invoke(cli.main, ["train", path])
    _assert_one_line_exit(result, 2, "missing required key dataset.%s" % key)


def test_missing_model_kind_exits_2(runner, tmp_path):
    path = _tiny_train_config(tmp_path, model={"n_hidden": 10})
    result = runner.invoke(cli.main, ["train", path])
    _assert_one_line_exit(result, 2, "missing required key model.kind")


def test_missing_n_classes_exits_2(runner, tmp_path):
    path = _tiny_train_config(tmp_path, dataset={"kind": "three_class", "n": 30},
                              model={"kind": "mlp_classification"})
    result = runner.invoke(cli.main, ["train", path])
    _assert_one_line_exit(result, 2, "missing required key model.n_classes")


def test_csv_missing_column_exits_2(runner, tmp_path):
    path = _csv_train_config(tmp_path, target="nope")
    result = runner.invoke(cli.main, ["train", path])
    _assert_one_line_exit(result, 2, "column 'nope' not in header")


def test_missing_csv_file_exits_4(runner, tmp_path):
    path = _csv_train_config(tmp_path, path=str(tmp_path / "absent.csv"))
    result = runner.invoke(cli.main, ["train", path])
    _assert_one_line_exit(result, 4, "absent.csv")


def test_unreadable_csv_file_exits_4(runner, tmp_path):
    # a directory cannot be opened as a file, whatever the user's rights
    path = _csv_train_config(tmp_path, path=str(tmp_path))
    result = runner.invoke(cli.main, ["train", path])
    _assert_one_line_exit(result, 4, "IO error:")


def test_csv_parse_error_exits_4(runner, tmp_path):
    path = _csv_train_config(tmp_path)
    with open(tmp_path / "data.csv", "a", encoding="utf-8") as fh:
        fh.write("0.5,oops,1\n")
    result = runner.invoke(cli.main, ["train", path])
    _assert_one_line_exit(result, 4, "bad numeric cell")


@pytest.mark.parametrize("dataset, code, needle", [
    ({"target": None}, 2, "missing required key dataset.target"),
    ({"path": "absent.csv"}, 4, "absent.csv"),
])
def test_config_and_io_errors_with_workers_keep_exit_codes(runner, tmp_path,
                                                           dataset, code, needle):
    path = _csv_train_config(tmp_path, **dataset)
    cfg = yaml.safe_load(open(path, encoding="utf-8"))
    cfg["experiment"].update({"n_splits": 2, "workers": 2})
    path = _write_config(tmp_path / "cfg_workers.yaml", cfg)
    result = runner.invoke(cli.main, ["train", path])
    _assert_one_line_exit(result, code, needle)


@pytest.mark.parametrize("train, needle", [
    ({"alpha": 0}, "alpha must not be 0"),
    ({"alpha": 54}, "training set size 54"),
    ({"optimizer": "adma"}, "unknown optimizer 'adma'"),
    ({"energy_mode": "exactt"}, "unknown energy_mode 'exactt'"),
    ({"energy_mode": "exact"}, "exact energy requires a conjugate linreg model"),
    ({"energy_mode": "exact", "alpha": "vb"}, "'exact' needs a numeric alpha"),
    ({"batch_size": 0}, "batch_size and refresh_every must be >= 1"),
    ({"batch_size": 55}, "batch_size exceeds dataset size"),
    ({"refresh_every": 0}, "batch_size and refresh_every must be >= 1"),
    ({"learning_rate": "abc"}, "train learning_rate must be float, not 'abc'"),
    ({"epochs": "2"}, "train epochs must be int, not '2'"),
    ({"k_samples": 2.5}, "train k_samples must be int, not 2.5"),
    (["alpha", 0.5], "train section must be a mapping, not list"),
    ({"learn_noise": True}, "learn_noise needs a model with a noise slot; "
                            "probit has none"),
    ({"alpha": float("nan")}, "alpha must be finite, got nan"),
    ({"alpha": float("inf")}, "alpha must be finite, got inf"),
    ({"learning_rate": float("nan")}, "learning_rate must be finite and > 0, got nan"),
    ({"learning_rate": float("inf")}, "learning_rate must be finite and > 0, got inf"),
    ({"learning_rate": -1.0}, "learning_rate must be finite and > 0, got -1.0"),
    ({"divergence_factor": float("nan")},
     "divergence_factor must be finite and > 0, got nan"),
    ({"divergence_factor": -1.0}, "divergence_factor must be finite and > 0, got -1.0"),
    ({"optimizer": "sgd", "sgd_a": float("nan")}, "sgd_a must be finite and > 0, got nan"),
    ({"optimizer": "sgd", "sgd_b": float("inf")}, "sgd_b must be finite and > 0, got inf"),
], ids=["alpha_0", "alpha_n", "optimizer", "energy_mode", "exact_probit",
        "exact_vb", "batch_size_0", "batch_size_55", "refresh_every_0", "learning_rate_str",
        "epochs_str", "k_samples_float", "train_not_mapping",
        "learn_noise_probit", "alpha_nan", "alpha_inf", "learning_rate_nan",
        "learning_rate_inf", "learning_rate_negative", "divergence_factor_nan",
        "divergence_factor_negative", "sgd_a_nan", "sgd_b_inf"])
def test_bad_train_setting_exits_2(runner, tmp_path, train, needle):
    path = _tiny_train_config(tmp_path)
    cfg = yaml.safe_load(open(path, encoding="utf-8"))
    if isinstance(train, dict):
        cfg["train"].update(train)   # 54 of the 60 rows train (fraction 0.9)
    else:
        cfg["train"] = train
    cfg["experiment"]["n_splits"] = 1
    path = _write_config(tmp_path / "cfg_bad.yaml", cfg)
    result = runner.invoke(cli.main, ["train", path])
    _assert_one_line_exit(result, 2, needle)


_TINY_BIAS = {"alphas": [0.5], "ks": [1, 5], "n_minibatches": 2,
              "n_repeats": 40, "k_truth": 500, "batch_size": 16}


def _table_config(tmp_path, sections):
    """The tiny train config with a tiny `bias` section; a mapping in
    `sections` updates that section unless it names a `kind`, and anything
    else replaces it."""
    cfg = yaml.safe_load(open(_tiny_train_config(tmp_path, bias=_TINY_BIAS),
                              encoding="utf-8"))
    for name, value in sections.items():
        if (isinstance(value, dict) and "kind" not in value
                and isinstance(cfg.get(name), dict)):
            cfg[name].update(value)
        else:
            cfg[name] = value
    return _write_config(tmp_path / "cfg_table.yaml", cfg)


# the toy_cubic data of the linreg rows, with the base config's seed
_TOY = {"kind": "toy_cubic", "seed": 1, "n": 60}


def _toy_linreg(learning_rate):
    """Sections of a linreg run on toy_cubic whose steps overflow."""
    return {"dataset": _TOY,
            "model": {"kind": "linreg", "sigma2": 0.25},
            "train": {"alpha": -0.5, "k_samples": 10, "batch_size": 8,
                      "learning_rate": learning_rate}}


_MISSING = "{tmp}/absent/x.csv"
_NO_FILE = "No such file or directory"


# argv ({cfg} is the config file, {tmp} the test's directory), config
# section overrides, exit code, and a needle from the one stderr line
@pytest.mark.parametrize("argv, sections, code, needle", [
    (["toy-predictive", "--alphas", "0", "--epochs", "1"], {}, 2,
     "alpha must not be 0"),
    (["toy-predictive", "--alphas", "abc"], {}, 2,
     "--alphas must be comma-separated numbers, not 'abc'"),
    (["toy-predictive", "--alphas", "0.5", "--epochs", "0"], {}, 2,
     "epochs, k_samples, batch_size and refresh_every must be >= 1"),
    (["toy-predictive", "--alphas", "0.5", "--epochs", "1", "--out", _MISSING],
     {}, 4, _NO_FILE),
    (["gen-toy", "--out", _MISSING], {}, 4, _NO_FILE),
    (["analytic", "--example", "1", "--steps", "3", "--out", _MISSING], {}, 4,
     _NO_FILE),
    (["divergence", "--steps", "3", "--out", _MISSING], {}, 4, _NO_FILE),
    (["bias", "{cfg}", "--out", _MISSING], {}, 4, _NO_FILE),
    (["train", "{cfg}", "--out-dir", "{cfg}/sub"], {}, 4, "IO error:"),
    (["divergence", "--mu1", "a"], {}, 2,
     "--mu1 must be comma-separated numbers, not 'a'"),
    (["divergence", "--var1", "-1"], {}, 2, "covariance must be positive definite"),
    (["divergence", "--mu1", "0,0", "--var1", "1"], {}, 2,
     "covariance of shape (1, 1) does not match a mean of length 2"),
    (["train", "{cfg}"], {"experiment": {"n_splits": "x"}}, 2,
     "experiment n_splits must be int, not 'x'"),
    (["train", "{cfg}"], {"experiment": {"seed": "x"}}, 2,
     "experiment seed must be int, not 'x'"),
    (["train", "{cfg}"], {"dataset": {"n": "abc"}}, 2,
     "dataset n must be int, not 'abc'"),
    (["train", "{cfg}"], {"dataset": 3}, 2, "dataset section must be a mapping, not int"),
    (["train", "{cfg}"], {"model": [1]}, 2, "model section must be a mapping, not list"),
    (["train", "{cfg}"], {"experiment": 3}, 2,
     "experiment section must be a mapping, not int"),
    (["train", "{cfg}"], {"model": {"kind": "linreg", "sigma2": -1}}, 2,
     "config error: sigma2 = -1"),
    (["train", "{cfg}"], {"dataset": {"kind": "three_class", "seed": 1, "n": 30},
                          "model": {"kind": "mlp_classification", "n_classes": 2,
                                    "n_hidden1": 5, "n_hidden2": 5}}, 2,
     "config error: labels outside [0, 2)"),
    (["train", "{cfg}"], {"experiment": {"train_fraction": 1.0}}, 2,
     "train_fraction 1.0 leaves an empty split"),
    (["train", "{cfg}"], {"experiment": {"train_fraction": 0.0}}, 2,
     "train_fraction 0.0 leaves an empty split"),
    (["train", "{cfg}"], {"experiment": {"train_fraction": 2}}, 2,
     "train_fraction 2.0 leaves an empty split"),
    (["train", "{cfg}"], {"experiment": {"n_splits": 0}}, 2,
     "experiment n_splits must be >= 1, not 0"),
    (["train", "{cfg}"], {"experiment": {"metrics_k": 0}}, 2,
     "experiment metrics_k must be >= 1, not 0"),
    (["bias", "{cfg}"], {"bias": {"n_repeats": 0}}, 2, "must be >= 1"),
    (["bias", "{cfg}"], {"bias": {"n_minibatches": 0}}, 2, "must be >= 1"),
    (["bias", "{cfg}"], {"bias": {"ks": [0]}}, 2, "must be >= 1"),
    (["bias", "{cfg}"], {"bias": {"k_truth": 0}}, 2, "must be >= 1"),
    (["train", "{cfg}"], {"model": {"kind": "mlp_classification", "n_classes": 2,
                                    "n_hidden1": "abc"}}, 2,
     "model n_hidden1 must be int, not 'abc'"),
    (["train", "{cfg}"], {"model": {"kind": "mlp_regression", "n_hidden": 0}}, 2,
     "model n_hidden must be >= 1, not 0"),
    (["train", "{cfg}"], {"model": {"kind": "mlp_classification", "n_classes": 2.5}},
     2, "model n_classes must be int, not 2.5"),
    (["train", "{cfg}"], {"model": {"kind": "linreg", "sigma2": "abc"}}, 2,
     "model sigma2 must be float, not 'abc'"),
    (["train", "{cfg}"], {"model": {"kind": "mlp_regression", "log_sigma2": [1]}},
     2, "model log_sigma2 must be float, not [1]"),
    (["train", "{cfg}"], {"experiment": {"n_split": 3}}, 2,
     "unknown experiment key(s): n_split"),
    (["train", "{cfg}"], {"dataset": {"nn": 30}}, 2, "unknown dataset key(s): nn"),
    (["bias", "{cfg}", "--out", "{tmp}/b.csv"], {"bias": {"n_repeat": 3}}, 2,
     "unknown bias key(s): n_repeat"),
    (["train", "{cfg}"], {"train": {"adam_beta1": 0.8}}, 2,
     "unknown train key(s): adam_beta1"),
    (["train", "{cfg}"], {"dataset": _TOY, "model": {"kind": "linreg"},
                          "train": {"optimizer": "sgd", "sgd_a": 1.7e308,
                                    "sgd_b": 1.0}}, 3,
     "divergence: non-finite parameters after the update at epoch 0, step 0"),
    (["train", "{cfg}"], {"train": {"init_std": -1}}, 2,
     "config error: init_std must be finite and >= 0, got -1.0"),
    # the closed form overflows; its warnings must not print before the line
    (["train", "{cfg}"], {"dataset": _TOY,
                          "model": {"kind": "linreg", "sigma2": 1e-300},
                          "train": {"energy_mode": "exact"}}, 3,
     "divergence: op 'exact_energy' produced a non-finite value at epoch 0, step 0"),
    # a step overflows in the site step's exp, then in the linreg node's
    # multiply; no warning may print before the line that names the op
    (["train", "{cfg}"], _toy_linreg(1e10), 3,
     "divergence: op 'reparam' produced a non-finite value at epoch 0, step 1"),
    (["train", "{cfg}"], _toy_linreg(1e3), 3,
     "divergence: op 'linreg' produced a non-finite value at epoch 0, step 1"),
    # train's check of the model kind against the data is the pair test's
    (["bias", "{cfg}", "--out", "{tmp}/b.csv"], {"model": {"kind": "linreg"}}, 2,
     "model kind linreg serves regression data, not probit data"),
    (["train", "{cfg}"], {"dataset": {"kind": "three_class", "d": 5}}, 2,
     "unknown dataset key(s): d"),
    (["train", "{cfg}"], {"dataset": {"kind": "toy_cubic", "path": "x.csv"}}, 2,
     "unknown dataset key(s): path"),
    (["bias", "{cfg}", "--out", "{tmp}/b.csv"], {"train": {"seed": -1}}, 2,
     "train seed must be >= 0, not -1"),
    (["train", "{cfg}"], {"model": {"kind": "probit", 1: 2}}, 2,
     "unknown model key(s) for probit: 1"),
    (["divergence", "--alpha-min", "nan", "--steps", "3", "--out", "{tmp}/d.csv"],
     {}, 2, "--alpha-min nan to --alpha-max 2.0 is not a finite grid"),
    (["divergence", "--alpha-min", "-1e308", "--alpha-max", "1e308", "--out",
      "{tmp}/d.csv"], {}, 2, "--alpha-min -1e+308 to --alpha-max 1e+308 is not"),
    (["divergence", "--mu2", "0,inf", "--var2", "1,1", "--out", "{tmp}/d.csv"], {},
     2, "--mu2 must be finite, not '0,inf'"),
    # p's precision, 1e320, is beyond the float range
    (["divergence", "--var1", "1e-320", "--steps", "3", "--out", "{tmp}/d.csv"], {},
     2, "D_alpha at alpha=0.5 is not a number in floating point"),
    (["analytic", "--example", "1", "--alpha-min", "-1e308", "--alpha-max", "1e308",
      "--out", "{tmp}/a.csv"], {}, 2,
     "--alpha-min -1e+308 to --alpha-max 1e+308 is not"),
    # the posterior precision 1 / sigma2 overflows, with no warning
    (["analytic", "--example", "2", "--sigma2", "1e-320", "--steps", "3", "--out",
      "{tmp}/a.csv"], {}, 2,
     "--sigma2 1e-320: the posterior precision X'X / sigma2 is not finite"),
    (["analytic", "--example", "1", "--sigma2", "1e-320", "--steps", "3", "--out",
      "{tmp}/a.csv"], {}, 2,
     "--sigma2 1e-320: the posterior precision X'X / sigma2 is not finite"),
    (["analytic", "--example", "1", "--sigma2", "nan", "--steps", "3", "--out",
      "{tmp}/a.csv"], {}, 2, "--sigma2 nan: sigma2 must be positive and finite"),
    (["analytic", "--example", "2", "--sigma2", "inf", "--steps", "3", "--out",
      "{tmp}/a.csv"], {}, 2, "--sigma2 inf: sigma2 must be positive and finite"),
    # X'X is singular, and 1 + 2 / sigma2 rounds to 2 / sigma2
    (["analytic", "--example", "2", "--sigma2", "1e-20", "--steps", "3", "--out",
      "{tmp}/a.csv"], {}, 2,
     "--sigma2 1e-20: the posterior precision X'X / sigma2 is singular"),
], ids=["toy_alpha_0", "toy_alpha_abc", "toy_epochs_0", "toy_out", "gen_toy_out",
        "analytic_out", "divergence_out", "bias_out", "train_out_dir_under_file",
        "divergence_mu_abc", "divergence_var_negative", "divergence_length_mismatch",
        "n_splits_str", "experiment_seed_str", "dataset_n_str", "dataset_not_mapping",
        "model_not_mapping", "experiment_not_mapping", "linreg_sigma2_negative",
        "n_classes_below_labels", "train_fraction_1", "train_fraction_0",
        "train_fraction_2", "n_splits_0", "metrics_k_0", "bias_n_repeats_0",
        "bias_n_minibatches_0", "bias_ks_0", "bias_k_truth_0", "model_n_hidden1_str",
        "model_n_hidden_0", "model_n_classes_float", "model_sigma2_str",
        "model_log_sigma2_list", "experiment_key_typo", "dataset_key_typo",
        "bias_key_typo", "adam_beta1_unknown", "sgd_update_overflows",
        "init_std_negative", "exact_closed_form_overflows", "site_exp_overflows",
        "linreg_node_overflows", "bias_probit_data_linreg",
        "three_class_reads_no_d", "toy_cubic_reads_no_path", "bias_train_seed_negative",
        "model_key_not_a_string", "divergence_alpha_min_nan",
        "divergence_grid_overflows", "divergence_mu_inf", "divergence_var_tiny",
        "analytic_grid_overflows", "analytic_sigma2_tiny",
        "analytic_sigma2_tiny_example1", "analytic_sigma2_nan", "analytic_sigma2_inf",
        "analytic_precision_singular"])
def test_error_exits_with_its_code_and_one_line(runner, tmp_path, argv, sections,
                                                code, needle):
    cfg = _table_config(tmp_path, sections)
    argv = [a.format(cfg=cfg, tmp=tmp_path) for a in argv]
    result = runner.invoke(cli.main, argv)
    _assert_one_line_exit(result, code, needle)


def test_exit_codes_reach_the_shell(tmp_path):
    # CliRunner catches SystemExit itself; a shell sees the process status
    cfg = _tiny_train_config(tmp_path, train={"alpha": 500.0, "k_samples": 5,
                                              "batch_size": 20, "epochs": 1})
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for argv, code, label in (
            (["divergence", "--mu1", "a"], 2, "config error:"),
            (["train", cfg], 3, "divergence:"),
            (["gen-toy", "--out", str(tmp_path / "absent" / "x.csv")], 4, "IO error:")):
        proc = subprocess.run([sys.executable, "-m", "bbalpha.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        lines = proc.stderr.strip().splitlines()
        assert proc.returncode == code, proc.stderr
        assert len(lines) == 1 and lines[0].startswith(label), proc.stderr


@pytest.mark.parametrize("command", ["analytic", "divergence"])
@pytest.mark.parametrize("steps", ["-1", "0"])
def test_steps_below_1_is_a_usage_error(runner, tmp_path, command, steps):
    argv = [command, "--steps", steps, "--out", str(tmp_path / "t.csv")]
    if command == "analytic":
        argv += ["--example", "1"]
    result = runner.invoke(cli.main, argv)
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--steps'" in result.stderr
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("command", ["gen-toy", "toy-predictive"])
def test_seed_below_0_is_a_usage_error(runner, tmp_path, command):
    result = runner.invoke(cli.main, [command, "--seed", "-1",
                                      "--out", str(tmp_path / "t.csv")])
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--seed'" in result.stderr
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("dataset, needle", [
    ({"task": "regresion"}, "unknown task 'regresion'"),
    ({"feature_columns": "x1"}, "dataset feature_columns must be a list, not 'x1'"),
], ids=["task_typo", "feature_columns_str"])
def test_bad_csv_setting_exits_2(runner, tmp_path, dataset, needle):
    path = _csv_train_config(tmp_path, **dataset)
    result = runner.invoke(cli.main, ["train", path])
    _assert_one_line_exit(result, 2, needle)


# Generated configs: small valid runs of every model kind, each with one or
# two keys set to an edge value.  Counts stay small (an int key takes at
# most 1 from the edges) and workers stays at 1, so no example asks for
# large arrays or for processes.
_EDGES = [0, 1, -1, 1e308, -1e308, 1e-300, float("nan"), float("inf"),
          float("-inf"), "x", True, False, None, [1.0], {"a": 1}]
_SMALL_TRAIN = {"alpha": 0.5, "k_samples": 5, "batch_size": 8, "epochs": 2,
                "learning_rate": 0.05}
_DATASETS = {"toy_cubic": {"kind": "toy_cubic", "seed": 1, "n": 30},
             "synthetic_probit": {"kind": "synthetic_probit", "seed": 1,
                                  "n": 30, "d": 2},
             "three_class": {"kind": "three_class", "seed": 1, "n": 30},
             "csv": {"kind": "csv", "path": "data.csv", "target": "y"}}
_MODELS = {"linreg": {"kind": "linreg", "sigma2": 9.0},
           "mlp_regression": {"kind": "mlp_regression", "n_hidden": 4},
           "probit": {"kind": "probit"},
           "mlp_classification": {"kind": "mlp_classification", "n_hidden1": 4,
                                  "n_hidden2": 4, "n_classes": 3}}
_BASES = [("toy_cubic", "linreg"), ("toy_cubic", "mlp_regression"),
          ("synthetic_probit", "probit"), ("three_class", "mlp_classification")]


def _table():
    """(section, kind, key, type, default) for every config key, read from the
    callables that take them; a section without kinds has kind '-'."""
    owners = ([("dataset", k, f) for k, f in cli._DATASETS.items()]
              + [("model", k, f) for k, f in lk.MODELS.items()]
              + [("train", "-", TrainConfig), ("experiment", "-", cli.Experiment),
                 ("bias", "-", gradient_bias_study)])
    for section, kind, fn in owners:
        for key, p in lk.config_keys(fn).items():
            t = p.annotation
            name = ("number or 'vb'" if t is object
                    else str(t) if hasattr(t, "__origin__") else t.__name__)
            default = "required" if p.default is p.empty else repr(p.default)
            yield section, kind, key, name, default


def test_readme_lists_every_config_key_with_its_type_and_default():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = [tuple(c.strip() for c in line.strip().strip("|").split("|"))
            for line in readme.read_text(encoding="utf-8").splitlines()
            if line.startswith("| ") and line.split("|")[1].strip()
            in ("dataset", "model", "train", "experiment", "bias")]
    assert rows == list(_table())


def _keys(dataset, model):
    """The (section, key) pairs that a config of these kinds reads."""
    return ([("dataset", "kind"), ("model", "kind")]
            + [(section, key) for section, kind, key, _, _ in _table()
               if kind in (dataset, model) or section in ("train", "experiment")])


# every key some kind reads, most of them unknown to any one config
_ALL_KEYS = sorted({key for d in _DATASETS for m in _MODELS for key in _keys(d, m)})
_LABELS = {2: "config error: ", 3: "divergence: ", 4: "IO error: "}


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    """A directory holding the regression CSV that the csv dataset reads."""
    path = tmp_path_factory.mktemp("generated")
    rng = np.random.default_rng(0)
    rows = ["%.6f,%.6f,%.6f" % (a, b, a - 2.0 * b) for a, b in rng.normal(size=(30, 2))]
    (path / "data.csv").write_text("x1,x2,y\n" + "\n".join(rows) + "\n",
                                   encoding="utf-8")
    return path


def _config(dataset, model):
    return {"dataset": copy.deepcopy(_DATASETS[dataset]),
            "model": copy.deepcopy(_MODELS[model]), "train": dict(_SMALL_TRAIN),
            "experiment": {"n_splits": 1, "seed": 0, "workers": 1, "metrics_k": 5}}


def _run_as_documented(runner, directory, cfg):
    """Run `bbalpha train` on cfg; check the exit code is documented, that a
    failure prints one labelled line and that no RuntimeWarning escapes."""
    if cfg["dataset"].get("path") == "data.csv":
        cfg["dataset"]["path"] = str(directory / "data.csv")
    path = directory / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(cli.main, ["train", str(path),
                                          "--out-dir", str(directory / "out")])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
        [str(w.message) for w in caught]
    assert result.exit_code in (0, 2, 3, 4), (cfg, result.output, result.exception)
    if result.exit_code:
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1, (cfg, result.stderr)
        assert lines[0].startswith(_LABELS[result.exit_code]), (cfg, result.stderr)
    return result


@pytest.mark.parametrize("dataset", sorted(_DATASETS))
@pytest.mark.parametrize("model", sorted(_MODELS))
def test_every_dataset_and_model_kind_pair_exits_as_documented(runner, gen_dir,
                                                               dataset, model):
    result = _run_as_documented(runner, gen_dir, _config(dataset, model))
    task = {"csv": "regression", "toy_cubic": "regression",
            "synthetic_probit": "probit", "three_class": "classification"}[dataset]
    serves = {"linreg": "regression", "mlp_regression": "regression",
              "probit": "probit", "mlp_classification": "classification"}[model]
    if serves == task:
        assert result.exit_code == 0, result.output
    else:
        assert result.exit_code == 2
        assert ("model kind %s serves %s data, not %s data" % (model, serves, task)
                in result.stderr)


@st.composite
def _generated_configs(draw):
    dataset, model = draw(st.sampled_from(_BASES))
    if draw(st.integers(0, 3)) == 0:        # any dataset kind with any model kind
        dataset = draw(st.sampled_from(sorted(_DATASETS)))
        model = draw(st.sampled_from(sorted(_MODELS)))
    cfg = _config(dataset, model)
    keys = _keys(dataset, model) if draw(st.integers(0, 7)) else _ALL_KEYS
    for section, key in draw(st.lists(st.sampled_from(keys), min_size=1,
                                      max_size=2, unique=True)):
        cfg[section][key] = draw(st.sampled_from(_EDGES))
    return cfg


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(cfg=_generated_configs())
def test_generated_configs_exit_as_documented(gen_dir, cfg):
    _run_as_documented(CliRunner(), gen_dir, cfg)


# edge values of the analytic command's float options, NaN and the float
# range's ends among them
_SIGMA2_EDGES = [-1.0, 0.0, 5e-324, 1e-320, 1e-308, 1e-300, 1e-20, 1e-3, 1.0,
                 1e16, 1e154, 1e308, 1.7976931348623157e308, np.inf, np.nan]
_ALPHA_EDGES = [-np.inf, -1e308, -1.0, 0.0, 5e-324, 1e-300, 0.01, 0.5, 1.0, 1.5,
                1.99, 1.9999999999999998, 2.0, 3.0, 1e308, np.inf, np.nan]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(example=st.sampled_from(["1", "2"]),
       sigma2=st.sampled_from(_SIGMA2_EDGES),
       alpha_min=st.sampled_from(_ALPHA_EDGES),
       alpha_max=st.sampled_from(_ALPHA_EDGES), steps=st.sampled_from([1, 2, 3, 7]))
def test_generated_analytic_options_exit_as_documented(gen_dir, example, sigma2,
                                                       alpha_min, alpha_max, steps):
    """The train test's properties, and a written table holds no NaN cell."""
    out = gen_dir / "analytic.csv"
    out.unlink(missing_ok=True)
    argv = ["analytic", "--example", example, "--sigma2", repr(sigma2),
            "--alpha-min", repr(alpha_min), "--alpha-max", repr(alpha_max),
            "--steps", str(steps), "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = CliRunner().invoke(cli.main, argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
        (argv, [str(w.message) for w in caught])
    assert result.exit_code in (0, 2, 3, 4), (argv, result.output, result.exception)
    if result.exit_code:
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1, (argv, result.stderr)
        assert lines[0].startswith(_LABELS[result.exit_code]), (argv, result.stderr)
    else:
        table = out.read_text(encoding="utf-8")
        cells = [c for row in table.splitlines()[1:] for c in row.split(",")]
        assert len(cells) == 5 * steps and "nan" not in cells, (argv, table)
