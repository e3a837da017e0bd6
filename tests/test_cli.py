"""Command-line interface: file formats, exit codes and small end-to-end runs."""

import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from bbalpha import cli
from bbalpha.expfam import FactorizedGaussian


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
    ({"refresh_every": 0}, "batch_size and refresh_every must be >= 1"),
    ({"learning_rate": "abc"}, "train learning_rate must be float, not 'abc'"),
    ({"epochs": "2"}, "train epochs must be int, not '2'"),
    ({"k_samples": 2.5}, "train k_samples must be int, not 2.5"),
    (["alpha", 0.5], "train section must be a mapping, not list"),
], ids=["alpha_0", "alpha_n", "optimizer", "energy_mode", "exact_probit",
        "exact_vb", "batch_size_0", "refresh_every_0", "learning_rate_str",
        "epochs_str", "k_samples_float", "train_not_mapping"])
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
