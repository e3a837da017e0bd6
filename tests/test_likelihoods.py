"""Likelihood factors, generators and CSV ingestion."""

import numpy as np
import pytest
from scipy import special

from bbalpha import autodiff as ad
from bbalpha import likelihoods as lk
from bbalpha.errors import (ClassOutOfRange, ConfigError, MissingColumn,
                            NonPositiveNoise, ParseError, ShapeMismatch)

import reference_models as ref


def _batch_vs_scalar(model, Theta, X, y, **kw):
    batched = np.asarray(ad._val(model.batch_log_lik(Theta, X, y, **kw)))
    for k in range(Theta.shape[0]):
        for b in range(X.shape[0]):
            one = float(ref.log_lik(model, Theta[k], X[b], y[b], **kw))
            assert np.isclose(batched[k, b], one, atol=1e-12), (k, b)


def test_probit_batch_matches_scalar():
    rng = np.random.default_rng(0)
    model = lk.ProbitRegression(3)
    _batch_vs_scalar(model, rng.normal(size=(4, 3)), rng.normal(size=(5, 3)),
                     np.where(rng.uniform(size=5) < 0.5, -1.0, 1.0))


def test_probit_log_lik_value():
    model = lk.ProbitRegression(2)
    theta = np.array([1.0, -0.5])
    x = np.array([0.3, 0.8])
    val = float(ad._val(model.batch_log_lik(theta[None], x[None], [-1.0]))[0, 0])
    assert np.isclose(val, special.log_ndtr(-(theta @ x)))


def test_linreg_batch_matches_scalar():
    rng = np.random.default_rng(1)
    model = lk.LinearRegression(3, sigma2=0.5)
    _batch_vs_scalar(model, rng.normal(size=(4, 3)), rng.normal(size=(5, 3)),
                     rng.normal(size=5))


def test_linreg_rejects_nonpositive_noise():
    with pytest.raises(NonPositiveNoise):
        lk.LinearRegression(2, sigma2=0.0)


def test_mlp_regression_batch_matches_scalar():
    rng = np.random.default_rng(2)
    model = lk.MLPRegression(2, 4, log_sigma2=0.3)
    _batch_vs_scalar(model, rng.normal(size=(3, model.theta_dim)),
                     rng.normal(size=(5, 2)), rng.normal(size=5))


def test_mlp_regression_hyper_overrides_noise():
    rng = np.random.default_rng(3)
    model = lk.MLPRegression(2, 3, log_sigma2=0.0)
    theta = rng.normal(size=model.theta_dim)
    x, y = rng.normal(size=2), 0.7
    base = float(ad._val(model.batch_log_lik(theta[None], x[None], [y]))[0, 0])
    other = float(ad._val(model.batch_log_lik(theta[None], x[None], [y],
                                              hyper=1.5))[0, 0])
    assert not np.isclose(base, other)
    assert np.isclose(other, ref.log_lik(model, theta, x, y, hyper=1.5))


def test_mlp_classification_batch_matches_scalar():
    rng = np.random.default_rng(4)
    model = lk.MLPClassification(2, 4, 3, 3)
    _batch_vs_scalar(model, rng.normal(size=(3, model.theta_dim)),
                     rng.normal(size=(5, 2)), rng.integers(0, 3, size=5))


def test_mlp_classification_softmax_normalizes():
    rng = np.random.default_rng(5)
    model = lk.MLPClassification(2, 4, 3, 3)
    theta = rng.normal(size=model.theta_dim)
    x = rng.normal(size=2)
    lls = ad._val(model.batch_log_lik(theta[None], np.tile(x, (3, 1)),
                                      np.arange(3)))[0]
    assert np.isclose(np.sum(np.exp(lls)), 1.0)


def test_mlp_classification_rejects_bad_label():
    model = lk.MLPClassification(2, 3, 3, 3)
    theta = np.zeros(model.theta_dim)
    for label in (-1, 3, 5):
        with pytest.raises(ClassOutOfRange):
            model.batch_log_lik(theta[None, :], np.zeros((1, 2)),
                                np.array([label]))


def test_make_model_dispatch():
    assert lk.make_model("probit", 3).kind == "probit"
    assert lk.make_model("linreg", 3, sigma2=2.0).sigma2 == 2.0
    assert lk.make_model("mlp_regression", 3, n_hidden=7).n_hidden == 7
    assert lk.make_model("mlp_classification", 3, n_classes=4).n_classes == 4
    with pytest.raises(ValueError):
        lk.make_model("nope", 3)


@pytest.mark.parametrize("kind, kw", [
    ("probit", {"sigma2": 1.0}),
    ("linreg", {"sigam2": 0.1}),
    ("mlp_regression", {"learn_noise": True}),
    ("mlp_classification", {"n_classes": 3, "n_hidden": 10}),
])
def test_make_model_rejects_keys_of_other_kinds(kind, kw):
    with pytest.raises(ConfigError, match="unknown model key"):
        lk.make_model(kind, 3, **kw)


def test_generators_are_deterministic():
    a = lk.gen_toy_cubic(3)
    b = lk.gen_toy_cubic(3)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)
    assert a.n == 20 and a.d == 1


def test_gen_synthetic_probit_labels():
    data = lk.gen_synthetic_probit(0, n=50, d=3)
    assert set(np.unique(data.targets)) <= {-1.0, 1.0}
    assert data.task == "probit"


def test_gen_three_class_labels():
    data = lk.gen_three_class(0, n=30)
    assert set(np.unique(data.targets)) == {0, 1, 2}


@pytest.mark.parametrize("n, sizes", [(1, [1, 0, 0]), (2, [1, 1, 0]),
                                      (100, [34, 33, 33]), (120, [40, 40, 40])])
def test_gen_three_class_has_n_rows(n, sizes):
    data = lk.gen_three_class(0, n=n)
    assert data.n == n
    assert np.bincount(data.targets, minlength=3).tolist() == sizes


def test_dataset_shape_check():
    with pytest.raises(ShapeMismatch):
        lk.Dataset(np.zeros((3, 2)), np.zeros(4))


def test_standardize_uses_train_statistics():
    tr = lk.Dataset(np.array([[0.0], [2.0]]), np.array([1.0, 3.0]))
    te = lk.Dataset(np.array([[4.0]]), np.array([5.0]))
    tr2, te2 = lk.standardize_train_test(tr, te)
    assert np.allclose(tr2.features.mean(), 0.0)
    assert np.allclose(te2.features, [[3.0]])  # (4 - 1) / 1
    assert np.isclose(te2.y_mean, 2.0)
    assert np.allclose(te2.targets, (5.0 - 2.0) / 1.0)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_csv_basic(tmp_path):
    p = _write(tmp_path / "d.csv", "x1,x2,y\n1,2,3\n4,5,6\n")
    data = lk.load_csv(p, lk.CsvSchema(target="y"))
    assert data.n == 2 and data.d == 2
    assert np.allclose(data.targets, [3.0, 6.0])


def test_load_csv_selected_columns(tmp_path):
    p = _write(tmp_path / "d.csv", "x1,x2,y\n1,2,3\n")
    data = lk.load_csv(p, lk.CsvSchema(target="y", feature_columns=["x2"]))
    assert data.d == 1 and data.features[0, 0] == 2.0


def test_load_csv_probit_label_recode(tmp_path):
    p = _write(tmp_path / "d.csv", "x,y\n1,0\n2,1\n")
    data = lk.load_csv(p, lk.CsvSchema(target="y", task="probit"))
    assert set(data.targets) == {-1.0, 1.0}


def test_load_csv_missing_column(tmp_path):
    p = _write(tmp_path / "d.csv", "x,y\n1,2\n")
    with pytest.raises(MissingColumn):
        lk.load_csv(p, lk.CsvSchema(target="z"))
    with pytest.raises(MissingColumn):
        lk.load_csv(p, lk.CsvSchema(target="y", feature_columns=["x9"]))


def test_load_csv_names_bad_cell(tmp_path):
    p = _write(tmp_path / "d.csv", "x1,x3,y\n1,2,3\n4,oops,6\n")
    with pytest.raises(ParseError) as e:
        lk.load_csv(p, lk.CsvSchema(target="y"))
    msg = str(e.value)
    assert "row 2" in msg and "'x3'" in msg


def test_load_csv_empty_file(tmp_path):
    p = _write(tmp_path / "d.csv", "")
    with pytest.raises(ParseError):
        lk.load_csv(p, lk.CsvSchema(target="y"))


def test_load_csv_skips_blank_lines(tmp_path):
    p = _write(tmp_path / "d.csv", "x,y\n1,2\n\n3,4\n")
    data = lk.load_csv(p, lk.CsvSchema(target="y"))
    assert data.n == 2


def test_load_csv_probit_rejects_other_labels(tmp_path):
    p = _write(tmp_path / "d.csv", "x,y\n1,0\n2,1\n3,2\n4,-1\n")
    with pytest.raises(ParseError) as e:
        lk.load_csv(p, lk.CsvSchema(target="y", task="probit"))
    assert "[-1.0, 0.0, 1.0, 2.0]" in str(e.value)


def test_load_csv_probit_keeps_signed_labels(tmp_path):
    p = _write(tmp_path / "d.csv", "x,y\n1,-1\n2,1\n3,1\n")
    data = lk.load_csv(p, lk.CsvSchema(target="y", task="probit"))
    assert np.array_equal(data.targets, [-1.0, 1.0, 1.0])
