"""Likelihood factors, datasets, data generators and the config reader.

All log-likelihood code is written against the autodiff primitives, so the
same function evaluates on plain numpy arrays or differentiably on tape
variables.  Every model has one batched interface over a (K, P) matrix of
parameter samples: batch_forward(Theta, X) and batch_log_lik(Theta, X, y).
MLP parameter vectors are packed layer-major, weights before
biases: (W1, b1, W2, b2, ...) with each weight matrix flattened row-major.
Both MLPs run their network as one `mlp` node and linear regression's
log-likelihood is one `linreg` node; in the MC energy these sit between the
`reparam` and `alpha_energy` nodes and write only into arrays they allocate.
"""

import csv
import inspect
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import (ClassOutOfRange, ConfigError, MissingColumn,
                     NonPositiveNoise, ParseError, ShapeMismatch)

_LOG_2PI = np.log(2.0 * np.pi)


# ---------------------------------------------------------------------------
# datasets

@dataclass
class Dataset:
    """Feature matrix plus targets and the statistics needed to undo
    standardization of predictions."""

    features: np.ndarray
    targets: np.ndarray
    name: str = "unnamed"
    task: str = "regression"  # regression | probit | classification
    x_mean: np.ndarray = None
    x_std: np.ndarray = None
    y_mean: float = 0.0
    y_std: float = 1.0

    def __post_init__(self):
        self.features = np.atleast_2d(np.asarray(self.features, dtype=float))
        self.targets = np.asarray(self.targets)
        if self.features.shape[0] != self.targets.shape[0]:
            raise ShapeMismatch("features %s vs targets %s"
                                % (self.features.shape, self.targets.shape))
        if np.any(~np.isfinite(self.features)):
            raise ParseError("NaN/Inf in features of dataset '%s'" % self.name)

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]

    def subset(self, idx):
        return Dataset(self.features[idx], self.targets[idx], self.name,
                       self.task, self.x_mean, self.x_std, self.y_mean, self.y_std)


def standardize_train_test(train: Dataset, test: Dataset):
    """Standardize features (and regression targets) using train statistics.

    Returns new (train, test) datasets carrying the statistics so predictions
    can be mapped back to the original scale.
    """
    x_mean = train.features.mean(axis=0)
    x_std = train.features.std(axis=0)
    x_std = np.where(x_std < 1e-12, 1.0, x_std)
    y_mean, y_std = 0.0, 1.0
    tr_y, te_y = train.targets, test.targets
    if train.task == "regression":
        y_mean = float(np.mean(train.targets))
        y_std = float(np.std(train.targets))
        if y_std < 1e-12:
            y_std = 1.0
        tr_y = (train.targets - y_mean) / y_std
        te_y = (test.targets - y_mean) / y_std
    mk = lambda ds, y: Dataset((ds.features - x_mean) / x_std, y, ds.name,
                               ds.task, x_mean, x_std, y_mean, y_std)
    return mk(train, tr_y), mk(test, te_y)


# ---------------------------------------------------------------------------
# likelihood models

class ProbitRegression:
    """p(y|theta, x) = Phi(y * theta^T x), labels in {-1, +1}."""

    kind = "probit"
    task = "probit"          # the Dataset task it serves

    def __init__(self, n_features):
        self.theta_dim = n_features

    def batch_forward(self, Theta, X):
        """Latent values theta^T x; (K, P) x (B, P) -> (K, B)."""
        return ad.dot(Theta, np.asarray(X, float).T)

    def batch_log_lik(self, Theta, X, y, hyper=None):
        """log Phi(y theta^T x) as `dot` and `log_norm_cdf` nodes: the
        labels are folded into the rows of X, which for labels +-1 is exact
        and saves a (K, B) product node."""
        Xy = np.asarray(X, float) * np.asarray(y, float)[:, None]
        return ad.log_norm_cdf(self.batch_forward(Theta, Xy))


class LinearRegression:
    """Gaussian likelihood y = theta^T x + noise with fixed variance sigma2."""

    kind = "linreg"
    task = "regression"

    def __init__(self, n_features, sigma2: float = 1.0):
        if sigma2 <= 0:
            raise NonPositiveNoise("sigma2 = %g" % sigma2)
        self.theta_dim = n_features
        self.sigma2 = float(sigma2)
        self._c0 = -0.5 * np.log(2 * np.pi * self.sigma2)

    def batch_forward(self, Theta, X):
        """Regression means theta^T x; (K, P) x (B, P) -> (K, B)."""
        return ad.dot(Theta, np.asarray(X, float).T)

    def batch_log_lik(self, Theta, X, y, hyper=None):
        """One `linreg` node, c0 - resid^2 / (2 sigma2) with resid =
        y - Theta X^T; value and VJP (g / sigma2) resid X round exactly as
        the op-by-op tape expression's -2 (-g / (2 sigma2)) resid X does:
        scaling by 2 is exact."""
        X = np.asarray(X, float)
        Tv = ad._val(Theta)
        resid = np.matmul(Tv, X.T, out=ad.empty(Tv.shape[:-1] + X.shape[:1]))
        np.subtract(np.asarray(y, float), resid, out=resid)
        out = np.multiply(resid, resid, out=ad.empty(resid.shape))
        out /= 2 * self.sigma2
        np.subtract(self._c0, out, out=out)

        def vjp(g):             # the consumers' VJPs, which read out, ran first
            t = np.divide(g, self.sigma2, out=out)
            t *= resid
            return t.dot(X)

        return ad.node(out, "linreg", (Theta, vjp))


def mlp(Theta, X, layer_dims):
    """Rectifier network over the K parameter rows of Theta, one node.

    (K, P) Theta and (B, d) X give the last layer's (K, n_out, B) outputs;
    every other layer is followed by max(., 0).  `layer_dims` lists
    (n_out, n_in) per layer; W and b are views of Theta.  Only the
    activations A are kept: A > 0 is exactly the rectifier's mask Z > 0.
    The VJP walks the layers backwards: dW = G A_prev^T, db = sum_b G, both
    written into one (K, P) array, W^T G down a layer, into A_prev's own
    buffer, and G * (A_prev > 0) through a rectifier (0 at a kink, as `relu`
    gives).  A plain-array Theta gives a plain array.
    """
    Tv = ad._val(Theta)
    K = Tv.shape[0]
    A = np.atleast_2d(np.asarray(X, float)).T
    layers, off = [], 0
    for i, (nout, nin) in enumerate(layer_dims):
        w_sl = slice(off, off + nout * nin)
        b_sl = slice(w_sl.stop, w_sl.stop + nout)
        off = b_sl.stop
        W = Tv[:, w_sl].reshape(K, nout, nin)
        layers.append((W, w_sl, b_sl, A))
        A = np.matmul(W, A, out=ad.empty((K, nout, A.shape[-1])))
        A += Tv[:, b_sl].reshape(K, nout, 1)
        if i < len(layer_dims) - 1:
            np.maximum(A, 0.0, out=A)
    if off != Tv.shape[1]:
        raise ShapeMismatch("layers pack %d parameters, Theta has %d"
                            % (off, Tv.shape[1]))

    def vjp(G):
        dT = ad.empty(Tv.shape)         # C order: the slices reshape as views
        for i in range(len(layers) - 1, -1, -1):
            W, w_sl, b_sl, A_prev = layers[i]
            np.matmul(G, np.swapaxes(A_prev, -1, -2),
                      out=dT[:, w_sl].reshape(W.shape))
            np.sum(G, axis=2, out=dT[:, b_sl])
            if i:
                mask = A_prev > 0.0     # A_prev's last read: W^T G goes there
                G = np.matmul(np.swapaxes(W, -1, -2), G, out=A_prev)
                G *= mask
        return dT

    return ad.node(A, "mlp", (Theta, vjp))


class MLPRegression:
    """Single-hidden-layer rectifier network with Gaussian output noise.

    The noise is parameterized by log sigma2, passed as the hyper slot: it
    is trained when TrainConfig.learn_noise is set and frozen otherwise.
    """

    kind = "mlp_regression"
    task = "regression"

    def __init__(self, n_features, n_hidden: int = 100, log_sigma2: float = 0.0):
        self.d_in = n_features
        self.n_hidden = n_hidden
        self.theta_dim = n_hidden * n_features + n_hidden + n_hidden + 1
        self.layer_dims = [(n_hidden, n_features), (1, n_hidden)]
        self.log_sigma2 = float(log_sigma2)

    def _log_sigma2(self, hyper):
        if hyper is None:
            return self.log_sigma2
        return hyper if np.ndim(ad._val(hyper)) == 0 else hyper[0]

    def batch_forward(self, Theta, X):
        """Network outputs for each sample row of Theta; returns (K, B)."""
        out = mlp(Theta, X, self.layer_dims)        # (K, 1, B)
        return ad.reshape(out, (out.shape[0], out.shape[2]))

    def batch_log_lik(self, Theta, X, y, hyper=None):
        ls2 = self._log_sigma2(hyper)
        resid = self.batch_forward(Theta, X) - np.asarray(y, float)[None, :]
        return -0.5 * _LOG_2PI - 0.5 * ls2 - resid * resid / (2.0 * ad.exp(ls2))


class MLPClassification:
    """Two-hidden-layer rectifier network with softmax readout."""

    kind = "mlp_classification"
    task = "classification"

    def __init__(self, n_features, n_hidden1, n_hidden2, n_classes):
        self.d_in = n_features
        self.h1 = n_hidden1
        self.h2 = n_hidden2
        self.n_classes = n_classes
        self.theta_dim = (n_hidden1 * n_features + n_hidden1
                          + n_hidden2 * n_hidden1 + n_hidden2
                          + n_classes * n_hidden2 + n_classes)
        self.layer_dims = [(n_hidden1, n_features), (n_hidden2, n_hidden1),
                           (n_classes, n_hidden2)]

    @classmethod
    def from_config(cls, n_features, n_classes: int, n_hidden1: int = 50,
                    n_hidden2: int = 50):
        """The `mlp_classification` config kind: `n_classes` has no default."""
        return cls(n_features, n_hidden1, n_hidden2, n_classes)

    def batch_forward(self, Theta, X):
        """Class logits for each sample row of Theta; returns (K, C, B)."""
        return mlp(Theta, X, self.layer_dims)

    def batch_log_lik(self, Theta, X, y, hyper=None):
        y = np.asarray(y, dtype=int)
        if np.any((y < 0) | (y >= self.n_classes)):
            raise ClassOutOfRange("labels outside [0, %d)" % self.n_classes)
        A = self.batch_forward(Theta, X)
        picked = A[:, y, np.arange(ad._val(A).shape[2])]  # (K, B)
        return picked - ad.logsumexp(A, axis=1)


# the callable that takes each model kind's keys
MODELS = {"probit": ProbitRegression, "linreg": LinearRegression,
          "mlp_regression": MLPRegression,
          "mlp_classification": MLPClassification.from_config}


def make_model(kind, n_features, **kw):
    """The model of `kind` on `n_features` inputs, with the config keys `kw`."""
    if kind not in MODELS:
        raise ConfigError("unknown model kind %r" % kind)
    return MODELS[kind](n_features, **read_keys("model", MODELS[kind], kw, kind))


def config_keys(fn):
    """The config keys of the callable `fn`, its annotated parameters: the
    annotation is a key's type, and a key without a default is required."""
    return {k: p for k, p in inspect.signature(fn).parameters.items()
            if p.annotation is not p.empty}


def read_keys(section, fn, cfg, kind=None, counts=True):
    """The keyword arguments for `fn` from the mapping `cfg`; a key `fn` does
    not take, or a required key `cfg` lacks, raises ConfigError (naming `kind`)."""
    keys = config_keys(fn)
    of = " for " + kind if kind else ""
    unknown = sorted(str(k) for k in cfg if k not in keys)
    if unknown:
        raise ConfigError("unknown %s key(s)%s: %s" % (section, of, ", ".join(unknown)))
    for key, p in keys.items():
        if p.default is p.empty and key not in cfg:
            raise ConfigError("missing required key %s.%s%s" % (section, key, of))
    return {k: read_value(section, k, keys[k].annotation, v, counts)
            for k, v in cfg.items()}


def read_value(section, key, typ, value, counts=True):
    """`value` of `section.key` as the type `typ`: a list[...] is a list of
    its item type; numbers, and strings such as YAML's unquoted 1e-3, widen
    to float; `object` (the train alpha) is a float or 'vb'.  A seed must
    be >= 0 and, with `counts`, any other int >= 1: `train` reads without,
    since TrainConfig.validate bounds its counts with its own message."""
    if getattr(typ, "__origin__", None) is list:
        if not isinstance(value, list):
            raise ConfigError("%s %s must be a list, not %r" % (section, key, value))
        return [read_value(section, key, typ.__args__[0], v, counts) for v in value]
    if typ is object and value == "vb":
        return value
    ok = isinstance(value, bool) == (typ is bool)
    if ok and typ in (float, object):
        try:
            value = float(value)
        except (TypeError, ValueError):
            ok = False
    if not (ok and isinstance(value, typ)):
        raise ConfigError("%s %s must be %s, not %r" % (
            section, key, "a number or 'vb'" if typ is object else typ.__name__,
            value))
    low = 0 if key == "seed" else 1 if typ is int and counts else None
    if low is not None and not value >= low:
        raise ConfigError("%s %s must be >= %s, not %r" % (section, key, low, value))
    return value


# ---------------------------------------------------------------------------
# generators

def gen_toy_cubic(seed: int = 0, n: int = 20):
    """n inputs uniform on [-4, 4]; y = x^3 + noise with variance 9."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-4.0, 4.0, size=n)
    y = x ** 3 + rng.normal(0.0, 3.0, size=n)
    return Dataset(x[:, None], y, name="toy_cubic", task="regression")


def gen_synthetic_probit(seed: int = 0, n: int = 200, d: int = 4):
    """Probit-noise labels in {-1, +1} from N(0, 1.5^2) linear weights."""
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1.5, size=d)
    X = rng.normal(size=(n, d))
    p = ad.norm_cdf(X @ w)
    y = np.where(rng.uniform(size=n) < p, 1.0, -1.0)
    return Dataset(X, y, name="synthetic_probit", task="probit")


def gen_three_class(seed: int = 0, n: int = 120):
    """n points in three 2-D Gaussian blobs around a triangle's corners."""
    rng = np.random.default_rng(seed)
    centers = 2.5 * np.array([[1.0, 0.0], [-0.5, 0.9], [-0.5, -0.9]])
    X, y = [], []
    for c in range(3):
        size = n // 3 + (c < n % 3)     # the first n % 3 classes hold one more
        X.append(centers[c] + rng.normal(size=(size, 2)))
        y.append(np.full(size, c))
    return Dataset(np.vstack(X), np.concatenate(y),
                   name="three_class", task="classification")


# ---------------------------------------------------------------------------
# CSV ingestion

@dataclass
class CsvSchema:
    """Names the target column and task kind for a CSV file."""

    target: str
    task: str = "regression"
    feature_columns: list = None  # default: every non-target column


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Parse a headered, comma-separated UTF-8 file into a raw Dataset.

    Standardization happens later, on the training split only.  Probit labels
    are normalized to {-1, +1} from either source encoding, 0/1 or -1/+1;
    any other label value raises ParseError.  A task other than regression,
    probit or classification raises ConfigError.
    """
    if schema.task not in ("regression", "probit", "classification"):
        raise ConfigError("unknown task %r (regression, probit or "
                          "classification)" % schema.task)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("%s: empty file" % path)
        header = [h.strip() for h in header]
        if schema.target not in header:
            raise MissingColumn("column %r not in header of %s" % (schema.target, path))
        feat_names = schema.feature_columns or [h for h in header if h != schema.target]
        for name in feat_names:
            if name not in header:
                raise MissingColumn("column %r not in header of %s" % (name, path))
        # the features, then the target, which vals.pop() takes off
        cells = [(n, header.index(n)) for n in (*feat_names, schema.target)]
        rows, targets = [], []
        for rno, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            vals = []
            for name, ci in cells:
                try:
                    vals.append(float(row[ci]))
                except (ValueError, IndexError):
                    raise ParseError("%s: bad numeric cell at row %d, column %r"
                                     % (path, rno, name))
            targets.append(vals.pop())
            rows.append(vals)
    X = np.asarray(rows, dtype=float)
    y = np.asarray(targets, dtype=float)
    if schema.task == "probit":
        uniq = set(np.unique(y).tolist())
        if uniq <= {0.0, 1.0}:
            y = 2.0 * y - 1.0
        elif not uniq <= {-1.0, 1.0}:
            raise ParseError("%s: probit labels in column %r must be 0/1 or "
                             "-1/+1, found %s" % (path, schema.target,
                                                  sorted(uniq)))
    elif schema.task == "classification":
        y = y.astype(int)
    return Dataset(X, y, name=str(path), task=schema.task)


def csv_dataset(path: str, target: str, task: str = CsvSchema.task,
                feature_columns: list[str] = CsvSchema.feature_columns):
    """The `csv` dataset kind: `load_csv` with the schema's fields as keys."""
    return load_csv(path, CsvSchema(target, task, feature_columns))
