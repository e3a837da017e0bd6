"""The names the traced benchmark (perfbench --trace 1) wraps or reads, and
the op set of bbalpha.autodiff that a user's model is written with.

perfbench/tracing.py is stdlib-only, so it is loaded by path here without
running the benchmark.  A deletion under src/ that breaks a traced run
fails these tests instead.
"""

import importlib
import importlib.util
import pathlib

import numpy as np

import reference_models as ref
from bbalpha import autodiff as ad
from bbalpha import likelihoods as lk
from bbalpha.optim import TrainConfig, default_prior, train

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_entry_point_resolves():
    tracing = _tracing()
    for layer, names in tracing.ENTRY_POINTS.items():
        home = importlib.import_module("bbalpha." + layer)
        for name in names:
            assert callable(getattr(home, name, None)), "bbalpha.%s.%s" % (layer, name)


def test_every_model_has_the_batched_interface():
    tracing = _tracing()
    models = [c for c in vars(lk).values()
              if isinstance(c, type) and hasattr(c, "kind")]
    assert {m.kind for m in models} == {"probit", "linreg", "mlp_regression",
                                        "mlp_classification"}
    for cls in models:
        for method in (tracing.MODEL_METHOD, "batch_log_lik", "batch_forward"):
            assert callable(vars(cls).get(method)), "%s.%s" % (cls.__name__, method)


def test_tape_length_is_readable_from_the_output():
    # the tracer counts nodes per evaluation through out.tape.nodes
    lengths = []

    def f(a):
        out = ad.asum(ad.exp(a))
        lengths.append(len(out.tape.nodes))
        return out

    ad.value_and_grad(f, [np.zeros(3)])
    assert lengths == [3]


# the op set the README states: what a user's batch_log_lik is written with
OP_SET = {"Var", "exp", "log", "relu", "asum", "logsumexp", "log_norm_cdf",
          "dot", "bmm", "reshape", "node", "value_and_grad", "norm_cdf"}
# the functions behind Var's operators and indexing, and what the library
# itself uses: the tape and the buffer pool
LIBRARY = {"add", "sub", "mul", "div", "take", "Tape", "empty", "release",
           "reuse_buffers"}


def test_autodiff_exports_the_op_set_and_what_the_library_uses():
    public = {name for name, value in vars(ad).items()
              if not name.startswith("_")
              and getattr(value, "__module__", None) == ad.__name__}
    assert public == OP_SET | LIBRARY


class _UserClassifier:
    """A three-class MLP as a user would write it, with no likelihoods
    class: its network is tape_forward (indexing, reshape, bmm, add, relu)
    and its log-likelihood picks the labels' logits by indexing and
    subtracts a logsumexp."""

    kind = "mlp_classification"     # tape_forward reads the layer sizes by it

    def __init__(self, d_in, h1, h2, n_classes):
        self.d_in, self.h1, self.h2, self.n_classes = d_in, h1, h2, n_classes
        self.theta_dim = sum(n_out * n_in + n_out
                             for n_out, n_in in ref.mlp_layer_dims(self))

    def batch_log_lik(self, Theta, X, y, hyper=None):
        A = ref.tape_forward(self, Theta, X)                # (K, C, B)
        picked = A[:, np.asarray(y, int), np.arange(len(y))]
        return picked - ad.logsumexp(A, axis=1)


def test_a_user_model_from_the_op_set_trains_like_the_built_in_one():
    data = lk.gen_three_class(0, n=60)
    built_in, user = lk.MLPClassification(2, 5, 4, 3), _UserClassifier(2, 5, 4, 3)
    prior = default_prior(built_in.theta_dim)
    cfg = TrainConfig(alpha=0.5, k_samples=10, batch_size=20, epochs=2,
                      learning_rate=0.05, init_log_var=-3.0, seed=0)
    q_lib, _, trace_lib = train(built_in, data, prior, cfg)
    q_user, _, trace_user = train(user, data, prior, cfg)
    # the fused mlp node and the op-by-op graph may differ in the last bits
    np.testing.assert_allclose(q_user.mu, q_lib.mu, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(q_user.log_var, q_lib.log_var, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(trace_user.energy, trace_lib.energy, rtol=1e-10)
