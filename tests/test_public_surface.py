"""The names the traced benchmark (perfbench --trace 1) wraps or reads.

perfbench/tracing.py is stdlib-only, so it is loaded by path here without
running the benchmark.  A deletion under src/ that breaks a traced run
fails these tests instead.
"""

import importlib
import importlib.util
import pathlib

import numpy as np

from bbalpha import autodiff as ad
from bbalpha import likelihoods as lk

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
