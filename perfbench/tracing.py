"""Spans around the public entry points of each bbalpha layer.

`Tracer.install()` replaces module and class attributes of the imported
package in the running process; no file of the package changes.  Every
reference to a wrapped function is replaced, including names that one
module imported from another (``from .energy import bbalpha_energy_mc``).

The tape primitives of `autodiff` (add, mul, dot, ...) are not wrapped: a
span costs about as much as a small op, so per-op spans would distort the
numbers they report.  Instead `value_and_grad` wraps the expression it
evaluates in an ``autodiff.forward`` span, which splits the tape's time
into forward and backward and reads the tape length after each forward.
"""

import functools
import json
import sys
import time
from collections import Counter

LAYERS = ("cli", "optim", "energy", "autodiff", "likelihoods", "predict",
          "diagnostics")

# Public functions wrapped per layer.  `cli` omits the click commands, which
# only parse arguments and call these.  `likelihoods` is wrapped at the
# `batch_log_lik` method of each model; its dataset generators and
# standardization stay inside the self time of `cli`, which calls them.
ENTRY_POINTS = {
    "cli": ("cmd_train", "save_posterior", "load_posterior",
            "run_toy_predictive"),
    "optim": ("train", "adam_step", "init_q", "default_prior",
              "robbins_monro_lr", "glorot_layer_dims"),
    "energy": ("bbalpha_energy_mc", "vb_energy_mc", "bbalpha_energy_exact",
               "bbalpha_energy_exact_grad", "vb_energy_exact",
               "lower_bound_certificate", "stationarity_residual"),
    "autodiff": ("value_and_grad",),
    "predict": ("predict_loglik_regression", "predict_probit",
                "predict_class", "predictive_regression_stats"),
    "diagnostics": ("gradient_bias_study",),
}
MODEL_METHOD = "batch_log_lik"

# The traced wall time may exceed the sum of all self times by the cost of
# the outermost wrapper and the clock reads around it.
ACCOUNTING_TOLERANCE = 0.01


class Tracer:
    """In-memory span recorder: one [name, start, end, parent, error] list
    per call, parents as indices into the same list."""

    def __init__(self):
        self.spans = []
        self.tape_lengths = []
        self._stack = []
        self._last_error = None

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                # count an error once, in the span where it was raised
                span[4] = e is not self._last_error
                self._last_error = e
                raise
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def _traced_value_and_grad(self, value_and_grad):
        tape_lengths = self.tape_lengths

        def with_forward_span(f):
            def forward(*leaves):
                out = f(*leaves)
                tape = getattr(out, "tape", None)
                if tape is not None:
                    tape_lengths.append(len(tape.nodes))
                return out
            return self._wrap("autodiff.forward", forward)

        @functools.wraps(value_and_grad)
        def traced(f, at):
            return value_and_grad(with_forward_span(f), at)

        return traced

    def install(self):
        """Wrap every entry point of the imported bbalpha modules."""
        mods = [m for n, m in sys.modules.items()
                if n == "bbalpha" or n.startswith("bbalpha.")]
        for layer, names in ENTRY_POINTS.items():
            home = sys.modules["bbalpha." + layer]
            for name in names:
                orig = getattr(home, name)
                fn = orig
                if layer == "autodiff" and name == "value_and_grad":
                    fn = self._traced_value_and_grad(orig)
                wrapped = self._wrap(layer + "." + name, fn)
                for m in mods:
                    for attr in [a for a, v in vars(m).items() if v is orig]:
                        setattr(m, attr, wrapped)
        lk = sys.modules["bbalpha.likelihoods"]
        for cls in [c for c in vars(lk).values() if isinstance(c, type)]:
            if MODEL_METHOD in vars(cls):
                setattr(cls, MODEL_METHOD, self._wrap(
                    "likelihoods.%s.%s" % (cls.__name__, MODEL_METHOD),
                    vars(cls)[MODEL_METHOD]))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, error) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "error": error}) + "\n")


def layer_metrics(spans, tape_lengths, wall_s, test_rows):
    """Per-layer counts and times derived from a finished span list.

    A span's self time is its duration minus that of its direct children.
    A *call* into a layer is a span whose parent belongs to another layer;
    a layer's busy time is the duration of its calls.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    layer_of = [s[0].split(".", 1)[0] for s in spans]
    self_s, calls, busy, errors, fn_self, fn_calls = (
        Counter() for _ in range(6))
    for i, (name, start, end, parent, error) in enumerate(spans):
        layer = layer_of[i]
        own = end - start - child[i]
        self_s[layer] += own
        fn_self[name] += own
        fn_calls[name] += 1
        errors[layer] += error
        if parent < 0 or layer_of[parent] != layer:
            calls[layer] += 1
            busy[layer] += end - start

    m = {
        "autodiff.evals": calls["autodiff"],
        "autodiff.forward_s": fn_self["autodiff.forward"],
        "autodiff.backward_s": fn_self["autodiff.value_and_grad"],
        "autodiff.nodes_per_eval": (sum(tape_lengths) / len(tape_lengths)
                                    if tape_lengths else 0),
        "likelihoods.calls": calls["likelihoods"],
        "likelihoods.busy_s": busy["likelihoods"],
        "energy.calls": calls["energy"],
        "energy.self_s": self_s["energy"],
        "optim.steps": fn_calls["optim.adam_step"],
        "optim.adam_s": fn_self["optim.adam_step"],
        "optim.loop_s": self_s["optim"] - fn_self["optim.adam_step"],
        "predict.calls": calls["predict"],
        "predict.busy_s": busy["predict"],
        "predict.ms_per_row": (1e3 * busy["predict"] / test_rows
                               if test_rows else 0),
        "diagnostics.self_s": self_s["diagnostics"],
        "cli.self_s": self_s["cli"],
        "trace.accounted_frac": sum(self_s.values()) / wall_s,
    }
    for layer in LAYERS:
        m[layer + ".errors"] = errors[layer]
    return m
