"""Each workload of the benchmark in perfbench/, run once.

perfbench/workloads.py is loaded by path, as the benchmark's worker loads
it, and each workload makes its inputs at seed 0, makes its one entry call
and checks its outputs.  So a change to the calls it makes into bbalpha
(`make_model`, `cmd_train`, `load_posterior`, `gradient_bias_study`) or to
their outputs fails here before the benchmark runs.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
NUMPY = "2.4.6"         # the version the digests were recorded with
DIGESTS = {
    "probit_train": "6b523e78b6cd47595d5aca016d147fa1fcb6c723936f5a490da8a203ffccaa0c",
    "mlp_train": "83dfb7c1c7f49da6e8fe4c8873138d5cbcf15b3d5c0eb4afccaf55b562f727d2",
    "bias_study": "c6ee8c40c8e1625e1a5d5412b9a77a4e56a4ce80b40ebf39daeea535ed79928f",
}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.WORKLOADS


def test_the_pinned_workloads_are_the_benchmarks():
    assert sorted(_workloads()) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_workload_runs_and_checks_clean(tmp_path, name):
    work = _workloads()[name]
    inputs = work.prepare(0, tmp_path)
    attempted, failed, summary = work.check(inputs, work.run(inputs))
    assert (attempted, failed) == (work.operations, 0)
    if np.__version__ == NUMPY:
        assert summary["digest"] == DIGESTS[name]
