"""bbalpha benchmark: run one workload and report its metrics.

    python3 perfbench/run.py --workload probit_train --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Each repetition runs in a fresh worker process (worker.py), one at a time,
so set-up time and peak memory include the imports.  Repetitions start until
--seconds have passed, and at least MIN_REPS of them.  After each worker a
fixed reference process runs; `wall_ref` is the median of wall time over
reference time, which cancels the slowdowns other tenants of a shared
machine cause (see README.md).  `setup_s` is a
median in seconds; `peak_rss_mb` is the largest peak, because it changes
with the moments the cyclic GC runs, which depend on the per-process hash
seed.  With --trace 1, traced and untraced repetitions alternate: the
traced ones give the per-layer metrics (medians), the untraced ones the
base of trace.overhead_frac.  End-to-end metrics come from untraced
repetitions only.

Prints the environment, one line per repetition, a table of all metrics by
name and unit, and as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}.  The full result, with the
environment, goes to perfbench/out/result-<workload>-seed<n>-trace<t>.json
and a traced run's spans to perfbench/out/spans-<workload>-seed<n>.jsonl.
"""

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import scipy

from tracing import ACCOUNTING_TOLERANCE, LAYERS
from workloads import ROOT, WORKLOADS

HERE = ROOT / "perfbench"
OUT = HERE / "out"
MIN_REPS = 4
# The reference process: imports of standard-library modules that neither
# the package nor its dependencies use, in an interpreter isolated from the
# checkout and the environment.
REFERENCE = [sys.executable, "-I", "-c",
             "import asyncio, decimal, difflib, ftplib, http.server, imaplib,"
             " mailbox, poplib, pydoc, smtplib, tarfile, unittest,"
             " wsgiref.simple_server, xml.dom.minidom, xmlrpc.client, zipfile"]
# no repetition starts after this, so a run ends well within 180 s
LAST_START_S = 100.0
WORKER_TIMEOUT_S = 30.0

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "evals_per_ref": "1/ref",
              "peak_rss_mb": "MB"}
# printed with the end-to-end table but not in the JSON line: times in
# seconds carry the machine's load (see README.md), test_ll and test_error
# are absent on bias_study, and failed_frac is 0 when all is well
OUTCOMES = {"wall_s": "s", "evals_per_s": "1/s", "reference_s": "s",
            "test_ll": "nats/point", "test_error": "fraction",
            "failed_frac": "fraction"}
PER_LAYER = {
    "autodiff.evals": "count", "autodiff.forward_s": "s",
    "autodiff.backward_s": "s", "autodiff.nodes_per_eval": "count",
    "autodiff.gc_collected": "count",
    "likelihoods.calls": "count", "likelihoods.busy_s": "s",
    "energy.calls": "count", "energy.self_s": "s",
    "optim.steps": "count", "optim.adam_s": "s", "optim.loop_s": "s",
    "predict.calls": "count", "predict.busy_s": "s",
    "predict.ms_per_row": "ms",
    "diagnostics.self_s": "s", "cli.self_s": "s",
    **{layer + ".errors": "count" for layer in LAYERS},
    "trace.overhead_frac": "fraction", "trace.accounted_frac": "fraction",
}


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    """Versions and machine facts; the workers run the same interpreter."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_config": blas.get("openblas configuration"),
            "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "platform": platform.platform(),
            "git_commit": _git_commit()}


def run_worker(workload, seed, traced, rep):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--workdir", str(OUT / ("work-%s-%d" % (workload, rep)))]
    if traced:
        cmd += ["--spans", str(OUT / ("spans-%s-seed%d.jsonl"
                                      % (workload, seed)))]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError("worker exited with %d" % proc.returncode)
    rep_out = json.loads(proc.stdout.strip().splitlines()[-1])
    rep_out["setup_s"] = rep_out.pop("first_call") - spawned
    t0 = time.perf_counter()
    subprocess.run(REFERENCE, check=True, timeout=WORKER_TIMEOUT_S)
    rep_out["reference_s"] = time.perf_counter() - t0
    rep_out["traced"] = traced
    if traced and not _trace_consistent(rep_out):
        rep_out["failed"] = rep_out["attempted"]
    return rep_out


def _trace_consistent(rep):
    """The traced repetition did the configured work and its self times
    cover its wall time."""
    layers = rep["layers"]
    ok = layers["autodiff.evals"] == rep["evals"]
    ok &= abs(1.0 - layers["trace.accounted_frac"]) <= ACCOUNTING_TOLERANCE
    if not ok:
        print("trace inconsistent: %d evals of %d, accounted %.4f"
              % (layers["autodiff.evals"], rep["evals"],
                 layers["trace.accounted_frac"]), file=sys.stderr)
    return ok


def run_workload(workload, seed, seconds, trace):
    """Repetitions until `seconds` have passed; returns (reps, metrics)."""
    reps = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        if time.monotonic() - start > LAST_START_S:
            break
        traced = bool(trace) and len(reps) % 2 == 0
        rep = run_worker(workload, seed, traced, len(reps))
        reps.append(rep)
        print("rep %d%s: wall %.4f s, setup %.4f s, rss %.1f MB, failed %d/%d"
              % (len(reps), " traced" if traced else "", rep["wall_s"],
                 rep["setup_s"], rep["peak_rss_mb"], rep["failed"],
                 rep["attempted"]))

    # a fixed seed gives bit-identical outputs, traced or not
    common = Counter(r.get("digest") for r in reps).most_common(1)[0][0]
    for r in reps:
        if r.get("digest") != common:
            print("rep outputs differ from the other repetitions",
                  file=sys.stderr)
            r["failed"] = r["attempted"]

    plain = [r for r in reps if not r["traced"]]
    med = lambda key, rs=plain: statistics.median(r[key] for r in rs)
    wall_ref = lambda rs: statistics.median(r["wall_s"] / r["reference_s"]
                                            for r in rs)
    metrics = {
        "wall_ref": wall_ref(plain), "setup_s": med("setup_s"),
        "evals_per_ref": plain[0]["evals"] / wall_ref(plain),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
        "wall_s": med("wall_s"),
        "evals_per_s": plain[0]["evals"] / med("wall_s"),
        "reference_s": med("reference_s"),
        "failed_frac": (sum(r["failed"] for r in reps)
                        / sum(r["attempted"] for r in reps)),
    }
    for key in ("test_ll", "test_error"):
        if key in plain[0]:
            metrics[key] = plain[0][key]
    traced = [r for r in reps if r["traced"]]
    if traced:
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(r["layers"][key] for r in traced)
        metrics["trace.overhead_frac"] = (wall_ref(traced)
                                          / metrics["wall_ref"] - 1.0)
    return reps, metrics


def report(workload, seed, seconds, trace):
    reps, metrics = run_workload(workload, seed, seconds, trace)
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    units = dict(END_TO_END, **OUTCOMES, **(PER_LAYER if trace else {}))
    print("%s, seed %d, %d repetitions (%d traced):"
          % (workload, seed, len(reps), sum(r["traced"] for r in reps)))
    for name, unit in units.items():
        value = metrics.get(name)
        print("  %-26s %16s %s" % (name, "n/a" if value is None
                                   else "%.6g" % value, unit))
    path = OUT / ("result-%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "env": env, "metrics": metrics,
                   "reps": reps}, fh, indent=1, sort_keys=True)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    selected = PER_LAYER if trace else END_TO_END
    return attempted, failed, {name: {"value": metrics[name], "unit": unit}
                               for name, unit in selected.items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = report(name, args.seed, args.seconds, args.trace)
        attempted += a
        failed += f
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({name + "." + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
