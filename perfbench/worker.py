"""One measured repetition of a workload, in a fresh process.

Imports the package from the checkout's `src`, makes the inputs from the
seed, calls the entry point once, checks the outputs and prints one JSON
object on its last line.  It reports the system-wide monotonic clock at the
entry call; run.py subtracts the time it spawned the worker to get the
set-up time.

    python3 perfbench/worker.py --workload probit_train --seed 0 \
        --workdir perfbench/out/work --trace 0
"""

import argparse
import gc
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import tracing
from workloads import WORKLOADS


def _collected():
    return sum(s["collected"] for s in gc.get_stats())


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path, help="where a traced run writes spans")
    args = p.parse_args()

    work = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = work.prepare(args.seed, args.workdir)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()

        collected = _collected()
        first_call = time.monotonic()
        t0 = time.perf_counter()
        try:
            result = work.run(inputs)
        except (Exception, SystemExit):
            result = None
            traceback.print_exc()
        wall_s = time.perf_counter() - t0
        gc_collected = _collected() - collected
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        n_spans = len(tracer.spans) if tracer else 0

        attempted, failed, summary = work.operations, work.operations, {}
        if result is not None:
            try:
                attempted, failed, summary = work.check(inputs, result)
            except (OSError, ValueError, KeyError) as e:
                print("output check raised %r" % e, file=sys.stderr)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    out = {"first_call": first_call, "wall_s": wall_s,
           "peak_rss_mb": peak_rss_mb, "evals": work.evals,
           "attempted": attempted, "failed": failed, **summary}
    if tracer:
        del tracer.spans[n_spans:]  # calls made by the output checks
        layers = tracing.layer_metrics(tracer.spans, tracer.tape_lengths,
                                       wall_s, work.test_rows)
        layers["autodiff.gc_collected"] = gc_collected
        out["layers"] = layers
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
