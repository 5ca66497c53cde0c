"""Run one workload in a fresh process and report on the protocol pipe.

Usage (started by run.py, not by hand):
    worker.py ROOT WORKLOAD SEED SECONDS TRACE [--setup-only]

The worker imports apkit from ROOT/src, builds the workload's inputs, writes
``ready`` to stdout and then runs timed passes until another pass would take
the timed total past SECONDS (at least one pass, so SECONDS 0 runs exactly
one). Outputs are checked after each pass, outside the timed section. The last stdout line is
a JSON report. apkit's own stdout goes to /dev/null.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import warnings


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _run_pass(workload) -> dict:
    results = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        for op, fn in workload.operations():
            try:
                results.append((op, fn(), None))
            except Exception as exc:  # a failed operation is data, not a crash
                results.append((op, None, f"{type(exc).__name__}: {exc}"))
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
    failures = []
    for op, value, error in results:
        if error is None:
            try:
                error = workload.check(op, value)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            failures.append({"op": op, "reason": error})
    warned: dict[str, int] = {}
    for w in caught:
        text = f"{w.category.__name__}: {w.message}"
        warned[text] = warned.get(text, 0) + 1
    return {"wall_s": wall, "cpu_s": cpu, "ops": len(results),
            "failures": failures, "digests": workload.digests(),
            "warnings": warned}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("root")
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("seconds", type=float)
    ap.add_argument("trace", type=int)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    proto = sys.stdout
    sys.stdout = open(os.devnull, "w")
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy
    import apkit
    from tracer import Tracer
    from workloads import WORKLOADS

    if not os.path.abspath(apkit.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported apkit from {apkit.__file__}, not {src}")

    scratch = os.path.join(args.root, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        tracer = wrapped = None
        if args.trace:
            tracer = Tracer(os.path.basename(workdir))
            wrapped = tracer.install()
        proto.write("ready\n")
        proto.flush()
        if args.setup_only:
            return 0

        passes = []
        while True:
            rec = _run_pass(workload)
            if passes and rec["digests"] != passes[0]["digests"]:
                rec["failures"].append({"op": "digests",
                                        "reason": "artifacts differ between passes"})
            passes.append(rec)
            if sum(p["wall_s"] for p in passes) + rec["wall_s"] > args.seconds:
                break

        report = {
            "passes": passes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "notes": workload.notes() if hasattr(workload, "notes") else {},
        }
        if tracer is not None:
            spans_path = os.path.join(
                scratch, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(spans_path)
            report["trace"] = {
                "spans": len(tracer.spans),
                "wrapped": wrapped,
                "spans_file": os.path.relpath(spans_path, args.root),
                "tree_problems": tracer.check_tree(),
                "layers": tracer.aggregate(),
                "metric_d_probes": tracer.count_under("gridindex.any_within",
                                                      "pointset.metric_d"),
            }
        proto.write(json.dumps(report) + "\n")
        proto.flush()
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
