"""apkit benchmark: one workload, measured end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; apkit is imported from ``src/``.
Workloads and metrics are declared in ``BENCHMARK.json``; each layer metric's
expected effect is in ``perfbench/layers.json``.

``--trace 0`` starts the workload in a fresh process with tracing off and
runs timed passes for at most S timed seconds (at least one pass). It
reports the median pass ``wall_s`` and ``cpu_s``, the worker's
``peak_rss_mb``, and ``setup_s``: the median, over nine fresh processes, of
the time from process start to the first timed call (interpreter,
``import apkit`` and input generation).

``--trace 1`` runs pairs of single passes, one untraced and one traced, each
in its own fresh process: up to three pairs, while they fit in about two
minutes. It reports every per-layer metric from the first traced pass, plus
``trace.overhead_s``, the median over the pairs of traced minus untraced CPU
seconds. The run record flags that figure as unresolved when there is one
pair only, or when it is no larger than the range of the untraced CPU times.
A layer metric whose span was not wrapped, or never ran on a workload that
``perfbench/layers.json`` does not exempt, makes the run incorrect.

Worker processes run with ``APK_THREADS`` unset and BLAS pinned to one
thread. Intermediate files go to ``.perfbench_out/`` in the checkout. The
last stdout line is the JSON result; the lines before it give the artifact
digests and the path of the full run record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 9
DEADLINE_S = 170.0
TRACE_BUDGET_S = 110.0
TRACE_MAX_PAIRS = 3
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
                  "NUMEXPR_NUM_THREADS": "1"}


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("APK_THREADS", None)
    env.update(PINNED_THREADS)
    return env


def start_worker(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float, extra: list[str]) -> tuple[float, dict | None]:
    """Run worker.py; return (seconds from start to 'ready', its report)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(ROOT),
           workload, str(seed), str(seconds), str(trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=worker_env(), cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload} worker passed the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or proc.returncode != 0 \
            or not (lines or "--setup-only" in extra):
        raise WorkerFailed(f"{workload} worker exited with code {proc.returncode}")
    return setup, (json.loads(lines[-1]) if lines else None)


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


#: layer metrics computed from spans other than their own name's prefix
DERIVED_SPANS = {
    "pointset.metric_d.probes_per_call": ("pointset.metric_d", "gridindex.any_within"),
    "trace.overhead_s": (),
}


def layer_problems(names: list[str], trace: dict, not_reached: list[str]) -> list[str]:
    """Spans behind the layer metrics that were not wrapped or never ran."""
    problems = []
    for name in names:
        for span in DERIVED_SPANS.get(name, (name.rsplit(".", 1)[0],)):
            if span not in trace["wrapped"]:
                problem = f"{span} was not found in apkit, so nothing traced it"
            elif span not in trace["layers"] and span not in not_reached:
                problem = f"{span} never ran, and layers.json expects it to"
            else:
                continue
            if problem not in problems:
                problems.append(problem)
    return problems


def layer_metrics(names: list[str], trace: dict, overhead: float) -> dict[str, float]:
    """Per-layer values; spans exempted by layers.json that never ran read 0."""
    rows = trace["layers"]
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = overhead
        elif name == "pointset.metric_d.probes_per_call":
            calls = rows.get("pointset.metric_d", {}).get("calls", 0)
            out[name] = trace["metric_d_probes"] / calls if calls else 0.0
        elif name == "diffraction.periodogram.exp_per_s":
            row = rows.get("diffraction.periodogram", {})
            out[name] = row["exp_evals"] / row["s"] if row.get("s") else 0.0
        else:
            span, field = name.rsplit(".", 1)
            out[name] = rows.get(span, {}).get(field, 0.0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()
    deadline = started + DEADLINE_S

    if not (ROOT / "src" / "apkit" / "__init__.py").is_file():
        print(f"error: no apkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: seeds are non-negative integers", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = worker_env()
    threads = {k: env.get(k) for k in ("APK_THREADS", *PINNED_THREADS)}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "nproc": nproc,
        "threads": threads,
        "threads_exceed_nproc": any(v is not None and v.isdigit() and int(v) > nproc
                                    for v in threads.values()),
    }
    reports = []
    trace_problems = []
    try:
        if args.trace == 0:
            setups = [start_worker(args.workload, args.seed, 0, 0, deadline,
                                   ["--setup-only"])[0]
                      for _ in range(SETUP_SAMPLES - 1)]
            setup, report = start_worker(args.workload, args.seed, args.seconds,
                                         0, deadline, [])
            setups.append(setup)
            reports.append(report)
            metrics = {
                "wall_s": statistics.median(p["wall_s"] for p in report["passes"]),
                "cpu_s": statistics.median(p["cpu_s"] for p in report["passes"]),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": report["peak_rss_mb"],
            }
            record["setup_samples_s"] = setups
        else:
            plain_cpu, traced_cpu = [], []
            while True:
                pair_start = time.perf_counter()
                for trace in (0, 1):
                    report = start_worker(args.workload, args.seed, 0, trace,
                                          deadline, [])[1]
                    reports.append(report)
                    (traced_cpu if trace else plain_cpu).append(
                        report["passes"][0]["cpu_s"])
                now = time.perf_counter()
                # stop unless another pair as long as this one fits the budget
                if len(plain_cpu) == TRACE_MAX_PAIRS \
                        or 2 * now - pair_start - started > TRACE_BUDGET_S:
                    break
            overhead = statistics.median(t - p for t, p in zip(traced_cpu, plain_cpu))
            noise = max(plain_cpu) - min(plain_cpu) if len(plain_cpu) > 1 else None
            first = reports[1]["trace"]
            names = [m["name"] for m in spec["per_layer"]]
            layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
            trace_problems = layer_problems(
                names, first, layers["not_reached"].get(args.workload, []))
            for report in reports[1::2]:
                trace_problems += report["trace"]["tree_problems"]
            metrics = layer_metrics(names, first, overhead)
            record["trace_detail"] = {k: v for k, v in first.items() if k != "layers"}
            record["trace_overhead"] = {
                "untraced_cpu_s": plain_cpu, "traced_cpu_s": traced_cpu,
                "untraced_cpu_range_s": noise,
                "resolved": noise is not None and overhead > noise,
            }
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    passes = [p for r in reports for p in r["passes"]]
    attempted = sum(p["ops"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    failed_ops = {(i, f["op"]) for i, p in enumerate(passes) for f in p["failures"]}
    failed = min(len(failed_ops), attempted)
    record.update({
        "trace_problems": trace_problems,
        "fail_ratio": failed / attempted,
        "python": reports[0]["python"], "numpy": reports[0]["numpy"],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "failures": failures, "notes": reports[0]["notes"],
        "warnings": passes[0]["warnings"], "digests": passes[0]["digests"],
        "metrics": metrics,
    })
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record_path = out_dir / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for name, digest in sorted(record["digests"].items()):
        print(f"sha256 {digest}  {args.workload}/{name}")
    for f in failures:
        print(f"failed {f['op']}: {f['reason']}")
    for problem in trace_problems:
        print(f"failed trace: {problem}")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures and not trace_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
