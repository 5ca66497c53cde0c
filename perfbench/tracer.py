"""Span tracer that instruments apkit from outside the package.

``install`` wraps the public functions of the traced modules and the public
``GridIndex`` methods, then rebinds every reference to the originals
that apkit's modules hold (module globals and module-level dicts such as the
verify check table). Nothing under ``src/`` changes. Spans stay in memory;
``write`` saves them once, at the end of the run.

A span is ``[name, start_ns, end_ns, parent, counters]`` where ``parent`` is
the index of the enclosing span or -1. Counters come only from arguments and
return values. The tracer assumes one thread, which holds while
``APK_THREADS`` is unset; ``check_tree`` fails if spans interleave.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import resource
import sys
import time
from collections import defaultdict

#: modules that get per-layer metrics; testfunc, util, schemas and errors
#: take negligible time and are left untraced
LAYERS = ("verify", "cli", "pseudometrics", "pointset", "gridindex",
          "autocorr", "diffraction", "generators")

#: GridIndex methods whose span name differs from the method name; every
#: other public method reports under its own name
GRID_RENAMED = {"__init__": "build"}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _periodogram_work(args, kwargs, result):
    # points in B_R times grid nodes: the complex exponentials evaluated
    S, R = _arg(args, kwargs, 0, "S"), _arg(args, kwargs, 1, "R")
    in_ball = int((S.norms() <= R).sum()) if len(S) else 0
    return {"exp_evals": in_ball * len(result.values)}


def _autocorr_work(args, kwargs, result):
    # total mass x |B_R|; the volume is computed here because apkit's
    # ball_volume is itself traced once installed
    S, R = _arg(args, kwargs, 0, "S"), _arg(args, kwargs, 1, "R")
    vol = math.pi ** (S.dim / 2.0) * R ** S.dim / math.gamma(S.dim / 2.0 + 1.0)
    return {"pairs": round(float(result.weights.sum()) * vol), "atoms": len(result)}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: counters per span name: fn(args, kwargs, result) -> dict
COUNTERS = {
    "gridindex.build": lambda a, k, r: {"points": len(_arg(a, k, 1, "points"))},
    "gridindex.pairs_within": lambda a, k, r: {
        "queries": len(_arg(a, k, 1, "queries")), "pairs": len(r[0])},
    "autocorr.finite_autocorrelation": _autocorr_work,
    "autocorr.bin_atoms": lambda a, k, r: {
        "atoms_in": len(_arg(a, k, 0, "locations")), "atoms_out": len(r[0])},
    "diffraction.periodogram": _periodogram_work,
    "diffraction.criterion_almost_periods": lambda a, k, r: {
        "candidates": r.details["candidates"]},
    "generators.cut_and_project": lambda a, k, r: {"points": len(r)},
    "generators.sample": lambda a, k, r: {"points": len(r)},
}

#: spans that also record the rise of the process's peak RSS
RSS_SPANS = frozenset({"autocorr.finite_autocorrelation"})


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = COUNTERS.get(name)
        track_rss = name in RSS_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            rss0 = _maxrss_mb() if track_rss else 0.0
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            counters = count(args, kwargs, result) if count else {}
            if track_rss:
                counters["rss_growth_mb"] = _maxrss_mb() - rss0
            span[4] = counters or None
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap the traced layers of the loaded apkit; return the span names."""
        originals: dict[int, tuple] = {}
        names = []
        for short in LAYERS:
            mod = importlib.import_module(f"apkit.{short}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
                    names.append(f"{short}.{attr}")
        grid_cls = importlib.import_module("apkit.gridindex").GridIndex
        for method, obj in list(vars(grid_cls).items()):
            if inspect.isfunction(obj) and (method in GRID_RENAMED
                                            or not method.startswith("_")):
                span_name = f"gridindex.{GRID_RENAMED.get(method, method)}"
                setattr(grid_cls, method, self.wrap(span_name, obj))
                names.append(span_name)

        def swap(mapping: dict) -> None:
            for key, val in list(mapping.items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    mapping[key] = hit[1]

        for name, mod in list(sys.modules.items()):
            if name == "apkit" or name.startswith("apkit."):
                ns = vars(mod)
                swap(ns)
                for val in list(ns.values()):
                    if isinstance(val, dict):
                        swap(val)
        return sorted(names)

    def _child_ns(self) -> list[int]:
        """Per span, the nanoseconds covered by its direct child spans."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def check_tree(self) -> list[str]:
        """Well-formedness: children inside parents, no negative self time."""
        problems = []
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            p = self.spans[parent] if parent >= 0 else None
            if end < start or (p and not p[1] <= start <= end <= p[2]):
                problems.append(f"span {i} {name} is not inside its parent")
        for i, child in enumerate(self._child_ns()):
            if self.spans[i][2] - self.spans[i][1] < child:
                problems.append(f"span {i} {self.spans[i][0]} has negative self time")
        return problems[:20]

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive s, self_s and summed counters."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, start, end, _, counters), child in zip(self.spans, self._child_ns()):
            row = out[name]
            row["calls"] += 1
            row["s"] += (end - start) * 1e-9
            row["self_s"] += (end - start - child) * 1e-9
            for key, val in (counters or {}).items():
                row[key] += val
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have an ``ancestor`` span above them."""
        hits = 0
        for span in self.spans:
            if span[0] != name:
                continue
            p = span[3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            hits += p >= 0
        return hits

    def write(self, path: str) -> None:
        """Save every span as one JSON line, with times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, counters) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "run": self.run_id, "name": name,
                    "start_ns": start - t0, "end_ns": end - t0,
                    "parent": parent, "counters": counters or {}},
                    separators=(",", ":")) + "\n")
