"""Every span behind a per-layer benchmark metric names a traced function.

``perfbench/layers.json`` lists metrics ``<module>.<function>.<counter>``.
``perfbench/tracer.py`` wraps the public functions defined in
``apkit.<module>`` and the ``GridIndex`` methods (``build`` is
``__init__``), and a traced run is incorrect when a span it expects was not
found. This test resolves each span the same way, so a refactor that drops
or renames a traced function fails here rather than in a traced benchmark
run. It only reads ``perfbench/``.

A span that exists but never runs also makes a traced run incorrect. The
last tests count calls, through the module attributes the tracer rebinds,
to the scale-metric spans on the two operations of ``verify_corpus``
(``verify``'s pseudo-metric check and a small ``dtilde``), to every span
that ``octagonal_2d`` does not exempt, on a small 2D model set taken
through the same three commands, to every span that ``palm_mc`` does
not exempt, on its six operations at small sample counts, and to every
span that ``verify_corpus`` does not exempt, on its two operations.
"""

import importlib
import importlib.util
import inspect
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = _load("tracer")
run = _load("run")
workloads = _load("workloads")


def _metric_spans() -> list[str]:
    layers = json.loads((PERFBENCH / "layers.json").read_text())
    spans = []
    for group in layers["groups"]:
        for metric in group["metrics"]:
            for span in run.DERIVED_SPANS.get(metric,
                                              (metric.rsplit(".", 1)[0],)):
                if span not in spans:
                    spans.append(span)
    return spans


def test_some_spans_are_listed():
    assert len(_metric_spans()) > 30


@pytest.mark.parametrize("span", _metric_spans())
def test_metric_span_is_a_traced_function(span):
    module, name = span.split(".", 1)
    assert module in tracer.LAYERS
    if module == "gridindex":
        grid_cls = importlib.import_module("apkit.gridindex").GridIndex
        method = {v: k for k, v in tracer.GRID_RENAMED.items()}.get(name, name)
        if method in tracer.GRID_RENAMED or not method.startswith("_"):
            if inspect.isfunction(vars(grid_cls).get(method)):
                return
    mod = importlib.import_module(f"apkit.{module}")
    obj = vars(mod).get(name)
    assert not name.startswith("_")
    assert inspect.isfunction(obj) and obj.__module__ == mod.__name__


def _count_calls(monkeypatch, targets) -> dict:
    """Wrap each (owner, name) so that its calls are counted by name."""
    counts = {name: 0 for _, name in targets}
    for owner, name in targets:
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return counts


def test_check_pseudometrics_runs_the_scale_metric_spans(monkeypatch):
    verify = importlib.import_module("apkit.verify")
    counts = _count_calls(monkeypatch, [
        (verify, name)
        for name in ("metric_d", "translate", "dbar", "dbar_c", "dbar_f")])
    assert verify.check_pseudometrics(0).passed
    assert all(counts.values()), counts


def test_dtilde_runs_the_grid_probe_and_density_spans(monkeypatch):
    ak = importlib.import_module("apkit")
    grid_cls = importlib.import_module("apkit.gridindex").GridIndex
    pseudometrics = importlib.import_module("apkit.pseudometrics")
    counts = _count_calls(monkeypatch, [
        (grid_cls, "any_within"), (grid_cls, "count_within"),
        (pseudometrics, "upper_density")])
    Z = ak.make_lattice(np.eye(2), 12.0)
    thinned = ak.PointSet(Z.points[::2], Z.window_radius, Z.hardcore_radius)
    assert ak.dtilde(Z, thinned, [6.0, 8.0, 10.0]) > 0.0
    assert all(counts.values()), counts


def _count_spans(monkeypatch, spans) -> dict:
    """Count calls per span, rebinding every reference as the tracer does."""
    counts = dict.fromkeys(spans, 0)
    grid_cls = importlib.import_module("apkit.gridindex").GridIndex
    methods = {v: k for k, v in tracer.GRID_RENAMED.items()}
    wrapped = {}
    for span in spans:
        module, name = span.split(".", 1)
        method = methods.get(name, name)
        owner = (grid_cls if module == "gridindex" and method in vars(grid_cls)
                 else importlib.import_module(f"apkit.{module}"))
        original = vars(owner)[method if owner is grid_cls else name]

        def counting(*args, _span=span, _original=original, **kwargs):
            counts[_span] += 1
            return _original(*args, **kwargs)

        if owner is grid_cls:
            monkeypatch.setattr(grid_cls, method, counting)
        else:
            wrapped[id(original)] = (original, counting)
    for modname, mod in list(sys.modules.items()):
        if modname != "apkit" and not modname.startswith("apkit."):
            continue
        for ns in [vars(mod)] + [v for v in vars(mod).values()
                                 if isinstance(v, dict)]:
            for key, val in list(ns.items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    monkeypatch.setitem(ns, key, hit[1])
    return counts


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def test_octagonal_commands_run_every_unexempt_span(monkeypatch, tmp_path):
    # PairDifferences walks the grid itself and the tracked atoms go through
    # pair_sums, so pairs_within must still be reached by bin_atoms' merge loop
    cli = importlib.import_module("apkit.cli")
    layers = json.loads((PERFBENCH / "layers.json").read_text())
    spans = [s for s in _metric_spans()
             if s not in layers["not_reached"]["octagonal_2d"]]
    assert "gridindex.pairs_within" in spans
    E, F = workloads.octagonal_bases()
    gen = _write_json(tmp_path / "generate.json", {"cut_project": {
        "n": 4, "E_basis": E, "F_basis": F,
        "window": {"kind": "ball", "center": [0.0, 0.0],
                   "radius": workloads.OCT_WINDOW_RADIUS},
        "output_radius": 10.0, "torus_offset": [0.1, 0.2, 0.3, 0.4]}})
    ac = _write_json(tmp_path / "autocorr.json", {"radii": [6.0, 8.0, 10.0]})
    df = _write_json(tmp_path / "diffract.json", {
        "radii": [6.0, 8.0, 10.0],
        "k_lo": [-workloads.OCT_K_LIMIT] * 2, "k_hi": [workloads.OCT_K_LIMIT] * 2,
        "k_step": 1.0 / 40.0, "criteria": workloads.OCT_CRITERIA})
    out = str(tmp_path / "out")
    points = str(tmp_path / "out" / "points.csv")
    counts = _count_spans(monkeypatch, spans)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assert cli.main(["generate", "--config", gen, "--out", out]) == 0
    assert cli.main(["autocorr", points, "--config", ac, "--out", out]) == 0
    assert cli.main(["diffract", points, "--config", df, "--out", out]) == 0
    assert [s for s, n in counts.items() if n == 0] == [], counts


def test_palm_operations_run_every_unexempt_span(monkeypatch, tmp_path):
    # the six palm_mc operations on the workload's own processes and
    # regions, at small sample counts
    ak = importlib.import_module("apkit")
    layers = json.loads((PERFBENCH / "layers.json").read_text())
    spans = [s for s in _metric_spans()
             if s not in layers["not_reached"]["palm_mc"]]
    assert "gridindex.pairs_within" in spans
    w = workloads.PalmMC(0, str(tmp_path))
    spacing = (2.0 + workloads.GOLDEN) ** 0.5 / workloads.GOLDEN ** 2
    counts = _count_spans(monkeypatch, spans)
    ak.palm_intensity(w.lattice_1d, w.A_1d, n_samples=4)
    ak.palm_intensity(w.matern_1d, w.A_matern_1d, n_samples=4)
    ak.palm_intensity(w.matern_2d, w.A_matern_2d, n_samples=4)
    ak.verify_acpalm(w.lattice_2d, w.A_2d, w.acpalm_radii, n_seeds=2,
                     n_palm_samples=4)
    ak.event_almost_periods(w.model_set, workloads.EVENT_R, workloads.EVENT_EPS,
                            w.model_cands, 4, gap_bound=10.0 * spacing,
                            search_radius=25.0)
    ak.event_almost_periods(w.lattice_ev, workloads.EVENT_R,
                            workloads.EVENT_EPS, w.lattice_cands, 4,
                            gap_bound=2.0, search_radius=5.0)
    assert [s for s, n in counts.items() if n == 0] == [], counts


def test_verify_operations_run_every_unexempt_span(monkeypatch, tmp_path):
    # verify_corpus's two operations as the workload runs them; the four 1D
    # periodograms of criterion_coherence reach the diffraction spans
    layers = json.loads((PERFBENCH / "layers.json").read_text())
    spans = [s for s in _metric_spans()
             if s not in layers["not_reached"]["verify_corpus"]]
    assert {"diffraction.periodogram",
            "diffraction.detect_bragg_peaks"} <= set(spans)
    w = workloads.VerifyCorpus(0, str(tmp_path))
    counts = _count_spans(monkeypatch, spans)
    for op, call in w.operations():
        assert w.check(op, call()) is None, op
    assert [s for s, n in counts.items() if n == 0] == [], counts
