"""Every span behind a per-layer benchmark metric names a traced function.

``perfbench/layers.json`` lists metrics ``<module>.<function>.<counter>``.
``perfbench/tracer.py`` wraps the public functions defined in
``apkit.<module>`` and the ``GridIndex`` methods (``build`` is
``__init__``), and a traced run is incorrect when a span it expects was not
found. This test resolves each span the same way, so a refactor that drops
or renames a traced function fails here rather than in a traced benchmark
run. It only reads ``perfbench/``.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

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
