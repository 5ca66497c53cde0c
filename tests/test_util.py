import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import apkit as ak
from apkit.util import (
    Record,
    schedule,
    tail,
    tail_converged,
    tail_spread,
)


# n, index where the tail of 1..n starts, its spread (over two values at least)
TAIL_TABLE = [
    (1, 0, math.inf),
    (2, 1, 1 / 2),
    (3, 1, 1 / 3),
    (4, 2, 1 / 4),
    (5, 2, 2 / 5),
    (6, 3, 2 / 6),
    (7, 3, 3 / 7),
    (8, 4, 3 / 8),
    (9, 4, 4 / 9),
]


@pytest.mark.parametrize("n, start, spread", TAIL_TABLE)
def test_tail_rule_table(n, start, spread):
    values = np.arange(1.0, n + 1.0)
    assert tail(values).tolist() == values[start:].tolist()
    assert len(tail(values)) == math.ceil(n / 2)
    assert tail_spread(values) == pytest.approx(spread, rel=1e-15)
    if math.isinf(spread):
        assert not tail_converged(values, rtol=1e300)
    else:
        assert not tail_converged(values, rtol=spread * (1 - 1e-12))
        assert tail_converged(values, rtol=spread * (1 + 1e-12))
    # a constant series converges once the tail holds two values
    assert tail_converged(np.full(n, 3.0)) == (n >= 2)


def test_tail_spread_ignores_the_head():
    assert tail_spread([100.0, 1.0, 1.0, 1.0]) == 0.0
    assert tail_spread([1.0, 1.0, 1.0, 2.0]) == 0.5


@pytest.mark.parametrize("radii", [
    [], [0.0], [-1.0, 2.0], [math.nan], [1.0, math.nan], [math.inf],
    [2.0, math.inf],
])
def test_schedule_rejects_bad_radii(radii):
    with pytest.raises(ak.InvalidArgument, match="positive and finite"):
        schedule(radii)


def test_schedule_sorts_to_floats():
    got = schedule([30, 10.0, 20])
    assert got.dtype == float
    assert got.tolist() == [10.0, 20.0, 30.0]


def record_instances() -> dict:
    """One instance of each Record class, with the keys its JSON carries."""
    S = ak.make_lattice([[1.0]], 10.0)
    A = ak.RegionSpec.ball([1.0], 0.25)
    p = ak.ProcessSampler("randomized_lattice", 1, 5.0, basis=[[1.0]])
    return {
        "KGrid": (ak.KGrid([-1.0], [1.0], 1), {"lo", "hi", "step"}),
        "Periodogram": (
            ak.periodogram(S, 5.0, ak.KGrid([0.0], [0.5], 0.05)),
            {"dim", "k_grid", "radius_used", "normalization", "values"}),
        "BraggPeak": (ak.BraggPeak(np.array([1.0]), 1.0, 0.0),
                      {"location", "mass", "stability"}),
        "CriterionReport": (
            ak.CriterionReport("X", 0.1, np.empty((0, 1)), math.inf, "fail",
                               2.0, 5.0, {}),
            {"criterion_id", "epsilon", "almost_period_set", "gap", "verdict",
             "gap_bound", "search_radius", "details"}),
        "CheckResult": (ak.CheckResult("tag", np.bool_(True), {"n": 1}),
                        {"tag", "passed", "details"}),
        "DensityEstimate": (ak.upper_density(S, [4.0, 8.0]),
                            {"value", "radii_used", "tail_values",
                             "converged"}),
        "TestFunction": (ak.TestFunction("triangle_bump", 1, 2),
                         {"shape", "support_radius", "amplitude", "center"}),
        # one sample has no spread: stderr is inf
        "PalmIntensityEstimate": (
            ak.palm_intensity(p, A, n_samples=1),
            {"region", "value", "stderr", "samples", "B_used"}),
    }


RECORDS = sorted(record_instances())


@pytest.mark.parametrize("name", RECORDS)
def test_record_json_is_strict(name):
    obj, _ = record_instances()[name]
    json.dumps(obj.to_json(), allow_nan=False)


@pytest.mark.parametrize("name", RECORDS)
def test_record_json_keys_are_pinned(name):
    obj, keys = record_instances()[name]
    assert set(obj.to_json()) == keys


def test_record_classes_share_one_encoder():
    for name in RECORDS:
        cls = type(record_instances()[name][0])
        assert issubclass(cls, Record)
        assert "to_json" not in vars(cls)


def test_record_int_arguments_encode_as_floats():
    recs = record_instances()
    grid = recs["KGrid"][0].to_json()
    f = recs["TestFunction"][0].to_json()
    assert type(grid["step"]) is float and grid["step"] == 1.0
    assert type(f["amplitude"]) is float and f["amplitude"] == 2.0
    assert type(f["support_radius"]) is float
    assert recs["PalmIntensityEstimate"][0].to_json()["stderr"] is None


def test_import_pulls_in_neither_cli_nor_schema_validator():
    # the benchmark's setup time covers `import apkit`
    src = os.path.dirname(os.path.dirname(os.path.abspath(ak.__file__)))
    code = ("import sys, apkit; "
            "print(sorted(m for m in ('jsonschema', 'apkit.cli') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
