import math

import numpy as np
import pytest

import apkit as ak
from apkit.util import schedule, tail, tail_converged, tail_spread


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
