import math

import numpy as np
import pytest

import apkit as ak
import oracles
from apkit.gridindex import GridIndex


# ---------------------------------------------------------------------------
# nn_d2 against a full scan; the squared-distance expression is shared, so
# the comparison is exact


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("cell", [0.3, 1.0, 2.5])
def test_nn_d2_matches_brute(dim, cell):
    rng = np.random.default_rng(10 * dim + int(10 * cell))
    pts = rng.uniform(-4.0, 4.0, size=(60, dim))
    # queries reach past the grid's extent on every side
    queries = rng.uniform(-9.0, 9.0, size=(40, dim))
    grid = GridIndex(pts, cell)
    for r_max in (math.inf, 0.7, 2.0):
        want = oracles.brute_nn_d2(pts, queries, r_max)
        assert np.array_equal(grid.nn_d2(queries, r_max), want)
        want = oracles.brute_nn_d2(pts, pts, r_max, exclude_self=True)
        assert np.array_equal(grid.nn_d2(pts, r_max, exclude_self=True), want)
    assert np.array_equal(grid.nn_dist(queries),
                          np.sqrt(oracles.brute_nn_d2(pts, queries)))


@pytest.mark.parametrize("dim", [1, 2])
def test_nn_d2_empty_and_one_point_index(dim):
    queries = np.arange(3.0 * dim).reshape(3, dim)
    empty = GridIndex(np.zeros((0, dim)), 1.0)
    assert np.all(np.isinf(empty.nn_d2(queries)))
    one = GridIndex(np.ones((1, dim)), 1.0)
    assert np.all(np.isinf(one.nn_d2(one.points, exclude_self=True)))
    assert np.array_equal(one.nn_d2(queries),
                          oracles.brute_nn_d2(one.points, queries))
    assert one.nn_d2(np.zeros((0, dim))).shape == (0,)


@pytest.mark.parametrize("dim", [1, 2])
def test_nn_d2_exact_duplicates_read_zero(dim):
    # exclude_self drops a query's own row only, never every pair at d2 == 0
    pts = np.array([[0.0] * dim, [1.5] * dim, [0.0] * dim, [4.0] * dim])
    got = GridIndex(pts, 1.0).nn_d2(pts, exclude_self=True)
    assert got[0] == 0.0 and got[2] == 0.0
    assert np.array_equal(got, oracles.brute_nn_d2(pts, pts, exclude_self=True))
    capped = GridIndex(pts, 1.0).nn_d2(pts, 1.0, exclude_self=True)
    assert np.array_equal(capped, [0.0, np.inf, 0.0, np.inf])


@pytest.mark.parametrize("cell", [0.5, 1.0, 3.0])
def test_nn_d2_cap_equal_to_a_pair_distance(cell):
    # integer points: d2 == r_max * r_max exactly, and the closed cap keeps it
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [5.0, 4.0], [5.0, 7.0]])
    grid = GridIndex(pts, cell)
    for r_max in (2.0, 3.0):
        got = grid.nn_d2(pts, r_max, exclude_self=True)
        want = oracles.brute_nn_d2(pts, pts, r_max, exclude_self=True)
        assert np.array_equal(got, want)
        assert np.count_nonzero(np.isfinite(got)) == (2 if r_max == 2.0 else 4)


def test_grid_index_bad_arguments_are_invalid_argument():
    with pytest.raises(ak.InvalidArgument):
        GridIndex(np.zeros(3), 1.0)
    with pytest.raises(ak.InvalidArgument):
        GridIndex(np.zeros((3, 1)), 0.0)
