import math

import numpy as np
import pytest

import apkit as ak
import oracles
from apkit.gridindex import GridIndex, _cell_codes


# ---------------------------------------------------------------------------
# cell codes against the whole-array reference


def assert_same_codes(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        assert np.array_equal(g, w)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("cell", [1e-3, 0.37, 4.0])
def test_cell_codes_match_reference(dim, cell):
    rng = np.random.default_rng(dim + int(100 * cell))
    pts = rng.uniform(-9.0, 3.0, size=(200, dim))
    pts[0] = -9.0   # a coordinate on a cell boundary
    assert_same_codes(_cell_codes(pts, cell, "cell_size"),
                      oracles.ref_cell_codes(pts, cell, "cell_size"))
    one = pts[:1]
    assert_same_codes(_cell_codes(one, cell, "cell_size"),
                      oracles.ref_cell_codes(one, cell, "cell_size"))


@pytest.mark.parametrize("pts, cell", [
    ([[0.0, 1.0], [math.nan, 2.0]], 0.5),
    ([[0.0, 1.0], [2.0, math.inf]], 0.5),
    ([[0.0], [-math.inf]], 0.5),
    ([[0.0], [1e300]], 1.0),                      # a cell coordinate overflows
    ([[0.0, 0.0], [1e10, 1e10]], 1e-3),           # the code range overflows
    ([[0.0], [1.0]], 0.0),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cell_codes_raise_the_reference_text(pts, cell):
    pts = np.array(pts)
    with pytest.raises(ValueError) as want:
        oracles.ref_cell_codes(pts, cell, "bin_tol")
    with pytest.raises(ak.InvalidArgument) as got:
        _cell_codes(pts, cell, "bin_tol")
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# the blocked pair walk against the one-shot enumeration, bit for bit


def assert_same_pairs(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        assert np.array_equal(g, w)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("cell", [0.5, 1.0, 2.5])
def test_pairs_within_matches_one_shot_reference(pair_block, dim, cell):
    rng = np.random.default_rng(7 * dim + int(10 * cell))
    pts = rng.uniform(-4.0, 4.0, size=(60, dim))
    queries = rng.uniform(-6.0, 6.0, size=(40, dim))
    grid = GridIndex(pts, cell)
    for radius in (0.4, 1.0, 2.0):
        assert_same_pairs(grid.pairs_within(queries, radius),
                          oracles.ref_pairs_within(pts, cell, queries, radius))
        assert_same_pairs(grid.pairs_within(pts, radius),
                          oracles.ref_pairs_within(pts, cell, pts, radius))
    if cell == 2.5 and pair_block == 7:
        # one query's run is longer than a block
        assert np.unique(grid._codes, return_counts=True)[1].max() > pair_block


@pytest.mark.parametrize("dim", [1, 2])
def test_pair_walk_blocks_hold_whole_runs(pair_block, dim):
    rng = np.random.default_rng(dim)
    pts = rng.uniform(-4.0, 4.0, size=(80, dim))
    grid = GridIndex(pts, 1.5)
    blocks = list(grid._blocks(pts, 1.5))
    for qrows, prows, diff, keep in blocks:
        assert np.array_equal(diff, pts[prows] - pts[qrows])
        assert np.array_equal(keep, np.sum(diff ** 2, axis=1) <= 1.5 ** 2)
        assert np.all(np.diff(qrows) >= 0)
        assert len(qrows) <= pair_block or qrows[0] == qrows[-1]
    # no query's run is split between two blocks
    for (q1, *_), (q2, *_) in zip(blocks, blocks[1:]):
        assert q1[-1] != q2[0]
    assert grid._candidates(pts, 1.5) == sum(len(q) for q, *_ in blocks)
    # more blocks than the 3**dim cell offsets
    assert (len(blocks) > 3 ** dim) == (pair_block == 7)


@pytest.mark.parametrize("dim", [1, 2])
def test_pairs_within_empty_and_one_point(pair_block, dim):
    queries = np.arange(3.0 * dim).reshape(3, dim)
    none = np.zeros((0, dim))
    for pts, qs in ((none, queries), (queries, none), (none, none),
                    (np.ones((1, dim)), queries), (queries, np.ones((1, dim)))):
        got = GridIndex(pts, 1.0).pairs_within(qs, 1.5)
        assert_same_pairs(got, oracles.ref_pairs_within(pts, 1.0, qs, 1.5))
    one = np.ones((1, dim))
    assert_same_pairs(GridIndex(one, 1.0).pairs_within(one, 1.0),
                      (np.zeros(1, dtype=np.int64),) * 2)


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
