import itertools
import math

import numpy as np
import pytest

import apkit as ak
import oracles
from apkit import gridindex
from apkit.gridindex import GridIndex, _cell_codes, _sq_norms


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
# squared norms against numpy's row sums, bit for bit


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8])
def test_sq_norms_equal_numpy_row_sums(dim):
    rng = np.random.default_rng(dim)
    noise = rng.standard_normal((4000, dim)) * rng.uniform(1e-3, 1e3, (4000, 1))
    # differences of a lattice with a non-dyadic spacing: many rows sit
    # exactly on a radius that the pair walk tests with <=
    side = range(-3, 4) if dim <= 4 else range(-1, 2)
    lattice = 0.1 * np.array(list(itertools.product(side, repeat=dim)))
    diffs = np.concatenate([noise, lattice - lattice[::-1], lattice - lattice[0]])
    want = np.sum(diffs ** 2, axis=1)
    assert np.array_equal(_sq_norms(diffs), want)
    for r in (0.1, 0.2, 0.3):
        assert np.array_equal(_sq_norms(diffs) <= r * r, want <= r * r)


# ---------------------------------------------------------------------------
# run lookups: the start table against binary searches on the sorted codes


def record_table_paths(monkeypatch) -> list:
    """Record, per ``_runs`` call, whether it reads the start table."""
    paths = []
    original = GridIndex._runs

    def recording(self, codes):
        paths.append(self._starts is not None)
        return original(self, codes)

    monkeypatch.setattr(GridIndex, "_runs", recording)
    return paths


def cells_around(pts, cell):
    """Every point's cell, the extent's first and last cells, and cells
    just outside the extent on every side."""
    cells = np.floor(pts / cell).astype(np.int64)
    lo, hi = cells.min(axis=0), cells.max(axis=0)
    return np.concatenate([cells, [lo, hi, lo - 1, hi + 1],
                           np.diag(hi - lo + 1) + lo, np.diag(lo - hi - 1) + hi])


def assert_lookups_match_reference(grid, pts, cell, qcells, offsets):
    got = list(grid._lookups(qcells, offsets))
    step = max(1, gridindex._PAIR_BLOCK // len(qcells))
    assert len(got) == -(-len(offsets) // step)
    want = [oracles.ref_runs(pts, cell, qcells + off) for off in offsets]
    rows, left, lens = (np.concatenate(parts) for parts in zip(*got))
    assert np.array_equal(rows, np.concatenate([w[0] for w in want]))
    assert np.array_equal(left, np.concatenate([w[1] for w in want]))
    assert np.array_equal(lens, np.concatenate([w[2] - w[1] for w in want]))
    return lens


def dense_and_sparse(dim, sparse):
    """60 points in [-4, 4]**dim, one at the corner of their extent; with
    sparse, every other point moves 1e4 along the first axis."""
    rng = np.random.default_rng(dim + 10 * sparse)
    pts = rng.uniform(-4.0, 4.0, size=(60, dim))
    pts[-1] = pts.max(axis=0)   # the extent's last cell holds a point
    if sparse:
        pts[::2, 0] += 1e4
    return pts


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("sparse", [False, True], ids=["table", "search"])
def test_runs_match_binary_search_on_both_sides(monkeypatch, pair_block, dim,
                                                 sparse):
    pts = dense_and_sparse(dim, sparse)
    grid = GridIndex(pts, 1.0)
    paths = record_table_paths(monkeypatch)
    qcells = cells_around(pts, 1.0)
    lens = assert_lookups_match_reference(grid, pts, 1.0, qcells,
                                          gridindex._cube(1, dim))
    assert lens.sum() > 0 and paths and set(paths) == {not sparse}
    if not sparse:
        # the last cell's run ends at the table's final entry
        last = np.array([len(grid._starts) - 2])
        assert grid._runs(last)[1][0] > 0
        assert grid._starts[-1] == len(pts)
    queries = np.concatenate([pts, np.random.default_rng(dim).uniform(
        -9.0, 9.0, size=(40, dim))])
    for radius in (0.4, 1.0, 2.0):
        assert_same_pairs(grid.pairs_within(queries, radius),
                          oracles.ref_pairs_within(pts, 1.0, queries, radius))
    for r_max in (math.inf, 2.0):
        assert np.array_equal(grid.nn_d2(queries, r_max),
                              oracles.brute_nn_d2(pts, queries, r_max))
    assert np.array_equal(grid.nn_d2(pts, exclude_self=True),
                          oracles.brute_nn_d2(pts, pts, exclude_self=True))
    assert set(paths) == {not sparse}


@pytest.mark.parametrize("far, table", [(4111.5, True), (4112.5, False)])
def test_start_table_rule_at_its_bound(monkeypatch, far, table):
    # two points, cell 1: a code range of 4112 = 8 * 2 + 4096 cells or one more
    pts = np.array([[0.5], [far]])
    grid = GridIndex(pts, 1.0)
    paths = record_table_paths(monkeypatch)
    qcells = cells_around(pts, 1.0)
    assert_lookups_match_reference(grid, pts, 1.0, qcells, gridindex._cube(1, 1))
    assert_same_pairs(grid.pairs_within(pts, 1.0),
                      oracles.ref_pairs_within(pts, 1.0, pts, 1.0))
    assert np.array_equal(grid.nn_d2(pts, exclude_self=True),
                          oracles.brute_nn_d2(pts, pts, exclude_self=True))
    assert set(paths) == {table}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_runs_of_an_empty_and_a_one_point_index(dim):
    queries = np.arange(3.0 * dim).reshape(3, dim) - 1.0
    empty = GridIndex(np.zeros((0, dim)), 1.0)
    assert empty._starts is None
    for *_, lens in empty._lookups(np.zeros((3, dim), np.int64),
                                   gridindex._cube(1, dim)):
        assert not lens.any()
    assert empty.pairs_within(queries, 2.0)[0].size == 0
    assert np.all(np.isinf(empty.nn_d2(queries)))
    pts = np.full((1, dim), 0.25)
    one = GridIndex(pts, 1.0)
    lens = assert_lookups_match_reference(one, pts, 1.0, cells_around(pts, 1.0),
                                          gridindex._cube(1, dim))
    # the start table is built by the first walk
    assert np.array_equal(one._starts, [0, 1])
    assert lens.sum() > 0
    assert_same_pairs(one.pairs_within(queries, 2.0),
                      oracles.ref_pairs_within(pts, 1.0, queries, 2.0))
    assert np.array_equal(one.nn_d2(queries), oracles.brute_nn_d2(pts, queries))


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
    runs = list(grid._offset_runs(pts, 1.5))
    # the blocks expand the (offset, query) runs of the lookups in order ...
    want = np.concatenate([np.repeat(rows, lens) for rows, _, lens in runs])
    assert np.array_equal(np.concatenate([q for q, *_ in blocks]), want)
    # ... and end only where a nonempty run ends, never inside one
    lens = np.concatenate([lens for *_, lens in runs])
    run_ends = np.cumsum(lens)[lens > 0]
    block_ends = np.cumsum([len(q) for q, *_ in blocks])
    assert np.all(np.isin(block_ends, run_ends))
    # a block over pair_block candidates holds one run alone
    starts = np.concatenate([[0], block_ends[:-1]])
    for a, b in zip(starts, block_ends):
        n_runs = np.count_nonzero((run_ends > a) & (run_ends <= b))
        assert b - a <= pair_block or n_runs == 1
    # lent lookups size the walk and give the same blocks
    assert grid._candidates(runs) == sum(len(q) for q, *_ in blocks)
    lent = list(grid._blocks(pts, 1.5, runs))
    assert len(lent) == len(blocks)
    for got, want in zip(lent, blocks):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # the kept rows, block after block, are the one-shot enumeration
    kept = [np.concatenate([np.compress(k, b[i]) for *b, _, k in blocks])
            for i in (0, 1)]
    assert_same_pairs(kept, oracles.ref_pairs_within(pts, 1.5, pts, 1.5))
    # at the default block one lookup and one block span all 3**dim offsets
    assert (len(runs), len(blocks) == 1) == ((1, True) if pair_block != 7
                                             else (3 ** dim, False))


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
# pair_sums against a dense double loop, and bit for bit against one
# np.add.at over pairs_within's pairs


def wavy(pts, queries, weights):
    """A per-pair value that depends on both rows and their order."""
    return lambda q, p: weights[p] * np.cos(np.sum(pts[p] - 2.0 * queries[q],
                                                   axis=1))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pair_sums_match_brute(pair_block, dim):
    rng = np.random.default_rng(5 * dim)
    pts = rng.uniform(-4.0, 4.0, size=(60, dim))
    queries = rng.uniform(-6.0, 6.0, size=(40, dim))
    weights = rng.uniform(0.5, 2.0, size=60)
    grid = GridIndex(pts, 0.7)
    for radius in (0.4, 1.0, 2.0):
        value = wavy(pts, queries, weights)
        got = grid.pair_sums(queries, radius, value)
        want = oracles.brute_pair_sums(pts, queries, radius, value)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        qi, pi = grid.pairs_within(queries, radius)
        at = np.zeros(len(queries))
        np.add.at(at, qi, value(qi, pi))
        assert np.array_equal(got, at)
        counts = grid.count_within(queries, radius)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, oracles.brute_pair_sums(
            pts, queries, radius, lambda q, p: np.ones(1)))


@pytest.mark.parametrize("dim", [1, 2])
def test_pair_sums_empty_index_and_queries(pair_block, dim):
    queries = np.arange(3.0 * dim).reshape(3, dim)
    none = np.zeros((0, dim))
    value = lambda q, p: np.ones(len(q))   # noqa: E731
    assert np.array_equal(GridIndex(none, 1.0).pair_sums(queries, 1.5, value),
                          np.zeros(3))
    assert GridIndex(queries, 1.0).pair_sums(none, 1.5, value).shape == (0,)
    assert GridIndex(none, 1.0).count_within(none, 1.5).dtype == np.int64


@pytest.mark.parametrize("cell", [0.5, 1.0, 5.0])
def test_pair_sums_keep_a_pair_at_exactly_radius(pair_block, cell):
    # integer points: d2 == radius * radius exactly, in the closed ball
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0], [-3.0, 4.0]])
    got = GridIndex(pts, cell).pair_sums(pts, 5.0, lambda q, p: p + 1.0)
    assert np.array_equal(got, [1.0 + 2.0 + 4.0, 2.0 + 1.0 + 3.0, 3.0 + 2.0,
                                4.0 + 1.0])


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


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_queries", [3, 40])
def test_nn_d2_shell_slices_match_brute(pair_block, dim, n_queries):
    # at block 7 a shell's lookup is split into slices of a few offsets
    rng = np.random.default_rng(dim + n_queries)
    pts = rng.uniform(-4.0, 4.0, size=(60, dim))
    queries = rng.uniform(-9.0, 9.0, size=(n_queries, dim))
    grid = GridIndex(pts, 0.7)
    for r_max in (math.inf, 2.0):
        assert np.array_equal(grid.nn_d2(queries, r_max),
                              oracles.brute_nn_d2(pts, queries, r_max))
    assert np.array_equal(grid.nn_d2(pts, exclude_self=True),
                          oracles.brute_nn_d2(pts, pts, exclude_self=True))


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


def no_shell_walk(monkeypatch):
    def fail(*args):
        raise AssertionError("1D nn_d2 walked cell shells")
    monkeypatch.setattr(GridIndex, "_lookups", fail)


@pytest.mark.parametrize("cell", [1e-3, 0.4])
def test_nn_d2_1d_query_far_beyond_the_grid(monkeypatch, cell):
    # a million cells past the extent: found by binary search, no shell walk
    pts = np.array([[0.25], [-0.5], [0.75], [0.5]])
    far = 0.75 + 1e6 * cell
    queries = np.array([[far], [-far], [0.3]])
    grid = GridIndex(pts, cell)
    no_shell_walk(monkeypatch)
    for r_max in (math.inf, 2e6 * cell):
        assert np.array_equal(grid.nn_d2(queries, r_max),
                              oracles.brute_nn_d2(pts, queries, r_max))
    assert np.array_equal(grid.nn_d2(queries, 0.1),
                          [np.inf, np.inf, (0.25 - 0.3) ** 2])


def test_nn_d2_1d_equal_left_and_right_distances(monkeypatch):
    pts = np.array([[2.0], [0.0], [0.1], [0.3], [-1.0], [1.0]])
    # midpoints between two points; 0.2 and 0.65 tie up to rounding
    queries = np.array([[1.0], [1.5], [0.2], [-0.5], [0.65]])
    grid = GridIndex(pts, 0.25)
    no_shell_walk(monkeypatch)
    got = grid.nn_d2(queries)
    assert np.array_equal(got, oracles.brute_nn_d2(pts, queries))
    assert got[0] == 0.0 and got[1] == 0.25 and got[3] == 0.25
    assert np.array_equal(grid.nn_d2(pts, exclude_self=True),
                          oracles.brute_nn_d2(pts, pts, exclude_self=True))


@pytest.mark.parametrize("r_max", [0.0, 0.5, 1.5, math.inf])
def test_nn_d2_1d_duplicates_excluding_self_with_a_cap(monkeypatch, r_max):
    # runs of equal coordinates, in scrambled row order
    pts = np.array([[1.5], [0.0], [4.0], [1.5], [0.0], [1.5], [5.5], [-2.0]])
    grid = GridIndex(pts, 1.0)
    no_shell_walk(monkeypatch)
    got = grid.nn_d2(pts, r_max, exclude_self=True)
    assert np.array_equal(got, oracles.brute_nn_d2(pts, pts, r_max,
                                                   exclude_self=True))
    assert np.array_equal(got[[0, 1, 3, 4, 5]], np.zeros(5))


def test_grid_index_bad_arguments_are_invalid_argument():
    with pytest.raises(ak.InvalidArgument):
        GridIndex(np.zeros(3), 1.0)
    with pytest.raises(ak.InvalidArgument):
        GridIndex(np.zeros((3, 1)), 0.0)


# ---------------------------------------------------------------------------
# walk tables on first use; cell-offset cubes built once


def test_a_grid_builds_its_tables_on_the_first_walk_only():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-5.0, 5.0, size=(50, 1))
    queries = rng.uniform(-7.0, 7.0, size=(20, 1))
    grid = GridIndex(pts, 0.5)
    assert np.array_equal(grid.nn_d2(queries, 2.0),
                          oracles.brute_nn_d2(pts, queries, 2.0))
    # a 1D nearest-distance search reads the sorted coordinates only
    assert grid._order is None and grid._codes is None and grid._starts is None
    assert_same_pairs(grid.pairs_within(queries, 0.7),
                      oracles.ref_pairs_within(pts, 0.5, queries, 0.7))
    assert grid._order is not None and grid._starts is not None


@pytest.mark.parametrize("pts, cell, text", [
    ([[0.0], [1e300]], 1.0, "cell coordinates out of range"),
    ([[0.0, 0.0], [1e10, 1e10]], 1e-3, "cell_size too fine"),
])
def test_grid_range_errors_raise_at_construction(pts, cell, text):
    with pytest.raises(ak.InvalidArgument, match=text):
        GridIndex(np.array(pts), cell)


def test_small_cubes_are_cached_read_only():
    cube = gridindex._cube(1, 2)
    assert gridindex._cube(1, 2) is cube and not cube.flags.writeable
    assert np.array_equal(cube, [[i, j] for i in (-1, 0, 1) for j in (-1, 0, 1)])
    big = gridindex._cube(150, 2)   # 301**2 * 2 entries: built per call
    assert big is not gridindex._cube(150, 2) and not big.flags.writeable
    assert len(big) == 301 ** 2

