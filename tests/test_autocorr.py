import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import apkit as ak
import oracles
from apkit import autocorr
from apkit.gridindex import GridIndex


def z_lattice(window: float) -> ak.PointSet:
    return ak.make_lattice([[1.0]], window)


# ---------------------------------------------------------------------------
# binning


def test_bin_atoms_groups_within_tolerance():
    locs = np.array([[0.0], [1e-5], [1.0], [2.0], [2.0 + 5e-5]])
    wts = np.ones(5)
    blocs, bwts = ak.bin_atoms(locs, wts, 1e-3)
    assert len(blocs) == 3
    assert bwts.tolist() == [2.0, 1.0, 2.0]
    # weighted centroids
    assert blocs[0, 0] == pytest.approx(5e-6)


def test_bin_atoms_reaches_separated_fixpoint():
    # a chain of atoms each within tol of the next ends separated, not glued
    locs = np.arange(0.0, 10.0e-4, 1.0e-4).reshape(-1, 1)
    blocs, bwts = ak.bin_atoms(locs, np.ones(len(locs)), 1.5e-4)
    assert float(np.sum(bwts)) == pytest.approx(float(len(locs)))
    gaps = np.diff(np.sort(blocs[:, 0]))
    assert np.all(gaps >= 1.5e-4 * (1.0 - 1e-9))
    # re-binning an already separated output changes nothing
    blocs2, bwts2 = ak.bin_atoms(blocs, bwts, 1.5e-4)
    assert np.array_equal(blocs2, blocs)
    assert np.array_equal(bwts2, bwts)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=1,
                max_size=40))
def test_bin_atoms_separation_and_mass(xs):
    locs = np.array(xs).reshape(-1, 1)
    wts = np.ones(len(xs))
    blocs, bwts = ak.bin_atoms(locs, wts, 1e-2)
    assert float(np.sum(bwts)) == pytest.approx(float(len(xs)))
    if len(blocs) > 1:
        gaps = np.diff(np.sort(blocs[:, 0]))
        assert np.all(gaps >= 1e-2 * (1.0 - 1e-9))


# ---------------------------------------------------------------------------
# cell labels: per-column ranks against the sort-based reference


def record_rank_paths(monkeypatch) -> list:
    """Record, per ``_rank`` call, whether it ranks by ``np.unique``."""
    paths = []
    original = autocorr._rank

    def recording(keys, size):
        paths.append(size > 2 * len(keys))
        return original(keys, size)

    monkeypatch.setattr(autocorr, "_rank", recording)
    return paths


def assert_same_labels(got, want):
    assert got[0].dtype == np.int64
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]


@pytest.mark.parametrize("n, size", [(0, 0), (0, 3), (1, 1), (50, 100),
                                     (50, 101), (50, 10**9)])
def test_rank_equals_unique_inverse(n, size):
    keys = np.random.default_rng(n).integers(0, max(size, 1), size=n)
    distinct, inverse = np.unique(keys, return_inverse=True)
    rank, count = autocorr._rank(keys, size)
    assert np.array_equal(rank, inverse) and count == len(distinct)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("cell", [1e-3, 0.37, 4.0])
def test_group_by_cell_matches_reference_by_bitmap(monkeypatch, dim, cell):
    rng = np.random.default_rng(dim + int(100 * cell))
    # a few cells per column, each cell holding many rows
    locs = rng.uniform(-3.0, 3.0, size=(2000, dim)) * cell
    locs[0] = -3.0 * cell   # a coordinate on a cell boundary
    paths = record_rank_paths(monkeypatch)
    assert_same_labels(autocorr._group_by_cell(locs, cell),
                       oracles.ref_group_by_cell(locs, cell))
    assert paths == [False] * (2 * dim - 1)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_group_by_cell_matches_reference_column_beyond_bitmap(monkeypatch, dim):
    # two clusters 1e9 apart: the first column's range is far above 2 * rows
    rng = np.random.default_rng(dim)
    locs = rng.uniform(-2.0, 2.0, size=(300, dim))
    locs[::2, 0] += 1e9
    paths = record_rank_paths(monkeypatch)
    assert_same_labels(autocorr._group_by_cell(locs, 0.5),
                       oracles.ref_group_by_cell(locs, 0.5))
    assert paths[0]


@pytest.mark.parametrize("dim", [2, 3])
def test_group_by_cell_matches_reference_key_beyond_bitmap(monkeypatch, dim):
    # each column's range fits the bitmap, their combination does not
    rng = np.random.default_rng(dim)
    locs = rng.uniform(0.0, 300.0, size=(400, dim))
    paths = record_rank_paths(monkeypatch)
    assert_same_labels(autocorr._group_by_cell(locs, 1.0),
                       oracles.ref_group_by_cell(locs, 1.0))
    assert paths[:3] == [False, False, True]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_group_by_cell_empty_and_one_row(dim):
    gid, n_groups = autocorr._group_by_cell(np.zeros((0, dim)), 0.5)
    assert gid.dtype == np.int64 and gid.size == 0 and n_groups == 0
    one = np.full((1, dim), -2.25)
    assert_same_labels(autocorr._group_by_cell(one, 0.5),
                       oracles.ref_group_by_cell(one, 0.5))


@pytest.mark.parametrize("locs, bin_tol", [
    ([[0.0, 1.0], [math.nan, 2.0]], 0.5),
    ([[0.0, 1.0], [2.0, math.inf]], 0.5),
    ([[0.0], [-math.inf]], 0.5),
    ([[0.0], [1e300]], 1.0),                          # a cell overflows
    ([[0.0, 0.0], [1e10, 1e10]], 1e-3),               # the code range does
    ([[0.0, 0.0, math.nan], [1e10, 1e10, 0.0]], 1e-3),  # both: NaN first
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bin_tol_errors_keep_the_reference_text(locs, bin_tol):
    locs = np.array(locs)
    with pytest.raises(ValueError) as want:
        oracles.ref_cell_codes(locs, bin_tol, "bin_tol")
    assert "bin_tol too fine" in str(want.value)
    with pytest.raises(ak.InvalidArgument) as got:
        autocorr._group_by_cell(locs, bin_tol)
    assert str(got.value) == str(want.value)
    with pytest.raises(ak.InvalidArgument) as got:
        ak.bin_atoms(locs, np.ones(len(locs)), bin_tol)
    assert str(got.value) == str(want.value)


def test_measure_validation_rejects_close_atoms():
    with pytest.raises(ak.InvalidArgument, match="closer than bin_tol"):
        ak.WeightedAtomMeasure(1, np.array([[0.0], [1e-6]]),
                               np.array([1.0, 1.0]), 1e-3)


@pytest.mark.parametrize("locs, wts, bin_tol, message", [
    ([[0.0], [1.0]], [1.0], 0.1, "length mismatch"),
    ([[0.0], [1.0]], [1.0, 1.0], 0.0, "bin_tol must be positive"),
    ([[0.0], [1.0]], [1.0, 1.0], math.nan, "bin_tol must be positive"),
    ([[0.0], [1.0]], [1.0, 0.0], 0.1, "strictly positive"),
    ([[0.0], [1.0]], [1.0, -2.0], 0.1, "strictly positive"),
])
def test_measure_validation_errors_are_typed(locs, wts, bin_tol, message):
    with pytest.raises(ak.InvalidArgument, match=message):
        ak.WeightedAtomMeasure(1, np.array(locs), np.array(wts), bin_tol)


@pytest.mark.parametrize("locs, wts", [
    ([[0.0], [1.0]], [1.0, math.nan]),
    ([[0.0], [1.0]], [1.0, math.inf]),
    ([[0.0], [math.nan]], [1.0, 1.0]),
    ([[0.0], [-math.inf]], [1.0, 1.0]),
])
def test_measure_validation_rejects_non_finite(locs, wts):
    with pytest.raises(ak.InvalidArgument, match="finite"):
        ak.WeightedAtomMeasure(1, np.array(locs), np.array(wts), 0.1)


def test_read_measure_csv_rejects_nan_weight(tmp_path):
    path = tmp_path / "mu.csv"
    path.write_text("# dim=1\n# bin_tol=0.001\n0,1\n1,nan\n")
    with pytest.raises(ak.InvalidArgument):
        ak.read_measure_csv(str(path))


def test_measure_mass_queries():
    mu = ak.WeightedAtomMeasure(1, np.array([[0.0], [1.0]]),
                                np.array([2.0, 0.5]), 1e-3)
    assert mu.mass_at([1.0]) == 0.5
    assert mu.mass_at([0.7]) == 0.0
    assert mu.mass_at_zero() == 2.0
    assert mu.total_mass() == pytest.approx(2.5)
    ball = ak.RegionSpec.ball([0.5], 0.6)
    assert mu.mass_in_region(ball) == pytest.approx(2.5)


def test_mass_at_zero_raises_when_absent():
    mu = ak.WeightedAtomMeasure(1, np.array([[1.0]]), np.array([1.0]), 1e-3)
    with pytest.raises(ak.NoAtomAtZero):
        mu.mass_at_zero()


def test_negation_symmetric_detects_both_cases():
    sym = ak.WeightedAtomMeasure(1, np.array([[-1.0], [0.0], [1.0]]),
                                 np.array([0.5, 1.0, 0.5]), 1e-3)
    asym = ak.WeightedAtomMeasure(1, np.array([[-1.0], [0.0], [1.0]]),
                                  np.array([0.5, 1.0, 0.7]), 1e-3)
    assert sym.negation_symmetric()
    assert not asym.negation_symmetric()


def test_coarsened_merges_and_keeps_mass():
    mu = ak.WeightedAtomMeasure(1, np.array([[0.0], [0.004], [1.0]]),
                                np.array([1.0, 1.0, 2.0]), 1e-3)
    co = mu.coarsened(0.05)
    assert len(co) == 2
    assert co.total_mass() == pytest.approx(mu.total_mass())
    with pytest.raises(ak.InvalidArgument, match="coarsening scale"):
        mu.coarsened(1e-4)


# ---------------------------------------------------------------------------
# finite autocorrelation


def test_lattice_autocorr_matches_closed_form():
    R = 1000.0
    S = z_lattice(R)
    card = len(S)
    vol = 2.0 * R
    gamma = ak.finite_autocorrelation(S, R)
    for m in range(-10, 11):
        want = (card - abs(m)) / vol
        assert gamma.mass_at([float(m)]) == pytest.approx(want, rel=0.01)
    assert gamma.total_mass() == pytest.approx(card * card / vol, rel=1e-12)
    assert gamma.mass_at_zero() * vol == pytest.approx(card, rel=1e-12)


def test_autocorr_matches_brute_on_random_points():
    rng = np.random.Generator(np.random.Philox(key=5))
    xs = np.sort(rng.uniform(-12, 12, size=25))
    xs = xs[np.concatenate([[True], np.diff(xs) > 0.1])]
    S = ak.PointSet(xs.reshape(-1, 1), 12.5, 0.05, validate=False)
    R = 10.0
    gamma = ak.finite_autocorrelation(S, R, bin_tol=1e-9)
    want = oracles.brute_autocorr_atoms(xs.reshape(-1, 1), R, 1)
    assert gamma.total_mass() == pytest.approx(sum(want.values()), rel=1e-9)
    for key, w in want.items():
        assert gamma.mass_at([key[0]], tol=1e-6) == pytest.approx(w, rel=1e-9)


def test_autocorr_is_negation_symmetric():
    S = z_lattice(50.0)
    gamma = ak.finite_autocorrelation(S, 50.0)
    assert gamma.negation_symmetric()


@pytest.mark.parametrize("R", [0.0, -1.0, math.nan, math.inf])
def test_autocorr_radius_must_be_positive_and_finite(R):
    with pytest.raises(ak.InvalidArgument,
                       match="R must be positive and finite"):
        ak.finite_autocorrelation(z_lattice(10.0), R)


def test_autocorr_radius_beyond_window_rejected():
    S = z_lattice(10.0)
    with pytest.raises(ak.RadiusExceedsWindow):
        ak.finite_autocorrelation(S, 20.0)


def test_diff_cutoff_truncates_support():
    S = z_lattice(50.0)
    gamma = ak.finite_autocorrelation(S, 50.0, diff_cutoff=5.0)
    assert gamma.support_radius() <= 5.0 + 1e-9


# ---------------------------------------------------------------------------
# edge debias


def test_ball_overlap_fraction_1d_closed_form():
    from apkit.autocorr import ball_overlap_fraction

    seps = np.array([0.0, 1.0, 10.0, 39.9, 40.0, 55.0])
    got = ball_overlap_fraction(1, 20.0, seps)
    want = [oracles.brute_ball_overlap_1d(20.0, s) for s in seps]
    assert np.allclose(got, want, atol=1e-12)


def test_ball_overlap_fraction_monotone_in_unit_range():
    from apkit.autocorr import ball_overlap_fraction

    for dim in (1, 2, 3):
        seps = np.linspace(0.0, 4.2, 200)
        vals = ball_overlap_fraction(dim, 2.0, seps)
        # quadrature on the cap sections is ~1e-5 accurate for dim >= 2
        tol = 1e-12 if dim == 1 else 1e-4
        assert vals[0] == pytest.approx(1.0, abs=tol)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0 + tol)
        assert np.all(np.diff(vals) <= tol)
        assert vals[-1] == 0.0


def test_debias_restores_lattice_weights():
    R = 300.0
    S = z_lattice(R)
    gamma = ak.finite_autocorrelation(S, R, diff_cutoff=60.0)
    mu = ak.debias_ball_edge(gamma, R)
    card = len(S)
    for m in (10.0, 35.0, 55.0):
        want = (card - m) / (2.0 * R - m)
        assert mu.mass_at([m]) == pytest.approx(want, rel=1e-12)


def test_debias_drops_far_edge_atoms():
    mu = ak.WeightedAtomMeasure(1, np.array([[0.0], [19.9]]),
                                np.array([1.0, 1.0]), 1e-3)
    out = ak.debias_ball_edge(mu, 10.0)
    assert len(out) == 1


# ---------------------------------------------------------------------------
# limit estimator


def test_limit_estimator_tracks_lattice_atoms():
    S = z_lattice(620.0)
    est = ak.autocorrelation_limit(S, [240.0, 260.0, 280.0, 300.0],
                                   diff_cutoff=60.0)
    assert est.converged
    assert est.measure.mass_at_zero() == pytest.approx(1.0, abs=0.01)
    doc = est.to_json()
    assert set(doc) == {"radii", "mass_at_zero", "converged", "atoms",
                        "total_mass", "bin_tol"}


def shifted_integers() -> ak.PointSet:
    # the integers + 1/2: the 0.3-ball around the origin holds no point
    return ak.PointSet((np.arange(-60, 60) + 0.5)[:, None], 60.0, 1.0)


def octagonal_points() -> ak.PointSet:
    s = 1.0 / math.sqrt(2.0)
    E = [[s * math.cos(j * math.pi / 4) for j in range(4)],
         [s * math.sin(j * math.pi / 4) for j in range(4)]]
    F = [[s * math.cos(3 * j * math.pi / 4) for j in range(4)],
         [s * math.sin(3 * j * math.pi / 4) for j in range(4)]]
    cfg = ak.CutProjectConfig(
        n=4, E_basis=E, F_basis=F, window=ak.RegionSpec.ball([0.0, 0.0], 0.6),
        output_radius=12.0, torus_offset=np.random.default_rng(3).random(4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return ak.cut_and_project(cfg)


def assert_same_measure(a: ak.WeightedAtomMeasure, b: ak.WeightedAtomMeasure):
    assert a.bin_tol == b.bin_tol
    assert a.locations.tobytes() == b.locations.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()


@pytest.mark.parametrize("make, radii", [
    (shifted_integers, [0.3, 20.0, 35.0, 60.0]),
    (octagonal_points, [0.2, 5.0, 9.0, 12.0]),
])
@pytest.mark.parametrize("cutoff", [None, 4.0])
def test_limit_measures_equal_independent_calls(monkeypatch, make, radii,
                                                cutoff):
    S = make()
    assert not np.any(S.norms() <= radii[0])
    seen = []
    original = autocorr.finite_autocorrelation

    def recording(S, R, *args, **kwargs):
        mu = original(S, R, *args, **kwargs)
        seen.append((R, mu))
        return mu

    monkeypatch.setattr(autocorr, "finite_autocorrelation", recording)
    est = ak.autocorrelation_limit(S, radii, diff_cutoff=cutoff)
    assert [R for R, _ in seen] == radii
    want_cutoff = 2.0 * radii[0] if cutoff is None else cutoff
    zero = np.zeros(S.dim)
    for (R, mu), mass0 in zip(seen, est.per_radius_mass_at_zero):
        fresh = original(S, R, diff_cutoff=want_cutoff)
        assert_same_measure(mu, fresh)
        assert mass0 == fresh.mass_at(zero)
    assert len(seen[0][1]) == 0
    assert_same_measure(est.measure, seen[-1][1])


def matern_points_2d() -> ak.PointSet:
    p = ak.ProcessSampler("matern_II", 0, 14.0, intensity=1.0, hardcore=0.5,
                          dim=2)
    return ak.sample(p, 0)


def reference_measure(S, R, bin_tol, cutoff):
    """bin_atoms on a fresh enumeration at R, labelled by the reference."""
    diffs = ak.PairDifferences(S, R, cutoff).diffs
    labels = oracles.ref_group_by_cell(diffs, bin_tol)
    locs, wts = ak.bin_atoms(diffs, np.ones(len(diffs)), bin_tol,
                             labels=labels)
    mu = ak.WeightedAtomMeasure(S.dim, locs, wts / ak.ball_volume(S.dim, R),
                                bin_tol, validate=False)
    return mu, labels


@pytest.mark.parametrize("make, radii, cutoff", [
    (shifted_integers, [2.0, 20.0, 60.0], 4.0),
    (octagonal_points, [5.0, 9.0, 12.0], 3.5),
    (matern_points_2d, [6.0, 9.0, 12.0], 3.0),
])
@pytest.mark.parametrize("bin_tol", [None, 0.05])
def test_lent_labels_match_reference_grouping(monkeypatch, make, radii, cutoff,
                                              bin_tol):
    S = make()
    tol = S.hardcore_radius * 1e-3 if bin_tol is None else bin_tol
    seen = []
    original = autocorr.finite_autocorrelation

    def recording(S, R, *args, **kwargs):
        mu = original(S, R, *args, **kwargs)
        seen.append((kwargs["pairs"].cells_at(R, tol)[1], mu))
        return mu

    monkeypatch.setattr(autocorr, "finite_autocorrelation", recording)
    ak.autocorrelation_limit(S, radii, bin_tol, cutoff)
    counts = []
    for R, (lent, mu) in zip(radii, seen):
        want, ref = reference_measure(S, R, tol, cutoff)
        assert np.array_equal(lent[0], ref[0]) and lent[1] == ref[1]
        assert_same_measure(mu, want)
        counts.append(ref[1])
    # smaller radii lose cells, so the renumbering is exercised
    assert counts == sorted(counts) and counts[0] < counts[-1]


def test_coarse_bin_tol_runs_the_merge_loop():
    S = matern_points_2d()
    mu, (_, n_cells) = reference_measure(S, 6.0, 0.05, 3.0)
    assert len(mu) < n_cells


def test_one_pairs_object_serves_two_bin_tols():
    S = octagonal_points()
    pairs = ak.PairDifferences(S, 12.0, 3.5)
    for tol in (0.05, 1e-4, 0.05):
        for R in (5.0, 12.0):
            mu = ak.finite_autocorrelation(S, R, tol, 3.5, pairs=pairs)
            assert_same_measure(mu, reference_measure(S, R, tol, 3.5)[0])
    assert sorted(pairs._labels) == [1e-4, 0.05]


def test_limit_enumerates_pairs_once(monkeypatch):
    # PairDifferences walks the grid's blocks itself, so the walk is counted
    S = octagonal_points()
    calls = []
    original = GridIndex._blocks

    def counting(self, queries, radius, runs=None):
        calls.append(radius)
        return original(self, queries, radius, runs)

    monkeypatch.setattr(GridIndex, "_blocks", counting)
    ak.autocorrelation_limit(S, [6.0, 9.0, 12.0], diff_cutoff=3.5)
    assert calls.count(3.5) == 1


def matern_points_1d() -> ak.PointSet:
    p = ak.ProcessSampler("matern_II", 0, 30.0, intensity=1.0, hardcore=0.3,
                          dim=1)
    return ak.sample(p, 1)


def one_point() -> ak.PointSet:
    return ak.PointSet(np.array([[0.25, -0.5]]), 10.0, 1.0)


def empty_ball() -> ak.PointSet:
    return ak.PointSet(np.array([[3.0, 4.0], [-4.0, 3.0]]), 10.0, 1.0)


@pytest.mark.parametrize("make, R, cutoff, radii", [
    (matern_points_1d, 25.0, 4.0, [2.0, 11.0, 25.0]),
    (matern_points_2d, 12.0, 3.0, [0.1, 6.0, 9.0, 12.0]),
    (octagonal_points, 12.0, 3.5, [5.0, 12.0]),
    (one_point, 1.0, 2.0, [0.5, 1.0]),
    (empty_ball, 4.0, 2.0, [4.0]),
])
@pytest.mark.parametrize("bin_tol", [1e-4, 0.05])
def test_pairs_match_one_shot_reference(pair_block, make, R, cutoff, radii,
                                        bin_tol):
    S = make()
    pairs = ak.PairDifferences(S, R, cutoff)
    for r in radii:
        _, _, diffs, keep = oracles.ref_pair_differences(S, R, cutoff, r)
        assert np.array_equal(pairs.at(r), diffs[keep])
        got, (gid, n) = pairs.cells_at(r, bin_tol)
        assert np.array_equal(got, diffs[keep])
        if len(got):
            want = oracles.ref_group_by_cell(diffs[keep], bin_tol)
            assert np.array_equal(gid, want[0]) and n == want[1]
        else:
            assert len(gid) == 0 and n == 0


def one_shot_measure(S, R, bin_tol, cutoff):
    """The measure at R from the one-shot pairs and the reference labels."""
    _, _, diffs, keep = oracles.ref_pair_differences(S, R, cutoff, R)
    diffs = diffs[keep]
    locs, wts = ak.bin_atoms(diffs, np.ones(len(diffs)), bin_tol,
                             labels=oracles.ref_group_by_cell(diffs, bin_tol))
    return ak.WeightedAtomMeasure(S.dim, locs, wts / ak.ball_volume(S.dim, R),
                                  bin_tol, validate=False)


@pytest.mark.parametrize("make, radii, cutoff", [
    (matern_points_1d, [6.0, 15.0, 25.0], 4.0),
    (matern_points_2d, [6.0, 9.0, 12.0], 3.0),
])
def test_limit_measures_match_one_shot_reference(monkeypatch, pair_block, make,
                                                 radii, cutoff):
    S = make()
    tol = S.hardcore_radius * 1e-3
    seen = []
    original = autocorr.finite_autocorrelation

    def recording(S, R, *args, **kwargs):
        mu = original(S, R, *args, **kwargs)
        seen.append(mu)
        return mu

    monkeypatch.setattr(autocorr, "finite_autocorrelation", recording)
    est = ak.autocorrelation_limit(S, radii, diff_cutoff=cutoff)
    assert len(seen) == len(radii)
    for R, mu in zip(radii, seen):
        assert_same_measure(mu, one_shot_measure(S, R, tol, cutoff))
    assert_same_measure(est.measure, seen[-1])


def test_pairs_refuse_a_ball_too_large_for_int32_ranks(monkeypatch):
    S = matern_points_2d()
    monkeypatch.setattr(autocorr, "_MAX_RANKED", 10)
    with pytest.raises(ak.InvalidArgument, match="fewer than 10"):
        ak.PairDifferences(S, 12.0, 3.0)
    assert len(S.ball(0.5)) < 10
    ak.PairDifferences(S, 0.5, 3.0)


def test_pairs_for_a_single_radius_are_not_copied():
    S = octagonal_points()
    pairs = ak.PairDifferences(S, 12.0, 3.0)
    assert pairs.at(12.0) is pairs.diffs
    assert len(pairs.at(6.0)) < len(pairs.diffs)


def test_pairs_mismatch_raises():
    S = z_lattice(50.0)
    pairs = ak.PairDifferences(S, 30.0, 5.0)
    twin = ak.PointSet(S.points, S.window_radius, S.hardcore_radius)
    with pytest.raises(ak.InvalidArgument, match="another point set"):
        ak.finite_autocorrelation(twin, 20.0, diff_cutoff=5.0, pairs=pairs)
    with pytest.raises(ak.InvalidArgument, match="cutoff"):
        ak.finite_autocorrelation(S, 20.0, diff_cutoff=6.0, pairs=pairs)
    with pytest.raises(ak.InvalidArgument, match="cutoff"):
        ak.finite_autocorrelation(S, 20.0, pairs=pairs)
    with pytest.raises(ak.InvalidArgument, match="radius"):
        ak.finite_autocorrelation(S, 40.0, diff_cutoff=5.0, pairs=pairs)
    mu = ak.finite_autocorrelation(S, 30.0, diff_cutoff=5.0, pairs=pairs)
    assert_same_measure(mu, ak.finite_autocorrelation(S, 30.0, diff_cutoff=5.0))


def test_limit_estimator_needs_two_radii():
    S = z_lattice(100.0)
    with pytest.raises(ValueError):
        ak.autocorrelation_limit(S, [50.0])


@pytest.mark.parametrize("knob, value", [
    ("diff_cutoff", math.inf), ("diff_cutoff", math.nan), ("diff_cutoff", 0.0),
    ("significance", math.nan), ("significance", math.inf),
    ("significance", -0.1), ("track_rtol", math.nan), ("track_rtol", 0.0),
])
def test_limit_estimator_rejects_bad_knobs(knob, value):
    S = z_lattice(100.0)
    with pytest.raises(ak.InvalidArgument, match=knob):
        ak.autocorrelation_limit(S, [30.0, 50.0], **{knob: value})
    if knob == "diff_cutoff":
        with pytest.raises(ak.InvalidArgument, match=knob):
            ak.finite_autocorrelation(S, 50.0, diff_cutoff=value)


def test_limit_estimator_empty_set_raises():
    S = ak.PointSet(np.zeros((0, 1)), 100.0, 1.0)
    with pytest.raises(ak.NoAtomAtZero):
        ak.autocorrelation_limit(S, [40.0, 80.0])


# ---------------------------------------------------------------------------
# pair functionals


def test_hf_functional_matches_brute():
    S = z_lattice(30.0)
    psi = ak.TestFunction("triangle_bump", 1.0, 1.0, [0.0]).normalized()
    f = ak.TestFunction("triangle_bump", 2.5, 1.0, [0.0])
    got = ak.hf_functional(S, psi, f)
    want = 0.0
    for x in S.points:
        pv = oracles.brute_bump("triangle_bump", 1.0, psi.amplitude, x)
        if pv <= 0.0:
            continue
        for y in S.points:
            want += pv * oracles.brute_bump("triangle_bump", 2.5, 1.0, y - x)
    assert got == pytest.approx(want, rel=1e-12)


def test_hf_functional_rejects_unnormalized_psi():
    S = z_lattice(30.0)
    psi = ak.TestFunction("triangle_bump", 1.0, 2.0, [0.0])
    f = ak.TestFunction("triangle_bump", 1.0, 1.0, [0.0])
    with pytest.raises(ak.PsiNotNormalized):
        ak.hf_functional(S, psi, f)
    # a triangle of unit area happens to be normalized already
    unit = ak.TestFunction("triangle_bump", 1.0, 1.0, [0.0])
    ak.hf_functional(S, unit, f)


def test_birkhoff_average_agrees_with_measure_evaluation():
    S = z_lattice(210.0)
    psi = ak.TestFunction("cosine_bump", 1.5, 1.0, [0.0]).normalized()
    f = ak.TestFunction("cosine_bump", 0.9, 1.0, [0.0])
    gamma = ak.finite_autocorrelation(S, 200.0, diff_cutoff=1.5)
    direct = ak.evaluate(gamma, f)
    averaged = ak.birkhoff_average_hf(S, psi, f, 200.0)
    assert averaged == pytest.approx(direct, rel=0.02)


def test_evaluate_weights_bumps_by_mass():
    mu = ak.WeightedAtomMeasure(1, np.array([[0.0], [1.0]]),
                                np.array([2.0, 3.0]), 1e-3)
    f = ak.TestFunction("triangle_bump", 0.5, 1.0, [1.0])
    assert ak.evaluate(mu, f) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# CSV round trip


def test_measure_csv_round_trip(tmp_path):
    S = z_lattice(50.0)
    gamma = ak.finite_autocorrelation(S, 50.0, diff_cutoff=10.0)
    path = str(tmp_path / "m.csv")
    ak.write_measure_csv(gamma, path)
    back = ak.read_measure_csv(path)
    assert np.array_equal(back.locations, gamma.locations)
    assert np.array_equal(back.weights, gamma.weights)
    assert back.bin_tol == gamma.bin_tol
