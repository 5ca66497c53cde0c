import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import apkit as ak
import oracles
from apkit import pointset


def z_lattice(window: float) -> ak.PointSet:
    return ak.make_lattice([[1.0]], window)


# ---------------------------------------------------------------------------
# regions and volumes


def test_ball_volume_matches_oracle():
    for dim in (1, 2, 3, 4):
        for R in (0.5, 1.0, 2.7):
            assert ak.ball_volume(dim, R) == pytest.approx(
                oracles.ball_volume(dim, R), rel=1e-12)


def test_ball_region_closed_membership():
    ball = ak.RegionSpec.ball([0.0, 0.0], 1.0)
    pts = np.array([[1.0, 0.0], [0.0, -1.0], [1.0 + 1e-9, 0.0], [0.3, 0.2]])
    assert list(ball.contains(pts)) == [True, True, False, True]


def test_box_region_half_open_membership():
    box = ak.RegionSpec.box([0.0], [1.0])
    pts = np.array([[0.0], [0.5], [1.0], [-1e-12]])
    assert list(box.contains(pts)) == [True, True, False, False]


def test_region_geometry_and_json_round_trip():
    ball = ak.RegionSpec.ball([1.0, 2.0], 0.5)
    assert ball.volume() == pytest.approx(math.pi * 0.25)
    assert ball.diameter() == pytest.approx(1.0)
    assert ball.outer_radius() == pytest.approx(math.sqrt(5.0) + 0.5)
    box = ak.RegionSpec.box([0.0, 0.0], [2.0, 3.0])
    assert box.volume() == pytest.approx(6.0)
    assert box.diameter() == pytest.approx(math.sqrt(13.0))
    for region in (ball, box):
        back = ak.RegionSpec.from_json(region.to_json())
        assert back.to_json() == region.to_json()


def test_region_shifted_moves_membership():
    ball = ak.RegionSpec.ball([0.0], 1.0).shifted([5.0])
    assert bool(ball.contains(np.array([[5.5]]))[0])
    assert not bool(ball.contains(np.array([[0.0]]))[0])


# ---------------------------------------------------------------------------
# PointSet construction


def test_points_sorted_on_construction():
    S = ak.PointSet([[3.0], [-1.0], [0.5]], 5.0, 0.5)
    assert list(S.points[:, 0]) == [-1.0, 0.5, 3.0]


def test_validation_rejects_close_pair():
    with pytest.raises(ak.NotUniformlyDiscrete):
        ak.PointSet([[0.0], [0.5]], 5.0, 1.0)


def test_validation_rejects_point_outside_window():
    with pytest.raises(ak.RegionOutsideWindow):
        ak.PointSet([[10.0]], 5.0, 1.0)


def test_empty_point_set_is_fine():
    S = ak.PointSet(np.zeros((0, 2)), 5.0, 1.0)
    assert len(S) == 0 and S.dim == 2


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=2, max_size=30, unique=True))
def test_count_in_region_matches_brute(ints):
    pts = np.array(sorted(ints), dtype=float).reshape(-1, 1)
    S = ak.PointSet(pts, 60.0, 0.9)
    region = ak.RegionSpec.ball([0.25], 7.3)
    assert ak.count_in_region(S, region) == oracles.brute_count_in_ball(
        pts, [0.25], 7.3)


# ---------------------------------------------------------------------------
# translate


def test_translate_shifts_and_shrinks_window():
    S = z_lattice(10.0)
    T = ak.translate(S, [0.25])
    assert T.window_radius == pytest.approx(9.75)
    # m - 0.25 stays inside B_9.75 exactly for m in -9..10
    assert np.allclose(np.sort(T.points[:, 0]),
                       np.arange(-9, 11) - 0.25)


def test_translate_rejects_shift_beyond_window():
    S = z_lattice(10.0)
    with pytest.raises(ak.TranslationExceedsWindow):
        ak.translate(S, [11.0])


# ---------------------------------------------------------------------------
# scale metric


def test_metric_d_shifted_lattice_equals_shift():
    Z = z_lattice(131.0)
    for s in (0.2, 0.1, 0.05):
        Zs = ak.translate(ak.make_lattice([[1.0]], 131.0 + s), [s])
        assert ak.metric_d(Z, Zs, 1e-2) == pytest.approx(s, abs=1.1e-2)


def test_metric_d_identical_reports_tol_floor():
    Z = z_lattice(131.0)
    assert ak.metric_d(Z, Z, 1e-2) == pytest.approx(1e-2)


def test_metric_d_symmetry():
    Z = z_lattice(131.0)
    Zs = ak.translate(ak.make_lattice([[1.0]], 131.15), [0.15])
    assert ak.metric_d(Z, Zs, 1e-2) == pytest.approx(
        ak.metric_d(Zs, Z, 1e-2))


def test_metric_d_window_too_small():
    Z = z_lattice(20.0)
    with pytest.raises(ak.WindowTooSmall):
        ak.metric_d(Z, Z, 1e-3)


def test_metric_d_tol_out_of_range_is_invalid_argument():
    Z = z_lattice(131.0)
    for tol in (0.0, 0.75, -1e-3):
        with pytest.raises(ak.InvalidArgument):
            ak.metric_d(Z, Z, tol)


CAP = 1.0 / math.sqrt(2.0)


def lattice_points(dim: int, window: float) -> np.ndarray:
    k = int(window) + 1
    axes = [np.arange(-k, k + 1, dtype=float)] * dim
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, dim)
    return pts[np.sqrt(np.sum(pts ** 2, axis=1)) <= window]


def assert_matches_brute(A: ak.PointSet, B: ak.PointSet, tol: float) -> float:
    got = ak.metric_d(A, B, tol)
    want = oracles.brute_metric_d(A.points, A.window_radius,
                                  B.points, B.window_radius, tol)
    assert got == want
    return got


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       tol=st.sampled_from([0.1, 0.125]),
       jitter=st.floats(0.0, 0.3),
       drop=st.floats(0.0, 0.1),
       shift=st.floats(0.0, 1.0))
def test_metric_d_matches_brute_on_translated_pairs(dim, seed, tol, jitter,
                                                    drop, shift):
    # jittered lattices with a few points dropped, translated by one shared
    # node vector as dbar_c does
    rng = np.random.Generator(np.random.Philox(key=seed))
    R = 2.0
    W = 1.0 / tol + R + 0.5
    base = lattice_points(dim, W - 0.5)
    A = ak.PointSet(base + rng.uniform(-0.15, 0.15, base.shape), W, 0.35)
    moved = base + rng.uniform(-jitter, jitter, base.shape)
    B = ak.PointSet(moved[rng.uniform(size=len(moved)) >= drop], W, 0.35)
    t = rng.normal(size=dim)
    t *= shift * R / np.linalg.norm(t)
    assert_matches_brute(ak.translate(A, t), ak.translate(B, t), tol)


def bisection_midpoint(tol: float, bits) -> float:
    """Last midpoint the bisection visits when its verdicts follow bits."""
    lo, hi = tol, CAP
    for bit in bits:
        mid = 0.5 * (lo + hi)
        if bit:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol:
            break
    return mid


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=12, deadline=None)
@given(bits=st.lists(st.booleans(), min_size=1, max_size=5),
       tol=st.sampled_from([0.05, 0.1]),
       on_second_side=st.booleans())
def test_metric_d_neighbour_at_a_bisection_midpoint(dim, bits, tol,
                                                    on_second_side):
    # one point moves off the origin by exactly a midpoint the bisection
    # visits, so the predicate there compares a*a with a*a
    m = bisection_midpoint(tol, bits)
    W = 1.0 / tol + 1.0
    base = lattice_points(dim, W)
    moved = base.copy()
    moved[np.all(base == 0.0, axis=1), 0] = m
    A = ak.PointSet(base, W, 0.25)
    B = ak.PointSet(moved, W, 0.25)
    if on_second_side:
        A, B = B, A
    got = assert_matches_brute(A, B, tol)
    assert m <= got <= m + tol


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=15, deadline=None)
@given(tol=st.sampled_from([0.1, 0.125]),
       bits=st.lists(st.booleans(), min_size=1, max_size=4),
       at_window_edge=st.booleans(),
       ulps=st.integers(-2, 2),
       slack=st.floats(0.0, 0.25),
       shrink=st.sampled_from([0.0, 0.5, 1.0]))
def test_metric_d_point_near_clipped_domain_edge(dim, tol, bits,
                                                 at_window_edge, ulps, slack,
                                                 shrink):
    # an unmatched point sits a few ulps from the domain radius
    # min(1/a, W - a) at a scale the bisection visits; W is the window of
    # the other set, and the point's own window may be smaller
    W = 1.0 / tol + slack * tol
    W_own = W - shrink * slack * tol
    if at_window_edge:
        x = W - tol
    else:
        x = 1.0 / bisection_midpoint(tol, bits)
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    lone = np.zeros(dim)
    lone[0] = x
    base = lattice_points(dim, W_own)
    base = base[np.sqrt(np.sum((base - lone) ** 2, axis=1)) > 1.0]
    A = ak.PointSet(np.vstack([base, lone]), W_own, 0.5)
    B = ak.PointSet(base, W, 0.5)
    assert_matches_brute(A, B, tol)
    assert_matches_brute(B, A, tol)


@pytest.mark.parametrize("dim", [1, 2])
def test_metric_d_matches_brute_on_unequal_shifts(dim):
    # translates by different vectors, or a translate against an
    # untranslated set, do not share parents' pairs
    rng = np.random.Generator(np.random.Philox(key=11))
    base = lattice_points(dim, 11.5)
    A = ak.PointSet(base + rng.uniform(-0.15, 0.15, base.shape), 12.0, 0.35)
    B = ak.PointSet(base + rng.uniform(-0.25, 0.25, base.shape), 12.0, 0.35)
    t1 = np.full(dim, 0.75)
    t2 = np.full(dim, -0.5)
    assert_matches_brute(ak.translate(A, t1), ak.translate(B, t2), 0.125)
    assert_matches_brute(ak.translate(A, t1), B, 0.125)
    assert_matches_brute(A, ak.translate(B, t1), 0.125)


@pytest.mark.parametrize("dim", [1, 2])
def test_metric_d_pair_cache_follows_the_second_set(dim):
    # the same first set against two different second sets, directly and
    # through common translates, then back: no stale neighbour pairs
    A = ak.PointSet(lattice_points(dim, 12.0), 12.0, 0.5)
    B = ak.PointSet(lattice_points(dim, 11.0) + 0.05, 11.5, 0.5)
    C = ak.PointSet(lattice_points(dim, 9.5) + 0.3, 10.0, 0.5)
    t = np.full(dim, 0.4)
    seen = set()
    for other in (B, C, B):
        seen.add(assert_matches_brute(A, other, 0.125))
        assert_matches_brute(ak.translate(A, t), ak.translate(other, t), 0.125)
    assert len(seen) == 2


def brute_nearest_d2(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Least squared distance from each row of P to Q, inf beyond CAP."""
    d2 = np.sum((Q[None, :, :] - P[:, None, :]) ** 2, axis=2)
    d2[d2 > CAP * CAP] = np.inf
    return d2.min(axis=1)


def crossing_pair():
    """(x, y, t) with (y - x)**2 > CAP**2 but ((y - t) - (x - t))**2 <= CAP**2.

    Searches dyadic x, y a few ulps above x + CAP, and shifts t.
    """
    for i in range(1, 256):
        x = 1.0 + i / 64.0
        y = x + CAP
        for _ in range(3):
            y = float(np.nextafter(y, math.inf))
            if (y - x) ** 2 <= CAP * CAP:
                continue
            for j in range(1, 128):
                t = j / 16.0 + 0.1
                if ((y - t) - (x - t)) ** 2 <= CAP * CAP:
                    return x, y, t
    return None


def test_metric_d_pairs_that_reach_the_cap_only_after_translation():
    # the pair is beyond CAP on the parents' coordinates, within it on the
    # translated ones; the parents' pair query must still find it. Such a
    # pair only moves the verdict at a = CAP, and metric_d returns CAP
    # either way, so the per-point minima are compared instead of the value
    hit = crossing_pair()
    assert hit is not None
    x, y, t = hit
    A = ak.PointSet([[x]], 12.0, 0.5)
    B = ak.PointSet([[y]], 12.0, 0.5)
    At, Bt = ak.translate(A, [t]), ak.translate(B, [t])
    (_, best_a), (_, best_b) = pointset._nearest_d2(At, Bt)
    want = brute_nearest_d2(At.points, Bt.points)
    assert np.isfinite(want).all()
    assert best_a.tolist() == want.tolist()
    assert best_b.tolist() == brute_nearest_d2(Bt.points, At.points).tolist()


# ---------------------------------------------------------------------------
# density


def test_upper_density_lattice_near_one():
    est = ak.upper_density(z_lattice(120.0), [40.0, 60.0, 80.0, 100.0])
    assert est.value == pytest.approx(1.0, abs=0.02)
    assert est.converged


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=3, max_size=25, unique=True))
def test_upper_density_matches_brute(ints):
    pts = np.array(sorted(ints), dtype=float).reshape(-1, 1)
    S = ak.PointSet(pts, 50.0, 0.9)
    radii = [10.0, 20.0, 30.0, 40.0]
    est = ak.upper_density(S, radii)
    assert est.value == pytest.approx(
        oracles.brute_upper_density(pts, radii, 1), rel=1e-12)


def falling_density_set() -> ak.PointSet:
    # spacing 0.25 out to 20, 1.5 out to 100 and 4 out to 190
    half = np.concatenate([np.arange(0.25, 20.0 + 1e-9, 0.25),
                           20.0 + np.arange(1.5, 80.0 + 1e-9, 1.5),
                           100.0 + np.arange(4.0, 90.0 + 1e-9, 4.0)])
    pts = np.concatenate([-half[::-1], [0.0], half]).reshape(-1, 1)
    return ak.PointSet(pts, 190.0, 0.2)


@pytest.mark.parametrize("radii", [[20.0, 100.0, 190.0],
                                   [20.0, 60.0, 100.0, 190.0]])
def test_falling_density_does_not_converge(radii):
    # the trailing quarter held one value on both schedules, so this
    # density falling 4.03 -> 1.34 -> 0.82 used to read converged
    est = ak.upper_density(falling_density_set(), radii)
    assert est.tail_values[0] == pytest.approx(161 / 40)
    assert est.tail_values[-2] == pytest.approx(267 / 200)
    assert est.tail_values[-1] == pytest.approx(311 / 380)
    assert est.value == est.tail_values[-2]
    assert not est.converged


def test_density_estimate_json_fields():
    est = ak.upper_density(z_lattice(50.0), [20.0, 40.0])
    doc = est.to_json()
    assert set(doc) == {"value", "radii_used", "tail_values", "converged"}


# ---------------------------------------------------------------------------
# nearest-neighbor spacing


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-60, 60), min_size=2, max_size=20, unique=True))
def test_mean_nn_spacing_matches_brute(ints):
    pts = np.array(sorted(ints), dtype=float).reshape(-1, 1)
    S = ak.PointSet(pts, 70.0, 0.9)
    assert ak.mean_nn_spacing(S) == pytest.approx(
        oracles.brute_nn_mean(pts), rel=1e-12)


def test_mean_nn_spacing_needs_two_points():
    S = ak.PointSet([[0.0]], 5.0, 1.0)
    with pytest.raises(ValueError):
        ak.mean_nn_spacing(S)


# ---------------------------------------------------------------------------
# relative density gap


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-9.0, 9.0, allow_nan=False), min_size=1,
                max_size=12))
def test_relative_density_gap_matches_probe_oracle(xs):
    cand = np.array(xs).reshape(-1, 1)
    got = ak.relative_density_gap(cand, 10.0)
    want = oracles.brute_density_gap_1d(xs, 10.0)
    assert got == pytest.approx(want, abs=1e-3)


def test_relative_density_gap_empty_raises():
    with pytest.raises(ak.EmptyCandidateSet):
        ak.relative_density_gap(np.zeros((0, 1)), 5.0)


def test_relative_density_gap_2d_probe_grid():
    cand = np.array([[0.0, 0.0]])
    got = ak.relative_density_gap(cand, 4.0, probe_pitch=0.25)
    # farthest probe from the origin sits near the rim
    assert 3.5 <= got <= 4.0


# ---------------------------------------------------------------------------
# CSV round trip


def test_pointset_csv_round_trip_is_exact(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=11))
    pts = np.sort(rng.uniform(-7, 7, size=12)).reshape(-1, 1)
    S = ak.PointSet(pts, 8.0, 1e-6, validate=False)
    path = str(tmp_path / "pts.csv")
    ak.write_pointset_csv(S, path)
    back = ak.read_pointset_csv(path)
    assert np.array_equal(back.points, S.points)
    assert back.window_radius == S.window_radius
    assert back.hardcore_radius == S.hardcore_radius


def test_read_rejects_missing_headers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.5\n1.5\n")
    with pytest.raises(ValueError):
        ak.read_pointset_csv(str(path))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_read_rejects_non_finite_rows(tmp_path, bad):
    path = tmp_path / "bad.csv"
    path.write_text(f"# dim=1\n# r=0.5\n# window=5\n0\n1\n{bad}\n")
    with pytest.raises(ak.InvalidArgument):
        ak.read_pointset_csv(str(path))


# reader, its header lines and two valid data rows
CSV_READERS = {
    "pointset": (ak.read_pointset_csv, ["# dim=1", "# r=0.5", "# window=5"],
                 ["0", "1"]),
    "measure": (ak.read_measure_csv, ["# dim=1", "# bin_tol=0.001"],
                ["0,1", "1,1"]),
}


@pytest.mark.parametrize("reader", sorted(CSV_READERS))
@pytest.mark.parametrize("fault", ["missing_header", "non_numeric", "ragged",
                                   "fractional_dim"])
def test_csv_readers_reject_malformed_files(tmp_path, reader, fault):
    read, headers, rows = CSV_READERS[reader]
    good = tmp_path / "good.csv"
    good.write_text("\n".join(headers + rows) + "\n")
    assert len(read(str(good))) == 2
    bad_line = len(headers) + len(rows) + 1
    if fault == "missing_header":
        headers, match = headers[:-1], "missing '# "
    elif fault == "non_numeric":
        rows, match = rows + [rows[-1] + "x"], f"line {bad_line}: non-numeric"
    elif fault == "ragged":
        rows, match = rows + [rows[-1] + ",2"], f"line {bad_line}: .* fields"
    else:
        headers, match = ["# dim=1.5"] + headers[1:], "positive integer"
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(headers + rows) + "\n")
    with pytest.raises(ak.InvalidArgument, match=match):
        read(str(path))


def test_pointset_rejects_non_finite_coordinates():
    for bad in (math.nan, math.inf):
        with pytest.raises(ak.InvalidArgument):
            ak.PointSet([[0.0, 0.0], [1.0, bad]], 5.0, 0.5)
