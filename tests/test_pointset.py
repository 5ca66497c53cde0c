import math
import pathlib

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


@pytest.mark.parametrize("window, r, match", [
    (math.inf, 1.0, "window_radius must be finite"),
    (math.nan, 1.0, "window_radius must be finite"),
    (-1.0, 1.0, "window_radius must be finite"),
    (5.0, math.inf, "hardcore_radius must be positive and finite"),
    (5.0, math.nan, "hardcore_radius must be positive and finite"),
    (5.0, 0.0, "hardcore_radius must be positive and finite"),
])
def test_pointset_rejects_bad_radii(window, r, match):
    with pytest.raises(ak.InvalidArgument, match=match):
        ak.PointSet([[0.0], [1.0], [2.0]], window, r)


def test_ball_volume_rejects_bad_arguments():
    with pytest.raises(ak.InvalidArgument, match="dim"):
        ak.ball_volume(0, 1.0)
    with pytest.raises(ak.InvalidArgument, match="radius"):
        ak.ball_volume(1, -1.0)


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
        assert ak.metric_d(Z, Zs, 1e-2) == pytest.approx(s, abs=1e-12)


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


def assert_predicate_flips(A: ak.PointSet, B: ak.PointSet, tol: float,
                           value: float) -> None:
    # the covering predicate fails below the value and holds above it, on a
    # grid of [tol, CAP] and a few scales near the value, each at least
    # 1e-9 away from it
    near = value + np.array([-1e-3, -1e-6, -2e-9, 2e-9, 1e-6, 1e-3])
    scales = np.concatenate([np.linspace(tol, CAP, 41), near])
    scales = scales[(scales >= tol) & (scales <= CAP)
                    & (np.abs(scales - value) >= 1e-9)]
    assert oracles.brute_covers(A.points, A.window_radius, B.points,
                                B.window_radius, scales) == (
        scales > value).tolist()


def assert_matches_brute(A: ak.PointSet, B: ak.PointSet, tol: float) -> float:
    got = ak.metric_d(A, B, tol)
    want = oracles.brute_metric_d(A.points, A.window_radius,
                                  B.points, B.window_radius, tol)
    assert got == want
    assert_predicate_flips(A, B, tol, got)
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


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=12, deadline=None)
@given(tol=st.sampled_from([0.05, 0.1]),
       m=st.floats(0.0, 1.0),
       ulps=st.integers(-2, 2),
       on_second_side=st.booleans())
def test_metric_d_neighbour_at_the_value(dim, tol, m, ulps, on_second_side):
    # one point moves off the origin by m, a few ulps off a scale in
    # [tol, CAP]; its partner distance sqrt(m*m) is m exactly, and so is
    # the metric
    m = tol + m * (CAP - tol)
    for _ in range(abs(ulps)):
        m = float(np.nextafter(m, math.copysign(math.inf, ulps)))
    m = min(max(m, tol), CAP)
    W = 1.0 / tol + 1.0
    base = lattice_points(dim, W)
    moved = base.copy()
    moved[np.all(base == 0.0, axis=1), 0] = m
    A = ak.PointSet(base, W, 0.25)
    B = ak.PointSet(moved, W, 0.25)
    if on_second_side:
        A, B = B, A
    assert assert_matches_brute(A, B, tol) == m


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=15, deadline=None)
@given(tol=st.sampled_from([0.1, 0.125]),
       m=st.floats(0.0, 1.0),
       at_window_edge=st.booleans(),
       ulps=st.integers(-2, 2),
       slack=st.floats(0.0, 0.25),
       shrink=st.sampled_from([0.0, 0.5, 1.0]))
def test_metric_d_point_near_clipped_domain_edge(dim, tol, m, at_window_edge,
                                                 ulps, slack, shrink):
    # an unmatched point sits a few ulps from the domain radius
    # min(1/a, W - a) at a scale a in [tol, CAP]; W is the window of the
    # other set, and the point's own window may be smaller
    W = 1.0 / tol + slack * tol
    W_own = W - shrink * slack * tol
    if at_window_edge:
        x = W - tol
    else:
        x = 1.0 / (tol + m * (CAP - tol))
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


@pytest.mark.parametrize("ulps", [-2, -1, 0, 1, 2])
def test_metric_d_partner_a_few_ulps_from_the_cap(ulps):
    # the partner distance reads inf just beyond CAP and is finite at or
    # below it; either way the metric is CAP up to one rounding
    y = 1.0 + CAP
    for _ in range(abs(ulps)):
        y = float(np.nextafter(y, math.copysign(math.inf, ulps)))
    A = ak.PointSet([[1.0]], 12.0, 0.5)
    B = ak.PointSet([[y]], 12.0, 0.5)
    got = pointset._partner_dist(A, B, CAP).tolist()
    assert got == oracles.brute_partner_dist(A.points, B.points, CAP)
    assert math.isinf(got[0]) == ((y - 1.0) ** 2 > CAP * CAP)
    assert assert_matches_brute(A, B, 0.125) == pytest.approx(CAP, abs=1e-15)


@pytest.mark.parametrize("dim", [1, 2])
def test_metric_d_matches_brute_on_unequal_shifts(dim):
    # translates by different vectors, and a translate against an
    # untranslated set
    rng = np.random.Generator(np.random.Philox(key=11))
    base = lattice_points(dim, 11.5)
    A = ak.PointSet(base + rng.uniform(-0.15, 0.15, base.shape), 12.0, 0.35)
    B = ak.PointSet(base + rng.uniform(-0.25, 0.25, base.shape), 12.0, 0.35)
    t1 = np.full(dim, 0.75)
    t2 = np.full(dim, -0.5)
    assert_matches_brute(ak.translate(A, t1), ak.translate(B, t2), 0.125)
    assert_matches_brute(ak.translate(A, t1), B, 0.125)
    assert_matches_brute(A, ak.translate(B, t1), 0.125)


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


@pytest.mark.parametrize("search_radius", [0.0, -1.0, math.nan, math.inf])
def test_relative_density_gap_rejects_bad_search_radius(search_radius):
    with pytest.raises(ak.InvalidArgument, match="positive and finite"):
        ak.relative_density_gap(np.zeros((1, 1)), search_radius)


def test_relative_density_gap_2d_probe_grid():
    cand = np.array([[0.0, 0.0]])
    got = ak.relative_density_gap(cand, 4.0)
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


def test_read_rejects_non_utf8_rows_and_unshapeable_dims(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"# dim=1\n# r=1\n# window=5\n\xff\n")
    with pytest.raises(ak.InvalidArgument, match="line 4: non-numeric"):
        ak.read_pointset_csv(str(path))
    # no rows, so only the header bounds the dim numpy must shape
    path.write_text("# dim=1e300\n# r=1\n# window=5\n")
    with pytest.raises(ak.InvalidArgument, match="positive integer"):
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


# ---------------------------------------------------------------------------
# one closed-ball rule, one window-horizon check


@pytest.mark.parametrize("dim", [1, 2])
def test_every_estimate_reads_the_same_closed_ball(dim):
    # one point just past R, inside the rule's relative slack: every
    # finite-R estimate must count it, since gamma({0}) is the density
    R = 10.0
    near, far = np.zeros(dim), np.zeros(dim)
    near[0], far[-1] = 3.0, R * (1.0 + 5e-10)
    S = ak.PointSet([np.zeros(dim), near, far], R, 1.0)
    vol = ak.ball_volume(dim, R)
    counts = [
        ak.upper_density(S, [R]).value * vol,
        ak.finite_autocorrelation(S, R).mass_at_zero() * vol,
        abs(ak.fourier_sum(S, R, np.zeros(dim))),
        len(ak.PairDifferences(S, R, 2.0 * R).P),
        len(S.ball(R)),
    ]
    assert counts == pytest.approx([3.0] * len(counts), rel=1e-12)


W = 10.0


def bump(radius: float, center: float = 0.0) -> ak.TestFunction:
    return ak.TestFunction("triangle_bump", radius, 1.0 / radius, [center])


def lattice_sampler_1d() -> ak.ProcessSampler:
    return ak.ProcessSampler("randomized_lattice", 0, W, basis=[[1.0]])


# each case reaches need = (its window) * s; the window is W unless noted
HORIZON_CASES = {
    "PointSet": (ak.RegionOutsideWindow,
                 lambda s: ak.PointSet([[0.0], [W * s]], W, 1.0)),
    "count_in_region": (ak.RegionOutsideWindow, lambda s: ak.count_in_region(
        z_lattice(W), ak.RegionSpec.ball([0.0], W * s))),
    "translate": (ak.TranslationExceedsWindow,
                  lambda s: ak.translate(z_lattice(W), [W * s])),
    "metric_d": (ak.WindowTooSmall, lambda s: ak.metric_d(
        z_lattice(W), z_lattice(W), 1.0 / (W * s))),
    "upper_density": (ak.RadiusExceedsWindow,
                      lambda s: ak.upper_density(z_lattice(W), [W * s])),
    # the window is the probed ball
    "relative_density_gap": (ak.RegionOutsideWindow,
                             lambda s: ak.relative_density_gap(
                                 [[0.0], [W * s]], W)),
    "finite_autocorrelation": (ak.RadiusExceedsWindow,
                               lambda s: ak.finite_autocorrelation(
                                   z_lattice(W), W * s)),
    "PairDifferences": (ak.RadiusExceedsWindow, lambda s: ak.PairDifferences(
        z_lattice(W), W * s, 2.0)),
    "birkhoff_average_hf": (ak.WindowTooSmall, lambda s: ak.birkhoff_average_hf(
        z_lattice(W), bump(1.0), bump(1.0), W * s - 2.0, quad_points=16)),
    "fourier_sum": (ak.RadiusExceedsWindow,
                    lambda s: ak.fourier_sum(z_lattice(W), W * s, [0.0])),
    "periodogram": (ak.RadiusExceedsWindow, lambda s: ak.periodogram(
        z_lattice(W), W * s, ak.KGrid([0.0], [0.2], 0.02))),
    "atom_mass": (ak.RadiusExceedsWindow, lambda s: ak.atom_mass(
        z_lattice(W), [0.0], [5.0, W * s])),
    "detect_bragg_peaks": (ak.RadiusExceedsWindow,
                           lambda s: ak.detect_bragg_peaks(
                               z_lattice(W), [5.0, W * s],
                               ak.KGrid([-0.1], [0.1], 0.02))),
    # the window is the smallest mismatch window, W - |t| - eps
    "criterion_almost_periods": (ak.TranslationExceedsWindow,
                                 lambda s: ak.criterion_almost_periods(
                                     z_lattice(W), 0.1, [[1.0]],
                                     [2.0, (W - 1.0 - 0.1) * s],
                                     gap_bound=20.0)),
    # the window is the smallest evaluation window, W - r/2
    "dbar": (ak.RadiusExceedsWindow, lambda s: ak.dbar(
        z_lattice(W), z_lattice(W), [(W - 0.5) * s])),
    "dbar_c": (ak.WindowTooSmall, lambda s: ak.dbar_c(
        z_lattice(W), z_lattice(W), W * s - 2.0, quad_points=4, tol=0.5)),
    "mu_conv_f": (ak.OutsideWindow, lambda s: ak.mu_conv_f(
        z_lattice(W), bump(1.0), [W * s - 1.0])),
    "dbar_f": (ak.RadiusExceedsWindow, lambda s: ak.dbar_f(
        z_lattice(W), z_lattice(W), bump(0.1), [W * s - 0.1],
        quad_points=64)),
    "dtilde": (ak.RadiusExceedsWindow,
               lambda s: ak.dtilde(z_lattice(W), z_lattice(W), [W * s])),
    "palm_intensity": (ak.WindowTooSmall, lambda s: ak.palm_intensity(
        lattice_sampler_1d(), ak.RegionSpec.ball([0.0], (W * s - 1.0) / 2.0),
        n_samples=2)),
    "event_almost_periods": (ak.WindowTooSmall,
                             lambda s: ak.event_almost_periods(
                                 lattice_sampler_1d(), W * s - 1.0, 0.1,
                                 [[1.0]], 2, gap_bound=2.0)),
}


@pytest.mark.parametrize("case", sorted(HORIZON_CASES))
def test_window_horizon_is_one_closed_ball_check(case):
    error, reach = HORIZON_CASES[case]
    with pytest.raises(error):
        reach(1.0 + 2e-9)
    reach(1.0 + 5e-10)


def test_ball_rule_is_stated_once():
    # the rule and the horizon check live in pointset; no module restates them
    restated = ("window_radius * (1.0 + 1e-9)", "min_w * (1.0 + 1e-9)",
                "RegionSpec.ball(np.zeros(")
    for path in sorted(pathlib.Path(ak.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not [s for s in restated if s in text], path.name
        if path.name != "pointset.py":
            assert "_REL_SLACK" not in text, path.name
