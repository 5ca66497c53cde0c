import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import apkit as ak
import oracles
from apkit import gridindex, pointset, pseudometrics


RADII = [40.0, 60.0, 80.0]


def z_lattice(window: float = 131.0) -> ak.PointSet:
    return ak.make_lattice([[1.0]], window)


def shifted_lattice(s: float) -> ak.PointSet:
    return ak.translate(ak.make_lattice([[1.0]], 131.0 + s), [s])


# ---------------------------------------------------------------------------
# mismatch sets


def test_asymmetric_mismatch_counts_unmatched_points():
    Z = z_lattice()
    Zs = shifted_lattice(0.1)
    assert len(ak.asymmetric_mismatch(Z, Zs, 0.05)) > 0
    assert len(ak.asymmetric_mismatch(Z, Zs, 0.2)) == 0


def int_points(ints, dim: int) -> np.ndarray:
    """Distinct integer points: n itself in 1D, (n // 8, n % 8) in 2D."""
    ints = np.array(sorted(ints))
    if dim == 1:
        return ints.reshape(-1, 1).astype(float)
    return np.stack([ints // 8, ints % 8], axis=1).astype(float)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=2, max_size=15, unique=True),
       st.lists(st.integers(-30, 30), min_size=2, max_size=15, unique=True),
       st.floats(0.05, 2.0), st.sampled_from([1, 2]))
def test_mismatch_matches_brute(a_ints, b_ints, a, dim):
    A = ak.PointSet(int_points(a_ints, dim), 35.0, 0.9)
    B = ak.PointSet(int_points(b_ints, dim), 35.0, 0.9)
    got = ak.asymmetric_mismatch(A, B, a)
    want = oracles.brute_mismatch_points(A.points, B.points, a, 35.0 - a)
    assert np.array_equal(got.points, want)


def test_mismatch_window_too_small():
    A = ak.PointSet([[0.0]], 1.0, 1.0)
    with pytest.raises(ak.WindowTooSmall):
        ak.asymmetric_mismatch(A, A, 2.0)


# ---------------------------------------------------------------------------
# dbar


def test_dbar_shifted_lattice_tracks_shift():
    Z = z_lattice()
    for s in (0.2, 0.1, 0.05):
        assert ak.dbar(Z, shifted_lattice(s), RADII) == pytest.approx(
            s, abs=1e-12)


def test_dbar_identical_reports_tol_floor():
    Z = z_lattice()
    assert ak.dbar(Z, Z, RADII) == pytest.approx(1e-3)


def test_dbar_caps_at_half_hardcore():
    Z = z_lattice()
    Zs = shifted_lattice(0.49)
    assert ak.dbar(Z, Zs, RADII) <= 0.5 + 1e-9


def test_dbar_symmetry():
    Z = z_lattice()
    Zs = shifted_lattice(0.15)
    assert ak.dbar(Z, Zs, RADII) == pytest.approx(ak.dbar(Zs, Z, RADII))


def assert_density_predicate_flips(A, B, radii, tol, cap, value):
    # dbar's defining predicate fails below the value and holds above it,
    # on a grid of [tol, cap] and a few scales near the value, each at
    # least 1e-9 away from it
    w = min(A.window_radius, B.window_radius)
    near = value + np.array([-1e-4, -2e-9, 2e-9, 1e-4])
    for a in np.concatenate([np.linspace(tol, cap, 17), near]):
        if tol <= a <= cap and abs(a - value) >= 1e-9:
            assert oracles.brute_dbar_ok(A.points, B.points, w, radii,
                                         a) == (a > value)


@pytest.mark.parametrize("dim, window", [(1, 40.0), (2, 12.0)])
def test_dbar_matches_brute_bisection(dim, window):
    rng = np.random.default_rng(dim)
    base = ak.make_lattice(np.eye(dim), window + 1.0).points
    radii = [0.5 * window, 0.7 * window, window - 1.0]
    got = []
    # identical sets reach the tol floor, a half-spacing shift the r/2 cap,
    # and moving a small share of the points lands in between
    for moved, shift in ((0.0, 0.0), (1.0, 0.5), (0.3, 0.1), (0.05, 0.3),
                         (0.03, 0.45)):
        jitter = rng.uniform(-0.05, 0.05, size=base.shape)
        offs = np.where(rng.random((len(base), 1)) < moved, shift, 0.0)
        sets = []
        for pts in (base + jitter, base + jitter + offs):
            pts = pts[np.sum(pts ** 2, axis=1) <= window * window]
            sets.append(ak.PointSet(pts, window, 0.3))
        A, B = sets
        value = ak.dbar(A, B, radii)
        assert value == oracles.brute_dbar(A.points, B.points, 0.3, radii,
                                           1e-3 * 0.3)
        assert_density_predicate_flips(A, B, radii, 1e-3 * 0.3, 0.15, value)
        got.append(value)
    assert got[0] == pytest.approx(3e-4) and got[1] == 0.15
    assert all(3e-4 < v < 0.15 for v in got[2:])


def test_dbar_tol_out_of_range_is_invalid_argument():
    Z = z_lattice()
    for tol in (0.5, 0.9, 0.0):
        with pytest.raises(ak.InvalidArgument):
            ak.dbar(Z, Z, RADII, tol)


def test_dbar_unshared_hardcore_uses_the_smaller_radius():
    Z = z_lattice()
    half = ak.PointSet(Z.points, Z.window_radius, 0.5, validate=False)
    Zs = shifted_lattice(0.1)
    Zs_half = ak.PointSet(Zs.points, Zs.window_radius, 0.5, validate=False)
    # identical points report the tol floor 1e-3 * min(r, r') on either side
    assert ak.dbar(Z, half, RADII) == ak.dbar(half, Z, RADII) == 5e-4
    assert ak.dbar(Zs, half, RADII) == ak.dbar(Zs_half, half, RADII)


def test_dbar_dimension_mismatch():
    Z = z_lattice()
    S2 = ak.make_lattice([[1.0, 0.0], [0.0, 1.0]], 30.0)
    with pytest.raises(ak.DimensionMismatch):
        ak.dbar(Z, S2, [10.0])


# ---------------------------------------------------------------------------
# dbar_c


def test_dbar_c_shifted_lattice_tracks_shift():
    Z = z_lattice()
    for s in (0.2, 0.1):
        rep = ak.dbar_c(Z, shifted_lattice(s), 24.0)
        assert rep.value == pytest.approx(s, abs=1e-12)
        assert rep.converged


def test_dbar_c_report_fields():
    rep = ak.dbar_c(z_lattice(), shifted_lattice(0.1), 24.0)
    doc = rep.to_json()
    assert set(doc) == {"value", "radii", "per_radius", "converged", "pitch"}
    assert len(doc["radii"]) == len(doc["per_radius"])


def test_dbar_c_tol_out_of_range_is_invalid_argument():
    Z = z_lattice()
    for tol in (0.0, -0.1, 0.75):
        with pytest.raises(ak.InvalidArgument):
            ak.dbar_c(Z, Z, 24.0, tol=tol)


def test_dbar_c_window_too_small():
    Z = ak.make_lattice([[1.0]], 50.0)
    with pytest.raises(ak.WindowTooSmall):
        ak.dbar_c(Z, Z, 24.0)


def test_dbar_c_2d_shifted_lattice_tracks_shift():
    # every translate of the pair Z^2, Z^2 - s is covered exactly at |s|
    s = np.array([0.1, 0.05])
    basis = [[1.0, 0.0], [0.0, 1.0]]
    R, tol = 3.0, 0.1
    W = R + 1.0 / tol + 0.5
    Z = ak.make_lattice(basis, W)
    Zs = ak.translate(ak.make_lattice(basis, W + float(np.linalg.norm(s))), s)
    rep = ak.dbar_c(Z, Zs, R, quad_points=8, tol=tol)
    shift = float(np.linalg.norm(s))
    assert rep.per_radius == pytest.approx(shift, abs=1e-12)
    assert rep.converged
    assert rep.pitch == pytest.approx(2.0 * R / 8)


def jittered_lattice(dim: int, reach: float, window: float, jitter: float,
                     rng) -> ak.PointSet:
    k = int(reach) + 1
    axes = [np.arange(-k, k + 1, dtype=float)] * dim
    base = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, dim)
    base = base[np.sqrt(np.sum(base ** 2, axis=1)) <= reach]
    return ak.PointSet(base + rng.uniform(-jitter, jitter, base.shape),
                       window, 0.35)


def assert_dbar_c_matches_brute(A, B, R, quad_points, tol):
    # per_radius equals the running means of the brute-force metric at each
    # node, with partner distances read on the untranslated sets, and each
    # node's value is the covering threshold of the translates: the
    # predicate fails below it and holds above it
    rep = ak.dbar_c(A, B, R, quad_points=quad_points, tol=tol)
    nodes, _ = pseudometrics._midpoint_grid(R, A.dim, quad_points)
    vals = oracles.brute_dbar_c_nodes(A.points, A.window_radius, B.points,
                                      B.window_radius, nodes, tol)
    assert len(set(vals.tolist())) > 1
    norms = np.sqrt(np.sum(nodes ** 2, axis=1))
    want = [float(np.mean(vals[norms <= rr])) for rr in rep.radius_schedule]
    assert rep.per_radius.tolist() == want
    cap = 1.0 / np.sqrt(2.0)
    for t, value in zip(nodes, vals):
        At, Bt = ak.translate(A, t), ak.translate(B, t)
        scales = np.concatenate([np.linspace(tol, cap, 17),
                                 value + np.array([-1e-6, -2e-9, 2e-9, 1e-6])])
        scales = scales[(scales >= tol) & (scales <= cap)
                        & (np.abs(scales - value) >= 1e-9)]
        assert oracles.brute_covers(At.points, At.window_radius, Bt.points,
                                    Bt.window_radius, scales) == (
            scales > value).tolist()


@pytest.mark.parametrize("dim, quad_points", [(1, 9), (2, 5)])
@pytest.mark.parametrize("pre_shift", [None, 0.37])
def test_dbar_c_matches_brute_metric_d_at_every_node(dim, quad_points,
                                                     pre_shift):
    # with pre_shift the inputs are themselves translates, so every node
    # compares translates of translates
    rng = np.random.Generator(np.random.Philox(key=dim))
    R, tol = 1.5, 0.125
    W = R + 1.0 / tol + 1.0
    A = jittered_lattice(dim, W - 0.5, W, 0.15, rng)
    B = jittered_lattice(dim, W - 0.5, W, 0.3, rng)
    if pre_shift is not None:
        s = np.full(dim, pre_shift / np.sqrt(dim))
        A, B = ak.translate(A, s), ak.translate(B, s)
    assert_dbar_c_matches_brute(A, B, R, quad_points, tol)


@pytest.mark.parametrize("dim, quad_points", [(1, 9), (2, 5)])
def test_dbar_c_reads_the_other_window_at_each_node(dim, quad_points):
    # at tol 0.5 the second set's window W' shrinks to 1/tol at the rim of
    # the node ball; the second set lacks the first set's point near e_1,
    # which at a node t breaks scales up to (W' - |t|) - |x - t| where that
    # is below 1/|x - t|
    rng = np.random.Generator(np.random.Philox(key=dim + 10))
    R, tol = 1.0, 0.5
    A = jittered_lattice(dim, 5.5, 6.0, 0.1, rng)
    W2 = R + 1.0 / tol
    e1 = np.zeros(dim)
    e1[0] = 1.0
    lone = np.sqrt(np.sum((A.points - e1) ** 2, axis=1)) < 0.5
    B = ak.PointSet(A.points[(A.norms() <= W2 - 0.5) & ~lone], W2, 0.35)
    assert_dbar_c_matches_brute(A, B, R, quad_points, tol)
    assert_dbar_c_matches_brute(B, A, R, quad_points, tol)


@pytest.mark.parametrize("block", [None, 1000, 7])
def test_dbar_c_2d_node_blocks_match_brute(monkeypatch, block):
    # nodes x points spans several node blocks at every block size, down
    # to one node per block
    if block is not None:
        monkeypatch.setattr(gridindex, "_PAIR_BLOCK", block)
    rng = np.random.Generator(np.random.Philox(key=31))
    R, tol, quad_points = 1.5, 0.25, 28
    W = R + 1.0 / tol + 1.0
    A = jittered_lattice(2, W - 0.5, W, 0.15, rng)
    B = jittered_lattice(2, W - 0.8, W, 0.3, rng)
    nodes, _ = pseudometrics._midpoint_grid(R, 2, quad_points)
    assert len(gridindex._row_blocks(len(nodes), len(A))) > 1
    vals = oracles.brute_dbar_c_nodes(A.points, A.window_radius, B.points,
                                      B.window_radius, nodes, tol)
    assert len(set(vals.tolist())) > 1
    tnorm = np.array([float(np.linalg.norm(t)) for t in nodes])
    got = pointset._covering_scale(A, B, nodes, tnorm, tol)
    assert np.array_equal(got, vals)
    rep = ak.dbar_c(A, B, R, quad_points=quad_points, tol=tol)
    norms = np.sqrt(np.sum(nodes ** 2, axis=1))
    assert rep.per_radius.tolist() == [float(np.mean(vals[norms <= rr]))
                                       for rr in rep.radius_schedule]


def test_covering_scale_leaves_out_points_the_translate_clips():
    # S's window (10) is smaller than S2's (20). The point -9.5 of S has no
    # partner in S2; at t = 2 and t = 1 it lies beyond S - t's window
    # (|x - t| = 11.5 > 8 and 10.5 > 9) but inside the other window's reach
    # with 1/n > tol, so only the clip keeps it from setting the scale
    tol = 0.01
    S = ak.PointSet([[-9.5], [-5.0], [0.0], [3.0], [7.0]], 10.0, 1.0)
    S2 = ak.PointSet([[-5.0], [0.0], [3.0], [7.0]], 20.0, 1.0)
    nodes = np.array([[2.0], [1.0], [-2.0], [0.0]])
    tnorm = np.abs(nodes[:, 0])
    want = oracles.brute_dbar_c_nodes(S.points, S.window_radius, S2.points,
                                      S2.window_radius, nodes, tol)
    got = pointset._covering_scale(S, S2, nodes, tnorm, tol)
    assert np.array_equal(got, want)
    assert got[:2].tolist() == [tol, tol]
    assert tol < 1.0 / 11.5 and tol < 1.0 / 10.5
    # where the point is kept, it sets the scale at 1/n
    assert got[2:].tolist() == [1.0 / 7.5, 1.0 / 9.5]


# ---------------------------------------------------------------------------
# dbar_f and mu_conv_f


def narrow_bump() -> ak.TestFunction:
    return ak.TestFunction("triangle_bump", 0.19, 0.5, [0.0])


def test_mu_conv_f_matches_brute():
    Z = z_lattice()
    f = narrow_bump()
    for u in (0.0, 0.35, 7.08):
        got = ak.mu_conv_f(Z, f, [u])
        want = oracles.brute_mu_conv_f(Z.points, "triangle_bump", 0.19, 0.5,
                                       [u])
        assert got == pytest.approx(want, abs=1e-12)


def test_mu_conv_f_outside_window_raises():
    Z = z_lattice(20.0)
    with pytest.raises(ak.OutsideWindow):
        ak.mu_conv_f(Z, narrow_bump(), [25.0])


def test_dbar_f_zero_for_identical():
    Z = z_lattice()
    assert ak.dbar_f(Z, Z, narrow_bump(), RADII).value == 0.0


def test_dbar_f_tracks_small_shifts():
    Z = z_lattice()
    vals = [ak.dbar_f(Z, shifted_lattice(s), narrow_bump(), RADII).value
            for s in (0.2, 0.1, 0.05, 0.025)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 0.05


def test_dbar_f_rejects_wide_support():
    Z = z_lattice()
    wide = ak.TestFunction("triangle_bump", 0.5, 1.0, [0.0])
    with pytest.raises(ak.SupportTooLarge):
        ak.dbar_f(Z, Z, wide, RADII)


# ---------------------------------------------------------------------------
# dtilde


def test_dtilde_zero_for_identical():
    Z = z_lattice()
    assert ak.dtilde(Z, Z, RADII) == 0.0


def test_dtilde_counts_union_for_true_offset():
    # every point of both sets is unmatched under a genuine shift
    Z = z_lattice()
    got = ak.dtilde(Z, shifted_lattice(0.1), RADII)
    assert got == pytest.approx(2.0, abs=0.05)


def test_dtilde_ignores_sub_tolerance_jitter():
    Z = z_lattice()
    jittered = ak.PointSet(Z.points + 1e-14, Z.window_radius,
                           Z.hardcore_radius, validate=False)
    assert ak.dtilde(Z, jittered, RADII) == 0.0


# ---------------------------------------------------------------------------
# reports


def test_report_value_is_tail_max():
    rep = ak.dbar_f(z_lattice(), shifted_lattice(0.05), narrow_bump(), RADII)
    tail = rep.per_radius[-2:]
    assert rep.value == pytest.approx(float(np.max(tail)))
