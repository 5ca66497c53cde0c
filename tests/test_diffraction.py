import math

import numpy as np
import pytest

import apkit as ak
import oracles
from apkit import diffraction
from apkit.diffraction import _fourier_sums, _grid_fourier_sums
from test_generators import octagonal_config


def z_lattice(window: float) -> ak.PointSet:
    return ak.make_lattice([[1.0]], window)


# ---------------------------------------------------------------------------
# frequency grids


def test_kgrid_axis_and_shape():
    g = ak.KGrid([-1.0], [1.0], 0.5)
    assert np.allclose(g.axis(0), [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert g.shape() == (5,)
    assert g.nodes().shape == (5, 1)


def test_kgrid_2d_nodes_row_major():
    g = ak.KGrid([0.0, 0.0], [1.0, 2.0], 1.0)
    nodes = g.nodes()
    assert g.shape() == (2, 3)
    assert nodes.shape == (6, 2)
    assert np.allclose(nodes[0], [0.0, 0.0])
    assert np.allclose(nodes[1], [0.0, 1.0])
    assert np.allclose(nodes[3], [1.0, 0.0])


def test_kgrid_json_round_trip():
    g = ak.KGrid([-2.0, 0.5], [2.0, 3.5], 0.125)
    back = ak.KGrid.from_json(g.to_json())
    assert np.array_equal(back.lo, g.lo)
    assert np.array_equal(back.hi, g.hi)
    assert back.step == g.step


def test_kgrid_rejects_bad_ranges():
    with pytest.raises(ValueError):
        ak.KGrid([0.0], [1.0], 0.0)
    with pytest.raises(ValueError):
        ak.KGrid([1.0], [0.0], 0.5)


@pytest.mark.parametrize("lo, hi, step", [
    ([-1e6], [1e6], 1e-6),
    ([-10.0, -10.0], [10.0, 10.0], 1e-3),
    ([-1e308], [1e308], 1e-300),
], ids=["1d", "2d_product", "overflow"])
def test_kgrid_refuses_more_nodes_than_the_cap(lo, hi, step):
    with pytest.raises(ak.InvalidArgument, match="nodes"):
        ak.KGrid(lo, hi, step)


def test_kgrid_cap_counts_nodes_like_axis():
    g = ak.KGrid([0.0], [diffraction._MAX_GRID_NODES - 1.0], 1.0)
    assert g.shape() == (diffraction._MAX_GRID_NODES,)
    with pytest.raises(ak.InvalidArgument):
        ak.KGrid([0.0], [float(diffraction._MAX_GRID_NODES)], 1.0)


# ---------------------------------------------------------------------------
# Fourier sums


def test_lattice_fourier_sum_counts_points_at_zero():
    S = z_lattice(100.0)
    assert ak.fourier_sum(S, 100.0, [0.0]) == pytest.approx(201.0 + 0.0j)


def test_lattice_fourier_sum_half_frequency_alternates():
    S = z_lattice(100.0)
    # alternating sum over 201 integers
    assert abs(ak.fourier_sum(S, 100.0, [0.5])) == pytest.approx(1.0)


@pytest.mark.parametrize("k", [0.1, 0.25, 0.33, 0.4999])
def test_lattice_fourier_sum_matches_dirichlet_kernel(k):
    S = z_lattice(60.0)
    got = abs(ak.fourier_sum(S, 60.0, [k]))
    assert got == pytest.approx(oracles.dirichlet_magnitude(60, k), rel=1e-10)


def test_fourier_sum_matches_brute_on_random_points():
    rng = np.random.Generator(np.random.Philox(key=17))
    pts = rng.uniform(-8, 8, size=(30, 2))
    S = ak.PointSet(pts, 12.0, 0.01, validate=False)
    for k in ([0.3, -0.7], [1.2, 0.4]):
        got = ak.fourier_sum(S, 12.0, k)
        want = oracles.brute_fourier_sum(pts, k)
        assert got == pytest.approx(want, rel=1e-12)


def test_fourier_sum_restricts_to_radius():
    S = z_lattice(100.0)
    assert ak.fourier_sum(S, 10.0, [0.0]) == pytest.approx(21.0 + 0.0j)


@pytest.mark.parametrize("R", [-1.0, math.nan])
def test_fourier_sum_rejects_a_negative_or_nan_radius(R):
    with pytest.raises(ak.InvalidArgument):
        ak.fourier_sum(z_lattice(10.0), R, [0.0])


def test_fourier_sum_dimension_mismatch():
    S = z_lattice(10.0)
    with pytest.raises(ak.DimensionMismatch):
        ak.fourier_sum(S, 10.0, [0.0, 0.0])


# ---------------------------------------------------------------------------
# grid Fourier sums, factorized over the axes


def brute_grid_sums(P, g: ak.KGrid) -> np.ndarray:
    return np.array([oracles.brute_fourier_sum(P, k) for k in g.nodes()])


# shapes (17, 6), (1, 9), (11, 8, 1) and (5, 1, 7): no two axes alike, and
# single-node axes first, last and in the middle
ORACLE_GRIDS = [
    ([-0.7, 0.1], [0.9, 0.6], 0.1),
    ([0.3, -0.4], [0.3, 0.4], 0.1),
    ([-0.5, -0.3, 0.2], [0.5, 0.4, 0.2], 0.1),
    ([-0.4, 0.25, -0.3], [0.4, 0.25, 0.3], 0.2),
]


@pytest.mark.parametrize("lo,hi,step", ORACLE_GRIDS)
@pytest.mark.parametrize("block", [None, 150])
def test_grid_fourier_sums_match_brute(monkeypatch, lo, hi, step, block):
    g = ak.KGrid(lo, hi, step)
    rng = np.random.Generator(np.random.Philox(key=31))
    P = rng.uniform(-9.0, 9.0, size=(40, g.dim))
    if block is not None:
        # blocks of a few axis-0 rows, the last one partial
        monkeypatch.setattr(diffraction, "_EXP_BLOCK", block)
    got = _grid_fourier_sums(P, g)
    assert got.shape == (int(np.prod(g.shape())),)
    assert np.max(np.abs(got - brute_grid_sums(P, g))) <= 1e-12 * len(P)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_fourier_sums_empty_set_is_zero(dim):
    g = ak.KGrid([-0.5] * dim, [0.5] * dim, 0.25)
    got = _grid_fourier_sums(np.zeros((0, dim)), g)
    assert got.shape == (5 ** dim,)
    assert np.all(got == 0.0)


@pytest.mark.parametrize("n", [60, 1001])
@pytest.mark.parametrize("block", [None, 5000])
def test_grid_fourier_sums_1d_equal_fourier_sums_bytewise(monkeypatch, n,
                                                          block):
    rng = np.random.Generator(np.random.Philox(key=37))
    P = rng.uniform(-n / 2.0, n / 2.0, size=(n, 1))
    g = ak.KGrid([-1.5], [1.5], 1.0 / 256.0)
    if block is not None:
        monkeypatch.setattr(diffraction, "_EXP_BLOCK", block)
    got = _grid_fourier_sums(P, g)
    assert got.tobytes() == _fourier_sums(P, g.nodes()).tobytes()


# ---------------------------------------------------------------------------
# periodogram


def test_lattice_periodogram_integer_and_off_integer_values():
    R = 500.0
    S = z_lattice(R)
    g = ak.KGrid([-2.0], [2.0], 0.25)
    with pytest.warns(UserWarning, match="step"):
        per = ak.periodogram(S, R, g)
    card = 1001.0
    vol = 2.0 * R
    vals = dict(zip(np.round(g.axis(0), 9), per.values))
    for m in (-2.0, -1.0, 0.0, 1.0, 2.0):
        assert vals[m] == pytest.approx(card * card / vol, rel=1e-12)
    off = [v for k, v in vals.items() if abs(k - round(k)) > 1e-9]
    assert max(off) <= 1.0 / (2.0 * R) * (1.0 + 1e-9)


def test_periodogram_symmetric_under_negation():
    rng = np.random.Generator(np.random.Philox(key=23))
    pts = np.sort(rng.uniform(-40, 40, size=60)).reshape(-1, 1)
    S = ak.PointSet(pts, 40.0, 1e-4, validate=False)
    g = ak.KGrid([-1.0], [1.0], 1.0 / 256.0)
    per = ak.periodogram(S, 40.0, g)
    assert np.allclose(per.values, per.values[::-1], rtol=1e-9)


def test_periodogram_atom_mass_normalization():
    R = 200.0
    S = z_lattice(R)
    g = ak.KGrid([0.0], [1.0], 1.0 / 1024.0)
    per_v = ak.periodogram(S, R, g)
    per_m = ak.periodogram(S, R, g, normalization="atom-mass")
    vol = 2.0 * R
    assert np.allclose(per_m.values, per_v.values / vol, rtol=1e-12)


def test_periodogram_empty_set_is_zero():
    S = ak.PointSet(np.zeros((0, 1)), 50.0, 1.0)
    g = ak.KGrid([-1.0], [1.0], 1.0 / 250.0)
    per = ak.periodogram(S, 50.0, g)
    assert np.all(per.values == 0.0)


def test_periodogram_rejects_unknown_normalization():
    S = z_lattice(10.0)
    g = ak.KGrid([0.0], [0.5], 1.0 / 64.0)
    with pytest.raises(ValueError):
        ak.periodogram(S, 10.0, g, normalization="bogus")


def test_periodogram_radius_beyond_window():
    S = z_lattice(10.0)
    g = ak.KGrid([0.0], [0.5], 1.0 / 256.0)
    with pytest.raises(ak.RadiusExceedsWindow):
        ak.periodogram(S, 30.0, g)


def test_periodogram_csv_has_header_and_rows(tmp_path):
    S = z_lattice(20.0)
    g = ak.KGrid([0.0], [0.5], 0.125)
    with pytest.warns(UserWarning):
        per = ak.periodogram(S, 20.0, g)
    path = str(tmp_path / "per.csv")
    ak.write_periodogram_csv(per, path)
    lines = open(path).read().strip().split("\n")
    assert lines[0].startswith("# R=")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5
    got = np.array([[float(a), float(b)] for a, b in rows])
    assert np.allclose(got[:, 0], g.axis(0))
    assert np.allclose(got[:, 1], per.values)


def test_z2_periodogram_integer_and_off_integer_values():
    R = 40.0
    S = ak.make_lattice([[1.0, 0.0], [0.0, 1.0]], R)
    g = ak.KGrid([-2.0, -1.5], [2.0, 1.0], 0.25)
    with pytest.warns(UserWarning, match="step"):
        per = ak.periodogram(S, R, g)
    card = oracles.gauss_disc_count(R)
    vol = math.pi * R * R
    rows = 2 * int(R) + 1
    for k, v in zip(g.nodes(), per.values):
        frac = np.abs(k - np.round(k)) > 1e-9
        if not frac.any():
            assert v == pytest.approx(card * card / vol, rel=1e-12)
            continue
        # each line of the disc along a non-integer axis sums to at most
        # 1/|sin(pi k_d)| in modulus, and the disc has 2R + 1 such lines
        line = 1.0 / np.max(np.abs(np.sin(np.pi * k[frac])))
        assert v <= (rows * line) ** 2 / vol * (1.0 + 1e-9)


@pytest.mark.filterwarnings("ignore:no E-basis vector")
def test_octagonal_bragg_peaks_are_eightfold():
    # an off-centre offset, so the set itself is not 8-fold symmetric; at
    # R = 16 its finite-R peak shifts reach 1.2e-3
    R = 20.0
    S = ak.cut_and_project(octagonal_config(R, (0.1, 0.2, 0.3, 0.4)))
    g = ak.KGrid([-0.75, -0.75], [0.75, 0.75], 1.0 / (4.0 * R))
    peaks = ak.detect_bragg_peaks(S, [14.0, 17.0, R], g)
    locs = np.array([p.location for p in peaks])
    radius = np.sqrt(np.sum(locs ** 2, axis=1))
    assert np.count_nonzero(radius < g.step) == 1
    assert np.count_nonzero(np.abs(radius - 1.0 / math.sqrt(2.0)) < g.step) == 8
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    rotated = locs @ np.array([[c, s], [-s, c]])
    dist = np.sqrt(np.sum((rotated[:, None, :] - locs[None, :, :]) ** 2,
                          axis=2)).min(axis=1)
    assert dist.max() <= 1e-3


# ---------------------------------------------------------------------------
# atom mass estimates


def test_atom_mass_lattice_frequencies():
    S = z_lattice(600.0)
    radii = np.linspace(300.0, 600.0, 7)
    for k in (1.0, 2.0):
        mass, spread = ak.atom_mass(S, [k], radii)
        assert mass == pytest.approx(1.0, rel=0.01)
        assert spread < 0.01
    mass_half, _ = ak.atom_mass(S, [0.5], radii)
    assert mass_half < 1e-5


def test_atom_mass_off_peak_stability_on_three_radii():
    # |F_R(1/2)| = 1 on Z, so m_R = 1/(2R)^2 falls along the schedule; the
    # last two of three radii give 1 - (3/4)^2, where one value gave 0
    mass, stability = ak.atom_mass(z_lattice(200.0), [0.5],
                                   [100.0, 150.0, 200.0])
    assert mass == pytest.approx((1 / 300 ** 2 + 1 / 400 ** 2) / 2)
    assert stability == pytest.approx(7 / 16)


def test_atom_mass_single_point():
    S = ak.PointSet(np.array([[0.0]]), 5.0, 1.0)
    mass, spread = ak.atom_mass(S, [0.7], [2.0, 4.0])
    # |F|^2 = 1 for a single point, so the series is 1/(2R)^2
    assert mass == pytest.approx(1.0 / 64.0)


# ---------------------------------------------------------------------------
# peak detection


def test_lattice_bragg_peaks_found_at_integers():
    S = z_lattice(300.0)
    radii = [200.0, 250.0, 300.0]
    g = ak.KGrid([-2.2], [2.2], 1.0 / 1200.0)
    peaks = ak.detect_bragg_peaks(S, radii, g)
    locs = sorted(float(p.location[0]) for p in peaks)
    assert np.allclose(locs, [-2.0, -1.0, 0.0, 1.0, 2.0], atol=1e-4)
    for p in peaks:
        assert p.mass == pytest.approx(1.0, rel=0.01)
        assert p.stability < 0.01


@pytest.mark.filterwarnings("ignore:no E-basis vector")
def test_octagonal_peak_stability_is_measured():
    # three radii: the stability used to be the spread of one value, 0.0
    S = ak.cut_and_project(octagonal_config(16.0))
    g = ak.KGrid([-0.75, -0.75], [0.75, 0.75], 1.0 / 64.0)
    peaks = ak.detect_bragg_peaks(S, [10.0, 13.0, 16.0], g)
    assert len(peaks) == 9
    for p in peaks:
        assert 0.0 < p.stability < 0.2


def test_detect_peaks_needs_two_radii():
    g = ak.KGrid([-1.1], [1.1], 1.0 / 80.0)
    with pytest.raises(ak.InvalidArgument, match="need at least two radii"):
        ak.detect_bragg_peaks(z_lattice(20.0), [20.0], g)


def test_detect_peaks_empty_set():
    S = ak.PointSet(np.zeros((0, 1)), 100.0, 1.0)
    g = ak.KGrid([-1.0], [1.0], 1.0 / 400.0)
    assert ak.detect_bragg_peaks(S, [50.0, 100.0], g) == []


def test_peak_span_gap_of_detected_lattice_peaks():
    peaks = [ak.BraggPeak(np.array([float(m)]), 1.0, 0.0)
             for m in range(-2, 3)]
    assert ak.peak_span_gap(peaks, 3.0) == pytest.approx(1.0)
    assert math.isinf(ak.peak_span_gap([], 3.0))


def test_peak_span_gap_drops_peaks_refined_past_the_ball():
    # golden-section refinement can move a peak at the edge of the searched
    # k-ball just outside it; the gap leaves it out, as C3 and ATOM do
    inner = [ak.BraggPeak(np.array([float(m)]), 1.0, 0.0)
             for m in range(-2, 3)]
    edge = [ak.BraggPeak(np.array([s * 3.0000106]), 1.0, 0.0)
            for s in (-1.0, 1.0)]
    assert ak.peak_span_gap(inner + edge, 3.0) == ak.peak_span_gap(inner, 3.0)
    assert math.isinf(ak.peak_span_gap(edge, 3.0))
    on_edge = [ak.BraggPeak(np.array([3.0]), 1.0, 0.0)]
    assert ak.peak_span_gap(inner + on_edge, 3.0) == pytest.approx(1.0)


def test_detect_peaks_with_a_lent_periodogram():
    S = ak.make_lattice([[1.0]], 120.0)
    radii, grid = [80.0, 120.0], ak.KGrid([-1.1], [1.1], 1.0 / 480.0)
    want = [p.to_json() for p in ak.detect_bragg_peaks(S, radii, grid)]
    for norm in ("per-volume", "atom-mass"):
        per = ak.periodogram(S, 120.0, grid, normalization=norm)
        got = ak.detect_bragg_peaks(S, radii, grid, per=per)
        assert [p.to_json() for p in got] == want
    with pytest.raises(ak.InvalidArgument, match="lent periodogram"):
        ak.detect_bragg_peaks(S, radii, grid,
                              per=ak.periodogram(S, 80.0, grid))
    other = ak.KGrid([-1.1], [1.1], 1.0 / 480.0)
    with pytest.raises(ak.InvalidArgument, match="lent periodogram"):
        ak.detect_bragg_peaks(S, radii, other,
                              per=ak.periodogram(S, 120.0, grid))


# ---------------------------------------------------------------------------
# criterion reports


def make_measure(locs, wts, bin_tol=1e-3):
    return ak.WeightedAtomMeasure(1, np.asarray(locs, dtype=float).reshape(-1, 1),
                                  np.asarray(wts, dtype=float), bin_tol)


def test_criterion_report_json_handles_infinite_gap():
    rep = ak.CriterionReport("X", 0.1, np.empty((0, 1)), math.inf, "fail",
                             2.0, 5.0, {})
    doc = rep.to_json()
    assert doc["gap"] is None
    assert doc["almost_period_set"] == []


def test_default_gap_bound_uses_mean_spacing():
    S = z_lattice(50.0)
    assert ak.default_gap_bound(S, 0.1) == pytest.approx(20.0)


def test_gamma_concentration_accepts_lattice_translations():
    S = z_lattice(300.0)
    gamma = ak.finite_autocorrelation(S, 300.0, diff_cutoff=20.0)
    rep = ak.criterion_gamma_concentration(gamma, 0.1, 0.1,
                                           search_radius=5.5, gap_bound=20.0)
    assert rep.verdict == "pass"
    assert len(rep.almost_period_set) == 11
    assert rep.gap == pytest.approx(0.5)
    got = sorted(rep.almost_period_set[:, 0])
    assert np.allclose(got, np.arange(-5, 6), atol=1e-9)


def test_gamma_concentration_unconverged_estimate_is_inconclusive():
    S = z_lattice(620.0)
    est = ak.autocorrelation_limit(S, [240.0, 260.0, 280.0, 300.0],
                                   diff_cutoff=20.0)
    fake = ak.AutocorrEstimate(est.measure, est.radius_schedule,
                               est.per_radius_mass_at_zero, False,
                               est.tracked_locations, est.tracked_weights)
    rep = ak.criterion_gamma_concentration(fake, 0.1, 0.1,
                                           search_radius=5.5, gap_bound=20.0)
    assert rep.verdict == "inconclusive"


def test_gamma_concentration_requires_candidates_in_ball():
    mu = make_measure([3.0], [1.0])
    with pytest.raises(ak.NoAtomAtZero):
        ak.criterion_gamma_concentration(mu, 0.1, 0.1, search_radius=2.0,
                                         gap_bound=2.0)


def test_gamma_concentration_sums_mass_over_the_ball():
    # single far atom plus split mass near 1: ball radius covers the split
    mu = make_measure([0.0, 0.95, 1.05], [1.0, 0.5, 0.5])
    rep = ak.criterion_gamma_concentration(mu, 0.2, 0.1, search_radius=1.5,
                                           gap_bound=10.0)
    accepted = sorted(rep.almost_period_set[:, 0])
    assert 0.0 in accepted
    # both half-atoms lie within 0.2 of either one, so both are accepted
    assert len(accepted) == 3


def test_atom_concentration_on_lattice_pairs():
    S = z_lattice(300.0)
    gamma = ak.finite_autocorrelation(S, 300.0, diff_cutoff=20.0)
    mu = ak.debias_ball_edge(gamma, 300.0)
    rep = ak.criterion_atom_concentration(mu, 0.1, search_radius=5.5,
                                          gap_bound=20.0)
    assert rep.verdict == "pass"
    assert len(rep.almost_period_set) == 11


def test_atom_concentration_fails_when_mass_is_smeared():
    mu = make_measure([0.0, 0.95, 1.05], [1.0, 0.5, 0.5])
    rep = ak.criterion_atom_concentration(mu, 0.2, search_radius=1.5,
                                          gap_bound=1.0)
    assert rep.verdict == "fail"
    assert sorted(rep.almost_period_set[:, 0]) == [0.0]


def test_almost_periods_accepts_integers_rejects_half():
    S = z_lattice(131.0)
    cands = [[0.0], [1.0], [-1.0], [2.0], [-2.0], [0.5]]
    rep = ak.criterion_almost_periods(S, 0.1, cands, [40.0, 60.0, 80.0],
                                      gap_bound=20.0)
    assert rep.verdict == "pass"
    got = sorted(rep.almost_period_set[:, 0])
    assert np.allclose(got, [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert rep.search_radius == pytest.approx(2.0)
    dens = dict(zip([tuple(c) for c in cands], rep.details["densities"]))
    assert dens[(0.5,)] == pytest.approx(1.0, rel=0.05)


def test_almost_periods_rejects_oversized_candidates():
    S = z_lattice(131.0)
    with pytest.raises(ak.TranslationExceedsWindow):
        ak.criterion_almost_periods(S, 0.1, [[100.0]], [40.0, 60.0, 80.0],
                                    gap_bound=20.0)


@pytest.mark.parametrize("cands, radii, match", [
    ([[1.0]], [60.0], "two radii"),
    ([[1.0], [1.0, 2.0]], [40.0, 60.0], "one length"),
    ([[1.0], [math.nan]], [40.0, 60.0], "finite"),
    ([[math.inf]], [40.0, 60.0], "finite"),
])
def test_almost_periods_rejects_bad_inputs(cands, radii, match):
    S = z_lattice(131.0)
    with pytest.raises(ak.InvalidArgument, match=match):
        ak.criterion_almost_periods(S, 0.1, cands, radii, gap_bound=20.0)


def almost_period_criteria():
    """C5, BOHR and EVENT on 1-D inputs, each as a function of candidates."""
    S = z_lattice(131.0)
    mu = make_measure([0.0], [1.0])
    f = ak.TestFunction("triangle_bump", 0.2, 1.0, [0.0])
    probes = np.linspace(-2.0, 2.0, 801).reshape(-1, 1)
    p = ak.ProcessSampler("randomized_lattice", 1, 30.0, basis=[[1.0]])
    return {
        "C5": lambda c: ak.criterion_almost_periods(
            S, 0.1, c, [40.0, 60.0, 80.0], gap_bound=20.0),
        "BOHR": lambda c: ak.bohr_test_mu_conv_f(
            mu, f, 0.05, c, probes, gap_bound=0.5),
        "EVENT": lambda c: ak.event_almost_periods(
            p, 0.1, 0.1, c, 5, gap_bound=2.0),
    }


@pytest.mark.parametrize("cands, error, match", [
    ([[1.0], [1.0, 2.0]], ak.InvalidArgument, "one length"),
    ([[1.0], [math.nan]], ak.InvalidArgument, "finite"),
    ([], ak.EmptyCandidateSet, "no candidate"),
    (np.empty((0, 1)), ak.EmptyCandidateSet, "no candidate"),
    ([[1.0, 0.0]], ak.DimensionMismatch, "dimension"),
], ids=["ragged", "nan", "no_rows", "no_rows_2d", "two_dims"])
@pytest.mark.parametrize("criterion", ["C5", "BOHR", "EVENT"])
def test_criteria_share_the_candidate_contract(criterion, cands, error, match):
    with pytest.raises(error, match=match):
        almost_period_criteria()[criterion](cands)


def test_bohr_profile_criterion_on_lattice():
    S = z_lattice(300.0)
    gamma = ak.finite_autocorrelation(S, 300.0, diff_cutoff=12.0)
    mu = ak.debias_ball_edge(gamma, 300.0)
    f = ak.TestFunction("triangle_bump", 0.2, 0.25, [0.0])
    probes = np.linspace(-5.0, 5.0, 1501).reshape(-1, 1)
    cands = [[0.0], [1.0], [-1.0], [2.0], [0.3]]
    rep = ak.bohr_test_mu_conv_f(mu, f, 0.05, cands, probes, gap_bound=20.0)
    assert rep.verdict == "pass"
    got = sorted(rep.almost_period_set[:, 0])
    assert np.allclose(got, [-1.0, 0.0, 1.0, 2.0], atol=1e-9)
    sups = dict(zip([tuple(c) for c in cands], rep.details["sup_deviation"]))
    assert sups[(0.3,)] > 0.05
    # debiased weights are equal only to quadrature accuracy
    assert sups[(1.0,)] < 1e-5


def test_bohr_gap_exceeding_bound_fails():
    mu = make_measure([0.0], [1.0])
    f = ak.TestFunction("triangle_bump", 0.2, 1.0, [0.0])
    probes = np.linspace(-2.0, 2.0, 801).reshape(-1, 1)
    # only t=0 leaves the profile invariant; singleton gap fills the ball
    rep = ak.bohr_test_mu_conv_f(mu, f, 0.05, [[0.0], [1.0], [-1.0]], probes,
                                 gap_bound=0.5, search_radius=1.0)
    assert sorted(rep.almost_period_set[:, 0]) == [0.0]
    assert rep.verdict == "fail"
    assert rep.gap == pytest.approx(1.0)
