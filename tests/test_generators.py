import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

import apkit as ak
import oracles
from apkit import generators
from apkit.generators import (_cached_lattice, _lattice_base,
                              _project_counting_grazes)

TAU = ak.GOLDEN_RATIO
C = math.sqrt(2.0 + TAU)


def fib_points(radius: float, **kw) -> ak.PointSet:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return ak.cut_and_project(ak.fibonacci_config(radius, **kw))


# ---------------------------------------------------------------------------
# lattices


def test_lattice_point_counts():
    assert len(ak.make_lattice([[1.0]], 10.0)) == 21
    assert len(ak.make_lattice([[2.0]], 10.0)) == 11
    S = ak.make_lattice([[1.0, 0.0], [0.0, 1.0]], 5.0)
    assert len(S) == oracles.gauss_disc_count(5.0)


def test_lattice_hardcore_is_shortest_vector():
    S = ak.make_lattice([[2.0, 0.0], [1.0, 1.0]], 6.0)
    small = [(i, j) for i in range(-4, 5) for j in range(-4, 5)
             if (i, j) != (0, 0)]
    want = min(math.hypot(2 * i + j, j) for i, j in small)
    assert S.hardcore_radius == pytest.approx(want)


def test_lattice_rejects_singular_basis():
    with pytest.raises(ak.SingularBasis):
        ak.make_lattice([[1.0, 1.0], [1.0, 1.0]], 5.0)
    with pytest.raises(ak.SingularBasis):
        ak.make_lattice([[1.0, 0.0]], 5.0)


LATTICE_CASES = [
    ([[1.3]], 40.0),
    ([[1.0, 0.2], [0.3, 0.9]], 12.0),
    ([[1.0, 0.1, 0.0], [0.0, 1.0, 0.2], [0.3, 0.0, 1.1]], 5.0),
]


@pytest.mark.parametrize("basis, window", LATTICE_CASES)
@pytest.mark.parametrize("block_rows", [7, 2_000_000])
def test_make_lattice_blocks_equal_one_meshgrid(monkeypatch, basis, window,
                                                block_rows):
    monkeypatch.setattr(generators, "_BLOCK_ROWS", block_rows)
    S = ak.make_lattice(basis, window)
    want = ak.PointSet(oracles.brute_lattice_points(basis, window), window,
                       S.hardcore_radius, validate=False)
    assert S.points.tobytes() == want.points.tobytes()


@pytest.mark.parametrize("basis, window", LATTICE_CASES)
def test_make_lattice_one_row_leaves_equal_one_meshgrid(monkeypatch, basis,
                                                        window):
    # one-row leaves make the pruning bound exact at every row
    monkeypatch.setattr(generators, "_LEAF_ROWS", 1)
    S = ak.make_lattice(basis, window)
    want = ak.PointSet(oracles.brute_lattice_points(basis, window), window,
                       S.hardcore_radius, validate=False)
    assert S.points.tobytes() == want.points.tobytes()


@pytest.mark.parametrize("leaf_rows", [16, 4_096])
@pytest.mark.parametrize("block_rows", [7, 2_000_000])
def test_skewed_lattice_points_equal_one_meshgrid(monkeypatch, block_rows,
                                                  leaf_rows):
    # the pruned enumeration behind make_lattice, compared directly; the
    # full box holds 426,909 rows for 275 points, so most leaves are dropped
    monkeypatch.setattr(generators, "_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(generators, "_LEAF_ROWS", leaf_rows)
    got = ak.PointSet(generators._lattice_points(np.array(SKEWED_BASIS), 1.0),
                      1.0, 0.01, validate=False)
    want = ak.PointSet(oracles.brute_lattice_points(SKEWED_BASIS, 1.0), 1.0,
                       0.01, validate=False)
    assert len(want) == 275
    assert got.points.tobytes() == want.points.tobytes()


def test_box_blocks_never_yield_one_row(monkeypatch):
    # a one-row product takes numpy's vector path and rounds differently
    monkeypatch.setattr(generators, "_LEAF_ROWS", 5)
    for block_rows, width in itertools.product(range(2, 12), range(2, 9)):
        monkeypatch.setattr(generators, "_BLOCK_ROWS", block_rows)
        lo, hi = np.array([0, 0]), np.array([width - 1, 4])
        blocks = list(generators._box_blocks(lo, hi, [], "test box"))
        assert [len(b) for b in blocks[:-1]] == \
            [block_rows] * (len(blocks) - 1)
        assert 2 <= len(blocks[-1]) <= block_rows + 1
        rows = np.concatenate(blocks)
        assert sorted(map(tuple, rows)) == [(i, j) for i in range(width)
                                            for j in range(5)]


def count_scanned_rows(monkeypatch) -> list:
    """Patch the box scan to add the rows of every block it yields."""
    scanned = [0]
    box_blocks = generators._box_blocks

    def counting(*args, **kwargs):
        for block in box_blocks(*args, **kwargs):
            scanned[0] += len(block)
            yield block

    monkeypatch.setattr(generators, "_box_blocks", counting)
    return scanned


def test_skewed_lattice_scan_is_pruned(monkeypatch):
    scanned = count_scanned_rows(monkeypatch)
    generators._lattice_points(np.array(SKEWED_BASIS), 1.0)
    assert scanned[0] < 120_000


def box_window_config(output_radius: float, offset) -> ak.CutProjectConfig:
    # the octagonal strip through a square window of half-width 0.5
    cfg = octagonal_config(output_radius, offset)
    return dataclasses.replace(
        cfg, window=ak.RegionSpec.box([-0.5, -0.5], [0.5, 0.5]))


STRIP_CONFIGS = {
    "fibonacci": lambda: ak.fibonacci_config(40.0),
    "fibonacci_deformed": lambda: ak.fibonacci_config(
        40.0, torus_offset=(0.3, 0.1),
        deformation=ak.SinusoidalDeformation([0.15], [1.3], 0.4)),
    "octagonal_ball": lambda: octagonal_config(
        8.0, np.random.default_rng(7).random(4)),
    "octagonal_box": lambda: box_window_config(
        6.0, np.random.default_rng(8).random(4)),
    "one_point": lambda: ak.fibonacci_config(0.3),
    "no_point": lambda: ak.fibonacci_config(0.05, torus_offset=(0.5, 0.5)),
}


@pytest.mark.filterwarnings("ignore:no E-basis vector")
@pytest.mark.parametrize("leaf_rows", [16, 4_096])
@pytest.mark.parametrize("name", sorted(STRIP_CONFIGS))
def test_pruned_strip_equals_one_box_scan(monkeypatch, name, leaf_rows):
    monkeypatch.setattr(generators, "_LEAF_ROWS", leaf_rows)
    cfg = STRIP_CONFIGS[name]()
    got, grazes = generators._enumerate_strip(cfg)
    want, want_grazes = oracles.brute_strip_points(cfg)
    assert grazes == want_grazes
    assert len(got) == len(want)
    got = got[np.lexsort(got.T[::-1])]
    want = want[np.lexsort(want.T[::-1])]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, points, grazes", [
    ("fibonacci", 111, 2), ("one_point", 1, 0), ("no_point", 0, 0)])
def test_strip_configs_reach_their_cases(name, points, grazes):
    # the zero-offset strip grazes the window at z = (1, 0) and (0, 1),
    # whose physical points lie outside the 0.3-ball
    got, n_grazes = generators._enumerate_strip(STRIP_CONFIGS[name]())
    assert (len(got), n_grazes) == (points, grazes)


@pytest.mark.filterwarnings("ignore:no E-basis vector")
def test_octagonal_strip_scan_is_pruned(monkeypatch):
    # the benchmark's 8-fold set: the full box holds 61**4 = 13,845,841 rows
    scanned = count_scanned_rows(monkeypatch)
    S = ak.cut_and_project(octagonal_config(30.0, np.random.default_rng(0).random(4)))
    assert len(S) == 3194
    assert scanned[0] <= 1_500_000


def test_make_lattice_refuses_a_box_over_the_limit(monkeypatch):
    monkeypatch.setattr(generators, "_ENUM_LIMIT", 528)
    with pytest.raises(ak.ConfigError, match="would scan 529 lattice points"):
        ak.make_lattice([[1.0, 0.0], [0.0, 1.0]], 10.0)
    monkeypatch.setattr(generators, "_ENUM_LIMIT", 529)
    assert len(ak.make_lattice([[1.0, 0.0], [0.0, 1.0]], 10.0)) == \
        oracles.gauss_disc_count(10.0)


def test_strip_refuses_a_box_over_the_limit(monkeypatch):
    monkeypatch.setattr(generators, "_ENUM_LIMIT", 100)
    with pytest.raises(ak.ConfigError, match="would scan"):
        fib_points(20.0)


def test_lattice_covolume():
    assert ak.lattice_covolume([[2.0, 0.0], [0.0, 3.0]]) == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# rationality heuristic


def test_rationality_report_flags_rational_ratio():
    findings = ak.rationality_report([2.0, 4.0])
    assert len(findings) == 1 and "1/2" in findings[0]


def test_rationality_report_passes_golden_ratio():
    assert ak.rationality_report([TAU, 1.0]) == []


def test_rationality_report_flags_zero_coordinate():
    findings = ak.rationality_report([0.5, 0.0])
    assert any("zero" in f for f in findings)


# ---------------------------------------------------------------------------
# deformations


def test_deformation_bound_is_amplitude_norm():
    d = ak.SinusoidalDeformation([3.0, 4.0], [0.5], 0.7)
    assert d.bound() == pytest.approx(5.0)


def test_deformation_values_match_formula():
    d = ak.SinusoidalDeformation([0.3], [0.5], 0.7)
    w = np.array([[0.2], [-1.1]])
    got = d(w)
    want = 0.3 * np.sin(2 * np.pi * 0.5 * w + 0.7)
    assert np.allclose(got, want, atol=1e-15)


def test_deformation_json_round_trip():
    d = ak.SinusoidalDeformation([0.3], [0.5], 0.7)
    doc = d.to_json()
    assert doc["kind"] == "sinusoidal"
    back = ak.generators._deformation_from_json(doc)
    assert np.array_equal(back.amplitude, d.amplitude)
    assert np.array_equal(back.frequency, d.frequency)
    assert back.phase == d.phase
    assert ak.generators._deformation_from_json({"kind": "zero"}) is None
    assert ak.generators._deformation_from_json(None) is None
    with pytest.raises(ak.ConfigError):
        ak.generators._deformation_from_json({"kind": "wobble"})


# ---------------------------------------------------------------------------
# cut and project


def test_fibonacci_config_geometry():
    cfg = ak.fibonacci_config(100.0)
    assert np.allclose(cfg.E_basis, [[TAU / C, 1.0 / C]])
    assert np.allclose(cfg.F_basis, [[-1.0 / C, TAU / C]])
    assert cfg.window.kind == "box"
    assert cfg.window.lo[0] == pytest.approx(-1.0 / C)
    assert cfg.window.hi[0] == pytest.approx(TAU / C)


def test_fibonacci_has_two_gaps_in_golden_ratio():
    S = fib_points(500.0)
    assert len(S) == 1377
    gaps = np.sort(np.diff(S.points[:, 0]))
    splits = np.nonzero(np.diff(gaps) > 1e-6)[0]
    assert len(splits) == 1
    short = float(np.mean(gaps[:splits[0] + 1]))
    long = float(np.mean(gaps[splits[0] + 1:]))
    assert long / short == pytest.approx(TAU, rel=1e-9)
    assert short == pytest.approx(ak.FIBONACCI_MIN_GAP, rel=1e-9)
    assert S.hardcore_radius == pytest.approx(ak.FIBONACCI_MIN_GAP, rel=1e-9)


def test_fibonacci_density():
    S = fib_points(500.0)
    assert len(S) / 1000.0 == pytest.approx(ak.FIBONACCI_DENSITY, rel=1e-2)


def test_fibonacci_boundary_graze_warns():
    with pytest.warns(UserWarning, match="window boundary"):
        ak.cut_and_project(ak.fibonacci_config(50.0))


def test_boundary_graze_is_a_typed_warning_with_its_count():
    with pytest.warns(ak.WindowGraze) as record:
        ak.cut_and_project(ak.fibonacci_config(50.0))
    assert [w.message.count for w in record] == [2]
    assert str(record[0].message) == (
        "2 lattice translate(s) lie exactly on the window boundary; "
        "membership used the half-open/closed convention")


def test_graze_counting_projection_returns_count_without_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        S, grazes = _project_counting_grazes(ak.fibonacci_config(50.0))
    assert caught == []
    assert grazes == 2
    assert np.array_equal(S.points, fib_points(50.0).points)


def test_graze_counting_projection_re_emits_other_warnings():
    # rational slope: the irrationality heuristic must still be heard
    s = 1.0 / math.sqrt(2.0)
    cfg = ak.CutProjectConfig(
        n=2, E_basis=[[s, s]], F_basis=[[-s, s]],
        window=ak.RegionSpec.box([-0.5], [0.5]), output_radius=10.0)
    with pytest.warns(UserWarning, match="irrationality") as record:
        S, grazes = _project_counting_grazes(cfg)
    assert grazes == 0
    assert not any(isinstance(w.message, ak.WindowGraze) for w in record)
    assert len(S) > 0


def test_cut_and_project_is_faithful_under_enlargement():
    small = fib_points(80.0)
    large = fib_points(130.0)
    inside = large.points[np.abs(large.points[:, 0]) <= 80.0]
    assert np.array_equal(small.points, inside)


def test_cut_and_project_offset_moves_pattern():
    a = fib_points(80.0)
    b = fib_points(80.0, torus_offset=(0.37, 0.21))
    assert len(b) > 0
    assert not np.array_equal(a.points, b.points)


def test_deformed_fibonacci_keeps_point_count():
    d = ak.SinusoidalDeformation([0.05 / C], [0.5], 0.7)
    S = fib_points(300.0, deformation=d)
    U = fib_points(300.0 + 0.1)
    # same lattice translates selected; only positions move
    assert abs(len(S) - len(U)) <= 2


def test_cut_and_project_empty_window():
    cfg = ak.CutProjectConfig(
        n=2, E_basis=[[TAU / C, 1.0 / C]], F_basis=[[-1.0 / C, TAU / C]],
        window=ak.RegionSpec.box([2.0], [2.0 + 1e-9]), output_radius=20.0)
    S = ak.cut_and_project(cfg)
    assert len(S) == 0


def test_cut_and_project_collision_raises():
    # both strip layers project onto the integers: exact duplicates
    cfg = ak.CutProjectConfig(
        n=2, E_basis=[[0.0, 1.0]], F_basis=[[1.0, 0.0]],
        window=ak.RegionSpec.box([-0.25], [1.25]), output_radius=10.0)
    with pytest.warns(UserWarning):
        with pytest.raises(ak.NotUniformlyDiscrete):
            ak.cut_and_project(cfg)


def test_cut_project_config_validation():
    with pytest.raises(ak.ConfigError):
        ak.CutProjectConfig(n=2, E_basis=[[1.0, 1.0]],
                            F_basis=[[-1.0 / C, TAU / C]],
                            window=ak.RegionSpec.box([-0.5], [0.5]),
                            output_radius=10.0)
    with pytest.raises(ak.ConfigError):
        ak.CutProjectConfig(n=2, E_basis=[[TAU / C, 1.0 / C]],
                            F_basis=[[-1.0 / C, TAU / C]],
                            window=ak.RegionSpec.box([-0.5, -0.5], [0.5, 0.5]),
                            output_radius=10.0)


def test_cut_project_config_json_round_trip():
    d = ak.SinusoidalDeformation([0.02], [0.5], 0.7)
    cfg = ak.fibonacci_config(60.0, torus_offset=(0.1, 0.2), deformation=d)
    back = ak.CutProjectConfig.from_json(cfg.to_json())
    assert back.n == 2
    assert np.allclose(back.E_basis, cfg.E_basis)
    assert np.allclose(back.torus_offset, [0.1, 0.2])
    assert back.deformation.phase == 0.7
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assert np.array_equal(ak.cut_and_project(back).points,
                              ak.cut_and_project(cfg).points)


# ---------------------------------------------------------------------------
# samplers


def lattice_sampler(seed: int, window: float = 30.0) -> ak.ProcessSampler:
    return ak.ProcessSampler("randomized_lattice", seed, window, basis=[[1.0]])


def matern_sampler(seed: int, window: float = 25.0) -> ak.ProcessSampler:
    return ak.ProcessSampler("matern_II", seed, window, intensity=1.0,
                             hardcore=0.5)


def test_sampler_rejects_unknown_kind():
    with pytest.raises(ak.ConfigError):
        ak.ProcessSampler("bogus", 0, 10.0)


def test_sampler_requires_kind_parameters():
    with pytest.raises(ak.ConfigError):
        ak.ProcessSampler("randomized_lattice", 0, 10.0)
    with pytest.raises(ak.ConfigError):
        ak.ProcessSampler("matern_II", 0, 10.0, intensity=1.0)
    with pytest.raises(ak.ConfigError):
        ak.ProcessSampler("perturbed_lattice", 0, 10.0, basis=[[1.0]])
    with pytest.raises(ak.ConfigError):
        ak.ProcessSampler("randomized_model_set", 0, 10.0)


@pytest.mark.parametrize("make", [
    lambda: lattice_sampler(7),
    lambda: matern_sampler(7),
    lambda: ak.ProcessSampler("perturbed_lattice", 7, 20.0, basis=[[1.0]],
                              noise_bound=0.2),
    lambda: ak.ProcessSampler("randomized_model_set", 7, 20.0,
                              cut_project=ak.fibonacci_config(20.0)),
])
def test_sampler_reproducible_and_index_dependent(make):
    p = make()
    a = ak.sample(p, 3)
    b = ak.sample(make(), 3)
    c = ak.sample(p, 4)
    assert np.array_equal(a.points, b.points)
    assert a.window_radius == b.window_radius
    assert not (len(a) == len(c) and np.array_equal(a.points, c.points))


@pytest.mark.parametrize("index", [0, 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64,
                                   2 ** 128 - 1])
def test_sample_stream_is_the_jumped_stream(index):
    p = matern_sampler(7)
    want = np.random.Philox(key=p.seed).jumped(index).state
    np.testing.assert_equal(generators._rng(p, index).bit_generator.state,
                            want)


def test_sample_accepts_a_numpy_integer_index():
    p = matern_sampler(7)
    assert np.array_equal(ak.sample(p, np.int64(3)).points,
                          ak.sample(p, 3).points)


@pytest.mark.parametrize("index", [-1, 2 ** 128, 1.0, "1"])
def test_sample_rejects_an_index_outside_the_streams(index):
    with pytest.raises(ak.InvalidArgument, match="index"):
        ak.sample(matern_sampler(7), index)


def test_randomized_lattice_keeps_unit_gaps():
    chi = ak.sample(lattice_sampler(11), 0)
    gaps = np.diff(chi.points[:, 0])
    assert np.allclose(gaps, 1.0, atol=1e-9)
    assert chi.hardcore_radius == pytest.approx(1.0)


def test_matern_respects_hardcore():
    for i in range(5):
        chi = ak.sample(matern_sampler(13), i)
        d = oracles.brute_min_pair_distance(chi.points)
        assert d >= 0.5 * (1.0 - 1e-12)


def test_matern_effective_intensity_formula():
    p = matern_sampler(0)
    # 1D ball of radius 0.5 has volume 1, so the closed form is 1 - e^-1
    assert ak.matern_effective_intensity(p) == pytest.approx(1.0 - math.exp(-1.0))
    zero = ak.ProcessSampler("matern_II", 0, 10.0, intensity=0.0, hardcore=0.5)
    assert ak.matern_effective_intensity(zero) == 0.0


def test_matern_empirical_intensity_matches_formula():
    p = matern_sampler(29)
    eff = ak.matern_effective_intensity(p)
    counts = np.array([len(ak.sample(p, i)) for i in range(60)], dtype=float)
    dens = counts / 50.0
    sem = np.std(dens, ddof=1) / math.sqrt(len(dens))
    assert abs(float(np.mean(dens)) - eff) <= 4.0 * sem + 0.01


def test_perturbed_lattice_noise_bound_guard():
    p = ak.ProcessSampler("perturbed_lattice", 0, 10.0, basis=[[1.0]],
                          noise_bound=0.6)
    with pytest.raises(ak.ConfigError):
        ak.sample(p, 0)


def test_perturbed_lattice_stays_near_grid():
    p = ak.ProcessSampler("perturbed_lattice", 3, 20.0, basis=[[1.0]],
                          noise_bound=0.2)
    chi = ak.sample(p, 0)
    gaps = np.diff(chi.points[:, 0])
    assert np.all(gaps >= 1.0 - 0.4 - 1e-9)
    assert np.all(gaps <= 1.0 + 0.4 + 1e-9)
    assert chi.hardcore_radius == pytest.approx(0.6)


def test_sampler_json_round_trip_keeps_dim():
    p = ak.ProcessSampler("matern_II", 5, 12.0, intensity=0.8, hardcore=0.3,
                          dim=2)
    doc = p.to_json()
    assert doc["dim"] == 2
    back = ak.ProcessSampler.from_json(doc)
    assert back == p
    a, b = ak.sample(p, 1), ak.sample(back, 1)
    assert a.dim == 2
    assert np.array_equal(a.points, b.points)


def test_lattice_sampler_json_round_trip():
    p = ak.ProcessSampler("perturbed_lattice", 9, 15.0, basis=[[2.0]],
                          noise_bound=0.3)
    back = ak.ProcessSampler.from_json(p.to_json())
    assert np.array_equal(ak.sample(p, 2).points, ak.sample(back, 2).points)


def test_model_set_sampler_json_round_trip():
    p = ak.ProcessSampler("randomized_model_set", 9, 25.0,
                          cut_project=ak.fibonacci_config(25.0))
    back = ak.ProcessSampler.from_json(p.to_json())
    assert np.array_equal(ak.sample(p, 0).points, ak.sample(back, 0).points)


def test_sampler_distribution_is_stationary():
    # mean count in a fixed box equals intensity * volume across seeds
    p = lattice_sampler(41, window=12.0)
    box = ak.RegionSpec.box([2.3], [7.3])
    counts = [ak.count_in_region(ak.sample(p, i), box) for i in range(80)]
    assert float(np.mean(counts)) == pytest.approx(5.0, abs=0.2)


# ---------------------------------------------------------------------------
# separation by construction: outputs that skip PointSet's check


def octagonal_config(output_radius: float, offset=(0.0,) * 4) -> ak.CutProjectConfig:
    # the 8-fold strip; its E rows hold zeros and equal entries, which the
    # irrationality heuristic flags
    s = 1.0 / math.sqrt(2.0)
    E = [[s * math.cos(j * math.pi / 4) for j in range(4)],
         [s * math.sin(j * math.pi / 4) for j in range(4)]]
    F = [[s * math.cos(3 * j * math.pi / 4) for j in range(4)],
         [s * math.sin(3 * j * math.pi / 4) for j in range(4)]]
    return ak.CutProjectConfig(n=4, E_basis=E, F_basis=F,
                               window=ak.RegionSpec.ball([0.0, 0.0], 0.6),
                               output_radius=output_radius, torus_offset=offset)


def assert_separated(S: ak.PointSet) -> None:
    """The properties PointSet's check would test, against a quadratic scan."""
    assert np.all(np.isfinite(S.points))
    # the check's own window tolerance
    assert np.all(np.linalg.norm(S.points, axis=1)
                  <= S.window_radius * (1.0 + 1e-9))
    if len(S) > 1:
        d = oracles.brute_min_pair_distance(S.points)
        assert d >= S.hardcore_radius * (1.0 - 1e-9)


SEPARATION_SAMPLERS = {
    "lattice_1d": lambda s: ak.ProcessSampler(
        "randomized_lattice", s, 10.0, basis=[[0.7]]),
    "lattice_2d": lambda s: ak.ProcessSampler(
        "randomized_lattice", s, 4.0, basis=[[1.0, 0.0], [0.3, 0.9]]),
    "matern_1d": lambda s: ak.ProcessSampler(
        "matern_II", s, 8.0, intensity=3.0, hardcore=0.3),
    "matern_2d": lambda s: ak.ProcessSampler(
        "matern_II", s, 4.0, intensity=3.0, hardcore=0.4, dim=2),
    "fibonacci": lambda s: ak.ProcessSampler(
        "randomized_model_set", s, 15.0, cut_project=ak.fibonacci_config(15.0)),
    "fibonacci_deformed": lambda s: ak.ProcessSampler(
        "randomized_model_set", s, 15.0, cut_project=ak.fibonacci_config(
            15.0, deformation=ak.SinusoidalDeformation([0.15], [1.3], 0.4))),
    "octagonal": lambda s: ak.ProcessSampler(
        "randomized_model_set", s, 4.0, cut_project=octagonal_config(4.0)),
    "perturbed_1d": lambda s: ak.ProcessSampler(
        "perturbed_lattice", s, 10.0, basis=[[1.0]], noise_bound=0.2),
    "perturbed_2d": lambda s: ak.ProcessSampler(
        "perturbed_lattice", s, 4.0, basis=[[1.0, 0.0], [0.0, 1.0]],
        noise_bound=0.2),
}


@pytest.mark.filterwarnings("ignore:no E-basis vector")
@pytest.mark.parametrize("name", sorted(SEPARATION_SAMPLERS))
def test_sampler_output_separated_by_brute_force(name):
    for seed in range(50):
        assert_separated(ak.sample(SEPARATION_SAMPLERS[name](seed), seed % 3))


def test_matern_oracle_draws_thin_something():
    # the separation test above means something only if thinning happened
    p = SEPARATION_SAMPLERS["matern_2d"](0)
    assert len(ak.sample(p, 0)) < p.intensity * ak.ball_volume(2, 4.0)


@pytest.mark.filterwarnings("ignore:no E-basis vector")
def test_cut_and_project_octagonal_separated_by_brute_force():
    for offset in ((0.0,) * 4, (0.1, 0.2, 0.3, 0.4)):
        S = ak.cut_and_project(octagonal_config(5.0, offset))
        assert len(S) > 50
        assert_separated(S)
        # r is the measured minimum, so the check is tight, not loose
        assert S.hardcore_radius == pytest.approx(
            oracles.brute_min_pair_distance(S.points), rel=1e-12)


SKEWED_BASIS = [[1.0, 0.0], [10.5, 0.01]]


def test_make_lattice_declares_the_exact_shortest_vector():
    # the box [-4, 4]^2 of combinations holds nothing shorter than (1, 0),
    # but 2 * (10.5, 0.01) - 21 * (1, 0) = (0, 0.02)
    S = ak.make_lattice(SKEWED_BASIS, 1.0)
    assert len(S) == 275
    assert S.hardcore_radius == pytest.approx(0.02, rel=1e-9)
    assert S.hardcore_radius == pytest.approx(
        oracles.brute_min_pair_distance(S.points), rel=1e-12)


def test_make_lattice_still_validates_its_points(monkeypatch):
    # a pair closer than the declared r must still be refused
    real = generators._lattice_points

    def with_a_close_pair(B, radius):
        pts = real(B, radius)
        return np.vstack([pts, [[0.01, 0.0]]]) if radius == 5.0 else pts

    monkeypatch.setattr(generators, "_lattice_points", with_a_close_pair)
    with pytest.raises(ak.NotUniformlyDiscrete):
        ak.make_lattice([[1.0, 0.0], [0.0, 1.0]], 5.0)


def test_randomized_lattice_samples_a_skewed_basis():
    # 2 * (4.5, 0.1) - 9 * (1, 0) = (0, 0.2) lies outside the small box
    p = ak.ProcessSampler("randomized_lattice", 0, 2.0,
                          basis=[[1.0, 0.0], [4.5, 0.1]])
    S = ak.sample(p, 0)
    assert S.hardcore_radius == pytest.approx(0.2, rel=1e-9)
    assert len(S) > 1
    assert oracles.brute_min_pair_distance(S.points) >= \
        S.hardcore_radius * (1.0 - 1e-9)
    assert ak.sample(p, 0).points.tobytes() == S.points.tobytes()


def test_randomized_lattice_raises_for_a_singular_basis_every_call():
    # lru_cache keeps no exceptions, so every call raises afresh
    p = ak.ProcessSampler("randomized_lattice", 0, 2.0,
                          basis=[[1.0, 2.0], [2.0, 4.0]])
    for _ in range(2):
        with pytest.raises(ak.SingularBasis):
            ak.sample(p, 0)


def test_cached_lattice_base_is_read_only():
    pts, r = _lattice_base(np.array([[1.0]]), 5.0)
    assert r == 1.0
    with pytest.raises(ValueError):
        pts[0, 0] = 7.0
    # samples own their points
    assert ak.sample(lattice_sampler(3), 0).points.flags.writeable


@pytest.mark.parametrize("name", ["lattice_1d", "lattice_2d", "perturbed_2d"])
def test_lattice_samples_do_not_depend_on_the_cache(name):
    p = SEPARATION_SAMPLERS[name](5)
    first = ak.sample(p, 4).points
    again = ak.sample(p, 4).points
    _cached_lattice.cache_clear()
    cold = ak.sample(p, 4).points
    assert first.tobytes() == again.tobytes() == cold.tobytes()


@pytest.mark.parametrize("kw", [
    dict(kind="randomized_lattice", window_radius=math.nan, basis=[[1.0]]),
    dict(kind="randomized_lattice", window_radius=10.0, basis=[[math.inf]]),
    dict(kind="matern_II", window_radius=10.0, intensity=math.nan,
         hardcore=0.5),
    dict(kind="matern_II", window_radius=10.0, intensity=1.0,
         hardcore=math.nan),
    dict(kind="perturbed_lattice", window_radius=10.0, basis=[[1.0]],
         noise_bound=math.nan),
    dict(kind="randomized_model_set", window_radius=math.inf,
         cut_project=ak.fibonacci_config(10.0)),
])
def test_sampler_rejects_non_finite_numbers(kw):
    with pytest.raises(ak.ConfigError, match="finite"):
        ak.ProcessSampler(seed=0, **kw)


@pytest.mark.parametrize("change", [
    dict(torus_offset=(math.nan, 0.0)),
    dict(output_radius=math.inf),
    dict(deformation=ak.SinusoidalDeformation([math.inf], [1.0])),
    dict(deformation=ak.SinusoidalDeformation([0.1], [1.0], math.nan)),
])
def test_cut_project_config_rejects_non_finite_numbers(change):
    with pytest.raises(ak.ConfigError, match="finite"):
        dataclasses.replace(ak.fibonacci_config(10.0), **change)


@pytest.mark.parametrize("basis, window", [
    ([[math.nan]], 5.0), ([[1.0, 0.0], [0.0, math.inf]], 5.0),
    ([[1.0]], math.nan), ([[1.0]], math.inf),
])
def test_make_lattice_rejects_non_finite_numbers(basis, window):
    with pytest.raises(ak.InvalidArgument):
        ak.make_lattice(basis, window)


# ---------------------------------------------------------------------------
# Palm calculus


def test_palm_intensity_lattice_neighbor_is_one():
    p = lattice_sampler(1)
    est = ak.palm_intensity(p, ak.RegionSpec.ball([1.0], 0.25), n_samples=50)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)


def test_palm_intensity_lattice_has_no_half_neighbors():
    p = lattice_sampler(1)
    est = ak.palm_intensity(p, ak.RegionSpec.ball([0.5], 0.1), n_samples=50)
    assert est.value == 0.0


def test_palm_intensity_base_region_free():
    p = lattice_sampler(17)
    A = ak.RegionSpec.ball([1.0], 0.25)
    cube = ak.palm_intensity(p, A, n_samples=40)
    ball = ak.palm_intensity(p, A, B=ak.RegionSpec.ball([0.0], 2.0),
                             n_samples=40)
    sigma = math.sqrt(cube.stderr ** 2 + ball.stderr ** 2)
    assert abs(cube.value - ball.value) <= max(3.0 * sigma, 1e-12)


def test_palm_intensity_rejects_a_null_base_region():
    p = lattice_sampler(1)
    with pytest.raises(ak.InvalidArgument, match="positive volume"):
        ak.palm_intensity(p, ak.RegionSpec.ball([1.0], 0.25),
                          B=ak.RegionSpec.ball([0.0], 0.0), n_samples=5)


def test_palm_intensity_window_guard():
    p = lattice_sampler(1, window=1.2)
    with pytest.raises(ak.WindowTooSmall):
        ak.palm_intensity(p, ak.RegionSpec.ball([0.0], 2.0), n_samples=5)


def test_palm_estimate_json_fields():
    p = lattice_sampler(1)
    est = ak.palm_intensity(p, ak.RegionSpec.ball([1.0], 0.25), n_samples=10)
    doc = est.to_json()
    assert set(doc) == {"region", "value", "stderr", "samples", "B_used"}
    assert doc["samples"] == 10


@pytest.mark.parametrize("call", [
    lambda p, A: ak.palm_intensity(p, A, n_samples=0),
    lambda p, A: ak.verify_acpalm(p, A, [10.0, 20.0], n_seeds=0),
    lambda p, A: ak.verify_acpalm(p, A, [10.0, 20.0], n_palm_samples=0),
    lambda p, A: ak.event_almost_periods(p, 0.1, 0.1, [[1.0]], 0,
                                         gap_bound=2.0),
], ids=["palm_n_samples", "acpalm_n_seeds", "acpalm_n_palm_samples",
        "event_n_samples"])
def test_sample_counts_must_be_at_least_one(call):
    with pytest.raises(ak.InvalidArgument, match="at least 1"):
        call(lattice_sampler(1), ak.RegionSpec.ball([1.0], 0.25))


def test_acpalm_lattice_mass_matches_palm():
    p = lattice_sampler(21, window=110.0)
    rep = ak.verify_acpalm(p, ak.RegionSpec.ball([1.0], 0.25),
                           [60.0, 80.0, 100.0], n_seeds=10,
                           n_palm_samples=100)
    assert rep["palm_value"] == pytest.approx(1.0, abs=1e-12)
    assert rep["max_abs_deviation"] <= 0.05
    assert len(rep["per_seed_mass"]) == 10


def test_acpalm_zero_intensity_process():
    p = ak.ProcessSampler("matern_II", 0, 40.0, intensity=0.0, hardcore=0.5)
    rep = ak.verify_acpalm(p, ak.RegionSpec.ball([0.5], 0.1),
                           [20.0, 30.0], n_seeds=5, n_palm_samples=20)
    assert rep["palm_value"] == 0.0
    assert rep["per_seed_final"] == [0.0] * 5


# ---------------------------------------------------------------------------
# occupancy-event almost periods


def test_event_periods_lattice_integers_are_exact():
    p = lattice_sampler(33, window=12.0)
    cands = [[-2.0], [-1.0], [1.0], [2.0], [0.5]]
    rep = ak.event_almost_periods(p, 0.2, 0.1, cands, n_samples=200,
                                  gap_bound=4.0)
    rates = dict(zip([tuple(c) for c in cands], rep.details["event_rate"]))
    for m in (-2.0, -1.0, 1.0, 2.0):
        assert rates[(m,)] == 0.0
    assert rates[(0.5,)] == pytest.approx(0.8, abs=0.1)
    got = sorted(rep.almost_period_set[:, 0])
    assert got == [-2.0, -1.0, 1.0, 2.0]
    assert rep.verdict == "pass"
    wilson = rep.details["wilson_upper95"]
    assert all(w >= r for w, r in zip(wilson, rep.details["event_rate"]))


def test_event_periods_read_both_balls_by_one_rule(monkeypatch):
    # |x| rounds to exactly 1.0 but |x - 0|^2 to 1.0000000000000002: read by
    # two rules, B_1(0) held x and B_1(t = 0) did not, a spurious event
    x = np.array([[0.12256550967387159, 0.9924604253260602]])
    assert float(np.sqrt(np.sum(x ** 2))) == 1.0
    assert float(np.sum(x ** 2)) > 1.0
    p = ak.ProcessSampler("randomized_lattice", 0, 5.0, basis=np.eye(2))
    monkeypatch.setattr(generators, "sample",
                        lambda p, i: ak.PointSet(x, 5.0, 1.0))
    rep = ak.event_almost_periods(p, 1.0, 0.1, [[0.0, 0.0]], n_samples=3,
                                  gap_bound=4.0, search_radius=1.0)
    assert rep.details["event_rate"] == [0.0]


def test_event_periods_window_guard():
    p = lattice_sampler(1, window=5.0)
    with pytest.raises(ak.WindowTooSmall):
        ak.event_almost_periods(p, 0.2, 0.1, [[6.0]], n_samples=10,
                                gap_bound=4.0)
