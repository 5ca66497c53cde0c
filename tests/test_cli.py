import json
import math
import os
import warnings

import numpy as np
import pytest

import apkit as ak
from apkit import verify
from apkit.cli import main


def run(capsys, *argv) -> tuple[int, dict | None]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def write_config(tmp_path, doc, name="cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def write_set(tmp_path, S, name) -> str:
    path = str(tmp_path / name)
    ak.write_pointset_csv(S, path)
    return path


# ---------------------------------------------------------------------------
# generate


def test_generate_lattice_preset(tmp_path, capsys):
    code, doc = run(capsys, "generate", "--preset", "lattice-z",
                    "--radius", "10", "--out", str(tmp_path))
    assert code == 0
    assert doc["n_points"] == 21
    assert doc["kind"] == "lattice-z"
    assert doc["dim"] == 1
    S = ak.read_pointset_csv(str(tmp_path / "points.csv"))
    assert np.array_equal(S.points[:, 0], np.arange(-10.0, 11.0))
    assert json.loads((tmp_path / "generate.json").read_text()) == doc


@pytest.mark.filterwarnings("ignore:.*window boundary.*")
def test_generate_fibonacci_preset_has_two_gaps(tmp_path, capsys):
    code, doc = run(capsys, "generate", "--preset", "fibonacci",
                    "--radius", "100", "--out", str(tmp_path))
    assert code == 0
    S = ak.read_pointset_csv(str(tmp_path / "points.csv"))
    assert doc["n_points"] == len(S)
    gaps = np.round(np.diff(S.points[:, 0]), 9)
    assert len(set(gaps)) == 2
    assert doc["measured_hardcore_radius"] == pytest.approx(
        ak.FIBONACCI_MIN_GAP, rel=1e-9)


@pytest.mark.filterwarnings("ignore:.*window boundary.*")
def test_generate_deformed_fibonacci(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "deformation": {"kind": "sinusoidal", "amplitude": [0.02],
                        "frequency": [0.5], "phase": 0.7}})
    code, doc = run(capsys, "generate", "--preset", "fibonacci",
                    "--radius", "100", "--config", cfg,
                    "--out", str(tmp_path))
    assert code == 0
    S = ak.read_pointset_csv(str(tmp_path / "points.csv"))
    gaps = np.round(np.diff(S.points[:, 0]), 9)
    assert len(set(gaps)) > 2


def test_generate_custom_lattice_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "lattice": {"basis": [[2.0]], "window_radius": 10.0}})
    code, doc = run(capsys, "generate", "--config", cfg,
                    "--out", str(tmp_path))
    assert code == 0
    assert doc["n_points"] == 11


def test_generate_sampler_with_seed_override(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "sampler": {"kind": "matern_II", "seed": 1, "window_radius": 15.0,
                    "intensity": 1.0, "hardcore": 0.5}})
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    code, doc_a = run(capsys, "generate", "--config", cfg, "--seed", "7",
                      "--out", str(out_a))
    assert code == 0 and doc_a["seed"] == 7
    run(capsys, "generate", "--config", cfg, "--seed", "7",
        "--out", str(out_b))
    run(capsys, "generate", "--config", cfg, "--seed", "8",
        "--out", str(out_c))
    same = (out_a / "points.csv").read_bytes()
    assert same == (out_b / "points.csv").read_bytes()
    assert same != (out_c / "points.csv").read_bytes()


def test_generate_sampler_index_selects_samples(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "sampler": {"kind": "matern_II", "seed": 3, "window_radius": 15.0,
                    "intensity": 1.0, "hardcore": 0.5}})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run(capsys, "generate", "--config", cfg, "--index", "0", "--out", str(out_a))
    run(capsys, "generate", "--config", cfg, "--index", "1", "--out", str(out_b))
    assert (out_a / "points.csv").read_bytes() != \
        (out_b / "points.csv").read_bytes()


@pytest.mark.parametrize("index", ["-1", str(2 ** 128)])
def test_generate_rejects_an_index_outside_the_streams(tmp_path, capsys,
                                                       index):
    # 2**128 wrapped to sample 0's stream, and -1 skipped the schema
    cfg = write_config(tmp_path, {
        "sampler": {"kind": "matern_II", "seed": 3, "window_radius": 15.0,
                    "intensity": 1.0, "hardcore": 0.5}})
    out = tmp_path / "out"
    code, doc = run(capsys, "generate", "--config", cfg, "--index", index,
                    "--out", str(out))
    assert (code, doc) == (2, None)
    assert not out.exists() or list(out.iterdir()) == []


def test_generate_requires_exactly_one_source(tmp_path, capsys):
    code, _ = run(capsys, "generate", "--out", str(tmp_path))
    assert code == 2
    cfg = write_config(tmp_path, {
        "lattice": {"basis": [[1.0]], "window_radius": 5.0}})
    code, _ = run(capsys, "generate", "--preset", "lattice-z", "--radius",
                  "5", "--config", cfg, "--out", str(tmp_path))
    assert code == 2


def test_malformed_config_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, "generate", "--config", str(bad),
                  "--out", str(tmp_path))
    err = capsys.readouterr().err
    assert code == 2


def test_unknown_config_key_rejected_by_schema(tmp_path, capsys):
    cfg = write_config(tmp_path, {"radius": 5.0, "bogus_key": 1})
    code, _ = run(capsys, "generate", "--preset", "lattice-z",
                  "--radius", "5", "--config", cfg, "--out", str(tmp_path))
    assert code == 2


def test_unknown_preset_rejected(tmp_path, capsys):
    code, _ = run(capsys, "generate", "--preset", "penrose",
                  "--radius", "5", "--out", str(tmp_path))
    assert code == 2


# ---------------------------------------------------------------------------
# metric


@pytest.fixture
def lattice_files(tmp_path):
    S = ak.make_lattice([[1.0]], 131.0)
    T = ak.translate(S, [0.1])
    a = write_set(tmp_path, S, "a.csv")
    b = write_set(tmp_path, T, "b.csv")
    return a, b


def test_metric_d_identical_hits_tolerance_floor(tmp_path, capsys, lattice_files):
    a, _ = lattice_files
    cfg = write_config(tmp_path, {"tol": 0.1})
    code, doc = run(capsys, "metric", a, a, "--which", "d",
                    "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    assert doc["value"] == pytest.approx(0.1)


def test_metric_dbar_tracks_shift(tmp_path, capsys, lattice_files):
    a, b = lattice_files
    cfg = write_config(tmp_path, {"radii": [40.0, 60.0, 80.0]})
    code, doc = run(capsys, "metric", a, b, "--which", "dbar",
                    "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    assert doc["value"] == pytest.approx(0.1, abs=0.01)
    assert json.loads((tmp_path / "metric.json").read_text()) == doc


def test_metric_dbarc_report(tmp_path, capsys, lattice_files):
    a, b = lattice_files
    cfg = write_config(tmp_path, {"R": 24.0})
    code, doc = run(capsys, "metric", a, b, "--which", "dbarc",
                    "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    assert doc["value"] == pytest.approx(0.1, abs=0.02)
    assert doc["converged"] is True


def test_metric_dbarf_identical_is_zero(tmp_path, capsys, lattice_files):
    a, _ = lattice_files
    cfg = write_config(tmp_path, {
        "radii": [40.0, 60.0, 80.0],
        "f": {"shape": "triangle_bump", "support_radius": 0.09,
              "amplitude": 1.0}})
    code, doc = run(capsys, "metric", a, a, "--which", "dbarf",
                    "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    assert doc["value"] == 0.0


def test_metric_dtilde_detects_offset(tmp_path, capsys, lattice_files):
    a, b = lattice_files
    cfg = write_config(tmp_path, {"radii": [40.0, 60.0, 80.0]})
    code, doc = run(capsys, "metric", a, b, "--which", "dtilde",
                    "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    assert doc["value"] == pytest.approx(2.0, abs=0.05)
    code, doc = run(capsys, "metric", a, a, "--which", "dtilde",
                    "--config", cfg, "--out", str(tmp_path))
    assert doc["value"] == 0.0


def test_metric_missing_required_key(tmp_path, capsys, lattice_files):
    a, b = lattice_files
    code, _ = run(capsys, "metric", a, b, "--which", "dbar",
                  "--out", str(tmp_path))
    assert code == 2


def test_metric_dimension_mismatch_exit_code(tmp_path, capsys):
    a = write_set(tmp_path, ak.make_lattice([[1.0]], 10.0), "a1.csv")
    b = write_set(tmp_path,
                  ak.make_lattice([[1.0, 0.0], [0.0, 1.0]], 10.0), "b2.csv")
    cfg = write_config(tmp_path, {"radii": [5.0]})
    code, _ = run(capsys, "metric", a, b, "--which", "dtilde",
                  "--config", cfg, "--out", str(tmp_path))
    assert code == 4


@pytest.mark.parametrize("which, cfg", [
    ("dbar", {"radii": [10, 20], "tol": 0.9}),
    ("d", {"tol": 0.9}),
])
def test_metric_tol_out_of_range_exit_code(tmp_path, capsys, which, cfg):
    a = write_set(tmp_path, ak.make_lattice([[1.0]], 40.0), "a.csv")
    code = main(["metric", a, a, "--which", which,
                 "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: tol must lie in")


def test_metric_dbar_unshared_hardcore_exit_code(tmp_path, capsys):
    # dbar runs at the smaller hardcore radius, as dbar_f and dtilde do
    A = ak.make_lattice([[1.0]], 40.0)
    B = ak.PointSet(np.arange(-40.0, 40.0).reshape(-1, 1) + 0.1, 40.0, 0.5)
    a, b = write_set(tmp_path, A, "a.csv"), write_set(tmp_path, B, "b.csv")
    code, doc = run(capsys, "metric", a, b, "--which", "dbar", "--config",
                    write_config(tmp_path, {"radii": [10.0, 20.0]}),
                    "--out", str(tmp_path))
    assert code == 0
    A_half = ak.PointSet(A.points, A.window_radius, 0.5)
    assert doc["value"] == ak.dbar(A_half, B, [10.0, 20.0])
    assert doc["value"] == pytest.approx(0.1, abs=1e-3)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_metric_non_finite_row_exit_code(tmp_path, capsys, bad):
    a = tmp_path / "a.csv"
    a.write_text(f"# dim=1\n# r=0.5\n# window=5\n0\n1\n{bad}\n")
    cfg = write_config(tmp_path, {"radii": [2.0]})
    code, _ = run(capsys, "metric", str(a), str(a), "--which", "dtilde",
                  "--config", cfg, "--out", str(tmp_path))
    assert code == 2


def test_metric_missing_file_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"radii": [5.0]})
    code, _ = run(capsys, "metric", str(tmp_path / "nope.csv"),
                  str(tmp_path / "nope.csv"), "--which", "dtilde",
                  "--config", cfg, "--out", str(tmp_path))
    assert code == 2


# ---------------------------------------------------------------------------
# autocorr


def test_autocorr_single_radius(tmp_path, capsys):
    a = write_set(tmp_path, ak.make_lattice([[1.0]], 100.0), "a.csv")
    cfg = write_config(tmp_path, {"radii": [100.0], "diff_cutoff": 10.0})
    code, doc = run(capsys, "autocorr", a, "--config", cfg,
                    "--out", str(tmp_path))
    assert code == 0
    assert doc["converged"] is None
    assert doc["mass_at_zero"] == pytest.approx(201.0 / 200.0, rel=1e-12)
    mu = ak.read_measure_csv(str(tmp_path / "autocorr.csv"))
    assert len(mu) == doc["n_atoms"] == 21


def test_autocorr_schedule_with_debias(tmp_path, capsys):
    a = write_set(tmp_path, ak.make_lattice([[1.0]], 320.0), "a.csv")
    cfg = write_config(tmp_path, {
        "radii": [240.0, 280.0, 320.0], "diff_cutoff": 10.0, "debias": True})
    code, doc = run(capsys, "autocorr", a, "--config", cfg,
                    "--out", str(tmp_path))
    assert code == 0
    assert doc["converged"] is True
    mu = ak.read_measure_csv(str(tmp_path / "autocorr.csv"))
    for m in range(-10, 11):
        want = (641.0 - abs(m)) / (640.0 - abs(m))
        assert mu.mass_at([float(m)]) == pytest.approx(want, rel=1e-12)


def test_autocorr_echoes_the_parsed_schedule(tmp_path, capsys):
    a = write_set(tmp_path, ak.make_lattice([[1.0]], 40.0), "a.csv")
    cfg = write_config(tmp_path, {"radii": [40, 20], "diff_cutoff": 5.0})
    code, doc = run(capsys, "autocorr", a, "--config", cfg,
                    "--out", str(tmp_path))
    assert code == 0
    assert doc["radii"] == [20.0, 40.0]
    assert all(isinstance(r, float) for r in doc["radii"])


@pytest.mark.parametrize("radius", [math.inf, math.nan])
def test_autocorr_one_bad_radius_message(tmp_path, capsys, radius):
    # the one-radius path parses its schedule like every other command
    a = write_set(tmp_path, ak.make_lattice([[1.0]], 40.0), "a.csv")
    code = main(["autocorr", a, "--config",
                 write_config(tmp_path, {"radii": [radius]}),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "radii must be positive and finite" in capsys.readouterr().err


def test_autocorr_radius_beyond_window_exit_code(tmp_path, capsys):
    a = write_set(tmp_path, ak.make_lattice([[1.0]], 10.0), "a.csv")
    cfg = write_config(tmp_path, {"radii": [40.0]})
    code, _ = run(capsys, "autocorr", a, "--config", cfg,
                  "--out", str(tmp_path))
    assert code == 4


def test_autocorr_bin_tol_too_fine_exit_code(tmp_path, capsys):
    # 20 / 1e-19 cells would wrap around in an int64 cast
    a = write_set(tmp_path, ak.make_lattice([[1.0]], 50.0), "a.csv")
    cfg = write_config(tmp_path, {"radii": [10], "bin_tol": 1e-19})
    code, doc = run(capsys, "autocorr", a, "--config", cfg,
                    "--out", str(tmp_path))
    assert code == 2
    assert doc is None
    assert not (tmp_path / "autocorr.csv").exists()


def test_autocorr_requires_radii(tmp_path, capsys):
    a = write_set(tmp_path, ak.make_lattice([[1.0]], 10.0), "a.csv")
    code, _ = run(capsys, "autocorr", a, "--out", str(tmp_path))
    assert code == 2


# ---------------------------------------------------------------------------
# diffract


def test_diffract_lattice_finds_integer_peaks(tmp_path, capsys):
    a = write_set(tmp_path, ak.make_lattice([[1.0]], 300.0), "a.csv")
    cfg = write_config(tmp_path, {
        "radii": [200.0, 250.0, 300.0],
        "k_lo": [-2.2], "k_hi": [2.2], "k_step": 1.0 / 1200.0})
    code, doc = run(capsys, "diffract", a, "--config", cfg,
                    "--out", str(tmp_path))
    assert code == 0
    assert doc["n_peaks"] == 5
    locs = sorted(p["location"][0] for p in doc["peaks"])
    assert np.allclose(locs, [-2, -1, 0, 1, 2], atol=1e-4)
    peaks_doc = json.loads((tmp_path / "peaks.json").read_text())
    assert peaks_doc["peaks"] == doc["peaks"]
    assert (tmp_path / "periodogram.csv").exists()


@pytest.mark.parametrize("normalization", ["per-volume", "atom-mass"])
def test_diffract_lends_its_periodogram(tmp_path, capsys, monkeypatch,
                                        normalization):
    from apkit import cli, diffraction

    S = ak.make_lattice([[1.0]], 120.0)
    a = write_set(tmp_path, S, "a.csv")
    radii, grid = [80.0, 120.0], ak.KGrid([-1.1], [1.1], 1.0 / 480.0)
    cfg = write_config(tmp_path, {
        "radii": radii, "k_lo": [-1.1], "k_hi": [1.1], "k_step": 1.0 / 480.0,
        "normalization": normalization})
    want_peaks = [p.to_json() for p in ak.detect_bragg_peaks(S, radii, grid)]
    ak.write_periodogram_csv(
        ak.periodogram(S, 120.0, grid, normalization=normalization),
        str(tmp_path / "want.csv"))
    calls = []
    original = diffraction.periodogram

    def counting(*args, **kwargs):
        calls.append(kwargs.get("normalization", "per-volume"))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "periodogram", counting)
    monkeypatch.setattr(diffraction, "periodogram", counting)
    out = tmp_path / "out"
    out.mkdir()
    code, doc = run(capsys, "diffract", a, "--config", cfg, "--out", str(out))
    assert code == 0
    # either normalization keeps |sum|^2, which gives the per-volume values
    assert len(calls) == 1
    assert doc["peaks"] == want_peaks and len(want_peaks) == 3
    assert ((out / "periodogram.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())


def test_diffract_criteria_block(tmp_path, capsys):
    a = write_set(tmp_path, ak.make_lattice([[1.0]], 300.0), "a.csv")
    cfg = write_config(tmp_path, {
        "radii": [240.0, 270.0, 300.0],
        "k_lo": [-1.1], "k_hi": [1.1], "k_step": 1.0 / 1200.0,
        "criteria": {"eps": 0.1, "ball_radius": 0.1, "search_radius": 5.5}})
    code, doc = run(capsys, "diffract", a, "--config", cfg,
                    "--out", str(tmp_path))
    assert code == 0
    crit = doc["criteria"]
    assert crit["C3_gamma_concentration"]["verdict"] == "pass"
    assert crit["ATOM_concentration"]["verdict"] == "pass"


def test_diffract_empty_input(tmp_path, capsys):
    empty = ak.PointSet(np.zeros((0, 1)), 50.0, 1.0)
    a = write_set(tmp_path, empty, "a.csv")
    cfg = write_config(tmp_path, {
        "radii": [40.0, 50.0],
        "k_lo": [-1.0], "k_hi": [1.0], "k_step": 1.0 / 256.0})
    code, doc = run(capsys, "diffract", a, "--config", cfg,
                    "--out", str(tmp_path))
    assert code == 0
    assert doc["n_peaks"] == 0 and doc["n_points"] == 0


def one_point_2d(tmp_path) -> str:
    S = ak.PointSet(np.zeros((1, 2)), 10.0, 1.0)
    return write_set(tmp_path, S, "one.csv")


def assert_single_radius_refused(tmp_path, capsys, **extra):
    a = write_set(tmp_path, ak.make_lattice([[1.0]], 20.0), "a.csv")
    cfg = write_config(tmp_path, {
        "radii": [20.0], "k_lo": [-1.1], "k_hi": [1.1], "k_step": 1.0 / 80.0,
        **extra})
    out = tmp_path / "out"
    code = main(["diffract", a, "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: need at least two radii")
    # the schedule is refused before any artifact is written
    assert os.listdir(out) == []


def test_diffract_criteria_single_radius_exit_code(tmp_path, capsys):
    assert_single_radius_refused(tmp_path, capsys, criteria={
        "eps": 0.1, "ball_radius": 0.1, "search_radius": 3.0})


def test_diffract_single_radius_exit_code(tmp_path, capsys):
    # one radius cannot score peak stability; every peak used to be dropped
    assert_single_radius_refused(tmp_path, capsys)


def test_diffract_criteria_one_point_exit_code(tmp_path, capsys):
    a = one_point_2d(tmp_path)
    cfg = write_config(tmp_path, {
        "radii": [8.0, 10.0], "k_lo": [-0.5, -0.5], "k_hi": [0.5, 0.5],
        "k_step": 1.0 / 40.0,
        "criteria": {"eps": 0.1, "ball_radius": 0.1, "search_radius": 2.0}})
    code = main(["diffract", a, "--config", cfg, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: need at least two points")


# ---------------------------------------------------------------------------
# appd


def test_appd_grid_candidates(tmp_path, capsys):
    a = write_set(tmp_path, ak.make_lattice([[1.0]], 131.0), "a.csv")
    cfg = write_config(tmp_path, {
        "eps": 0.1, "radii": [40.0, 60.0, 80.0], "span": 3.0, "pitch": 1.0})
    code, doc = run(capsys, "appd", a, "--config", cfg,
                    "--out", str(tmp_path))
    assert code == 0
    assert doc["verdict"] == "pass"
    got = sorted(t[0] for t in doc["almost_period_set"])
    assert np.allclose(got, np.arange(-3.0, 4.0))


def test_appd_explicit_candidates(tmp_path, capsys):
    a = write_set(tmp_path, ak.make_lattice([[1.0]], 131.0), "a.csv")
    cfg = write_config(tmp_path, {
        "eps": 0.1, "radii": [40.0, 60.0, 80.0],
        "candidates": [[1.0], [0.5]], "gap_bound": 20.0})
    code, doc = run(capsys, "appd", a, "--config", cfg,
                    "--out", str(tmp_path))
    assert code == 0
    assert doc["almost_period_set"] == [[1.0]]


def test_appd_one_radius_exit_code(tmp_path, capsys):
    # one radius has no density tail to read, as in detect_bragg_peaks
    a = write_set(tmp_path, ak.make_lattice([[1.0]], 40.0), "a.csv")
    cfg = write_config(tmp_path, {"eps": 0.1, "radii": [20.0],
                                  "candidates": [[1.0]]})
    out = tmp_path / "out"
    code = main(["appd", a, "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: need at least two radii")
    assert os.listdir(out) == []


def test_appd_one_point_exit_code(tmp_path, capsys):
    a = one_point_2d(tmp_path)
    cfg = write_config(tmp_path, {"eps": 0.1, "radii": [4.0, 6.0]})
    code = main(["appd", a, "--config", cfg, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: need at least two points")


def test_appd_configured_pitch_skips_mean_spacing(tmp_path, capsys):
    a = one_point_2d(tmp_path)
    cfg = write_config(tmp_path, {
        "eps": 0.1, "radii": [4.0, 6.0], "pitch": 1.0, "span": 2.0,
        "gap_bound": 5.0})
    code, doc = run(capsys, "appd", a, "--config", cfg,
                    "--out", str(tmp_path))
    assert code == 0
    # the pitch-1 grid within span 2: 13 candidates
    assert doc["details"]["candidates"] == 13


# ---------------------------------------------------------------------------
# palm


def test_palm_intensity_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "sampler": {"kind": "randomized_lattice", "seed": 2,
                    "window_radius": 30.0, "basis": [[1.0]]},
        "region": {"kind": "ball", "center": [1.0], "radius": 0.25},
        "n_samples": 30})
    code, doc = run(capsys, "palm", "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    assert doc["mode"] == "intensity"
    assert doc["value"] == pytest.approx(1.0, abs=1e-12)


def test_palm_acpalm_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "sampler": {"kind": "randomized_lattice", "seed": 2,
                    "window_radius": 110.0, "basis": [[1.0]]},
        "region": {"kind": "ball", "center": [1.0], "radius": 0.25},
        "acpalm": {"radii": [60.0, 80.0, 100.0], "n_seeds": 5,
                   "n_palm_samples": 40}})
    code, doc = run(capsys, "palm", "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    assert doc["mode"] == "acpalm"
    assert doc["max_abs_deviation"] <= 0.05
    assert len(doc["per_seed_final"]) == 5


def test_palm_window_too_small_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "sampler": {"kind": "randomized_lattice", "seed": 2,
                    "window_radius": 1.0, "basis": [[1.0]]},
        "region": {"kind": "ball", "center": [0.0], "radius": 2.0}})
    code, _ = run(capsys, "palm", "--config", cfg, "--out", str(tmp_path))
    assert code == 4


@pytest.mark.parametrize("region", [
    {"kind": "box", "lo": [1.0], "hi": [0.5]},
    {"kind": "box", "lo": [math.nan], "hi": [0.5]},
    {"kind": "box", "lo": [-math.inf], "hi": [0.5]},
    {"kind": "ball", "center": [1.0], "radius": math.nan},
    {"kind": "ball", "center": [math.inf], "radius": 0.25},
])
def test_palm_bad_region_exit_code(tmp_path, capsys, region):
    cfg = write_config(tmp_path, {
        "sampler": {"kind": "randomized_lattice", "seed": 2,
                    "window_radius": 30.0, "basis": [[1.0]]},
        "region": region})
    code = main(["palm", "--config", cfg, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {region['kind']} needs")


MATERN = {"kind": "matern_II", "seed": 2, "window_radius": 30.0,
          "intensity": 1.0, "hardcore": 0.5}


@pytest.mark.parametrize("command, doc", [
    ("palm", {"sampler": {**MATERN, "window_radius": math.nan}}),
    ("palm", {"sampler": {**MATERN, "intensity": math.nan}}),
    ("palm", {"sampler": {**MATERN, "hardcore": math.nan}}),
    ("generate", {"lattice": {"basis": [[1.0]], "window_radius": math.nan}}),
    ("generate", {"lattice": {"basis": [[math.nan]], "window_radius": 10.0}}),
])
def test_non_finite_config_numbers_exit_code(tmp_path, capsys, command, doc):
    if command == "palm":
        doc = {**doc, "region": {"kind": "ball", "center": [1.0],
                                 "radius": 0.25}}
    code = main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "finite" in captured.err


# (command, extra argv, config, (r, window) header of a 3-point file or None
# for the lattice file); ids keep the command-extraN-docN form
NON_FINITE_FILE_CASES = [
    ("metric", ["--which", "dtilde"], {"radii": [10.0, math.nan]}, None),
    ("diffract", [], {"radii": [10.0], "k_lo": [0.0], "k_hi": [1.0],
                      "k_step": math.nan}, None),
    ("diffract", [], {"radii": [10.0], "k_lo": [-math.inf], "k_hi": [1.0],
                      "k_step": 0.1}, None),
    ("metric", ["--which", "dbarf"], {"radii": [10.0, 20.0], "f": {
        "shape": "triangle_bump", "support_radius": math.nan}}, None),
    ("metric", ["--which", "dbarf"], {"radii": [10.0, 20.0], "f": {
        "shape": "triangle_bump", "support_radius": 0.1,
        "center": [math.nan]}}, None),
    ("metric", ["--which", "dbarf"], {"radii": [10.0, 20.0], "f": {
        "shape": "triangle_bump", "support_radius": 0.1,
        "amplitude": math.nan}}, None),
    ("metric", ["--which", "dbarf"], {"radii": [math.nan], "f": {
        "shape": "triangle_bump", "support_radius": 0.1}}, None),
    ("metric", ["--which", "dbarc"], {"R": 5.0, "tol": 0.1, "quad_points": 8,
                                      "schedule_fractions": [math.nan]}, None),
    ("autocorr", [], {"radii": [math.inf]}, None),
    ("autocorr", [], {"radii": [math.nan]}, None),
    ("autocorr", [], {"radii": [1000.0]}, ("1", "inf")),
    ("autocorr", [], {"radii": [2.0]}, ("1", "nan")),
    ("autocorr", [], {"radii": [2.0]}, ("inf", "5")),
]


@pytest.mark.parametrize("command, extra, doc, header", NON_FINITE_FILE_CASES,
                         ids=[f"{case[0]}-extra{i}-doc{i}" for i, case
                              in enumerate(NON_FINITE_FILE_CASES)])
def test_non_finite_file_command_numbers_exit_code(tmp_path, capsys, command,
                                                   extra, doc, header):
    # dtilde used to report {"value": null} with exit 0; diffract a
    # traceback; a window=inf or nan header exit 0, an r=inf one exit 1
    if header is None:
        a = write_set(tmp_path, ak.make_lattice([[1.0]], 40.0), "a.csv")
    else:
        a = str(tmp_path / "a.csv")
        (tmp_path / "a.csv").write_text(
            f"# dim=1\n# r={header[0]}\n# window={header[1]}\n0\n1\n2\n")
    files = [a, a] if command == "metric" else [a]
    code = main([command, *files, *extra, "--config",
                 write_config(tmp_path, doc), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "finite" in captured.err


def test_point_csv_closer_than_its_r_exit_code(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text("# dim=1\n# r=0.5\n# window=5\n0\n0.3\n1\n")
    cfg = write_config(tmp_path, {"radii": [2.0]})
    code = main(["metric", str(a), str(a), "--which", "dtilde",
                 "--config", cfg, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: pairwise distance 0.3 below")


def test_error_classes_carry_their_exit_codes():
    window = [ak.DimensionMismatch, ak.WindowTooSmall, ak.RadiusExceedsWindow,
              ak.RegionOutsideWindow, ak.TranslationExceedsWindow,
              ak.OutsideWindow, ak.SupportTooLarge]
    assert all(issubclass(cls, ak.WindowError) for cls in window)
    assert all(cls.exit_code == 4 for cls in window)
    assert ak.NotUniformlyDiscrete.exit_code == 3
    for cls in (ak.ApkitError, ak.InvalidArgument, ak.ConfigError,
                ak.EmptyCandidateSet, ak.PsiNotNormalized, ak.NoAtomAtZero,
                ak.SingularBasis):
        assert cls.exit_code == 2


@pytest.mark.parametrize("text", [
    b"# dim=1\n# r=1\n# window=5\n\xff\n",
    b"# dim=1e300\n# r=1\n# window=5\n",
    # zero rows: numpy could shape this dim, the grid walk could not
    b"# dim=1e12\n# r=1\n# window=5\n",
    # two points: 3**9 cells per grid query
    b"# dim=9\n# r=1\n# window=5\n" + b"0,0,0,0,0,0,0,0,0\n1,0,0,0,0,0,0,0,0\n",
])
def test_unreadable_point_file_exit_code(tmp_path, capsys, text):
    a = tmp_path / "a.csv"
    a.write_bytes(text)
    code = main(["autocorr", str(a), "--config",
                 write_config(tmp_path, {"radii": [2.0]}),
                 "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("grid", [{"pitch": math.nan}, {"span": math.inf},
                                  {"pitch": 1.0, "span": math.nan}])
def test_appd_non_finite_grid_exit_code(tmp_path, capsys, grid):
    a = write_set(tmp_path, ak.make_lattice([[1.0]], 40.0), "a.csv")
    cfg = write_config(tmp_path, {"eps": 0.1, "radii": [10.0, 20.0], **grid})
    code = main(["appd", a, "--config", cfg, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: pitch and span must be positive")


def test_appd_empty_2d_grid_exit_code(tmp_path, capsys):
    # on Z^2 the pitch-5 grid within span 1 is the one corner (-1, -1),
    # which lies outside the span ball: no candidates remain
    a = write_set(tmp_path, ak.make_lattice([[1.0, 0.0], [0.0, 1.0]], 30.0),
                  "a.csv")
    cfg = write_config(tmp_path, {"eps": 0.1, "radii": [10.0, 20.0],
                                  "pitch": 5.0, "span": 1.0})
    code = main(["appd", a, "--config", cfg, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: no candidate translations")


@pytest.mark.parametrize("command, doc", [
    ("diffract", {"radii": [10.0, 20.0], "k_lo": [-1e6], "k_hi": [1e6],
                  "k_step": 1e-6}),
    ("appd", {"eps": 0.1, "radii": [10.0, 20.0], "pitch": 1e-11,
              "span": 5.0}),
], ids=["k_grid", "appd_grid"])
def test_huge_grid_refused_before_allocating_exit_code(tmp_path, capsys,
                                                       command, doc):
    # both used to die in numpy with _ArrayMemoryError, exit 1
    a = write_set(tmp_path, ak.make_lattice([[1.0]], 40.0), "a.csv")
    cfg = write_config(tmp_path, doc)
    code = main([command, a, "--config", cfg, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "1e+07" in captured.err


def test_threads_flag_is_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--threads", "2", "--only", "fibonacci",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def test_verify_single_check(tmp_path, capsys):
    code, doc = run(capsys, "verify", "--only", "fibonacci",
                    "--out", str(tmp_path))
    assert code == 0
    assert doc["all_passed"] is True
    assert len(doc["checks"]) == 1
    assert doc["checks"][0]["tag"] == "fibonacci"
    assert doc["checks"][0]["passed"] is True


def test_verify_unknown_tag(tmp_path, capsys):
    code, _ = run(capsys, "verify", "--only", "bogus", "--out", str(tmp_path))
    assert code == 2


def test_run_checks_unknown_tag_is_invalid_argument():
    with pytest.raises(ak.InvalidArgument, match="unknown check tag"):
        ak.run_checks(only="bogus")


def test_verify_misconfigured_threshold_fails_honestly(tmp_path, capsys,
                                                       monkeypatch):
    # a check that fails must make the command fail: exit 1, not a pass
    monkeypatch.setitem(verify._CHECKS, "criterion_coherence",
                        lambda seed: verify.CheckResult(
                            "criterion_coherence", False, {"seed": seed}))
    code, doc = run(capsys, "verify", "--only", "criterion_coherence",
                    "--out", str(tmp_path))
    assert code == 1
    assert doc["all_passed"] is False
    assert doc["checks"] == [{"tag": "criterion_coherence", "passed": False,
                              "details": {"seed": 0}}]


def test_verify_config_takes_no_keys(tmp_path, capsys):
    cfg = write_config(tmp_path, {"peak_threshold_scale": 10.0})
    code, _ = run(capsys, "verify", "--only", "fibonacci", "--config", cfg,
                  "--out", str(tmp_path))
    assert code == 2


def test_verify_rerun_is_byte_identical(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a, _ = run(capsys, "verify", "--only", "fibonacci", "--seed", "0",
                    "--out", str(out_a))
    code_b, _ = run(capsys, "verify", "--only", "fibonacci", "--seed", "0",
                    "--out", str(out_b))
    assert code_a == code_b == 0
    assert (out_a / "verify.json").read_bytes() == \
        (out_b / "verify.json").read_bytes()


# ---------------------------------------------------------------------------
# output handling


def test_outputs_are_sorted_pretty_json(tmp_path, capsys):
    run(capsys, "generate", "--preset", "lattice-z", "--radius", "5",
        "--out", str(tmp_path))
    text = (tmp_path / "generate.json").read_text()
    keys = [line.split('"')[1] for line in text.splitlines()
            if line.startswith('  "')]
    assert keys == sorted(keys)


def test_out_directory_is_created(tmp_path, capsys):
    nested = tmp_path / "deep" / "dir"
    code, _ = run(capsys, "generate", "--preset", "lattice-z", "--radius",
                  "5", "--out", str(nested))
    assert code == 0
    assert (nested / "points.csv").exists()


def test_unwritable_out_exit_code(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    code = main(["generate", "--preset", "lattice-z", "--radius", "5",
                 "--out", str(afile / "sub")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot create output directory")
