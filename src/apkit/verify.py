"""Corpus-level verification checks.

Each check builds a small reference corpus (integer lattice, two-gap
projection chain, its smoothly deformed variant, a hardcore disorder
control), runs one slice of the pipeline end to end, and returns a
JSON-ready result with a pass flag. The checks are deterministic given the
run seed: identical seeds produce identical result documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autocorr import (
    autocorrelation_limit,
    debias_ball_edge,
    evaluate,
    finite_autocorrelation,
    birkhoff_average_hf,
)
from .diffraction import (
    KGrid,
    atom_mass,
    bohr_test_mu_conv_f,
    criterion_almost_periods,
    criterion_atom_concentration,
    criterion_gamma_concentration,
    detect_bragg_peaks,
    peak_span_gap,
)
from .errors import InvalidArgument
from .generators import (
    GOLDEN_RATIO,
    ProcessSampler,
    SinusoidalDeformation,
    _project_counting_grazes,
    event_almost_periods,
    fibonacci_config,
    make_lattice,
    palm_intensity,
    sample,
    verify_acpalm,
)
from .pointset import (
    PointSet,
    RegionSpec,
    ball_volume,
    mean_nn_spacing,
    translate,
)
from .pseudometrics import dbar, dbar_c, dbar_f
from .testfunc import TestFunction
from .util import relative_spread


@dataclass
class CheckResult:
    tag: str
    passed: bool
    details: dict

    def to_json(self) -> dict:
        return {"tag": self.tag, "passed": self.passed,
                "details": self.details}


def _with_hardcore(S: PointSet, r: float) -> PointSet:
    """Same points with a smaller declared hardcore radius."""
    return PointSet(S.points, S.window_radius, r, validate=False)


# ---------------------------------------------------------------------------
# 1. Lattice diffraction


def check_lattice_diffraction(seed: int = 0) -> CheckResult:
    """Atom masses of the integer lattice: 1 at integer frequencies, 0 off."""
    S = make_lattice([[1.0]], 2000.0)
    radii = np.linspace(1000.0, 2000.0, 9)
    on_peak = {}
    off_peak = {}
    ok = True
    for k in (1.0, 2.0, 3.0):
        mass, stab = atom_mass(S, [k], radii)
        on_peak[str(k)] = {"mass": mass, "stability": stab}
        ok = ok and 0.98 <= mass <= 1.02
    for k in (0.5, math.sqrt(2.0) / 2.0):
        mass, stab = atom_mass(S, [k], radii)
        off_peak[f"{k:.6f}"] = {"mass": mass, "stability": stab}
        ok = ok and mass <= 0.01
    return CheckResult("lattice_diffraction", ok,
                       {"on_peak": on_peak, "off_peak": off_peak})


# ---------------------------------------------------------------------------
# 2. Lattice autocorrelation


def check_lattice_autocorr(seed: int = 0) -> CheckResult:
    """Pair measure of the integer lattice at R=1000 against closed forms."""
    R = 1000.0
    S = make_lattice([[1.0]], R)
    card = len(S)
    vol = 2.0 * R
    gamma = finite_autocorrelation(S, R)
    ok = True
    atom_errors = {}
    for m in range(-10, 11):
        expect = (card - abs(m)) / vol
        got = gamma.mass_at([float(m)])
        atom_errors[str(m)] = abs(got - expect) / expect
        ok = ok and atom_errors[str(m)] <= 0.01
    total = gamma.total_mass()
    total_expect = card * card / vol
    total_rel = abs(total - total_expect) / total_expect
    ok = ok and total_rel <= 1e-12
    zero_rel = abs(gamma.mass_at_zero() * vol - card) / card
    ok = ok and zero_rel <= 1e-12
    return CheckResult("lattice_autocorr", ok,
                       {"card": card, "total_mass_rel_error": total_rel,
                        "zero_atom_rel_error": zero_rel,
                        "max_atom_rel_error": max(atom_errors.values()),
                        "atoms_checked": len(atom_errors)})


# ---------------------------------------------------------------------------
# 3. Weighted pair-sum average vs direct measure evaluation


_PAIR_PRESETS = (
    ("triangle_bump", 1.0, "triangle_bump", 2.5, 1.0),
    ("cosine_bump", 1.5, "cosine_bump", 0.9, 1.0),
    ("triangle_bump", 2.0, "cosine_bump", 1.7, 0.7),
    ("cosine_bump", 0.8, "triangle_bump", 3.2, 1.0),
    ("triangle_bump", 1.2, "triangle_bump", 0.45, 2.0),
)


def check_pair_functional(seed: int = 0) -> CheckResult:
    """Two estimators of the same pair statistic must agree to 2%."""
    R = 200.0
    window = 210.0
    corpus = {
        "lattice": make_lattice([[1.0]], window),
        "fibonacci": _project_counting_grazes(fibonacci_config(window))[0],
    }
    rows = []
    ok = True
    for name, S in corpus.items():
        for psi_shape, psi_r, f_shape, f_r, f_amp in _PAIR_PRESETS:
            psi = TestFunction(psi_shape, psi_r, 1.0, [0.0]).normalized()
            f = TestFunction(f_shape, f_r, f_amp, [0.0])
            gamma = finite_autocorrelation(S, R, diff_cutoff=f_r + 0.5)
            direct = evaluate(gamma, f)
            averaged = birkhoff_average_hf(S, psi, f, R)
            rel = abs(averaged - direct) / abs(direct)
            rows.append({"set": name, "psi": [psi_shape, psi_r],
                         "f": [f_shape, f_r, f_amp],
                         "direct": direct, "averaged": averaged,
                         "rel_error": rel})
            ok = ok and rel <= 0.02
    return CheckResult("pair_functional", ok,
                       {"pairs": rows,
                        "max_rel_error": max(r["rel_error"] for r in rows)})


# ---------------------------------------------------------------------------
# 4. Pseudo-metric suite


def _metric_pool(seed: int) -> list[PointSet]:
    window = 130.0
    pool = []
    for i in range(4):
        p = ProcessSampler("perturbed_lattice", seed * 101 + i, window,
                           basis=[[1.0]], noise_bound=0.2)
        pool.append(sample(p))
    for i in range(3):
        p = ProcessSampler("matern_II", seed * 101 + 50 + i, window,
                           intensity=1.0, hardcore=0.5)
        pool.append(sample(p))
    for i in range(2):
        p = ProcessSampler("randomized_lattice", seed * 101 + 80 + i, window,
                           basis=[[1.0]])
        pool.append(sample(p))
    return pool


def _unify_hardcore(*sets: PointSet) -> list[PointSet]:
    r = min(S.hardcore_radius for S in sets)
    return [_with_hardcore(S, r) for S in sets]


def check_pseudometrics(seed: int = 0) -> CheckResult:
    """Translation invariance, triangle inequality, shift co-convergence."""
    pool = _metric_pool(seed)
    rng = np.random.Generator(np.random.Philox(key=seed + 7))
    radii = np.array([40.0, 60.0, 80.0])
    R_c = 24.0
    f = TestFunction("triangle_bump", 0.09, 1.0, [0.0])
    details: dict = {}
    ok = True

    # (a) translation invariance on random pairs
    shifts = []
    for _ in range(10):
        i, j = int(rng.integers(len(pool))), int(rng.integers(len(pool)))
        A, B = _unify_hardcore(pool[i], pool[j])
        t = float(rng.uniform(-0.5, 0.5))
        At, Bt = translate(A, [t]), translate(B, [t])
        r = A.hardcore_radius
        tol_b = 1e-3 * r
        d1 = dbar(A, B, radii)
        d2 = dbar(At, Bt, radii)
        c1 = dbar_c(A, B, R_c).value
        c2 = dbar_c(At, Bt, R_c).value
        f1 = dbar_f(A, B, f, radii).value
        f2 = dbar_f(At, Bt, f, radii).value
        # counting-window shift at the schedule scale plus solver tolerance
        lim_b = abs(t) * 2.5 / radii[0] + 2 * tol_b + 0.01
        lim_c = 0.71 * abs(t) / R_c + 2 * 1e-2 + 0.01
        lim_f = abs(t) * 2.0 / (2 * radii[0]) + 0.01
        shifts.append({"pair": [i, j], "t": t,
                       "dbar": [d1, d2], "dbar_c": [c1, c2],
                       "dbar_f": [f1, f2]})
        ok = ok and abs(d1 - d2) <= lim_b and abs(c1 - c2) <= lim_c \
            and abs(f1 - f2) <= lim_f
    details["translation_pairs"] = shifts

    # (b) triangle inequality on random triples
    triples = []
    viol = 0.0
    for _ in range(25):
        idx = [int(v) for v in rng.integers(len(pool), size=3)]
        A, B, C = _unify_hardcore(*(pool[i] for i in idx))
        r = A.hardcore_radius
        tol_b = 1e-3 * r
        shell = 2.5 * (r / 2.0) / radii[0]
        d12, d23, d13 = (dbar(A, B, radii), dbar(B, C, radii),
                         dbar(A, C, radii))
        c12, c23, c13 = (dbar_c(A, B, R_c).value, dbar_c(B, C, R_c).value,
                         dbar_c(A, C, R_c).value)
        g12, g23, g13 = (dbar_f(A, B, f, radii).value,
                         dbar_f(B, C, f, radii).value,
                         dbar_f(A, C, f, radii).value)
        rows_ok = (d13 <= d12 + d23 + 2 * tol_b + shell
                   and c13 <= c12 + c23 + 2 * 1e-2 + 0.02
                   and g13 <= g12 + g23 + 1e-9)
        viol = max(viol, d13 - d12 - d23, c13 - c12 - c23, g13 - g12 - g23)
        triples.append({"sets": idx, "ok": rows_ok})
        ok = ok and rows_ok
    details["triples_max_excess"] = viol

    # (c) co-convergence on the shifted-lattice family
    base = make_lattice([[1.0]], 131.0)
    series = {"s": [], "dbar": [], "dbar_c": [], "dbar_f": []}
    fshift = TestFunction("triangle_bump", 0.19, 0.5, [0.0])
    for s in (0.2, 0.1, 0.05, 0.025):
        shifted = translate(base, [s])
        A, B = _unify_hardcore(base, shifted)
        series["s"].append(s)
        series["dbar"].append(dbar(A, B, radii))
        series["dbar_c"].append(dbar_c(A, B, R_c).value)
        series["dbar_f"].append(dbar_f(A, B, fshift, radii).value)
    for key in ("dbar", "dbar_c", "dbar_f"):
        vals = series[key]
        ok = ok and all(a > b for a, b in zip(vals, vals[1:]))
        ok = ok and vals[-1] <= 0.05
    details["shift_family"] = series
    return CheckResult("pseudometrics", ok, details)


# ---------------------------------------------------------------------------
# 5. Criterion coherence on the corpus


_EPS = 0.05
_BALL_R = 0.1
_PROBE_RADIUS = 10.0
_K_SEARCH = 3.0
_K_GAP_BOUND = 2.0
_BOHR_F = ("triangle_bump", 0.2, 0.25)


def build_corpus(seed: int, window: float = 620.0) -> dict[str, PointSet]:
    """The four reference sets the coherence checks run on."""
    fib = fibonacci_config(window)
    amp = 0.05 * (1.0 / math.sqrt(2.0 + GOLDEN_RATIO))
    deformed = fibonacci_config(
        window, deformation=SinusoidalDeformation([amp], [0.5], 0.7))
    matern = ProcessSampler("matern_II", seed, window,
                            intensity=1.0, hardcore=0.5)
    return {
        "lattice": make_lattice([[1.0]], window),
        "fibonacci": _project_counting_grazes(fib)[0],
        "deformed_fibonacci": _project_counting_grazes(deformed)[0],
        "matern": sample(matern),
    }


def _coherence_candidates(mu, gamma0: float, spacing: float,
                          search: float) -> np.ndarray:
    """Almost-period candidates: heavy coarse atoms, a grid, and zero."""
    coarse = mu.coarsened(0.05)
    heavy = coarse.locations[coarse.weights >= 0.4 * gamma0]
    grid = np.arange(-search, search + spacing / 2.0, spacing).reshape(-1, 1)
    cand = np.vstack([np.zeros((1, mu.dim)), heavy, grid])
    norms = np.sqrt(np.sum(cand ** 2, axis=1))
    cand = cand[norms <= search]
    order = np.lexsort(cand.T[::-1])
    cand = cand[order]
    keep = np.ones(len(cand), dtype=bool)
    for i in range(1, len(cand)):
        if np.linalg.norm(cand[i] - cand[i - 1]) < 1e-6:
            keep[i] = False
    return cand[keep]


def check_criterion_coherence(seed: int = 0,
                              peak_threshold_scale: float | None = None
                              ) -> CheckResult:
    """Concentration, mismatch-density, and smoothed-profile verdicts agree.

    All three executable criteria must reach the same verdict on each corpus
    set: pass on the ordered three, fail on the disorder control. The peak
    detector's "stable peaks are relatively dense" summary must match too,
    and a single-atom concentration pass must imply a ball concentration
    pass.
    """
    corpus = build_corpus(seed)
    gamma_radii = np.array([240.0, 260.0, 280.0, 300.0])
    c5_radii = np.array([150.0, 200.0, 250.0, 300.0])
    expected = {"lattice": "pass", "fibonacci": "pass",
                "deformed_fibonacci": "pass", "matern": "fail"}
    f_bohr = TestFunction(_BOHR_F[0], _BOHR_F[1], _BOHR_F[2], [0.0])
    probes = np.linspace(-_PROBE_RADIUS, _PROBE_RADIUS, 1501).reshape(-1, 1)
    per_set = {}
    ok = True
    for name, S in corpus.items():
        spacing = mean_nn_spacing(S)
        bound = 2.0 * spacing / _EPS
        search = 1.2 * bound
        cutoff = _PROBE_RADIUS + search + 1.0
        est = autocorrelation_limit(S, gamma_radii, diff_cutoff=cutoff)
        zero_stable = relative_spread(est.per_radius_mass_at_zero) < 0.15
        mu = debias_ball_edge(est.measure, float(gamma_radii[-1]))
        gamma0 = mu.mass_at_zero()
        c3 = criterion_gamma_concentration(mu, _BALL_R, _EPS, search,
                                           gap_bound=bound)
        atom = criterion_atom_concentration(mu, _EPS, search, gap_bound=bound)
        cand = _coherence_candidates(mu, gamma0, spacing, search)
        c5 = criterion_almost_periods(S, _EPS, cand, c5_radii,
                                      gap_bound=bound, search_radius=search)
        bohr = bohr_test_mu_conv_f(mu, f_bohr, _EPS, cand, probes,
                                   gap_bound=bound, search_radius=search)
        kstep = 1.0 / (4.0 * float(gamma_radii[-1]))
        theta = None
        if peak_threshold_scale is not None:
            dens = len(S) / ball_volume(S.dim, S.window_radius)
            theta = peak_threshold_scale * dens * dens
        peaks = detect_bragg_peaks(S, gamma_radii,
                                   KGrid([-_K_SEARCH - 0.2], [_K_SEARCH + 0.2],
                                         kstep), threshold=theta)
        kgap = float(peak_span_gap(peaks, _K_SEARCH))
        peaks_dense = bool(kgap <= _K_GAP_BOUND)
        verdicts = {"C3": c3.verdict, "C5": c5.verdict, "BOHR": bohr.verdict}
        want = expected[name]
        agree = (len(set(verdicts.values())) == 1
                 and verdicts["C3"] == want
                 and peaks_dense == (want == "pass")
                 and (atom.verdict != "pass" or c3.verdict == "pass"))
        per_set[name] = {
            "verdicts": verdicts,
            "atom_verdict": atom.verdict,
            "expected": want,
            "gap_bound": bound,
            "gaps": {"C3": c3.gap, "C5": c5.gap, "BOHR": bohr.gap},
            "zero_atom_series_stable": zero_stable,
            "atom_tracking_converged": est.converged,
            "candidates": int(len(cand)),
            "peaks": len(peaks),
            "peak_span_gap": kgap if math.isfinite(kgap) else None,
            "peaks_dense": peaks_dense,
        }
        ok = ok and agree and zero_stable
    return CheckResult("criterion_coherence", ok, {"per_set": per_set})


# ---------------------------------------------------------------------------
# 6. Autocorrelation versus Palm intensity


def check_acpalm(seed: int = 0) -> CheckResult:
    """Per-seed pair mass on a region matches the typical-point intensity."""
    window = 210.0
    radii = np.array([100.0, 150.0, 200.0])
    A = RegionSpec.ball([1.0], 0.25)
    latt = ProcessSampler("randomized_lattice", seed + 1, window,
                          basis=[[1.0]])
    rep = verify_acpalm(latt, A, radii, n_seeds=20)
    lattice_dev = float(np.max(np.abs(np.array(rep["per_seed_final"]) - 1.0)))
    ok = lattice_dev <= 0.05

    mat = ProcessSampler("matern_II", seed + 2, window,
                         intensity=1.0, hardcore=0.5)
    A2 = RegionSpec.ball([0.5], 0.1)
    rep2 = verify_acpalm(mat, A2, radii, n_seeds=20)
    finals = np.array(rep2["per_seed_final"])
    sem = float(np.std(finals, ddof=1) / math.sqrt(len(finals)))
    combined = math.sqrt(rep2["palm_stderr"] ** 2 + sem ** 2)
    matern_gap = abs(float(np.mean(finals)) - rep2["palm_value"])
    ok = ok and matern_gap <= 3.0 * combined
    return CheckResult("acpalm", ok, {
        "lattice_max_abs_deviation": lattice_dev,
        "lattice_palm_value": rep["palm_value"],
        "matern_gap": matern_gap,
        "matern_3sigma": 3.0 * combined,
    })


# ---------------------------------------------------------------------------
# 7. Occupancy-event almost periods


def _fib_projection_candidates(max_abs_t: float, w_bound: float) -> np.ndarray:
    """Projected lattice vectors with small internal component."""
    tau = GOLDEN_RATIO
    c = math.sqrt(2.0 + tau)
    cands = [0.0]
    m2 = 1
    while True:
        m1 = round(tau * m2)
        t = (tau * m1 + m2) / c
        if t > max_abs_t:
            break
        w = (-m1 + tau * m2) / c
        if abs(w) <= w_bound:
            cands.extend([t, -t])
        m2 += 1
    return np.array(sorted(cands)).reshape(-1, 1)


def check_event_periods(seed: int = 0) -> CheckResult:
    """Monte Carlo occupancy-event almost periods on both process kinds."""
    R = 0.2
    eps = 0.1
    n_samples = 500
    # two-gap model set: accepted translations must be relatively dense
    window = 30.0
    p = ProcessSampler("randomized_model_set", seed + 3, window,
                       cut_project=fibonacci_config(window))
    mean_spacing = 1.0 / (GOLDEN_RATIO ** 2 / math.sqrt(2.0 + GOLDEN_RATIO))
    gap_bound = 10.0 * mean_spacing
    cand = _fib_projection_candidates(25.0, 0.3)
    bad = np.array([[5.0 * mean_spacing * 0.37], [11.3 * mean_spacing * 0.41]])
    cand = np.vstack([cand, bad])
    rep = event_almost_periods(p, R, eps, cand, n_samples,
                               gap_bound=gap_bound, search_radius=25.0)
    fib_ok = rep.verdict == "pass"

    # stationarized lattice: integers are exact almost-sure periods
    latt = ProcessSampler("randomized_lattice", seed + 4, 30.0, basis=[[1.0]])
    ints = np.arange(-5.0, 6.0).reshape(-1, 1)
    others = np.array([[0.5], [2.5]])
    lat_cand = np.vstack([ints, others])
    rep2 = event_almost_periods(latt, R, eps, lat_cand, n_samples,
                                gap_bound=2.0, search_radius=5.0)
    rates = np.array(rep2.details["event_rate"])
    integer_mask = np.array([float(v) == round(float(v))
                             for v in lat_cand[:, 0]])
    lattice_ok = bool(np.all(rates[integer_mask] == 0.0)
                      and np.all(rates[~integer_mask] > eps))
    accepted_int = {tuple(row) for row in np.atleast_2d(rep2.almost_period_set)}
    expected_int = {tuple(row) for row in ints}
    lattice_ok = lattice_ok and accepted_int == expected_int \
        and rep2.verdict == "pass"
    return CheckResult("event_periods", fib_ok and lattice_ok, {
        "model_set_gap": rep.gap,
        "model_set_gap_bound": gap_bound,
        "model_set_accepted": int(len(rep.almost_period_set)),
        "lattice_rates_integer_max": float(np.max(rates[integer_mask])),
        "lattice_rates_other_min": float(np.min(rates[~integer_mask])),
    })


# ---------------------------------------------------------------------------
# 8. Palm base-region independence


def check_palm_base(seed: int = 0) -> CheckResult:
    """The base region used by the Palm estimator must not matter."""
    window = 30.0
    dim = 1
    B_cube = RegionSpec.box([-0.5] * dim, [0.5] * dim)
    B_ball = RegionSpec.ball([0.0] * dim, 2.0)
    rows = {}
    ok = True
    samplers = {
        "randomized_lattice": (
            ProcessSampler("randomized_lattice", seed + 5, window,
                           basis=[[1.0]]),
            RegionSpec.ball([1.0], 0.25)),
        "matern": (
            ProcessSampler("matern_II", seed + 6, window,
                           intensity=1.0, hardcore=0.5),
            RegionSpec.ball([0.5], 0.25)),
    }
    for name, (p, A) in samplers.items():
        e1 = palm_intensity(p, A, B_cube, n_samples=200)
        e2 = palm_intensity(p, A, B_ball, n_samples=200)
        combined = math.sqrt(e1.stderr ** 2 + e2.stderr ** 2)
        diff = abs(e1.value - e2.value)
        rows[name] = {"cube": e1.value, "ball": e2.value,
                      "diff": diff, "combined_stderr": combined}
        ok = ok and diff <= max(3.0 * combined, 1e-12)
    return CheckResult("palm_base", ok, rows)


# ---------------------------------------------------------------------------
# 9. Two-gap structure of the projection chain


def check_fibonacci(seed: int = 0) -> CheckResult:
    """Exactly two gaps with golden ratio; zero deformation is the identity."""
    S, grazes = _project_counting_grazes(fibonacci_config(500.0))
    xs = np.sort(S.points[:, 0])
    gaps = np.diff(xs)
    splits = np.nonzero(np.diff(np.sort(gaps)) > 1e-6)[0]
    n_values = len(splits) + 1
    # the zero-offset strip has exactly one boundary translate at each end
    ok = n_values == 2 and grazes == 2
    detail = {"n_gap_values": int(n_values), "points": len(S),
              "boundary_grazes": int(grazes)}
    if n_values == 2:
        sorted_gaps = np.sort(gaps)
        cut = splits[0] + 1
        short = float(np.mean(sorted_gaps[:cut]))
        long = float(np.mean(sorted_gaps[cut:]))
        spread = max(float(np.max(sorted_gaps[:cut]) - np.min(sorted_gaps[:cut])),
                     float(np.max(sorted_gaps[cut:]) - np.min(sorted_gaps[cut:])))
        ratio_err = abs(long / short - GOLDEN_RATIO) / GOLDEN_RATIO
        detail.update({"short_gap": short, "long_gap": long,
                       "ratio_rel_error": ratio_err,
                       "within_value_spread": spread})
        ok = ok and ratio_err <= 1e-9 and spread <= 1e-9
    zero_def = fibonacci_config(
        500.0, deformation=SinusoidalDeformation([0.0], [1.0], 0.0))
    S2 = _project_counting_grazes(zero_def)[0]
    identical = bool(len(S) == len(S2)
                     and np.array_equal(S.points, S2.points))
    ok = ok and identical
    detail["zero_deformation_identical"] = identical
    return CheckResult("fibonacci", ok, detail)


# ---------------------------------------------------------------------------
# Runner


_CHECKS = {
    "lattice_diffraction": check_lattice_diffraction,
    "lattice_autocorr": check_lattice_autocorr,
    "pair_functional": check_pair_functional,
    "pseudometrics": check_pseudometrics,
    "criterion_coherence": check_criterion_coherence,
    "acpalm": check_acpalm,
    "event_periods": check_event_periods,
    "palm_base": check_palm_base,
    "fibonacci": check_fibonacci,
}

CHECK_TAGS = tuple(_CHECKS)


def run_checks(seed: int = 0, only: str | None = None,
               peak_threshold_scale: float | None = None) -> dict:
    """Run the verification corpus; JSON-ready summary, stable under reruns."""
    if only is not None and only not in _CHECKS:
        raise InvalidArgument(
            f"unknown check tag {only!r}; known tags: {', '.join(CHECK_TAGS)}")
    results = []
    for tag in CHECK_TAGS:
        if only is not None and tag != only:
            continue
        if tag == "criterion_coherence":
            results.append(check_criterion_coherence(
                seed=seed, peak_threshold_scale=peak_threshold_scale))
        else:
            results.append(_CHECKS[tag](seed=seed))
    return {
        "seed": int(seed),
        "checks": [r.to_json() for r in results],
        "all_passed": bool(all(r.passed for r in results)),
    }
