"""The benchmark workloads: inputs made from the seed, operations, checks.

Each workload is built from ``(seed, workdir)`` only; the program receives
nothing but the inputs generated here. ``operations`` lists the calls one
timed pass makes, ``check`` validates one operation's output (returning a
failure reason or None), and ``digests`` hashes the deterministic artifacts
so two commits can show byte-identical outputs. Checks use numpy only and
never call apkit, so they neither depend on the code under test nor add
spans to a traced run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os

import numpy as np


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sha256_json(doc) -> str:
    text = json.dumps(doc, sort_keys=True, default=lambda o: o.tolist())
    return hashlib.sha256(text.encode()).hexdigest()


def _read_csv(path: str) -> tuple[dict[str, str], np.ndarray]:
    """Header fields ('# key=value', comma separated) and the numeric rows."""
    meta: dict[str, str] = {}
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                for part in line[1:].split(","):
                    if "=" in part:
                        key, val = part.split("=", 1)
                        meta[key.strip()] = val.strip()
            elif line:
                rows.append([float(v) for v in line.split(",")])
    return meta, np.asarray(rows, dtype=float)


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


#: z-score limit for Monte Carlo estimates against their references. A
#: palm_mc run makes three such checks, so twenty runs on fresh seeds make
#: sixty; at 3 sigma (0.27% each) one such batch in seven would fail on
#: chance alone, and seed 13 does (z = -3.16 for palm_matern_1d). At 4 sigma
#: a check fails by chance 0.006% of the time.
Z_LIMIT = 4.0


def _agrees(got: float, want: float, sigma: float, what: str,
            notes: dict) -> str | None:
    """Agreement within Z_LIMIT sigma; the z-score goes into the run record."""
    notes[f"z_{what}"] = (got - want) / sigma
    if abs(got - want) <= Z_LIMIT * sigma:
        return None
    return (f"{what}: {got:.6g} vs reference {want:.6g}, "
            f"beyond {Z_LIMIT:g} sigma = {Z_LIMIT * sigma:.3g}")


# ---------------------------------------------------------------------------
# verify_corpus


DT_WINDOW = 40.0
#: off the lattice's norms, so no point sits on a ball boundary
DT_RADII = [19.5, 29.5, 39.5]
DT_KEEP = 0.9
DT_HARDCORE = 0.4


def _write_points_csv(path: str, points: np.ndarray, window: float,
                      hardcore: float) -> str:
    """A point-set CSV in apkit's format: dim, r and window headers, then rows."""
    lines = [f"# dim={points.shape[1]}", f"# r={hardcore!r}", f"# window={window!r}"]
    lines += [",".join(repr(float(v)) for v in row) for row in points]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def lattice_ball(radius: float) -> np.ndarray:
    """The points of Z^2 with norm at most radius."""
    k = np.arange(-math.floor(radius), math.floor(radius) + 1, dtype=float)
    pts = np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1).reshape(-1, 2)
    return pts[np.sum(pts ** 2, axis=1) <= radius * radius]


class VerifyCorpus:
    """``apkit verify --seed <seed>`` in-process: all nine corpus checks.

    One small ``apkit metric --which dtilde`` follows, on two thinnings of
    Z^2 drawn from the seed, so the exact-matching pseudo-metric is reached.
    """

    def __init__(self, seed: int, workdir: str):
        self.out = os.path.join(workdir, "verify")
        metric_out = os.path.join(workdir, "metric")
        os.makedirs(metric_out, exist_ok=True)
        rng = np.random.default_rng(seed)
        pts = lattice_ball(DT_WINDOW)
        self.keep = rng.random((2, len(pts))) < DT_KEEP
        self.lattice = pts
        files = [_write_points_csv(os.path.join(metric_out, f"thinned{i}.csv"),
                                   pts[self.keep[i]], DT_WINDOW, DT_HARDCORE)
                 for i in (0, 1)]
        cfg = _write_json(os.path.join(metric_out, "dtilde-config.json"),
                          {"radii": DT_RADII})
        self.metric_json = os.path.join(metric_out, "metric.json")
        self.argv = {
            "verify": ["verify", "--seed", str(seed), "--out", self.out],
            "dtilde": ["metric", *files, "--which", "dtilde", "--config", cfg,
                       "--out", metric_out],
        }

    def operations(self):
        from apkit import cli

        return [(op, lambda argv=argv: cli.main(argv))
                for op, argv in self.argv.items()]

    def check(self, op: str, rc) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        if op == "dtilde":
            return self._check_dtilde()
        with open(os.path.join(self.out, "verify.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        if not doc["all_passed"]:
            bad = [c["tag"] for c in doc["checks"] if not c["passed"]]
            return f"checks failed: {', '.join(bad)}"
        return None

    def _check_dtilde(self) -> str | None:
        """The symmetric difference is the lattice points kept in one thinning only.

        dtilde is its counting density along the radii, maximised over the
        trailing half of the schedule (two of the three radii).
        """
        with open(self.metric_json, encoding="utf-8") as fh:
            got = json.load(fh)["value"]
        sym = self.lattice[self.keep[0] != self.keep[1]]
        norms = np.sqrt(np.sum(sym ** 2, axis=1))
        want = max(np.count_nonzero(norms <= r) / (math.pi * r * r)
                   for r in DT_RADII[-2:])
        if abs(got - want) > 1e-12 * want:
            return f"dtilde {got!r}, symmetric difference density {want!r}"
        return None

    def digests(self) -> dict[str, str]:
        return {"verify.json": _sha256(os.path.join(self.out, "verify.json")),
                "metric.json": _sha256(self.metric_json)}


# ---------------------------------------------------------------------------
# octagonal_2d


OCT_OUTPUT_RADIUS = 30.0
OCT_WINDOW_RADIUS = 0.6
OCT_AUTOCORR_RADII = [20.0, 25.0, 30.0]
OCT_DIFFRACT_RADII = [16.0, 20.0, 24.0]
OCT_K_LIMIT = 0.75          # holds the zero peak and the eight at |k| = 1/sqrt(2)
OCT_K_STEP = 1.0 / 96.0     # 1/(4R) at R = 24
#: largest distance allowed between a peak rotated by pi/4 and the nearest
#: detected peak; seeds 0-9 measured 1.8e-4 to 4.1e-4 (finite-R peak shifts)
OCT_ROTATION_TOL = 1e-3
#: the diffract command's criteria block; accepting the origin and its eight
#: neighbouring difference vectors, whose relative-density gap runs nn_dist
OCT_CRITERIA = {"eps": 0.3, "ball_radius": 0.05, "search_radius": 4.0}


def octagonal_bases() -> tuple[list, list]:
    """Orthonormal E (physical) and F (internal) rows of the 8-fold Z^4 strip."""
    s = 1.0 / math.sqrt(2.0)
    E = [[s * math.cos(j * math.pi / 4) for j in range(4)],
         [s * math.sin(j * math.pi / 4) for j in range(4)]]
    F = [[s * math.cos(3 * j * math.pi / 4) for j in range(4)],
         [s * math.sin(3 * j * math.pi / 4) for j in range(4)]]
    return E, F


def count_pairs_within(points: np.ndarray, cutoff: float, chunk: int = 256) -> int:
    """Ordered pairs (self pairs included) at distance <= cutoff, brute force."""
    r2 = cutoff * cutoff
    total = 0
    for s in range(0, len(points), chunk):
        block = points[s:s + chunk]
        d2 = np.sum((points[None, :, :] - block[:, None, :]) ** 2, axis=2)
        total += int(np.count_nonzero(d2 <= r2))
    return total


def negation_asymmetry(locs: np.ndarray, weights: np.ndarray,
                       tol: float) -> str | None:
    """None if every atom has a partner within tol of -x with equal weight.

    Atoms are keyed by their tol-cell; a partner is searched in the cell of
    -x and, for points near a cell edge, in the neighbouring cells.
    """
    key = np.round(locs / tol).astype(np.int64)
    base = 2 * int(np.abs(key).max()) + 3
    scale = base ** np.arange(locs.shape[1] - 1, -1, -1, dtype=np.int64)

    def code(k):
        return (k + base // 2) @ scale

    order = np.argsort(code(key))
    codes = code(key)[order]
    partner = np.full(len(locs), -1)
    for off in itertools.product((0, -1, 1), repeat=locs.shape[1]):
        todo = np.nonzero(partner < 0)[0]
        want = code(off - key[todo])
        pos = np.minimum(np.searchsorted(codes, want), len(codes) - 1)
        hit = codes[pos] == want
        cand, rows = order[pos[hit]], todo[hit]
        close = np.all(np.abs(locs[cand] + locs[rows]) <= tol, axis=1)
        partner[rows[close]] = cand[close]
    if np.any(partner < 0):
        i = int(np.argmax(partner < 0))
        return f"atom at {locs[i].tolist()} has no partner at its negation"
    uneven = np.abs(weights[partner] - weights) > 1e-12 * weights
    if np.any(uneven):
        i = int(np.argmax(uneven))
        return f"atom at {locs[i].tolist()} and its negation differ in weight"
    return None


class Octagonal2D:
    """Generate, autocorrelate and diffract the 8-fold model set via the CLI."""

    def __init__(self, seed: int, workdir: str):
        self.out = os.path.join(workdir, "octagonal")
        os.makedirs(self.out, exist_ok=True)
        E, F = octagonal_bases()
        offset = np.random.default_rng(seed).random(4)
        self.points_csv = os.path.join(self.out, "points.csv")
        gen = _write_json(os.path.join(self.out, "generate-config.json"), {
            "cut_project": {
                "n": 4, "E_basis": E, "F_basis": F,
                "window": {"kind": "ball", "center": [0.0, 0.0],
                           "radius": OCT_WINDOW_RADIUS},
                "output_radius": OCT_OUTPUT_RADIUS,
                "torus_offset": offset.tolist()}})
        ac = _write_json(os.path.join(self.out, "autocorr-config.json"),
                         {"radii": OCT_AUTOCORR_RADII})
        df = _write_json(os.path.join(self.out, "diffract-config.json"), {
            "radii": OCT_DIFFRACT_RADII,
            "k_lo": [-OCT_K_LIMIT] * 2, "k_hi": [OCT_K_LIMIT] * 2,
            "k_step": OCT_K_STEP, "criteria": OCT_CRITERIA})
        self.rotation_mismatch = None
        common = ["--out", self.out]
        self.argv = {
            "generate": ["generate", "--config", gen] + common,
            "autocorr": ["autocorr", self.points_csv, "--config", ac] + common,
            "diffract": ["diffract", self.points_csv, "--config", df] + common,
        }

    def operations(self):
        from apkit import cli

        return [(op, lambda argv=argv: cli.main(argv))
                for op, argv in self.argv.items()]

    def _load(self, name: str) -> dict:
        with open(os.path.join(self.out, name), encoding="utf-8") as fh:
            return json.load(fh)

    def check(self, op: str, rc) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        if op == "generate":
            n = self._load("generate.json")["n_points"]
            rows = len(_read_csv(self.points_csv)[1])
            return None if n == rows else f"generate.json says {n} points, CSV has {rows}"
        if op == "autocorr":
            return self._check_autocorr()
        return self._check_peaks() or self._check_criteria()

    def _check_autocorr(self) -> str | None:
        _, pts = _read_csv(self.points_csv)
        R = max(OCT_AUTOCORR_RADII)
        cutoff = 2.0 * min(OCT_AUTOCORR_RADII)   # the CLI's default cutoff
        vol = math.pi * R * R
        inside = pts[np.sum(pts ** 2, axis=1) <= R * R]
        meta, rows = _read_csv(os.path.join(self.out, "autocorr.csv"))
        locs, weights = rows[:, :2], rows[:, 2]
        bin_tol = float(meta["bin_tol"])
        zero = np.all(np.abs(locs) <= bin_tol / 2.0, axis=1)
        if np.count_nonzero(zero) != 1:
            return f"{np.count_nonzero(zero)} atoms at the origin"
        card = len(inside)
        if abs(float(weights[zero][0]) * vol - card) > 1e-9 * card:
            return f"zero atom x |B_R| = {weights[zero][0] * vol!r}, points {card}"
        pairs = count_pairs_within(inside, cutoff)
        mass = float(np.sum(weights)) * vol
        if abs(mass - pairs) > 1e-9 * pairs:
            return f"total mass x |B_R| = {mass!r}, ordered pairs {pairs}"
        return negation_asymmetry(locs, weights, bin_tol / 4.0)

    def _check_peaks(self) -> str | None:
        peaks = np.array([p["location"] for p in self._load("peaks.json")["peaks"]])
        if len(peaks) == 0:
            return "no Bragg peaks"
        radius = np.sqrt(np.sum(peaks ** 2, axis=1))
        if np.count_nonzero(radius < OCT_K_STEP) != 1 \
                or np.count_nonzero(radius >= OCT_K_STEP) < 8:
            return f"expected the zero peak and 8 others, got radii {radius.tolist()}"
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        rotated = peaks @ np.array([[c, s], [-s, c]])
        dist = np.sqrt(np.sum((rotated[:, None, :] - peaks[None, :, :]) ** 2,
                              axis=2)).min(axis=1)
        self.rotation_mismatch = float(dist.max())
        if self.rotation_mismatch > OCT_ROTATION_TOL:
            return f"peak set not 8-fold: rotation mismatch {self.rotation_mismatch:.3g}"
        return None

    def _check_criteria(self) -> str | None:
        """Both criteria ran, accepted the origin and report the exact gap.

        The gap is the largest distance from a probe of the search ball to the
        accepted set, on apkit's probe grid (pitch search_radius / 32), so it
        is recomputed here by brute force.
        """
        crit = self._load("diffract.json").get("criteria", {})
        if sorted(crit) != ["ATOM_concentration", "C3_gamma_concentration"]:
            return f"criteria reported: {sorted(crit)}"
        w = OCT_CRITERIA["search_radius"]
        pitch = w / 32.0
        axis = np.arange(-w, w + pitch / 2.0, pitch)
        mesh = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        mesh = mesh[np.sum(mesh ** 2, axis=1) <= w * w]
        for cid, rep in sorted(crit.items()):
            accepted = np.array(rep["almost_period_set"])
            if not np.any(np.all(accepted == 0.0, axis=1)):
                return f"{cid} did not accept the origin"
            d2 = np.sum((mesh[:, None, :] - accepted[None, :, :]) ** 2, axis=2)
            want = float(np.sqrt(d2.min(axis=1).max()))
            if rep["gap"] is None or abs(rep["gap"] - want) > 1e-9 * want:
                return f"{cid} gap {rep['gap']!r}, probe-grid distance {want!r}"
        return None

    def digests(self) -> dict[str, str]:
        names = ("points.csv", "generate.json", "autocorr.csv", "autocorr.json",
                 "periodogram.csv", "peaks.json", "diffract.json")
        return {n: _sha256(os.path.join(self.out, n)) for n in names}

    def notes(self) -> dict:
        return {"rotation_mismatch": self.rotation_mismatch}


# ---------------------------------------------------------------------------
# palm_mc


MATERN_INTENSITY = 1.0
MATERN_HARDCORE = 0.5
EVENT_R = 0.2
EVENT_EPS = 0.1
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def matern_pair_mass(dim: int, center, radius: float, lam: float = MATERN_INTENSITY,
                     h: float = MATERN_HARDCORE, nodes: int = 1200) -> float:
    """Integral over the ball A of the Matern II product density rho2(|y|).

    rho2(r) = 2 [b (1 - e^{-lam v}) - v (1 - e^{-lam b})] / [v b (b - v)]
    for r > h, 0 otherwise, with v = |B_h| and b(r) = |B_h(0) u B_h(r)|
    (Stoyan, Kendall and Mecke). Midpoint rule on a grid over A.
    """
    center = np.asarray(center, dtype=float)
    axis = -radius + (np.arange(nodes) + 0.5) * (2.0 * radius / nodes)
    cell = 2.0 * radius / nodes
    if dim == 1:
        y = center[0] + axis
        r, weight = np.abs(y), cell
        v = 2.0 * h
        b = v + np.minimum(r, 2.0 * h)
    else:
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        keep = gx ** 2 + gy ** 2 <= radius * radius
        r = np.hypot(center[0] + gx[keep], center[1] + gy[keep])
        weight = math.pi * radius * radius / np.count_nonzero(keep)
        v = math.pi * h * h
        q = np.minimum(r / (2.0 * h), 1.0)
        lens = 2.0 * h * h * np.arccos(q) - 0.5 * r * np.sqrt(
            np.maximum(4.0 * h * h - r * r, 0.0))
        b = 2.0 * v - lens
    with np.errstate(divide="ignore", invalid="ignore"):
        rho2 = 2.0 * (b * (1.0 - math.exp(-lam * v)) - v * (1.0 - np.exp(-lam * b))) \
            / (v * b * (b - v))
    rho2 = np.where(r > h, rho2, 0.0)
    return float(np.sum(rho2) * weight)


def fibonacci_candidates(max_abs_t: float, w_bound: float) -> np.ndarray:
    """0 and the projected Z^2 vectors of the golden strip with |internal| <= w_bound."""
    c = math.sqrt(2.0 + GOLDEN)
    cands = [0.0]
    m2 = 1
    while True:
        m1 = round(GOLDEN * m2)
        t = (GOLDEN * m1 + m2) / c
        if t > max_abs_t:
            break
        if abs((-m1 + GOLDEN * m2) / c) <= w_bound:
            cands.extend([t, -t])
        m2 += 1
    return np.array(sorted(cands)).reshape(-1, 1)


class PalmMC:
    """Monte Carlo Palm and event estimators through the library API."""

    def __init__(self, seed: int, workdir: str):
        import apkit as ak

        base = 16 * seed
        P, Region = ak.ProcessSampler, ak.RegionSpec
        self.lattice_1d = P("randomized_lattice", base + 1, 30.0, basis=[[1.0]])
        self.matern_1d = P("matern_II", base + 2, 30.0, intensity=MATERN_INTENSITY,
                           hardcore=MATERN_HARDCORE)
        self.matern_2d = P("matern_II", base + 3, 12.0, intensity=MATERN_INTENSITY,
                           hardcore=MATERN_HARDCORE, dim=2)
        self.lattice_2d = P("randomized_lattice", base + 4, 20.0,
                            basis=[[1.0, 0.0], [0.0, 1.0]])
        self.model_set = P("randomized_model_set", base + 5, 30.0,
                           cut_project=ak.fibonacci_config(30.0))
        self.lattice_ev = P("randomized_lattice", base + 6, 30.0, basis=[[1.0]])
        self.A_1d = Region.ball([1.0], 0.25)
        self.A_matern_1d = Region.ball([0.625], 0.125)
        self.A_matern_2d = Region.ball([0.8, 0.0], 0.25)
        self.A_2d = Region.ball([1.0, 0.0], 0.25)
        self.acpalm_radii = [10.0, 14.0, 18.0]
        self.model_cands = fibonacci_candidates(25.0, 0.3)
        self.lattice_cands = np.vstack([np.arange(-5.0, 6.0).reshape(-1, 1),
                                        [[0.5], [2.5]]])
        self.results: dict = {}
        self.z_scores: dict = {}

    def operations(self):
        import apkit as ak

        spacing = math.sqrt(2.0 + GOLDEN) / GOLDEN ** 2   # mean Fibonacci gap
        ops = {
            "palm_lattice_1d": lambda: ak.palm_intensity(
                self.lattice_1d, self.A_1d, n_samples=200),
            "palm_matern_1d": lambda: ak.palm_intensity(
                self.matern_1d, self.A_matern_1d, n_samples=800),
            "palm_matern_2d": lambda: ak.palm_intensity(
                self.matern_2d, self.A_matern_2d, n_samples=400),
            "acpalm_lattice_2d": lambda: ak.verify_acpalm(
                self.lattice_2d, self.A_2d, self.acpalm_radii, n_seeds=12,
                n_palm_samples=50),
            "event_model_set_1d": lambda: ak.event_almost_periods(
                self.model_set, EVENT_R, EVENT_EPS, self.model_cands, 400,
                gap_bound=10.0 * spacing, search_radius=25.0),
            "event_lattice_1d": lambda: ak.event_almost_periods(
                self.lattice_ev, EVENT_R, EVENT_EPS, self.lattice_cands, 400,
                gap_bound=2.0, search_radius=5.0),
        }
        return list(ops.items())

    def check(self, op: str, res) -> str | None:
        doc = res if isinstance(res, dict) else res.to_json()
        self.results[op] = doc
        if op == "palm_lattice_1d":
            if res.value != 1.0 or res.stderr != 0.0:
                return f"lattice Palm value {res.value!r} +- {res.stderr!r}, want exactly 1"
            return None
        if op in ("palm_matern_1d", "palm_matern_2d"):
            A = self.A_matern_1d if op == "palm_matern_1d" else self.A_matern_2d
            want = matern_pair_mass(A.dim, A.center, A.radius)
            return _agrees(res.value, want, res.stderr, op, self.z_scores)
        if op == "acpalm_lattice_2d":
            return self._check_acpalm(res)
        rates = np.array(res.details["event_rate"])
        if op == "event_model_set_1d":
            at_zero = rates[self.model_cands[:, 0] == 0.0]
            if at_zero.tolist() != [0.0]:
                return f"event rate at t = 0 is {at_zero.tolist()}"
            return None if res.verdict == "pass" else f"verdict {res.verdict}"
        integer = self.lattice_cands[:, 0] == np.round(self.lattice_cands[:, 0])
        if np.any(rates[integer] != 0.0):
            return f"lattice event rate at integer shifts {rates[integer].tolist()}"
        # half-integer shifts: the two R-balls are disjoint mod 1, P = 4R
        n = res.details["n_samples"]
        want = 4.0 * EVENT_R
        for got in rates[~integer]:
            bad = _agrees(float(got), want, math.sqrt(want * (1 - want) / n),
                          "event_lattice_1d_half_shift", self.z_scores)
            if bad:
                return bad
        return None

    def _check_acpalm(self, rep: dict) -> str | None:
        """Palm exactly 1; each pair mass is a lattice count within Gauss bounds.

        For y - x in A the pair is (x, x + e1), so mass x |B_R| counts the
        x in B_R with x + e1 in B_R: at least N(R - 1) and at most N(R),
        where pi (rho - sqrt(2)/2)^2 <= N(rho) <= pi (rho + sqrt(2)/2)^2.
        """
        if rep["palm_value"] != 1.0:
            return f"lattice Palm value {rep['palm_value']!r}, want exactly 1"
        half_diag = math.sqrt(0.5)
        for series in rep["per_seed_mass"]:
            for R, mass in zip(rep["radii"], series):
                count = mass * math.pi * R * R
                lo = math.pi * max(R - 1.0 - half_diag, 0.0) ** 2
                hi = math.pi * (R + half_diag) ** 2
                if abs(count - round(count)) > 1e-6 or not lo <= count <= hi:
                    return f"pair mass x |B_R| = {count!r} at R={R} not a lattice count"
        return None

    def digests(self) -> dict[str, str]:
        return {f"{op}.json": _sha256_json(doc) for op, doc in self.results.items()}

    def notes(self) -> dict:
        return self.z_scores


WORKLOADS = {
    "verify_corpus": VerifyCorpus,
    "octagonal_2d": Octagonal2D,
    "palm_mc": PalmMC,
}
