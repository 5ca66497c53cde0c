"""Diffraction estimation and the executable pure-point criteria.

The frequency side of the pair-correlation analysis: windowed Fourier sums,
periodograms, consistent atom-mass estimation, Bragg peak detection, and the
four criterion checks whose verdicts are expected to agree on sets with
purely atomic diffraction (plus an explicit gap bound making "relatively
dense" a finite-scale certificate).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .autocorr import WeightedAtomMeasure
from .errors import (
    DimensionMismatch,
    EmptyCandidateSet,
    InvalidArgument,
    NoAtomAtZero,
    RadiusExceedsWindow,
    TranslationExceedsWindow,
    WindowTooSmall,
)
from .gridindex import (
    GridIndex,
    _row_blocks,
    _run_blocks,
    _sorted_runs,
    _sq_norms,
)
from .pointset import (
    PointSet,
    _check_reach,
    _in_ball,
    atomic_write_text,
    ball_volume,
    mean_nn_spacing,
    relative_density_gap,
)
from .testfunc import TestFunction
from .util import Record, fmt_float, schedule, tail_mean, tail_spread

CRITERION_IDS = (
    "C3_gamma_concentration",
    "C5_almost_periods",
    "ATOM_concentration",
    "BOHR_mu_conv_f",
    "EVENT_almost_periods",
)

VERDICTS = ("pass", "fail", "inconclusive")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: largest number of complex exponentials held in one block of a Fourier sum;
#: a 1D grid's fine factor is capped at it too
_EXP_BLOCK = 4_000_000

#: largest number of nodes in a k grid or an appd candidate grid
_MAX_GRID_NODES = 10_000_000


@dataclass(frozen=True)
class KGrid(Record):
    """Regular frequency grid: per-axis closed range with a common step."""

    lo: np.ndarray
    hi: np.ndarray
    step: float

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float).reshape(-1))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float).reshape(-1))
        object.__setattr__(self, "step", float(self.step))
        if len(self.lo) != len(self.hi):
            raise InvalidArgument("lo and hi lengths differ")
        if not (0 < self.step < math.inf
                and np.all(np.isfinite(self.lo) & np.isfinite(self.hi))):
            raise InvalidArgument("k grid needs finite lo, hi and step > 0")
        if np.any(self.hi < self.lo):
            raise InvalidArgument("hi must be >= lo")
        nodes = math.prod(self._count(d) for d in range(self.dim))
        if nodes > _MAX_GRID_NODES:
            raise InvalidArgument(
                f"k grid has {nodes:.3g} nodes, more than {_MAX_GRID_NODES:.0e}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def _count(self, d: int):
        """Nodes on axis d; inf when span / step overflows."""
        x = (float(self.hi[d]) - float(self.lo[d])) / self.step + 1e-9
        return math.floor(x) + 1 if x < math.inf else math.inf

    def axis(self, d: int) -> np.ndarray:
        return self.lo[d] + self.step * np.arange(self._count(d))

    def shape(self) -> tuple:
        return tuple(self._count(d) for d in range(self.dim))

    def nodes(self) -> np.ndarray:
        axes = [self.axis(d) for d in range(self.dim)]
        if self.dim == 1:
            return axes[0].reshape(-1, 1)
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dim)

    @staticmethod
    def from_json(doc: dict) -> "KGrid":
        return KGrid(doc["lo"], doc["hi"], doc["step"])


def _fourier_sums(P: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Complex sums over points for a batch of frequencies, chunked."""
    out = np.zeros(len(K), dtype=complex)
    if len(P) == 0:
        return out
    chunk = max(1, _EXP_BLOCK // len(P))
    for s in range(0, len(K), chunk):
        block = K[s:s + chunk]
        phases = block @ P.T
        out[s:s + chunk] = np.sum(np.exp(-2j * np.pi * phases), axis=1)
    return out


def _grid_fourier_sums(P: np.ndarray, k_grid: KGrid) -> np.ndarray:
    """Complex sums over points at every node of a grid, in nodes() order.

    exp(-2 pi i k.x) is the product over axes of exp(-2 pi i k_d x_d), so
    the grid needs one K_d x n factor per axis: (sum of K_d) * n
    exponentials. Axes 0 .. dim-2 are folded by elementwise products into
    rows in row-major node order, and the last axis is contracted with one
    matrix product. Axis-0 rows are taken in blocks so that no folded block
    exceeds _EXP_BLOCK elements.

    A 1D grid of N nodes is split the same way into Q x B nodes: B is
    ceil(sqrt(N)), capped so that the B x n fine factor fits in _EXP_BLOCK,
    and Q = ceil(N / B). Node q*B + m is the grid node k_{qB} plus the
    offset m * step, so the sums cost about (Q + B) * n exponentials, not
    N * n, and the Q*B - N sums past the last node are dropped. fl(m * step)
    re-rounds a node by up to one ulp, so these sums are not bit for bit
    those of _fourier_sums at nodes(): against the float nodes they err a
    few times more. Against the exact nodes lo + j*step both stay within
    2 * 2 pi * 2**-53 * max|k| * sum|x|.
    """
    N = math.prod(k_grid.shape())
    n = len(P)
    if n == 0:
        return np.zeros(N, dtype=complex)
    axes = [k_grid.axis(d) for d in range(k_grid.dim)]
    coords = [P[:, d] for d in range(k_grid.dim)]
    if k_grid.dim == 1:
        B = min(math.isqrt(N - 1) + 1, max(1, _EXP_BLOCK // n))
        axes = [axes[0][::B], k_grid.step * np.arange(B)]
        coords *= 2     # both factors are exponentials of the one coordinate
    shape = [len(a) for a in axes]
    out = np.zeros((shape[0], math.prod(shape[1:])), dtype=complex)
    factors = [np.exp(-2j * np.pi * np.outer(a, x))
               for a, x in zip(axes[1:], coords[1:])]
    chunk = max(1, _EXP_BLOCK // (math.prod(shape[1:-1]) * n))
    for s in range(0, shape[0], chunk):
        rows = np.exp(-2j * np.pi * np.outer(axes[0][s:s + chunk], coords[0]))
        for E in factors[:-1]:
            rows = (rows[:, None, :] * E[None, :, :]).reshape(-1, n)
        out[s:s + chunk] = (rows @ factors[-1].T).reshape(-1, out.shape[1])
    return out.reshape(-1)[:N]


def fourier_sum(S: PointSet, R: float, k) -> complex:
    """Sum of exp(-2 pi i k.x) over the points of S in the closed R-ball."""
    k = np.asarray(k, dtype=float).reshape(1, -1)
    if k.shape[1] != S.dim:
        raise DimensionMismatch("frequency dimension differs from the set")
    P = S.ball(R)
    return complex(_fourier_sums(P, k)[0])


@dataclass
class Periodogram(Record):
    """Squared-modulus Fourier sums on a frequency grid.

    normalization "per-volume" is |sum|^2 / |B_R| (diverges linearly in R at
    a true atom); "atom-mass" is |sum|^2 / |B_R|^2 (converges to the atom
    mass). One made by ``periodogram`` also keeps |sum|^2 as ``power``, an
    attribute rather than a field, so it stays out of the JSON and CSV forms.
    """

    dim: int
    k_grid: KGrid
    values: np.ndarray
    radius_used: float
    normalization: str = "per-volume"


def periodogram(S: PointSet, R: float, k_grid: KGrid,
                normalization: str = "per-volume") -> Periodogram:
    """|fourier_sum|^2 over the grid, per-volume normalized by default.

    Warns when the grid step exceeds 1/(4R): peaks of the windowed transform
    have width about 1/R and a coarser grid can miss them entirely.
    """
    if k_grid.dim != S.dim:
        raise DimensionMismatch("frequency grid dimension differs from the set")
    if normalization not in ("per-volume", "atom-mass"):
        raise InvalidArgument(
            "normalization must be 'per-volume' or 'atom-mass'")
    if k_grid.step > 1.0 / (4.0 * R) * (1.0 + 1e-9):
        warnings.warn(
            f"k-grid step {k_grid.step:g} exceeds 1/(4R)={1.0 / (4.0 * R):g}; "
            "peaks may fall between nodes", stacklevel=2)
    P = S.ball(R)
    vol = ball_volume(S.dim, R)
    power = np.abs(_grid_fourier_sums(P, k_grid)) ** 2
    values = power / vol if normalization == "per-volume" else power / vol ** 2
    per = Periodogram(S.dim, k_grid, values, float(R), normalization)
    per.power = power
    return per


def atom_mass(S: PointSet, k, radii) -> tuple[float, float]:
    """Estimated diffraction atom mass at frequency k, with stability.

    m_R(k) = |fourier_sum(S, R, k)|^2 / |B_R|^2 along the schedule; returns
    its ``util`` tail mean and tail spread. The spread is the convergence
    diagnostic: near zero for a true atom, order one for continuous spectrum.
    """
    k = np.asarray(k, dtype=float).reshape(1, -1)
    if k.shape[1] != S.dim:
        raise DimensionMismatch("frequency dimension differs from the set")
    radii = schedule(radii)
    series = np.empty(len(radii))
    for i, R in enumerate(radii):
        P = S.ball(float(R))
        vol = ball_volume(S.dim, float(R))
        series[i] = float(np.abs(_fourier_sums(P, k)[0]) ** 2) / vol ** 2
    return tail_mean(series), tail_spread(series)


@dataclass
class BraggPeak(Record):
    """A stable detected atom of the diffraction estimate."""

    location: np.ndarray
    mass: float
    stability: float


def _golden_max(fun, lo: float, hi: float, tol: float) -> float:
    """Location of the maximum of a unimodal function on [lo, hi]."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(200):
        if b - a <= tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


def _grid_local_maxima(values: np.ndarray, shape: tuple) -> np.ndarray:
    """Flat indices of nodes no smaller than any axis neighbor."""
    v = values.reshape(shape)
    ok = np.ones(shape, dtype=bool)
    for ax in range(len(shape)):
        lead = [slice(None)] * len(shape)
        lag = [slice(None)] * len(shape)
        lead[ax] = slice(1, None)
        lag[ax] = slice(None, -1)
        ok[tuple(lead)] &= v[tuple(lead)] >= v[tuple(lag)]
        ok[tuple(lag)] &= v[tuple(lag)] >= v[tuple(lead)]
    return np.nonzero(ok.reshape(-1))[0]


def detect_bragg_peaks(S: PointSet, radii, k_grid: KGrid,
                       threshold: float | None = None,
                       stability_bound: float = 0.2, *,
                       per: Periodogram | None = None) -> list[BraggPeak]:
    """Stable atoms of the diffraction estimate over a frequency grid.

    Grid local maxima of the largest-radius periodogram above
    threshold * |B_R| are refined by per-axis golden-section search on the
    squared Fourier modulus, then scored by atom_mass along the schedule;
    peaks below threshold mass or above the stability bound are dropped.
    The default threshold is 0.05 times the squared counting density; one
    radius cannot score stability, so the schedule needs two.

    ``per`` lends ``periodogram(S, R, k_grid)`` at the largest radius, of
    either normalization, so a caller that also writes it computes it once:
    its ``power`` / |B_R| are the per-volume values bit for bit. One at
    another radius or on another grid object raises InvalidArgument.
    """
    radii = schedule(radii)
    if radii.size < 2:
        raise InvalidArgument("need at least two radii to score peak stability")
    R = float(radii[-1])
    if len(S) == 0:
        return []
    P = S.ball(R)
    if threshold is None:
        dens = len(P) / ball_volume(S.dim, R)
        threshold = 0.05 * dens * dens
    if per is not None and (per.radius_used != R or per.k_grid is not k_grid):
        raise InvalidArgument(
            f"the lent periodogram is not the one at R={R:g} on this k grid")
    if per is None:
        per = periodogram(S, R, k_grid)
    vol = ball_volume(S.dim, R)
    values = per.power / vol
    cand = _grid_local_maxima(values, per.k_grid.shape())
    cand = cand[values[cand] >= threshold * vol]
    nodes = per.k_grid.nodes()

    def power(k: np.ndarray) -> float:
        return float(np.abs(_fourier_sums(P, k.reshape(1, -1))[0]) ** 2)

    peaks: list[BraggPeak] = []
    step = k_grid.step
    for idx in cand:
        k = nodes[idx].copy()
        for _ in range(2 if S.dim > 1 else 1):
            for ax in range(S.dim):
                def along(v: float, ax=ax, k=k) -> float:
                    probe = k.copy()
                    probe[ax] = v
                    return power(probe)
                k[ax] = _golden_max(along, k[ax] - step, k[ax] + step,
                                    step * 1e-4)
        mass, stability = atom_mass(S, k, radii)
        if mass > threshold and stability < stability_bound:
            peaks.append(BraggPeak(k, mass, stability))
    # merge refinements that converged to the same frequency
    peaks.sort(key=lambda p: tuple(p.location))
    kept: list[BraggPeak] = []
    for p in peaks:
        if kept and np.linalg.norm(p.location - kept[-1].location) < step / 2.0:
            if p.mass > kept[-1].mass:
                kept[-1] = p
            continue
        kept.append(p)
    return kept


def peak_span_gap(peaks: list[BraggPeak], search_radius: float) -> float:
    """Relative-density gap of the detected peaks in the searched k-ball.

    Peaks outside the closed ball (``_in_ball``) are left out, as C3 and
    ATOM leave out atoms; with none left the gap is inf.
    """
    if not peaks:
        return math.inf
    locs = np.stack([p.location for p in peaks])
    locs = locs[_in_ball(np.sqrt(np.sum(locs ** 2, axis=1)), search_radius)]
    return relative_density_gap(locs, search_radius) if len(locs) else math.inf


# ---------------------------------------------------------------------------
# Criterion checks


@dataclass
class CriterionReport(Record):
    """Outcome of one executable almost-periodicity criterion.

    verdict "pass" means the accepted translation set has relative-density
    gap at most gap_bound inside the searched ball; "inconclusive" flags an
    unconverged underlying estimate.
    """

    criterion_id: str
    epsilon: float
    almost_period_set: np.ndarray
    gap: float
    verdict: str
    gap_bound: float
    search_radius: float
    details: dict = field(default_factory=dict)


def default_gap_bound(S: PointSet, eps: float) -> float:
    """Certification scale: 2 * (mean nearest-neighbor spacing) / eps."""
    return 2.0 * mean_nn_spacing(S) / eps


def _rows(values, dim: int, what: str, empty: Exception) -> np.ndarray:
    """values as finite (N, dim) float rows with N >= 1.

    Ragged or non-finite input raises InvalidArgument naming ``what``, no
    rows raises ``empty``, and rows of another length DimensionMismatch.
    """
    try:
        rows = np.atleast_2d(np.asarray(values, dtype=float))
    except ValueError:
        rows = None
    if rows is None or rows.ndim != 2:
        raise InvalidArgument(f"{what} must be rows of one length")
    if not np.all(np.isfinite(rows)):
        raise InvalidArgument(f"{what} must be finite")
    if rows.size == 0:
        raise empty
    if rows.shape[1] != dim:
        raise DimensionMismatch(
            f"{what} have dimension {rows.shape[1]}, need {dim}")
    return rows


def _candidates(t_candidates, dim: int, search_radius: float | None):
    """Candidate translations as ``(cand, reach, search_radius)``.

    cand holds finite (N, dim) rows, reach is the largest |t|, and the
    searched radius defaults to reach.
    """
    cand = _rows(t_candidates, dim, "candidates",
                 EmptyCandidateSet("no candidate translations"))
    reach = float(np.max(np.sqrt(np.sum(cand ** 2, axis=1))))
    return cand, reach, reach if search_radius is None else search_radius


def _finish_report(criterion_id: str, eps: float, cand: np.ndarray,
                   accept: np.ndarray, gap_bound: float, search_radius: float,
                   converged: bool, details: dict) -> CriterionReport:
    """The report on the candidates that the boolean mask accept keeps."""
    accepted = cand[accept]
    gap = (relative_density_gap(accepted, search_radius) if len(accepted)
           else math.inf)
    if not converged:
        verdict = "inconclusive"
    else:
        verdict = "pass" if gap <= gap_bound else "fail"
    return CriterionReport(criterion_id, float(eps), accepted, float(gap),
                           verdict, float(gap_bound), float(search_radius),
                           details)


def _unwrap_gamma(gamma) -> tuple[WeightedAtomMeasure, bool]:
    if hasattr(gamma, "measure"):
        return gamma.measure, bool(gamma.converged)
    return gamma, True


def criterion_gamma_concentration(gamma, R: float, eps: float,
                                  search_radius: float, *,
                                  gap_bound: float) -> CriterionReport:
    """Accept t when the pair measure puts mass >= gamma(0) - eps on t+B_R.

    gamma may be a WeightedAtomMeasure or an autocorrelation estimate; an
    unconverged estimate yields verdict "inconclusive". Candidates are the
    atom locations within the searched ball.
    """
    mu, converged = _unwrap_gamma(gamma)
    gamma0 = mu.mass_at_zero()
    sel = _in_ball(np.sqrt(np.sum(mu.locations ** 2, axis=1)), search_radius)
    cand = mu.locations[sel]
    if len(cand) == 0:
        raise NoAtomAtZero("no candidate atoms inside the searched ball")
    grid = GridIndex(mu.locations, max(R, mu.bin_tol))
    mass = grid.pair_sums(cand, R, lambda q, p: mu.weights[p])
    return _finish_report("C3_gamma_concentration", eps, cand,
                          mass >= gamma0 - eps, gap_bound, search_radius,
                          converged,
                          {"gamma_zero": gamma0, "ball_radius": float(R),
                           "candidates": int(len(cand))})


def criterion_atom_concentration(gamma, eps: float, search_radius: float, *,
                                 gap_bound: float) -> CriterionReport:
    """Accept t when a single atom at t carries mass >= gamma(0) - eps.

    Strictly stronger than the ball-concentration criterion; it presumes the
    difference set is itself uniformly discrete, and legitimately fails when
    pair mass is smeared across nearby atoms.
    """
    mu, converged = _unwrap_gamma(gamma)
    gamma0 = mu.mass_at_zero()
    sel = _in_ball(np.sqrt(np.sum(mu.locations ** 2, axis=1)), search_radius)
    return _finish_report("ATOM_concentration", eps, mu.locations[sel],
                          mu.weights[sel] >= gamma0 - eps, gap_bound,
                          search_radius, converged, {"gamma_zero": gamma0})


def criterion_almost_periods(S: PointSet, eps: float, t_candidates, radii, *,
                             gap_bound: float,
                             search_radius: float | None = None
                             ) -> CriterionReport:
    """Accept t when the eps-mismatch of S against S - t has density <= eps.

    For each candidate, points of S with no point of S - t within eps form
    the mismatch set; its upper density along the schedule must not exceed
    eps. Candidates must leave room: |t| + eps + max(radii) <= window.

    Each density equals ``upper_density(asymmetric_mismatch(S,
    translate(S, t), eps), radii).value`` bit for bit, and each candidate
    raises what those calls would, but no translate is built: every
    candidate is scored in one pass (``_mismatch_counts``).
    """
    cand, reach, search_radius = _candidates(t_candidates, S.dim,
                                             search_radius)
    radii = schedule(radii)
    if radii.size < 2:
        raise InvalidArgument("need at least two radii to read the density tail")
    # the schedule against the smallest mismatch window, W - |t| - eps
    _check_reach(radii[-1], S.window_radius - reach - eps,
                 TranslationExceedsWindow, "schedule")
    tnorm, w_eval = _mismatch_windows(S, cand, eps, radii)
    counts = _mismatch_counts(S, cand, eps, tnorm, w_eval, radii, reach)
    values = counts / np.array([ball_volume(S.dim, r) for r in radii])
    densities = np.max(values[:, len(radii) // 2:], axis=1)   # util.tail_max
    return _finish_report("C5_almost_periods", eps, cand, densities <= eps,
                          gap_bound, search_radius, True,
                          {"candidates": int(len(cand)),
                           "densities": densities.tolist()})


def _mismatch_windows(S: PointSet, cand: np.ndarray, eps: float, radii):
    """Per candidate t, |t| and the mismatch set's window W - |t| - eps.

    Computed, and checked in order, as ``translate``, ``asymmetric_mismatch``
    and ``upper_density`` compute and check them, so a candidate raises
    what those calls would raise.
    """
    W = S.window_radius
    tnorm, w_eval = np.empty(len(cand)), np.empty(len(cand))
    for i, t in enumerate(cand):
        tnorm[i] = float(np.linalg.norm(t))
        _check_reach(tnorm[i], W, TranslationExceedsWindow, "|t|")
        if not (eps > 0):
            raise InvalidArgument("mismatch scale a must be positive")
        w_eval[i] = min(W, max(0.0, W - tnorm[i])) - eps
        if w_eval[i] <= 0:
            raise WindowTooSmall("windows too small for this mismatch scale")
        _check_reach(radii[-1], w_eval[i], RadiusExceedsWindow, "schedule")
    return tnorm, w_eval


def _mismatch_counts(S: PointSet, cand: np.ndarray, eps: float,
                     tnorm: np.ndarray, w_eval: np.ndarray, radii,
                     reach: float) -> np.ndarray:
    """(candidates x radii) counts of each mismatch set in each closed ball.

    A point x of S is matched at t when some y of S has
    ``_sq_norms((y - t) - x) <= eps * eps`` and y - t lies in the translate's
    window (``_in_ball(|y - t|, max(0, W - |t|))``): the d2 expression and
    clip of ``translate`` then ``nn_d2``, so the matches are theirs. The
    partners y are found around the queries x + t by one search over S:
    runs of the sorted coordinates in dimension 1 (``_sorted_runs``), one
    ``GridIndex`` walk in higher dimensions. The search radius is eps plus
    a slack of 1e-9 * (eps + W + max |t|); every coordinate and difference
    here is below W + max |t| in size, so each rounds by far less, and no
    partner is missed. Queries go in blocks of at most about _PAIR_BLOCK
    (``_row_blocks``). x counts in B_r when it is unmatched and
    ``_in_ball`` holds for its norm, from S's cached norms, against both
    its window and r.
    """
    W, n = S.window_radius, len(S)
    pad = eps * (1.0 + 1e-9) + 1e-9 * (eps + W + reach)
    norms = S.norms()
    in_r = np.array([_in_ball(norms, r) for r in radii], dtype=np.int64)
    grid = S.grid(max(pad, S.hardcore_radius)) if S.dim > 1 else None
    counts = np.zeros((len(cand), len(radii)), dtype=np.int64)
    for rows in _row_blocks(len(cand), n):
        t = cand[rows]
        queries = (S.points[None, :, :] + t[:, None, :]).reshape(-1, S.dim)
        if grid is None:
            pairs = _run_blocks(np.arange(len(queries)), *_sorted_runs(
                S.points[:, 0], queries[:, 0], pad))
        else:
            pairs = ((np.compress(keep, q), np.compress(keep, p))
                     for q, p, _, keep in grid._blocks(queries, pad))
        matched = np.zeros(len(queries), dtype=bool)
        for qrows, prows in pairs:
            c, x = np.divmod(qrows, n)
            shifted = np.take(S.points, prows, axis=0)
            shifted -= np.take(t, c, axis=0)
            hit = _in_ball(np.sqrt(_sq_norms(shifted)),
                           np.maximum(0.0, W - np.take(tnorm[rows], c)))
            shifted -= np.take(S.points, x, axis=0)
            hit &= _sq_norms(shifted) <= eps * eps
            matched[np.compress(hit, qrows)] = True
        unmatched = ~matched.reshape(len(t), n) & _in_ball(
            norms[None, :], w_eval[rows, None])
        counts[rows] = unmatched.astype(np.int64) @ in_r.T
    return counts


def _profile_index(mu: WeightedAtomMeasure, f: TestFunction):
    """What `_profile` reads of ``mu``, built once per measure and bump.

    Dimensions >= 2 get a GridIndex over the locations. In 1D it is
    ``(x, x0, sums)``: the locations, which a WeightedAtomMeasure keeps
    sorted, the midpoint x0 of their range, and prefix sums from 0, one row
    per column, of w and w * (x - x0) for ``triangle_bump``, or of w,
    w * cos(pi (x - x0) / h) and w * sin(pi (x - x0) / h) for
    ``cosine_bump`` (h the support radius). Subtracting x0 keeps the summed
    terms, and so their cancellation, at the scale of the atoms' spread
    rather than of their distance from 0.
    """
    if mu.dim != 1:
        return GridIndex(mu.locations, max(f.support_radius, mu.bin_tol))
    x, w = mu.locations[:, 0], mu.weights
    x0 = 0.5 * (x[0] + x[-1]) if len(x) else 0.0
    xc = x - x0
    if f.shape == "triangle_bump":
        cols = (w, w * xc)
    else:
        phase = xc * (np.pi / f.support_radius)
        cols = (w, w * np.cos(phase), w * np.sin(phase))
    sums = np.zeros((len(cols), len(x) + 1))
    np.cumsum(cols, axis=1, out=sums[:, 1:])
    return x, x0, sums


def _profile(mu: WeightedAtomMeasure, f: TestFunction, index,
             pts: np.ndarray) -> np.ndarray:
    """g(u) = sum of weight * f(u - location) at each query point.

    ``index`` is `_profile_index(mu, f)`; callers build it once per measure.
    The sum runs over the atoms within h of u - c (c the bump's center). In
    dimensions >= 2 it is the index's ``pair_sums``. In 1D no pair is
    formed: those atoms are one run of the sorted table, found by
    ``searchsorted``, and both bumps have closed forms in prefix-sum
    differences over that run, with v = u - c - x0 and A the amplitude:
    - triangle: split the run at u - c into L and R; then
      g = A/h * [(h - v) W_L + X_L + (h + v) W_R - X_R], with W and X the
      sums of w and w * (x - x0) (three lookups);
    - cosine, by angle addition: g = A/2 * [W + cos(pi v/h) C +
      sin(pi v/h) S], with C and S the sums of w * cos(pi (x - x0)/h) and
      w * sin(pi (x - x0)/h) (two lookups).
    The 1D value differs from the exact sum over n atoms by rounding alone,
    at most 8 * 2**-53 * (n + 2) * A/h * sum |w| (|x - x0| + |u - c| + h):
    the prefix sums' error.
    """
    if mu.dim != 1:
        return index.pair_sums(
            pts - f.center, f.support_radius,
            lambda q, p: mu.weights[p] * f(pts[q] - mu.locations[p]))
    out = np.zeros(len(pts))
    if len(mu) == 0 or len(pts) == 0:
        return out
    x, x0, sums = index
    h = f.support_radius
    q = pts[:, 0] - f.center[0]
    lo = np.searchsorted(x, q - h, "left")
    hi = np.searchsorted(x, q + h, "right")
    v = q - x0
    if f.shape == "triangle_bump":
        mid = np.searchsorted(x, q, "right")
        w_sum, x_sum = sums
        left = (h - v) * (w_sum[mid] - w_sum[lo]) + (x_sum[mid] - x_sum[lo])
        right = (h + v) * (w_sum[hi] - w_sum[mid]) - (x_sum[hi] - x_sum[mid])
        return (f.amplitude / h) * (left + right)
    w_sum, c_sum, s_sum = sums
    phase = v * (np.pi / h)
    return (0.5 * f.amplitude) * (
        (w_sum[hi] - w_sum[lo]) + np.cos(phase) * (c_sum[hi] - c_sum[lo])
        + np.sin(phase) * (s_sum[hi] - s_sum[lo]))


def bohr_test_mu_conv_f(gamma, f: TestFunction, eps: float, t_candidates,
                        probe_grid, *, gap_bound: float,
                        search_radius: float | None = None) -> CriterionReport:
    """Accept t when the smoothed pair profile moves by less than eps.

    g(u) = sum of atom weight * f(u - location); t is accepted when
    sup over the probe grid of |g(u) - g(u - t)| < eps. Uniform-norm almost
    periods of the smoothed measure are exactly what a purely atomic
    transform guarantees in abundance.

    Probes are rows of the measure's dimension, all finite, at least one;
    otherwise InvalidArgument or DimensionMismatch, as for candidates. The
    profile's index (`_profile_index`) is built once and read once per
    candidate. In 1D it is the sorted atoms' prefix sums: no pair walk runs,
    memory stays O(atoms + probes), and the sups differ from a pair sum's by
    no more than `_profile`'s rounding bound.
    """
    mu, converged = _unwrap_gamma(gamma)
    if f.dim != mu.dim:
        raise DimensionMismatch("test function dimension differs from measure")
    cand, _, search_radius = _candidates(t_candidates, mu.dim, search_radius)
    probes = _rows(probe_grid, mu.dim, "probes",
                   InvalidArgument("the probe grid has no rows"))
    index = _profile_index(mu, f)
    g0 = _profile(mu, f, index, probes)
    sups = np.array([np.max(np.abs(g0 - _profile(mu, f, index, probes - t)))
                     for t in cand])
    return _finish_report("BOHR_mu_conv_f", eps, cand, sups < eps, gap_bound,
                          search_radius, converged,
                          {"candidates": int(len(cand)),
                           "sup_deviation": sups.tolist()})


# ---------------------------------------------------------------------------
# CSV interchange


def periodogram_to_csv(per: Periodogram) -> str:
    lines = [f"# R={fmt_float(per.radius_used)}, norm={per.normalization}"]
    for k, v in zip(per.k_grid.nodes(), per.values):
        lines.append(",".join(fmt_float(c) for c in k) + "," + fmt_float(v))
    return "\n".join(lines) + "\n"


def write_periodogram_csv(per: Periodogram, path: str) -> None:
    atomic_write_text(path, periodogram_to_csv(per))
