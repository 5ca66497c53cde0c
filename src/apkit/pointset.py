"""Windowed locally finite point sets and the scale metric between them.

A PointSet is the faithful restriction of an idealized infinite configuration
to a closed observation ball: every point of the configuration with norm at
most ``window_radius`` is present and nothing else. Operations treat the
window as a hard horizon and raise rather than silently read beyond it.

Conventions fixed package-wide:

* balls are closed, boxes are half-open ``[lo, hi)``;
* stored points are sorted lexicographically;
* large float reductions go through numpy's pairwise summation, so results
  do not depend on evaluation order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyCandidateSet,
    InvalidArgument,
    NotUniformlyDiscrete,
    RadiusExceedsWindow,
    RegionOutsideWindow,
    TranslationExceedsWindow,
    WindowTooSmall,
)
from .gridindex import GridIndex
from .util import (
    Record,
    fmt_float,
    schedule,
    tail_converged,
    tail_max,
)

#: upper cap of the scale metric; reached when no covering scale certifies
METRIC_CAP = 1.0 / math.sqrt(2.0)

_REL_SLACK = 1e-9   # relative slack for closed-boundary float comparisons

#: largest '# dim=' a CSV file may declare: a GridIndex query walks at
#: least 3**dim cells, so higher dimensions cost minutes per query
_MAX_CSV_DIM = 8


def _in_ball(norms, R: float):
    """The closed-ball rule: which norms lie in B_R, up to _REL_SLACK.

    Every estimate that reads the points of a set in a ball about the
    origin, and every check of a reach against a window, uses this rule.
    """
    return norms <= R * (1.0 + _REL_SLACK)


def _check_reach(need: float, window: float, error: type, what: str) -> None:
    """Raise error unless a reach of need fits the window (``_in_ball``)."""
    if not _in_ball(need, window):
        raise error(f"{what} reaches {need:.6g}, window is {window:.6g}")


def ball_volume(dim: int, radius: float) -> float:
    """Lebesgue volume of the closed Euclidean ball of the given radius."""
    if dim < 1:
        raise InvalidArgument("dim must be >= 1")
    if radius < 0:
        raise InvalidArgument("radius must be >= 0")
    return math.pi ** (dim / 2.0) * radius ** dim / math.gamma(dim / 2.0 + 1.0)


@dataclass(frozen=True, eq=False)
class RegionSpec:
    """Closed ball or half-open axis-aligned box."""

    kind: str
    center: np.ndarray | None = None
    radius: float = 0.0
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    @staticmethod
    def ball(center, radius: float) -> "RegionSpec":
        center = np.asarray(center, dtype=float).reshape(-1)
        if not (np.all(np.isfinite(center)) and 0 <= radius < math.inf):
            raise InvalidArgument(
                "ball needs a finite center and a finite radius >= 0")
        return RegionSpec(kind="ball", center=center, radius=float(radius))

    @staticmethod
    def box(lo, hi) -> "RegionSpec":
        lo = np.asarray(lo, dtype=float).reshape(-1)
        hi = np.asarray(hi, dtype=float).reshape(-1)
        if lo.shape != hi.shape or not np.all(
                np.isfinite(lo) & np.isfinite(hi) & (lo < hi)):
            raise InvalidArgument("box needs finite lo < hi componentwise")
        return RegionSpec(kind="box", lo=lo, hi=hi)

    @property
    def dim(self) -> int:
        return len(self.center) if self.kind == "ball" else len(self.lo)

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "ball":
            d2 = np.sum((points - self.center) ** 2, axis=1)
            return d2 <= self.radius * self.radius
        return np.all(points >= self.lo, axis=1) & np.all(points < self.hi, axis=1)

    def outer_radius(self) -> float:
        """Norm bound on the region: sup |x| over x in the region."""
        if self.kind == "ball":
            return float(np.linalg.norm(self.center) + self.radius)
        return float(np.linalg.norm(np.maximum(np.abs(self.lo), np.abs(self.hi))))

    def volume(self) -> float:
        if self.kind == "ball":
            return ball_volume(self.dim, self.radius)
        return float(np.prod(self.hi - self.lo))

    def diameter(self) -> float:
        if self.kind == "ball":
            return 2.0 * self.radius
        return float(np.linalg.norm(self.hi - self.lo))

    def shifted(self, t) -> "RegionSpec":
        """The region translated by +t."""
        t = np.asarray(t, dtype=float).reshape(-1)
        if self.kind == "ball":
            return RegionSpec.ball(self.center + t, self.radius)
        return RegionSpec.box(self.lo + t, self.hi + t)

    def to_json(self) -> dict:
        if self.kind == "ball":
            return {"kind": "ball", "center": [float(c) for c in self.center],
                    "radius": float(self.radius)}
        return {"kind": "box", "lo": [float(v) for v in self.lo],
                "hi": [float(v) for v in self.hi]}

    @staticmethod
    def from_json(doc: dict) -> "RegionSpec":
        if doc.get("kind") == "ball":
            return RegionSpec.ball(doc["center"], doc["radius"])
        if doc.get("kind") == "box":
            return RegionSpec.box(doc["lo"], doc["hi"])
        raise InvalidArgument("region kind must be 'ball' or 'box'")


@dataclass
class DensityEstimate(Record):
    """Counting-density estimate along a radius schedule.

    ``value`` is the max over the tail of ``tail_values`` (a limsup
    surrogate); ``converged`` is ``util.tail_converged`` of them, so a
    one-radius schedule never converges.
    """

    value: float
    radii_used: np.ndarray
    tail_values: np.ndarray
    converged: bool


class PointSet:
    """Finite, lexicographically sorted point batch with window metadata.

    Parameters
    ----------
    points : (N, dim) array
        Coordinates; sorted on construction.
    window_radius : float
        Radius of the faithful observation ball (>= 0).
    hardcore_radius : float
        Declared minimal pairwise distance r > 0.
    validate : bool
        When true (default), check that the points are finite, lie inside
        the window and respect the hardcore radius (one grid build and one
        capped ``nn_d2`` query). Only sets that pass it by construction skip
        it: subsets and translates of a checked set (``translate``, the
        mismatch sets), ``cut_and_project`` (r is the measured minimum
        distance) and the ``randomized_lattice`` and ``matern_II`` samplers
        (a translate of a checked lattice; dependent thinning). External
        inputs always validate: ``PointSet(...)`` by default,
        ``read_pointset_csv`` and ``make_lattice``. So does the
        ``perturbed_lattice`` sampler, whose r may come close to 0.
    """

    def __init__(self, points, window_radius: float, hardcore_radius: float,
                 validate: bool = True):
        points = np.asarray(points, dtype=float)
        if points.size == 0:
            points = points.reshape(0, points.shape[1] if points.ndim == 2 else 1)
        if points.ndim != 2:
            raise InvalidArgument("points must be an (N, dim) array")
        if not (0.0 < hardcore_radius < math.inf):
            raise InvalidArgument("hardcore_radius must be positive and finite")
        if not (0.0 <= window_radius < math.inf):
            raise InvalidArgument("window_radius must be finite and >= 0")
        order = np.lexsort(points.T[::-1])
        self.points = points[order]
        self.dim = points.shape[1]
        self.window_radius = float(window_radius)
        self.hardcore_radius = float(hardcore_radius)
        self._norms = None
        if validate:
            self._validate()

    def _validate(self) -> None:
        if not np.all(np.isfinite(self.points)):
            raise InvalidArgument("point coordinates must be finite")
        if len(self):
            _check_reach(float(np.max(self.norms())), self.window_radius,
                         RegionOutsideWindow, "a point")
        r = self.hardcore_radius
        if len(self) > 1:
            cell = max(r, self.window_radius / 1024.0, 1e-12)
            d2 = float(np.min(GridIndex(self.points, cell).nn_d2(
                self.points, r * (1.0 - _REL_SLACK), exclude_self=True)))
            if d2 < math.inf:
                raise NotUniformlyDiscrete(
                    f"pairwise distance {math.sqrt(d2):.6g} below declared "
                    f"hardcore radius {r:.6g}")

    def __len__(self) -> int:
        return self.points.shape[0]

    def __repr__(self) -> str:
        return (f"PointSet(n={len(self)}, dim={self.dim}, "
                f"window={self.window_radius:g}, r={self.hardcore_radius:g})")

    def norms(self) -> np.ndarray:
        if self._norms is None:
            self._norms = np.sqrt(np.sum(self.points ** 2, axis=1))
        return self._norms

    def ball(self, R: float) -> np.ndarray:
        """The points in the closed R-ball (``_in_ball``); R within the window."""
        if not R >= 0:
            raise InvalidArgument("ball radius must be >= 0")
        _check_reach(R, self.window_radius, RadiusExceedsWindow, "radius")
        return self.points[_in_ball(self.norms(), R)]

    def grid(self, cell_size: float) -> GridIndex:
        return GridIndex(self.points, cell_size)


def count_in_region(S: PointSet, region: RegionSpec) -> int:
    """Number of points of S in the region (ball closed, box half-open).

    The region must sit inside the faithful window.
    """
    if region.dim != S.dim:
        raise DimensionMismatch("region and point set dimensions differ")
    _check_reach(region.outer_radius(), S.window_radius, RegionOutsideWindow,
                 "region")
    if len(S) == 0:
        return 0
    return int(np.count_nonzero(region.contains(S.points)))


def _shift(S: PointSet, t: np.ndarray):
    """The window clip of S - t, the one rule of ``translate``.

    Returns the shifted points, their norms, the rows that stay in the
    shrunken window (``_in_ball``) and that window, window_radius - |t|.
    """
    tnorm = float(np.linalg.norm(t))
    _check_reach(tnorm, S.window_radius, TranslationExceedsWindow, "|t|")
    new_w = max(0.0, S.window_radius - tnorm)
    shifted = S.points - t
    norms = np.sqrt(np.sum(shifted ** 2, axis=1))
    return shifted, norms, _in_ball(norms, new_w), new_w


def translate(S: PointSet, t) -> PointSet:
    """The set S - t, faithfully windowed to radius window_radius - |t|.

    The rows kept are ``_shift``'s, the clip that ``dbar_c`` reads at each
    quadrature node without building the set.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    if len(t) != S.dim:
        raise DimensionMismatch("translation vector has wrong dimension")
    shifted, _, keep, new_w = _shift(S, t)
    return PointSet(shifted[keep], new_w, S.hardcore_radius, validate=False)


def _partner_dist(A: PointSet, B: PointSet, cap: float) -> np.ndarray:
    """Each point of A's distance to the nearest point of B; inf beyond cap."""
    return np.sqrt(B.grid(max(cap, B.hardcore_radius)).nn_d2(A.points, cap))


def _covering_scale(sides, tol: float) -> float:
    """The scale metric from each side's (norms, partner, other_window).

    A point with norm n and partner distance b breaks scale a when it lies
    in the clipped domain B_min(1/a, W' - a), W' the other set's window, and
    b > a: exactly when a < min(b, 1/n, W' - n). The infimum of the scales
    no point breaks is the max of that bound, clipped to [tol, METRIC_CAP].
    """
    worst = tol
    with np.errstate(divide="ignore"):
        for norms, partner, other_window in sides:
            bound = np.minimum(partner,
                               np.minimum(1.0 / norms, other_window - norms))
            worst = max(worst, float(np.max(bound, initial=tol)))
    return min(worst, METRIC_CAP)


def metric_d(S: PointSet, S2: PointSet, tol: float = 1e-3) -> float:
    """Scale metric: min(1/sqrt(2), inf of certified covering scales).

    A scale ``a`` certifies when every point of each set inside the ball of
    radius min(1/a, W' - a), W' the other set's window, lies within ``a`` of
    the other set; the domain clip keeps the check off points the other
    window cannot faithfully represent. The infimum has a closed form
    (``_covering_scale``), exact up to rounding; values below tol are
    reported as tol.
    """
    if S.dim != S2.dim:
        raise DimensionMismatch("point sets live in different dimensions")
    if not (0.0 < tol < METRIC_CAP):
        raise InvalidArgument("tol must lie in (0, 1/sqrt(2))")
    _check_reach(1.0 / tol, min(S.window_radius, S2.window_radius),
                 WindowTooSmall, f"covering check at scale tol={tol:g}")
    return _covering_scale([(A.norms(), _partner_dist(A, B, METRIC_CAP),
                             B.window_radius) for A, B in ((S, S2), (S2, S))],
                           tol)


def upper_density(S: PointSet, radii) -> DensityEstimate:
    """Counting density count(B_R)/|B_R| along a radius schedule.

    The headline value is the max over the schedule's tail (``util.tail``),
    a finite-scale stand-in for the upper density limsup.
    """
    radii = schedule(radii)
    _check_reach(radii[-1], S.window_radius, RadiusExceedsWindow, "schedule")
    counts = np.array([np.count_nonzero(_in_ball(S.norms(), r)) for r in radii])
    vols = np.array([ball_volume(S.dim, r) for r in radii])
    values = counts / vols
    return DensityEstimate(tail_max(values), radii, values,
                           tail_converged(values))


def mean_nn_spacing(S: PointSet) -> float:
    """Mean distance from each point to its nearest other point."""
    if len(S) < 2:
        raise InvalidArgument("need at least two points")
    guess = (ball_volume(S.dim, S.window_radius) / len(S)) ** (1.0 / S.dim)
    d2 = S.grid(max(2.0 * guess, 2.0 * S.hardcore_radius)).nn_d2(
        S.points, exclude_self=True)
    return float(np.mean(np.sqrt(d2)))


def relative_density_gap(candidates, search_radius: float) -> float:
    """Largest distance from any center in B_search_radius to the candidate set.

    The smallest M such that every closed M-ball centered in the probed ball
    meets the candidates. Exact in 1D (sorted scan over gaps and edge
    distances); in higher dimensions evaluated on a probe grid of pitch
    search_radius/32, which makes the result a lower bound.
    A value near search_radius means the candidates carry no relative-density
    evidence at this scale.
    """
    pts = np.atleast_2d(np.asarray(candidates, dtype=float))
    if pts.size == 0:
        raise EmptyCandidateSet("no candidates to measure")
    if not (0 < search_radius < math.inf):
        raise InvalidArgument("search_radius must be positive and finite")
    norms = np.sqrt(np.sum(pts ** 2, axis=1))
    _check_reach(float(np.max(norms)), search_radius, RegionOutsideWindow,
                 "candidates")
    w = float(search_radius)
    if pts.shape[1] == 1:
        xs = np.sort(pts[:, 0])
        edge = max(xs[0] + w, w - xs[-1])
        interior = float(np.max(np.diff(xs)) / 2.0) if len(xs) > 1 else 0.0
        return max(edge, interior)
    pitch = w / 32.0
    axes = [np.arange(-w, w + pitch / 2.0, pitch) for _ in range(pts.shape[1])]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, pts.shape[1])
    mesh = mesh[np.sum(mesh ** 2, axis=1) <= w * w]
    spacing = (ball_volume(pts.shape[1], w) / max(len(pts), 1)) ** (1.0 / pts.shape[1])
    grid = GridIndex(pts, max(spacing, pitch))
    return float(np.max(grid.nn_dist(mesh)))


# ---------------------------------------------------------------------------
# CSV interchange


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def pointset_to_csv(S: PointSet) -> str:
    lines = [f"# dim={S.dim}",
             f"# r={fmt_float(S.hardcore_radius)}",
             f"# window={fmt_float(S.window_radius)}"]
    for row in S.points:
        lines.append(",".join(fmt_float(v) for v in row))
    return "\n".join(lines) + "\n"


def write_pointset_csv(S: PointSet, path: str) -> None:
    atomic_write_text(path, pointset_to_csv(S))


def _read_csv(path: str, keys: tuple[str, ...], extra_cols: int = 0):
    """Parse `# key=value` header lines and comma-separated float rows.

    Every file carries `# dim=`; each data row has dim + extra_cols fields.
    Returns the header dict and an (N, dim + extra_cols) float array.
    Raises InvalidArgument, naming the line, for a missing header, a
    non-numeric field (bytes that are not UTF-8 included) or a row of the
    wrong width.
    """
    meta: dict[str, float] = {}
    rows: list[tuple[int, list[float]]] = []
    # undecodable bytes become U+FFFD, which no float parses
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    body = line[1:].strip()
                    if "=" in body:
                        key, val = body.split("=", 1)
                        meta[key.strip()] = float(val.strip())
                    continue
                rows.append((lineno, [float(v) for v in line.split(",")]))
            except ValueError:
                raise InvalidArgument(
                    f"line {lineno}: non-numeric field in {line!r}") from None
    for key in ("dim", *keys):
        if key not in meta:
            raise InvalidArgument(f"missing '# {key}=' header")
    dim = meta["dim"]
    if not (1 <= dim <= _MAX_CSV_DIM and dim.is_integer()):
        raise InvalidArgument(
            f"'# dim=' must be a positive integer up to {_MAX_CSV_DIM}, "
            f"got {dim:g}")
    cols = int(dim) + extra_cols
    for lineno, row in rows:
        if len(row) != cols:
            raise InvalidArgument(
                f"line {lineno}: {len(row)} fields, expected {cols}")
    data = np.array([row for _, row in rows], dtype=float).reshape(len(rows), cols)
    return meta, data


def read_pointset_csv(path: str) -> PointSet:
    meta, pts = _read_csv(path, ("r", "window"))
    return PointSet(pts, window_radius=meta["window"], hardcore_radius=meta["r"])
