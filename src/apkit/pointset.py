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
import weakref
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
from .util import fmt_float, schedule, tail_converged, tail_max

#: upper cap of the scale metric; reached when no covering scale certifies
METRIC_CAP = 1.0 / math.sqrt(2.0)

_REL_SLACK = 1e-9   # relative slack for closed-boundary float comparisons


def ball_volume(dim: int, radius: float) -> float:
    """Lebesgue volume of the closed Euclidean ball of the given radius."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if radius < 0:
        raise ValueError("radius must be >= 0")
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
class DensityEstimate:
    """Counting-density estimate along a radius schedule.

    ``value`` is the max over the tail of ``tail_values`` (a limsup
    surrogate); ``converged`` is ``util.tail_converged`` of them, so a
    one-radius schedule never converges.
    """

    value: float
    radii_used: np.ndarray
    tail_values: np.ndarray
    converged: bool

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "radii_used": [float(r) for r in self.radii_used],
            "tail_values": [float(v) for v in self.tail_values],
            "converged": self.converged,
        }


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
            raise ValueError("points must be an (N, dim) array")
        if not (hardcore_radius > 0.0):
            raise ValueError("hardcore_radius must be positive")
        if window_radius < 0.0:
            raise ValueError("window_radius must be >= 0")
        order = np.lexsort(points.T[::-1])
        self.points = points[order]
        self.dim = points.shape[1]
        self.window_radius = float(window_radius)
        self.hardcore_radius = float(hardcore_radius)
        self._norms = None
        self._origin = None   # (parent, t, keep) when made by translate
        self._near = None     # metric_d's cached neighbour pairs
        if validate:
            self._validate()

    def _validate(self) -> None:
        if not np.all(np.isfinite(self.points)):
            raise InvalidArgument("point coordinates must be finite")
        w = self.window_radius * (1.0 + _REL_SLACK) + 1e-12
        if len(self) and float(np.max(self.norms())) > w:
            raise RegionOutsideWindow("points outside the declared window")
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

    def grid(self, cell_size: float) -> GridIndex:
        return GridIndex(self.points, cell_size)


def count_in_region(S: PointSet, region: RegionSpec) -> int:
    """Number of points of S in the region (ball closed, box half-open).

    The region must sit inside the faithful window.
    """
    if region.dim != S.dim:
        raise DimensionMismatch("region and point set dimensions differ")
    if region.outer_radius() > S.window_radius * (1.0 + _REL_SLACK) + 1e-12:
        raise RegionOutsideWindow(
            f"region reaches {region.outer_radius():.6g}, window is "
            f"{S.window_radius:.6g}")
    if len(S) == 0:
        return 0
    return int(np.count_nonzero(region.contains(S.points)))


def translate(S: PointSet, t) -> PointSet:
    """The set S - t, faithfully windowed to radius window_radius - |t|.

    The result records its provenance ``(S, t, keep)``: the parent, the
    shift and the mask of parent rows that survive the window clip. The
    result's points are exactly ``S.points[keep] - t``, re-sorted, so
    ``metric_d`` can work from the parent's neighbour pairs.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    if len(t) != S.dim:
        raise DimensionMismatch("translation vector has wrong dimension")
    tnorm = float(np.linalg.norm(t))
    if tnorm > S.window_radius * (1.0 + _REL_SLACK):
        raise TranslationExceedsWindow(
            f"|t|={tnorm:.6g} exceeds window radius {S.window_radius:.6g}")
    new_w = max(0.0, S.window_radius - tnorm)
    shifted = S.points - t
    keep = np.sum(shifted ** 2, axis=1) <= (new_w * (1.0 + _REL_SLACK)) ** 2 + 1e-300
    out = PointSet(shifted[keep], new_w, S.hardcore_radius, validate=False)
    out._origin = (S, t, keep)
    return out


def _near_pairs(A: PointSet, B: PointSet):
    """Rows (of A, of B) whose points are within METRIC_CAP + margin.

    The margin covers every pair that comes within METRIC_CAP after both
    sets are shifted by a common t. With u = 2**-53 and M bounding all
    |coordinates| and |t_i| (translate keeps |t| <= window), each shifted
    coordinate fl(x - t) is within 2uM of x - t, so each component of the
    shifted difference is within 4uM + u|component| of y - x. A shifted
    squared distance <= METRIC_CAP**2 therefore puts |y - x| within about
    sqrt(dim) * u * (4M + 3) of METRIC_CAP, and one more rounding of the
    unshifted squared distance adds less than that again. 1e-9 * (1 + M),
    with M taken as the larger window plus the largest |coordinate|,
    exceeds this about 10**6 / sqrt(dim) times over. It does not depend on
    t, so every translate of the same pair of parents hits the cache.

    The list is cached on A for the last B it served, checked by identity;
    B is held weakly so no reference cycle forms.
    """
    near = A._near
    if near is not None and near[0]() is B:
        return near[1], near[2]
    reach = max(A.window_radius, B.window_radius)
    for P in (A, B):
        if len(P):
            reach = max(reach, float(np.max(np.abs(P.points))))
    margin = 1e-9 * (1.0 + reach)
    cell = max(min(A.hardcore_radius, B.hardcore_radius), 0.25)
    qi, pi = B.grid(cell).pairs_within(A.points, METRIC_CAP + margin)
    A._near = (weakref.ref(B), qi, pi)
    return qi, pi


def _nearest_d2(S: PointSet, S2: PointSet):
    """Each point's norm and least squared distance to the other set.

    Returns ``[(norms, best), (norms2, best2)]`` over the points of S and of
    S2 (in their parents' row order when they are translates by a common
    shift). ``best`` is inf for a point with no partner within METRIC_CAP.
    Every value equals the one computed on S's and S2's own coordinates.
    """
    # each set is parent.points[keep] - t: two translates by equal shifts
    # resolve to their parents, anything else to itself with t = 0 and
    # every row kept (x - 0.0 == x bitwise)
    oa, ob = S._origin, S2._origin
    if oa is None or ob is None or not np.array_equal(oa[1], ob[1]):
        oa, ob = ((P, np.zeros(P.dim), np.ones(len(P), dtype=bool))
                  for P in (S, S2))
    (ra, ta, ka), (rb, tb, kb) = oa, ob
    qi, pi = _near_pairs(ra, rb)
    # bitwise the coordinates translate produced
    pa, pb = ra.points - ta, rb.points - tb
    live = ka[qi] & kb[pi]
    qi, pi = qi[live], pi[live]
    # pairs_within's own expression; (a - b)**2 == (b - a)**2 bitwise, so
    # one d2 serves both sides
    d2 = np.sum((pb[pi] - pa[qi]) ** 2, axis=1)
    close = d2 <= METRIC_CAP * METRIC_CAP
    out = []
    for pts, keep, rows in ((pa, ka, qi), (pb, kb, pi)):
        best = np.full(len(pts), np.inf)
        np.minimum.at(best, rows[close], d2[close])
        out.append((np.sqrt(np.sum(pts[keep] ** 2, axis=1)), best[keep]))
    return out


def metric_d(S: PointSet, S2: PointSet, tol: float = 1e-3) -> float:
    """Scale metric: min(1/sqrt(2), inf of certified covering scales).

    A scale ``a`` certifies when every point of each set inside the ball of
    radius 1/a lies within ``a`` of the other set. Certification is monotone
    in ``a``, so the infimum is located by bisection on [tol, 1/sqrt(2)];
    the returned value is a certified scale at most tol above the infimum.
    Values at or below tol are reported as tol.

    The predicate at scale ``a`` is evaluated on the window-clipped domain
    B_min(1/a, W-a) of each set so that it never consults points the other
    window cannot faithfully represent.

    Each point's least squared distance to the other set is computed once,
    and every bisection step is a masked comparison of those minima with
    a*a. The neighbour pairs come from one query per pair of root sets:
    when S and S2 are translates by the same t (as in ``dbar_c``), the
    roots are their parents and all translates of that pair share one
    cached pair list; otherwise the roots are S and S2 themselves. The
    query radius is METRIC_CAP plus a margin that covers rounding under
    any shift. Each distance is then recomputed from the translated
    coordinates ``parent.points - t``, which are bitwise those of S and S2,
    with ``pairs_within``'s own float expression, and pairs beyond
    METRIC_CAP are dropped. So the minima equal those of a radius-METRIC_CAP
    query on S and S2 directly, and ``min d2 <= a*a`` holds exactly when a
    radius-``a`` query would have found some ``d2 <= a*a``.
    """
    if S.dim != S2.dim:
        raise DimensionMismatch("point sets live in different dimensions")
    if not (0.0 < tol < METRIC_CAP):
        raise InvalidArgument("tol must lie in (0, 1/sqrt(2))")
    min_w = min(S.window_radius, S2.window_radius)
    if 1.0 / tol > min_w * (1.0 + _REL_SLACK):
        raise WindowTooSmall(
            f"covering check at scale tol={tol:g} needs window >= {1.0 / tol:g}, "
            f"have {min_w:g}")

    windows = (S.window_radius, S2.window_radius)

    def domain(side: int, a: float) -> float:
        return min(1.0 / a, windows[1 - side] - a)

    # domains shrink as a grows, so the one at a = tol holds all the others
    norms, best_d2 = [], []
    for side, (own_norms, best) in enumerate(_nearest_d2(S, S2)):
        sel = own_norms <= domain(side, tol)
        norms.append(own_norms[sel])
        best_d2.append(best[sel])

    def certified(a: float) -> bool:
        for side in (0, 1):
            if not bool(np.all(best_d2[side][norms[side] <= domain(side, a)]
                               <= a * a)):
                return False
        return True

    if certified(tol):
        return tol
    if not certified(METRIC_CAP):
        return METRIC_CAP
    lo, hi = tol, METRIC_CAP
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if certified(mid):
            hi = mid
        else:
            lo = mid
    return hi


def upper_density(S: PointSet, radii) -> DensityEstimate:
    """Counting density count(B_R)/|B_R| along a radius schedule.

    The headline value is the max over the schedule's tail (``util.tail``),
    a finite-scale stand-in for the upper density limsup.
    """
    radii = schedule(radii)
    if radii[-1] > S.window_radius * (1.0 + _REL_SLACK):
        raise RadiusExceedsWindow(
            f"schedule reaches {radii[-1]:.6g}, window is {S.window_radius:.6g}")
    sorted_norms = np.sort(S.norms()) if len(S) else np.empty(0)
    counts = np.searchsorted(sorted_norms, radii * (1.0 + _REL_SLACK), side="right")
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


def relative_density_gap(candidates, search_radius: float,
                         probe_pitch: float | None = None) -> float:
    """Largest distance from any center in B_search_radius to the candidate set.

    The smallest M such that every closed M-ball centered in the probed ball
    meets the candidates. Exact in 1D (sorted scan over gaps and edge
    distances); in higher dimensions evaluated on a probe grid of the given
    pitch (default search_radius/32), which makes the result a lower bound.
    A value near search_radius means the candidates carry no relative-density
    evidence at this scale.
    """
    pts = np.atleast_2d(np.asarray(candidates, dtype=float))
    if pts.size == 0:
        raise EmptyCandidateSet("no candidates to measure")
    if search_radius <= 0:
        raise ValueError("search_radius must be positive")
    norms = np.sqrt(np.sum(pts ** 2, axis=1))
    if float(np.max(norms)) > search_radius * (1.0 + _REL_SLACK) + 1e-12:
        raise RegionOutsideWindow("candidates outside the probed ball")
    w = float(search_radius)
    if pts.shape[1] == 1:
        xs = np.sort(pts[:, 0])
        edge = max(xs[0] + w, w - xs[-1])
        interior = float(np.max(np.diff(xs)) / 2.0) if len(xs) > 1 else 0.0
        return max(edge, interior)
    pitch = probe_pitch if probe_pitch is not None else w / 32.0
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
    non-numeric field or a row of the wrong width.
    """
    meta: dict[str, float] = {}
    rows: list[tuple[int, list[float]]] = []
    with open(path, "r", encoding="utf-8") as fh:
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
    if not (dim >= 1 and dim.is_integer()):
        raise InvalidArgument(f"'# dim=' must be a positive integer, got {dim:g}")
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
