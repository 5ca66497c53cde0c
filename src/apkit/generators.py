"""Point-set construction: lattices, cut-and-project sets, random processes.

Deterministic generators (lattices, strip projections with optional smooth
deformation) plus seeded stationary samplers, with Palm-intensity estimation
tying the process view to the autocorrelation view. All randomness flows
through a counter-based generator split per sample index, so identical
(kind, seed) reproduces identical point sets bit for bit.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .autocorr import PairDifferences, finite_autocorrelation
from .diffraction import CriterionReport, _candidates, _finish_report
from .errors import (
    ConfigError,
    InvalidArgument,
    NotUniformlyDiscrete,
    SingularBasis,
    WindowTooSmall,
)
from .gridindex import (
    GridIndex,
    _expand_runs,
    _run_blocks,
    _sorted_runs,
    _sq_norms,
)
from .pointset import PointSet, RegionSpec, _check_reach, _in_ball, ball_volume
from .util import Record, schedule

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

SAMPLER_KINDS = ("randomized_model_set", "randomized_lattice", "matern_II",
                 "perturbed_lattice")

_ENUM_LIMIT = 300_000_000
_BLOCK_ROWS = 2_000_000
_LEAF_ROWS = 4_096


# ---------------------------------------------------------------------------
# Lattices


def _pruned_leaves(lo: np.ndarray, hi: np.ndarray, bounds):
    """Rows of the integer box lo..hi that no bound proves unwanted.

    A bound (M, c, r) says every wanted row x has |M x - c| <= r. The box
    is split recursively along its longest axis. A sub-box with centre m and
    half-widths h is dropped when |M m - c| > r + ||M| h|, because
    |M (x - m)| <= ||M| h| for each of its rows x. Sub-boxes of at most
    _LEAF_ROWS rows are leaves, cut by ``_leaf_rows`` to the rows whose last
    coordinate may meet every bound and yielded as int64 rows in row-major
    order.
    """
    stack = [(lo, hi)]
    while stack:
        lo, hi = stack.pop()
        m, h = (lo + hi) / 2.0, (hi - lo) / 2.0
        if any(np.linalg.norm(M @ m - c) > r + np.linalg.norm(np.abs(M) @ h)
               for M, c, r in bounds):
            continue
        size = hi - lo + 1
        if np.prod(size) <= _LEAF_ROWS:
            rows = _leaf_rows(lo, hi, bounds)
            if len(rows):
                yield rows
            continue
        k = int(np.argmax(size))
        mid = (lo[k] + hi[k]) // 2
        left_hi, right_lo = hi.copy(), lo.copy()
        left_hi[k], right_lo[k] = mid, mid + 1
        stack += [(right_lo, hi), (lo, left_hi)]


def _leaf_rows(lo: np.ndarray, hi: np.ndarray, bounds) -> np.ndarray:
    """The rows of the leaf lo..hi whose last coordinate may meet every bound.

    Fix a prefix (every coordinate but the last) and let the last one be
    mid + s, mid the middle of its range. With A = M (prefix, mid) - c and
    b the last column of M, |M x - c|**2 = P + |b|**2 (s - s0)**2, where
    s0 = -(A . b)/|b|**2 and P = |A|**2 - (A . b)**2/|b|**2. So a bound
    keeps s within sqrt((r**2 - P))/|b| of s0, and a prefix with P > r**2
    keeps none. The rows kept are those interval's integers, widened by one
    integer step on each side, over every bound.

    Rounding: A is computed as the sub-box test computes M m - c, whose
    rounding the bounds' margins already cover. From A, the computed r**2 - P
    errs by at most (2 d + 6) u (r**2 + |A|**2) (u = 2**-53, d the rows of
    M, (A . b)**2/|b|**2 <= |A|**2), so a prefix is dropped only when
    r**2 - P < -2**-30 (r**2 + |A|**2). The computed half-width then errs
    by at most sqrt((2 d + 6) u) (r + |A|)/|b| and s0 by (d + 3) u |A|/|b|.
    The cut is made only where r + |A| <= 2**20 |b|, which keeps both below
    a tenth of a step for d <= 8, so the one-step widening covers them;
    other prefixes, and every prefix of a bound with b = 0, keep their whole
    range.
    """
    axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(lo[:-1], hi[:-1])]
    prefix = (np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(
        -1, len(axes)) if axes else np.zeros((1, 0), dtype=np.int64))
    mid = (lo[-1] + hi[-1]) // 2
    first = np.full(len(prefix), float(lo[-1] - mid))
    last = np.full(len(prefix), float(hi[-1] - mid))
    centre = np.hstack([prefix, np.full((len(prefix), 1), mid)]).astype(float)
    for M, c, r in bounds:
        b = M[:, -1]
        q = float(b @ b)
        if q == 0.0:
            continue
        A = centre @ M.T - c
        aa = _sq_norms(A)
        ab = A @ b
        disc = r * r - (aa - ab * ab / q)
        cut = np.sqrt(aa) + r <= 2.0 ** 20 * math.sqrt(q)
        empty = cut & (disc < -2.0 ** -30 * (r * r + aa))
        s0 = -ab / q
        h = np.sqrt(np.maximum(disc, 0.0) / q)
        first = np.where(cut, np.maximum(first, np.ceil(s0 - h - 1.0)), first)
        last = np.where(cut, np.minimum(last, np.floor(s0 + h + 1.0)), last)
        last[empty] = first[empty] - 1.0
    lens = np.maximum(last - first + 1.0, 0.0).astype(np.int64)
    pre, s = _expand_runs(np.arange(len(prefix)), first.astype(np.int64), lens)
    rows = np.empty((len(s), len(lo)), dtype=np.int64)
    rows[:, :-1] = prefix[pre]
    rows[:, -1] = s + mid
    return rows


def _check_box(lo: np.ndarray, hi: np.ndarray, what: str) -> None:
    """Raise ConfigError when the integer box lo..hi holds more than
    _ENUM_LIMIT points."""
    total = int(np.prod((hi - lo + 1).astype(object)))
    if total > _ENUM_LIMIT:
        raise ConfigError(f"{what} would scan {total} lattice points; "
                          "reduce the radius or the window")


def _box_blocks(lo: np.ndarray, hi: np.ndarray, bounds, what: str | None):
    """The rows of the integer box lo..hi (inclusive) that may pass bounds.

    Raises ConfigError, before allocating anything, when the full box holds
    more than _ENUM_LIMIT points (``_check_box``, naming what); what=None
    skips that check, for a caller that checked its own box. The rows of
    ``_pruned_leaves`` come concatenated and cut into blocks of _BLOCK_ROWS
    rows, the last one holding 2 to _BLOCK_ROWS + 1 rows: a one-row product
    takes numpy's vector path, which rounds differently from the matrix
    path, and so would products taken one small leaf at a time. Rows are not
    in row-major order; callers hand their points to PointSet, which sorts.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    if what is not None:
        _check_box(lo, hi, what)
    pending, n = [], 0
    for leaf in _pruned_leaves(lo, hi, bounds):
        pending.append(leaf)
        n += len(leaf)
        if n > _BLOCK_ROWS + 1:
            rows = np.concatenate(pending)
            cut = (n - 2) // _BLOCK_ROWS * _BLOCK_ROWS
            yield from (rows[s:s + _BLOCK_ROWS]
                        for s in range(0, cut, _BLOCK_ROWS))
            pending, n = [rows[cut:]], n - cut
    if n:
        yield np.concatenate(pending)


def _lattice_points(B: np.ndarray, radius: float) -> np.ndarray:
    """The integer combinations x @ B of the basis rows in the closed ball."""
    d = B.shape[1]
    inv = np.linalg.inv(B)
    bounds = np.ceil(radius * np.sqrt(np.sum(inv ** 2, axis=0)) + 1e-9)
    # x @ B lies in the ball only if |B^T x| <= radius; the margin covers
    # the keep test's relative 1e-12 and rounding
    ball = (B.T, np.zeros(d), radius + 1e-9 * (1.0 + radius))
    parts = [np.empty((0, d))]
    for M in _box_blocks(-bounds, bounds, [ball], "lattice enumeration"):
        pts = M.astype(float) @ B
        parts.append(pts[np.sum(pts ** 2, axis=1) <= radius ** 2 * (1 + 1e-12)])
    return np.concatenate(parts)


def make_lattice(basis, window_radius: float) -> PointSet:
    """All integer combinations of the basis rows inside the closed ball."""
    B = np.atleast_2d(np.asarray(basis, dtype=float))
    d = B.shape[1]
    if B.shape[0] != d:
        raise SingularBasis("basis must be square (one vector per dimension)")
    if not (np.all(np.isfinite(B)) and 0.0 <= window_radius < math.inf):
        raise InvalidArgument(
            "lattice needs finite basis entries and a finite window >= 0")
    scale = float(np.max(np.abs(B)))
    if scale == 0 or abs(np.linalg.det(B)) < 1e-12 * scale ** d:
        raise SingularBasis("basis vectors are linearly dependent")
    pts = _lattice_points(B, window_radius)
    # a nonzero lattice vector from a small combination box bounds the
    # shortest one, r0; every vector no longer than r0 lies in B_r0, so the
    # least nonzero norm there is the shortest vector
    small = np.stack(np.meshgrid(*([np.arange(-4, 5)] * d), indexing="ij"),
                     axis=-1).reshape(-1, d)
    small = small[np.any(small != 0, axis=1)]
    r0 = float(np.min(np.sqrt(np.sum((small @ B) ** 2, axis=1))))
    norms = np.sqrt(np.sum(_lattice_points(B, r0) ** 2, axis=1))
    r = float(np.min(norms[norms > 0]))
    return PointSet(pts, window_radius, r)


@functools.lru_cache(maxsize=8)
def _cached_lattice(key: bytes, shape: tuple, window_radius: float):
    base = make_lattice(np.frombuffer(key).reshape(shape), window_radius)
    base.points.setflags(write=False)
    return base.points, base.hardcore_radius


def _lattice_base(basis: np.ndarray, window_radius: float):
    """make_lattice's (points, hardcore radius), built once per basis and radius.

    The points are read-only because every later call shares them. A basis
    that make_lattice rejects raises on every call: lru_cache keeps no
    exceptions.
    """
    return _cached_lattice(basis.tobytes(), basis.shape, float(window_radius))


def lattice_covolume(basis) -> float:
    B = np.atleast_2d(np.asarray(basis, dtype=float))
    return float(abs(np.linalg.det(B)))


# ---------------------------------------------------------------------------
# Cut and project


@dataclass(frozen=True)
class SinusoidalDeformation:
    """Smooth displacement field on internal coordinates.

    g(w) = amplitude * sin(2 pi <frequency, w> + phase); uniformly continuous
    and bounded by |amplitude|, so the enumeration margin is explicit.
    """

    amplitude: np.ndarray
    frequency: np.ndarray
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "amplitude",
                           np.asarray(self.amplitude, dtype=float).reshape(-1))
        object.__setattr__(self, "frequency",
                           np.asarray(self.frequency, dtype=float).reshape(-1))

    def __call__(self, w: np.ndarray) -> np.ndarray:
        s = np.sin(2.0 * np.pi * (w @ self.frequency) + self.phase)
        return s[:, None] * self.amplitude[None, :]

    def bound(self) -> float:
        return float(np.linalg.norm(self.amplitude))

    def to_json(self) -> dict:
        return {"kind": "sinusoidal",
                "amplitude": [float(v) for v in self.amplitude],
                "frequency": [float(v) for v in self.frequency],
                "phase": float(self.phase)}


def _deformation_from_json(doc) -> "SinusoidalDeformation | None":
    if doc is None or doc == {} or doc.get("kind") == "zero":
        return None
    if doc.get("kind") != "sinusoidal":
        raise ConfigError(f"unknown deformation kind {doc.get('kind')!r}")
    return SinusoidalDeformation(doc["amplitude"], doc["frequency"],
                                 doc.get("phase", 0.0))


@dataclass(frozen=True)
class CutProjectConfig:
    """Strip-projection configuration.

    Physical points are the E-coordinates of lattice translates whose
    F-coordinates land in the window, displaced by the deformation of those
    internal coordinates. Window membership is half-open for boxes and
    closed for balls, which makes boundary cases deterministic.
    """

    n: int
    E_basis: np.ndarray
    F_basis: np.ndarray
    window: RegionSpec
    output_radius: float
    deformation: SinusoidalDeformation | None = None
    torus_offset: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "E_basis",
                           np.atleast_2d(np.asarray(self.E_basis, dtype=float)))
        object.__setattr__(self, "F_basis",
                           np.atleast_2d(np.asarray(self.F_basis, dtype=float)))
        offset = np.zeros(self.n) if self.torus_offset is None \
            else np.asarray(self.torus_offset, dtype=float).reshape(-1)
        object.__setattr__(self, "torus_offset", offset)
        self.validate()

    @property
    def physical_dim(self) -> int:
        return self.E_basis.shape[0]

    @property
    def internal_dim(self) -> int:
        return self.F_basis.shape[0]

    def validate(self) -> None:
        if self.E_basis.shape[1] != self.n or self.F_basis.shape[1] != self.n:
            raise ConfigError("basis vectors must live in the ambient space")
        if self.E_basis.shape[0] + self.F_basis.shape[0] != self.n:
            raise ConfigError("E and F dimensions must sum to the ambient n")
        if len(self.torus_offset) != self.n:
            raise ConfigError("torus offset must have ambient dimension")
        M = np.vstack([self.E_basis, self.F_basis])
        gram = M @ M.T
        if float(np.max(np.abs(gram - np.eye(self.n)))) > 1e-10:
            raise ConfigError("E and F bases are not jointly orthonormal")
        if self.window.dim != self.internal_dim:
            raise ConfigError("window dimension must match the internal space")
        if not (0 <= self.output_radius < math.inf):
            raise ConfigError("output_radius must be finite and nonnegative")
        numbers = [self.E_basis, self.F_basis, self.torus_offset]
        if self.deformation is not None:
            if len(self.deformation.amplitude) != self.physical_dim:
                raise ConfigError("deformation amplitude must be physical-dim")
            if len(self.deformation.frequency) != self.internal_dim:
                raise ConfigError("deformation frequency must be internal-dim")
            numbers += [self.deformation.amplitude, self.deformation.frequency,
                        self.deformation.phase]
        if not all(np.all(np.isfinite(v)) for v in numbers):
            raise ConfigError("cut-and-project numbers must be finite")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "E_basis": [[float(v) for v in row] for row in self.E_basis],
            "F_basis": [[float(v) for v in row] for row in self.F_basis],
            "window": self.window.to_json(),
            "output_radius": float(self.output_radius),
            "deformation": (self.deformation.to_json()
                            if self.deformation else {"kind": "zero"}),
            "torus_offset": [float(v) for v in self.torus_offset],
        }

    @staticmethod
    def from_json(doc: dict) -> "CutProjectConfig":
        return CutProjectConfig(
            n=doc["n"],
            E_basis=doc["E_basis"],
            F_basis=doc["F_basis"],
            window=RegionSpec.from_json(doc["window"]),
            output_radius=doc["output_radius"],
            deformation=_deformation_from_json(doc.get("deformation")),
            torus_offset=doc.get("torus_offset", [0.0] * doc["n"]),
        )


def rationality_report(vector, max_denominator: int = 10 ** 6) -> list[str]:
    """Heuristic rational-relation findings among a vector's coordinates.

    Reports coordinate ratios that agree with a fraction of denominator at
    most max_denominator to within 1e-14 relative. Empty list means no
    relation was found at this resolution; that is evidence, not proof, of
    linear independence over the rationals.
    """
    v = np.asarray(vector, dtype=float).reshape(-1)
    findings = []
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            if v[j] == 0:
                findings.append(f"coordinate {j} is zero")
                continue
            ratio = v[i] / v[j]
            frac = Fraction(ratio).limit_denominator(max_denominator)
            if abs(ratio - float(frac)) <= 1e-14 * max(1.0, abs(ratio)):
                findings.append(
                    f"coordinates {i}/{j} ratio matches {frac} "
                    f"(denominator <= {max_denominator})")
    return findings


def _graze_mask(window: RegionSpec, w: np.ndarray) -> np.ndarray:
    """Rows whose internal coordinates lie exactly on the window boundary:
    in the closed box with a coordinate on one of its faces, or at the
    ball's radius."""
    if window.kind == "box":
        closed = np.all((w >= window.lo) & (w <= window.hi), axis=1)
        return closed & np.any((w == window.lo) | (w == window.hi), axis=1)
    d2 = np.sum((w - window.center) ** 2, axis=1)
    return d2 == window.radius ** 2


def _enumerate_strip(cfg: CutProjectConfig):
    """The strip's physical points and its count of grazing translates.

    Decides the rows m of the integer box covering the strip segment, as
    translates z = m + u of the torus offset u. The rows come from
    ``_strip_rows`` for the whole unit cell of offsets floor(u) + [0, 1)^n:
    every row whose internal coordinates may reach the window and whose
    physical coordinates may reach rho_E (the output radius plus the
    deformation bound) for some offset of the cell. The margins of both
    bounds cover the keep test's relative 1e-12, so no grazing translate is
    dropped. Each row then takes the exact window, graze and output tests
    at u. Grazes are the translates exactly on the window boundary within
    rho_E: the ones that can reach the output. The box for u itself is
    checked against _ENUM_LIMIT first, cached or not.
    """
    amp = cfg.deformation.bound() if cfg.deformation else 0.0
    rho_E = cfg.output_radius + amp + 1e-9
    rho = math.sqrt(rho_E ** 2 + cfg.window.outer_radius() ** 2)
    offset = cfg.torus_offset
    _check_box(np.floor(-rho - offset).astype(np.int64),
               np.ceil(rho - offset).astype(np.int64), "strip enumeration")
    window = cfg.window
    if window.kind == "ball":
        c_W, r_W = window.center, window.radius
    else:
        c_W = (window.lo + window.hi) / 2.0
        r_W = float(np.linalg.norm(window.hi - window.lo)) / 2.0
    E, F = cfg.E_basis, cfg.F_basis
    phys_parts = [np.empty((0, cfg.physical_dim))]
    grazes = 0
    for rows in _strip_rows(E, F, c_W, r_W, rho_E, rho, np.floor(offset)):
        z = rows + offset
        w = z @ F.T
        phys = z @ E.T
        grazes += int(np.count_nonzero(_graze_mask(window, w) & (
            np.sum(phys ** 2, axis=1) <= rho_E ** 2)))
        inside = window.contains(w)
        if not np.any(inside):
            continue
        phys, w = phys[inside], w[inside]
        if cfg.deformation is not None:
            phys = phys + cfg.deformation(w)
        keep = np.sum(phys ** 2, axis=1) <= cfg.output_radius ** 2 * (1 + 1e-12)
        phys_parts.append(phys[keep])
    return np.concatenate(phys_parts), grazes


#: row blocks of recent strip cells, oldest first, by their ``_strip_rows``
#: key; they hold at most _STRIP_CACHE_ROWS rows in all
_strip_cells: dict = {}
_STRIP_CACHE_ROWS = 1 << 20


def _strip_rows(E, F, c_W, r_W: float, rho_E: float, rho: float,
                cell: np.ndarray):
    """The row blocks of ``_box_blocks`` for the unit cell of offsets
    cell + [0, 1)^n, read-only.

    A wanted row m at offset u has |F (m + u) - c_W| <= r_W and
    |E (m + u)| <= rho_E (each plus the margin 1e-9 (1 + rho)). With
    u = cell + 1/2 + v, |v_i| <= 1/2, that gives the bounds at the cell's
    centre widened by ||F| / 2| and ||E| / 2|, the sub-box rule of
    ``_pruned_leaves``; the box floor(-rho - cell - 1)..ceil(rho - cell)
    holds the box of every offset in the cell. A cell's blocks are kept,
    keyed on E, F, the window's bounding ball (c_W, r_W), rho_E, rho and the
    cell, when they hold at most _STRIP_CACHE_ROWS rows, evicting the oldest
    cells to stay within that; larger cells stream uncached.
    """
    key = (E.tobytes(), F.tobytes(), E.shape, np.asarray(c_W).tobytes(),
           float(r_W), rho_E, rho, cell.tobytes())
    hit = _strip_cells.get(key)
    if hit is not None:
        yield from hit
        return
    half = np.full(len(cell), 0.5)
    margin = 1e-9 * (1.0 + rho)
    bounds = [(F, c_W - F @ (cell + 0.5),
               r_W + margin + float(np.linalg.norm(np.abs(F) @ half))),
              (E, -(E @ (cell + 0.5)),
               rho_E + margin + float(np.linalg.norm(np.abs(E) @ half)))]
    kept, n = [], 0
    for block in _box_blocks(np.floor(-rho - cell - 1.0), np.ceil(rho - cell),
                             bounds, None):
        block.setflags(write=False)
        n += len(block)
        if kept is not None and n <= _STRIP_CACHE_ROWS:
            kept.append(block)
        else:
            kept = None
        yield block
    if kept is not None:
        def cached_rows():
            return sum(len(b) for blocks in _strip_cells.values() for b in blocks)

        while _strip_cells and n + cached_rows() > _STRIP_CACHE_ROWS:
            del _strip_cells[next(iter(_strip_cells))]
        _strip_cells[key] = tuple(kept)


class WindowGraze(UserWarning):
    """Lattice translates lay exactly on the window boundary."""

    def __init__(self, count: int):
        super().__init__(count)
        self.count = count

    def __str__(self) -> str:
        return (f"{self.count} lattice translate(s) lie exactly on the window "
                "boundary; membership used the half-open/closed convention")


def cut_and_project(cfg: CutProjectConfig) -> PointSet:
    """Project the strip's lattice points to physical space.

    Every lattice translate of the integer box covering the strip segment
    is decided; the scan skips only sub-boxes that provably miss the window
    or the output ball (``_enumerate_strip``). So the output is faithful in
    its window: enlarging output_radius never changes the points inside the
    smaller radius. The hardcore radius is measured from the output; exact
    collisions raise NotUniformlyDiscrete. Translates on the window boundary
    are decided by the half-open convention and warned as a WindowGraze;
    ``_project_counting_grazes`` returns their count instead.
    """
    S, grazes = _project_counting_grazes(cfg)
    if grazes:
        warnings.warn(WindowGraze(grazes), stacklevel=2)
    return S


def _project_counting_grazes(cfg: CutProjectConfig) -> tuple[PointSet, int]:
    """``cut_and_project``'s point set and its WindowGraze count, unwarned.

    The half-open window convention decides grazing translates
    deterministically, so callers that expect them (the zero-offset golden
    strip has one at each end) read the count.

    The result is not validated again, because every check would pass by
    construction. r is sqrt(min d2) over all pairs, with d2 from
    ``GridIndex.nn_d2``, which shares the validation's expression, and the
    check caps at r*(1 - 1e-9), so it finds no pair. ``_enumerate_strip``
    keeps only norms within the window, and the GridIndex rejects
    non-finite coordinates.
    """
    points, grazes = _enumerate_strip(cfg)
    if len(points) < 2:
        return PointSet(points, cfg.output_radius, max(cfg.output_radius, 1.0),
                        validate=False), grazes
    spacing_guess = (ball_volume(cfg.physical_dim, cfg.output_radius)
                     / len(points)) ** (1.0 / cfg.physical_dim)
    # two spacings per cell: most points certify their nearest neighbour
    # within the first shell
    grid = GridIndex(points, max(2.0 * spacing_guess, 1e-9))
    r = math.sqrt(float(np.min(grid.nn_d2(points, exclude_self=True))))
    if r <= 1e-12:
        raise NotUniformlyDiscrete(
            "deformation collapsed distinct projections (measured r = 0)")
    return PointSet(points, cfg.output_radius, r, validate=False), grazes


def fibonacci_config(output_radius: float,
                     torus_offset=(0.0, 0.0),
                     deformation: SinusoidalDeformation | None = None
                     ) -> CutProjectConfig:
    """Canonical two-to-one strip projection with golden-ratio slope.

    Undeformed output has exactly two nearest-neighbor gaps with ratio the
    golden ratio; the short gap is 1/sqrt(2 + golden ratio).
    """
    tau = GOLDEN_RATIO
    c = math.sqrt(2.0 + tau)
    E = np.array([[tau / c, 1.0 / c]])
    F = np.array([[-1.0 / c, tau / c]])
    window = RegionSpec.box([-1.0 / c], [tau / c])
    return CutProjectConfig(n=2, E_basis=E, F_basis=F, window=window,
                            output_radius=output_radius,
                            deformation=deformation,
                            torus_offset=np.asarray(torus_offset, dtype=float))


FIBONACCI_MIN_GAP = 1.0 / math.sqrt(2.0 + GOLDEN_RATIO)
FIBONACCI_DENSITY = GOLDEN_RATIO ** 2 / math.sqrt(2.0 + GOLDEN_RATIO)


# ---------------------------------------------------------------------------
# Stationary samplers


@dataclass(frozen=True)
class ProcessSampler:
    """Seeded description of a stationary point process.

    kind selects the construction; identical (kind, parameters, seed)
    reproduce identical samples. sample(p, index) uses a counter-based
    stream jumped per index, so samples are independent and reproducible
    out of order; an index is an integer in [0, 2**128).
    """

    kind: str
    seed: int
    window_radius: float
    cut_project: CutProjectConfig | None = None
    basis: np.ndarray | None = None
    intensity: float | None = None
    hardcore: float | None = None
    noise_bound: float | None = None
    dim: int = 1

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ConfigError(f"unknown sampler kind {self.kind!r}")
        if self.basis is not None:
            object.__setattr__(self, "basis",
                               np.atleast_2d(np.asarray(self.basis, dtype=float)))
        # sample() trusts these numbers, so they are checked here
        numbers = [self.window_radius, self.basis, self.intensity,
                   self.hardcore, self.noise_bound]
        if not all(np.all(np.isfinite(v)) for v in numbers if v is not None):
            raise ConfigError(
                "sampler window_radius, basis, intensity, hardcore and "
                "noise_bound must be finite")
        if self.kind == "randomized_model_set" and self.cut_project is None:
            raise ConfigError("randomized_model_set needs cut_project")
        if self.kind in ("randomized_lattice", "perturbed_lattice") \
                and self.basis is None:
            raise ConfigError(f"{self.kind} needs a basis")
        if self.kind == "matern_II":
            if self.intensity is None or self.hardcore is None:
                raise ConfigError("matern_II needs intensity and hardcore")
            if self.intensity < 0 or self.hardcore <= 0:
                raise ConfigError("matern_II needs intensity >= 0, hardcore > 0")
        if self.kind == "perturbed_lattice" and self.noise_bound is None:
            raise ConfigError("perturbed_lattice needs noise_bound")

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind, "seed": int(self.seed),
                     "window_radius": float(self.window_radius)}
        if self.cut_project is not None:
            doc["cut_project"] = self.cut_project.to_json()
        if self.basis is not None:
            doc["basis"] = [[float(v) for v in row] for row in self.basis]
        if self.intensity is not None:
            doc["intensity"] = float(self.intensity)
        if self.hardcore is not None:
            doc["hardcore"] = float(self.hardcore)
        if self.noise_bound is not None:
            doc["noise_bound"] = float(self.noise_bound)
        if self.basis is None and self.cut_project is None:
            doc["dim"] = int(self.dim)
        return doc

    @staticmethod
    def from_json(doc: dict) -> "ProcessSampler":
        cp = doc.get("cut_project")
        return ProcessSampler(
            kind=doc["kind"], seed=doc["seed"],
            window_radius=doc["window_radius"],
            cut_project=CutProjectConfig.from_json(cp) if cp else None,
            basis=doc.get("basis"),
            intensity=doc.get("intensity"),
            hardcore=doc.get("hardcore"),
            noise_bound=doc.get("noise_bound"),
            dim=doc.get("dim", 1),
        )


def _rng(p: ProcessSampler, index) -> np.random.Generator:
    """The stream of sample index: Philox(key=seed) jumped index times.

    A jump adds 2**128 to the 256-bit counter, so the stream starts at
    counter index << 128 and is built without jumping. Counters wrap at
    2**256, so an index must lie in [0, 2**128).
    """
    import operator

    try:
        index = operator.index(index)
    except TypeError:
        raise InvalidArgument(
            f"sample index must be an integer, not {index!r}") from None
    if not 0 <= index < 2 ** 128:
        raise InvalidArgument(f"sample index {index} is outside [0, 2**128)")
    return np.random.Generator(np.random.Philox(key=p.seed, counter=index << 128))


def _uniform_in_ball(rng: np.random.Generator, n: int, dim: int,
                     radius: float) -> np.ndarray:
    dirs = rng.normal(size=(n, dim))
    norms = np.sqrt(np.sum(dirs ** 2, axis=1))
    norms[norms == 0] = 1.0
    radii = radius * rng.random(n) ** (1.0 / dim)
    return dirs / norms[:, None] * radii[:, None]


def _process_dim(p: ProcessSampler) -> int:
    """Point dimension: cut-and-project physical, else the basis's, else dim."""
    if p.cut_project is not None:
        return p.cut_project.physical_dim
    return p.dim if p.basis is None else p.basis.shape[1]


def sample(p: ProcessSampler, index: int = 0) -> PointSet:
    """Draw the index-th sample of the process, faithful in its window."""
    rng = _rng(p, index)
    W = p.window_radius
    if p.kind == "randomized_lattice":
        u = rng.random(_process_dim(p))
        offset = u @ p.basis
        diam = float(np.sum(np.sqrt(np.sum(p.basis ** 2, axis=1))))
        reach = W + diam + 1.0
        base, r = _lattice_base(p.basis, reach)
        pts = base - offset
        pts = pts[np.sum(pts ** 2, axis=1) <= W * W * (1 + 1e-12)]
        # A translate of the validated base, as in translate(): exact
        # distances are unchanged. With u = 2**-53 and |x|, |offset| below
        # `reach`, each fl(x - offset) is within 2*u*reach of x - offset, so
        # a computed distance near r moves from the base's by at most
        # sqrt(dim) * u * (4*reach + 2*r). While sqrt(dim) * reach < 1e5 * r
        # that is below 5e-11 * r, a twentieth of the check's 1e-9 * r
        # slack; larger reaches validate.
        trusted = math.sqrt(_process_dim(p)) * reach < 1e5 * r
        return PointSet(pts, W, r, validate=not trusted)
    if p.kind == "randomized_model_set":
        u = rng.random(p.cut_project.n)
        # a translate on the window boundary is a measure-zero event; the
        # half-open convention decides it and cut_and_project warns
        return cut_and_project(
            replace(p.cut_project, torus_offset=u, output_radius=W))
    if p.kind == "matern_II":
        r = p.hardcore
        buf = W + r
        vol = ball_volume(_process_dim(p), buf)
        n = int(rng.poisson(p.intensity * vol))
        props = _uniform_in_ball(rng, n, _process_dim(p), buf)
        marks = rng.random(n)
        if n:
            qi, pi = (_pairs_within_sorted(props, r) if props.shape[1] == 1
                      else GridIndex(props, r).pairs_within(props, r))
            older = (marks[pi] < marks[qi]) | ((marks[pi] == marks[qi]) & (pi < qi))
            killed = np.zeros(n, dtype=bool)
            np.logical_or.at(killed, qi, older)
            props = props[~killed]
        pts = props[np.sum(props ** 2, axis=1) <= W * W * (1 + 1e-12)]
        # Dependent thinning separates by construction. The pair query lists
        # every pair with d2 <= r*r in both orders (runs of the sorted
        # proposals in 1D, a grid walk above); `older` is a strict total
        # order (mark, then row), so each such pair loses its younger member.
        # Survivors are pairwise d2 > r*r with the check's own expression,
        # and the check queries r*(1 - 1e-9). Norms are clipped to the window
        # above, and the proposals are finite draws in a finite ball.
        return PointSet(pts, W, r, validate=False)
    # perturbed_lattice
    dim = _process_dim(p)
    base_r = _lattice_base(p.basis, 2.0)[1]
    if not (p.noise_bound < base_r / 2.0):
        raise ConfigError(
            f"noise bound {p.noise_bound:g} must stay below half the lattice "
            f"hardcore radius {base_r:g}")
    u = rng.random(dim)
    offset = u @ p.basis
    diam = float(np.sum(np.sqrt(np.sum(p.basis ** 2, axis=1))))
    base, _ = _lattice_base(p.basis, W + diam + p.noise_bound + 1.0)
    noise = _uniform_in_ball(rng, len(base), dim, p.noise_bound)
    pts = base - offset + noise
    pts = pts[np.sum(pts ** 2, axis=1) <= W * W * (1 + 1e-12)]
    # validated: base_r - 2*noise_bound can come arbitrarily close to 0,
    # where coordinate rounding outgrows the check's 1e-9 * r slack
    return PointSet(pts, W, base_r - 2.0 * p.noise_bound)


def _pairs_within_sorted(points: np.ndarray, r: float):
    """The pairs of ``GridIndex(points, r).pairs_within(points, r)``, in
    another order, for 1D points.

    Each point's candidates are one run of the sorted coordinates within r,
    padded for rounding (``_sorted_runs``), and a pair is kept by the pair
    walk's test ``_sq_norms(points[p] - points[q]) <= r * r``: a computed
    d2 <= r*r puts the points within r (1 + 2**-51) of each other, inside
    the pad.
    """
    order = np.argsort(points[:, 0], kind="stable")
    col = points[order, 0]
    qi, flat = _expand_runs(order, *_sorted_runs(
        col, col, r * (1.0 + 1e-9) + 1e-9 * np.abs(col)))
    pi = order[flat]
    keep = _sq_norms(points[pi] - points[qi]) <= r * r
    return qi[keep], pi[keep]


def matern_effective_intensity(p: ProcessSampler) -> float:
    """Closed-form retained intensity of the dependent-thinning sampler."""
    vr = ball_volume(_process_dim(p), p.hardcore)
    lam = p.intensity
    if lam == 0:
        return 0.0
    return (1.0 - math.exp(-lam * vr)) / vr


# ---------------------------------------------------------------------------
# Palm calculus


@dataclass
class PalmIntensityEstimate(Record):
    """Monte Carlo estimate of the typical-point intensity on a region."""

    region: RegionSpec
    value: float
    stderr: float
    samples: int
    B_used: RegionSpec


def _count_diffs_in(chi: PointSet, anchors: np.ndarray, A: RegionSpec) -> int:
    """Number of pairs (x in anchors, y in chi) with y - x in A.

    A pair counts when y lies within A's radius of x + A's center (a ball),
    or within A's outer radius of x with y - x in the box, by the pair
    walk's ``_sq_norms`` test. chi is sorted by its first column, so each
    anchor's candidates within that reach are one run of it, found by binary
    search and padded for rounding, and tested in ``_run_blocks``. In
    dimension 2 and up a run is a whole strip of the sample; when the runs
    hold more than two candidates per point, a grid walk over chi (which
    costs about that much to build) tests fewer pairs and is used instead.
    """
    if len(anchors) == 0 or len(chi) == 0:
        return 0
    if A.kind == "ball":
        queries, reach = anchors + A.center, A.radius
    else:
        queries, reach = anchors, A.outer_radius()
    q0 = queries[:, 0]
    left, lens = _sorted_runs(chi.points[:, 0], q0,
                              reach * (1.0 + 1e-9) + 1e-9 * np.abs(q0))
    if chi.dim == 1 or int(lens.sum()) <= 2 * len(chi):
        pairs = _run_blocks(np.arange(len(queries)), left, lens)
    else:
        grid = chi.grid(max(reach, chi.hardcore_radius))
        pairs = (block[:2] for block in grid._blocks(queries, reach))
    count = 0
    for qrows, prows in pairs:
        diff = chi.points[prows] - queries[qrows]
        keep = _sq_norms(diff) <= reach * reach
        if A.kind != "ball":
            keep &= A.contains(diff)
        count += int(np.count_nonzero(keep))
    return count


def _at_least_one(**counts: int) -> None:
    for name, n in counts.items():
        if not n >= 1:
            raise InvalidArgument(f"{name} must be at least 1")


def default_palm_base(dim: int) -> RegionSpec:
    return RegionSpec.box([-0.5] * dim, [0.5] * dim)


def palm_intensity(p: ProcessSampler, A: RegionSpec,
                   B: RegionSpec | None = None, n_samples: int = 200
                   ) -> PalmIntensityEstimate:
    """Estimate the mean count in A seen from a typical point of the process.

    Averages (1/|B|) * sum over points x in B of card((sample - x) and A)
    across seeded samples. The base region B is arbitrary for a stationary
    process; the default is the unit cube at the origin.
    """
    _at_least_one(n_samples=n_samples)
    if B is None:
        B = default_palm_base(A.dim)
    _check_reach(A.diameter() + B.diameter(), p.window_radius, WindowTooSmall,
                 "diameter(A) + diameter(B)")
    volB = B.volume()
    if not volB > 0:
        raise InvalidArgument("base region B must have positive volume")

    def one(i: int) -> float:
        chi = sample(p, i)
        if len(chi) == 0:
            return 0.0
        anchors = chi.points[B.contains(chi.points)]
        return _count_diffs_in(chi, anchors, A) / volB

    vals = np.fromiter((one(i) for i in range(n_samples)), dtype=float,
                       count=n_samples)
    value = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n_samples)) \
        if n_samples > 1 else math.inf
    return PalmIntensityEstimate(A, value, stderr, n_samples, B)


def verify_acpalm(p: ProcessSampler, A: RegionSpec, radii, n_seeds: int = 20,
                  n_palm_samples: int = 200) -> dict:
    """Per-seed autocorrelation mass on A versus the Palm estimate.

    For each seed the pair-difference measure of the sample is evaluated on
    A along the radius schedule, every radius taking its pairs from one
    enumeration at the largest; the final value is compared to the Palm
    intensity estimate. Returns a JSON-ready report with per-seed deviations.
    """
    _at_least_one(n_seeds=n_seeds, n_palm_samples=n_palm_samples)
    radii = schedule(radii)
    palm = palm_intensity(p, A, n_samples=n_palm_samples)
    cutoff = A.outer_radius() + 1.0

    def one(i: int) -> list[float]:
        chi = sample(p, i)
        pairs = PairDifferences(chi, float(radii[-1]), cutoff)
        return [finite_autocorrelation(chi, float(R), diff_cutoff=cutoff,
                                       pairs=pairs).mass_in_region(A)
                for R in radii]

    series = [one(i) for i in range(n_seeds)]
    finals = np.array([s[-1] for s in series])
    deviations = finals - palm.value
    return {
        "palm_value": palm.value,
        "palm_stderr": palm.stderr,
        "radii": [float(r) for r in radii],
        "per_seed_mass": [[float(v) for v in s] for s in series],
        "per_seed_final": [float(v) for v in finals],
        "deviations": [float(v) for v in deviations],
        "max_abs_deviation": float(np.max(np.abs(deviations))),
        "n_seeds": int(n_seeds),
    }


def _wilson_upper(successes: int, n: int, z: float = 1.959964) -> float:
    phat = successes / n
    denom = 1.0 + z * z / n
    center = phat + z * z / (2 * n)
    rad = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return min(1.0, (center + rad) / denom)


def event_almost_periods(p: ProcessSampler, R: float, eps: float,
                         t_candidates, n_samples: int = 500, *,
                         gap_bound: float,
                         search_radius: float | None = None
                         ) -> CriterionReport:
    """Monte Carlo occupancy-event almost periods of the process.

    For each candidate t, estimates the probability that exactly one of
    {sample hits B_R} and {sample - t hits B_R} occurs; t is accepted when
    the estimate is at most eps. The one-sided 95% Wilson bound per
    candidate is recorded in the report details.
    """
    _at_least_one(n_samples=n_samples)
    cand, reach, search_radius = _candidates(t_candidates, _process_dim(p),
                                             search_radius)
    _check_reach(reach + R, p.window_radius, WindowTooSmall, "|t| + R")

    def one(i: int) -> np.ndarray:
        chi = sample(p, i)
        if len(chi) == 0:
            return np.zeros(len(cand), dtype=np.int64)
        # B_R(0) and every B_R(t) read by one rule, so t = 0 agrees with itself
        occ0 = bool(np.any(_in_ball(chi.norms(), R)))
        d2 = np.sum((chi.points[None, :, :] - cand[:, None, :]) ** 2, axis=2)
        occt = np.any(_in_ball(np.sqrt(d2), R), axis=1)
        return (occt != occ0).astype(np.int64)

    counts = sum(one(i) for i in range(n_samples))
    phat = counts / n_samples
    wilson = [_wilson_upper(int(c), n_samples) for c in counts]
    return _finish_report("EVENT_almost_periods", eps, cand, phat <= eps,
                          gap_bound, search_radius, True,
                          {"n_samples": int(n_samples),
                           "event_rate": phat.tolist(),
                           "wilson_upper95": [float(v) for v in wilson]})
