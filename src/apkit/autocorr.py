"""Finite-window autocorrelation measures and averaged pair functionals.

The autocorrelation of a windowed point set at radius R is the atom measure
collecting all ordered pair differences inside the R-ball, weighted 1/|B_R|
per pair, with locations merged at a small binning tolerance. No edge
correction is applied: the definition is exactly the restricted double sum,
and convergence along a radius schedule is what absorbs boundary effects.
A separate, clearly named helper divides weights by the ball-overlap
fraction for callers that want the edge-debiased estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    NoAtomAtZero,
    PsiNotNormalized,
    RadiusExceedsWindow,
    WindowTooSmall,
)
from .gridindex import GridIndex, _column_cells
from .pointset import (
    PointSet,
    RegionSpec,
    _check_reach,
    _in_ball,
    _read_csv,
    atomic_write_text,
    ball_volume,
)
from .testfunc import TestFunction
from .util import fmt_float, schedule, tail_converged

#: PairDifferences ranks a ball's points in int32
_MAX_RANKED = 2**31


def _rank(keys: np.ndarray, size: int):
    """Dense ranks of int64 keys in [0, size), and how many keys are distinct.

    Equal keys get equal ranks, numbered in key order. A range of at most
    twice the row count is ranked through a bitmap of the keys present and
    its cumulative sum; a wider one by ``np.unique``, which gives the same
    ranks.
    """
    if size > 2 * len(keys):
        distinct, rank = np.unique(keys, return_inverse=True)
        return rank, len(distinct)
    present = np.zeros(size, dtype=bool)
    present[keys] = True
    table = np.cumsum(present)
    table -= 1
    return table[keys], int(np.count_nonzero(present))


def _group_by_cell(locations: np.ndarray, cell: float):
    """Group label of each row by its floor-quantized cell, and the count.

    Labels number the cells in row-major order, which is lexicographic:
    each column's floor cells are ranked (``_rank``), the ranks are combined
    row-major, key * m + rank for a column of m distinct cells, and the
    combined key is ranked again, so it stays below the row count. Raises
    InvalidArgument naming ``bin_tol`` as ``gridindex._column_cells`` does.
    """
    if len(locations) == 0:
        return np.empty(0, dtype=np.int64), 0
    key = None
    for cells, _, size in _column_cells(locations, cell, "bin_tol"):
        rank, m = _rank(cells, size)
        del cells
        if key is None:
            key, count = rank, m
        else:
            key *= m
            key += rank
            del rank
            key, count = _rank(key, count * m)
    return key, count


def _aggregate(locations, weights, group_ids, n_groups):
    wsum = np.bincount(group_ids, weights=weights, minlength=n_groups)
    locs = np.empty((n_groups, locations.shape[1]))
    for d in range(locations.shape[1]):
        locs[:, d] = np.bincount(group_ids, weights=weights * locations[:, d],
                                 minlength=n_groups) / wsum
    return locs, wsum


def _components(n: int, a: np.ndarray, b: np.ndarray):
    """Connected components of n nodes joined by the edges (a[i], b[i]).

    Returns each node's component and their count, the components numbered
    in the order of their smallest members. Every node holds a label in
    its own component that is at most the node itself; each round hooks
    the larger label of every edge whose ends differ under the smaller,
    then jumps pointers until every label labels itself. Labels only fall,
    so the rounds end, and then each component holds one label: its
    smallest member.
    """
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        differ = la != lb
        if not np.any(differ):
            break
        la, lb = la[differ], lb[differ]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
    roots = label == np.arange(n)
    return np.cumsum(roots)[label] - 1, int(np.count_nonzero(roots))


def bin_atoms(locations: np.ndarray, weights: np.ndarray, bin_tol: float,
              *, labels: tuple[np.ndarray, int] | None = None):
    """Merge atoms until all pairwise distances are >= bin_tol.

    Quantize to bin_tol cells, take weighted centroids, then repeatedly merge
    connected components of the within-bin_tol proximity graph
    (``_components``). Smeared mass therefore collapses to local weighted
    centroids at bin_tol resolution. A group's sums add its members in row
    order and the atoms are sorted at the end, so the numbering of the
    components changes nothing, except the order in which a later round
    adds a group of three or more atoms.

    ``labels`` lends the rows' cell labels and their count, equal to what
    the quantization would give (``PairDifferences.cells_at``), so a radius
    schedule quantizes its differences once.
    """
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    weights = np.asarray(weights, dtype=float)
    if len(locations) == 0:
        return locations, weights
    gid, n_groups = (_group_by_cell(locations, bin_tol) if labels is None
                     else labels)
    locs, wts = _aggregate(locations, weights, gid, n_groups)
    for _ in range(32):
        grid = GridIndex(locs, bin_tol)
        qi, pi = grid.pairs_within(locs, bin_tol * (1.0 - 1e-12))
        edges = qi < pi
        if not np.any(edges):
            break
        comp, n_comp = _components(len(locs), qi[edges], pi[edges])
        locs, wts = _aggregate(locs, wts, comp, n_comp)
    else:
        raise InvalidArgument("atom binning did not reach a fixpoint")
    order = np.lexsort(locs.T[::-1])
    return locs[order], wts[order]


class WeightedAtomMeasure:
    """Finite positive atom measure with a resolution tolerance.

    Atom locations are pairwise at least bin_tol apart and sorted
    lexicographically; weights are strictly positive.
    """

    def __init__(self, dim: int, locations, weights, bin_tol: float,
                 validate: bool = True):
        locations = np.asarray(locations, dtype=float).reshape(-1, dim)
        weights = np.asarray(weights, dtype=float).reshape(-1)
        if len(locations) != len(weights):
            raise InvalidArgument("locations and weights length mismatch")
        if not (bin_tol > 0):
            raise InvalidArgument("bin_tol must be positive")
        order = np.lexsort(locations.T[::-1])
        self.dim = dim
        self.locations = locations[order]
        self.weights = weights[order]
        self.bin_tol = float(bin_tol)
        if validate:
            if not (np.all(np.isfinite(self.weights))
                    and np.all(np.isfinite(self.locations))):
                raise InvalidArgument("atom weights and locations must be finite")
            if np.any(self.weights <= 0):
                raise InvalidArgument("weights must be strictly positive")
            if len(self.locations) > 1:
                try:
                    grid = GridIndex(self.locations, bin_tol)
                except InvalidArgument:
                    # the locations are finite, so bin_tol is too fine
                    raise InvalidArgument(
                        "bin_tol too fine for the coordinate extent") from None
                if np.any(grid.count_within(self.locations,
                                            bin_tol * (1.0 - 1e-9)) > 1):
                    raise InvalidArgument("atoms closer than bin_tol")

    def __len__(self) -> int:
        return len(self.weights)

    def __repr__(self) -> str:
        return (f"WeightedAtomMeasure(atoms={len(self)}, dim={self.dim}, "
                f"bin_tol={self.bin_tol:g}, mass={self.total_mass():.6g})")

    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def mass_at(self, location, tol: float | None = None) -> float:
        """Total weight within tol (default bin_tol) of the location."""
        if len(self) == 0:
            return 0.0
        location = np.asarray(location, dtype=float).reshape(1, -1)
        tol = self.bin_tol if tol is None else tol
        d2 = np.sum((self.locations - location) ** 2, axis=1)
        return float(np.sum(self.weights[d2 <= tol * tol]))

    def mass_in_region(self, region: RegionSpec) -> float:
        if region.dim != self.dim:
            raise DimensionMismatch("region dimension differs from the measure")
        if len(self) == 0:
            return 0.0
        return float(np.sum(self.weights[region.contains(self.locations)]))

    def mass_at_zero(self) -> float:
        m = self.mass_at(np.zeros(self.dim))
        if m == 0.0:
            raise NoAtomAtZero("measure has no atom at the origin")
        return m

    def support_radius(self) -> float:
        if len(self) == 0:
            return 0.0
        return float(np.max(np.sqrt(np.sum(self.locations ** 2, axis=1))))

    def coarsened(self, scale: float) -> "WeightedAtomMeasure":
        """Re-binned copy at a coarser resolution."""
        if scale < self.bin_tol:
            raise InvalidArgument("coarsening scale below current bin_tol")
        locs, wts = bin_atoms(self.locations, self.weights, scale)
        return WeightedAtomMeasure(self.dim, locs, wts, scale, validate=False)

    def negation_symmetric(self, rtol: float = 1e-9) -> bool:
        """Whether the measure equals its reflection through the origin."""
        if len(self) == 0:
            return True
        grid = GridIndex(self.locations, max(self.bin_tol, 1e-12))
        matched_w = grid.pair_sums(-self.locations, self.bin_tol,
                                   lambda q, p: self.weights[p])
        scale = float(np.max(self.weights))
        return bool(np.all(np.abs(matched_w - self.weights) <= rtol * scale))


def evaluate(mu: WeightedAtomMeasure, f: TestFunction) -> float:
    """Integral of f against the atom measure: sum of weight * f(location)."""
    if f.dim != mu.dim:
        raise DimensionMismatch("test function dimension differs from measure")
    if len(mu) == 0:
        return 0.0
    return float(np.sum(mu.weights * f(mu.locations)))


class PairDifferences:
    """The ordered pairs of S within the closed R-ball, enumerated once.

    Holds the points P = ``S.ball(R)`` and the differences P[pi] - P[qi] of
    the pairs (qi, pi) of P at distance <= diff_cutoff, in ``pairs_within``'s
    order. ``at(r)`` gives the differences of the pairs within a radius
    r <= R, and ``cells_at(r, bin_tol)`` gives them with their bin_tol cell
    labels, so a schedule enumerates its pairs and quantizes their
    differences once. Per pair it keeps only its difference and one int32,
    the larger of its two ends' ranks in norm order: a schedule holds
    n_pairs * (8 * dim + 4) bytes plus one label array per bin_tol.

    Why ``diffs`` is ``P[pi] - P[qi]`` bit for bit: the grid walk
    (``GridIndex._blocks``) yields each block's ``points[prows] -
    queries[qrows]``, the very floats whose squared sum it tests; with
    queries = points = P these are P[pi] - P[qi]. Blocks split only between
    (cell offset, query) runs and come in walk order, so their kept rows,
    written one after another, are ``pairs_within``'s rows in its order.
    They are written into arrays sized by the walk's candidate count,
    counted from the same run lookups the walk then expands, so no list of
    blocks and no concatenated copy ever coexist with the result.

    Why ``at(r)`` equals a fresh enumeration at r, row for row and bit for
    bit: it keeps the points of P by S's cached norms and the ball rule, so
    they are exactly ``S.ball(r)``. Grid cells are absolute floors of
    coordinates / cell, and the cell size max(diff_cutoff, hardcore radius)
    does not depend on the radius.
    GridIndex orders points by a stable sort on row-major cell codes, that
    is lexicographically by cell and then by row; restricted to the points
    of a smaller ball, that is the smaller ball's own order. pairs_within
    walks the same cell offsets, query rows in order, each with its cell's
    points in index order, and computes the same d2 from the same
    coordinates. So the rows whose two ends both lie in the r-ball come out
    in exactly the order, and with exactly the floats, of the enumeration
    at r. ``_in_ball`` is monotone in the norm, so the points of P in the
    r-ball are the first m in norm order, m = count_nonzero(_in_ball(sorted
    norms, r)), and a pair has both ends there exactly when its larger rank
    is below m.

    Why the labels of ``cells_at(r, bin_tol)`` equal ``bin_atoms``' own on
    ``at(r)``: the differences at R are labelled once per bin_tol, and a
    smaller radius keeps its rows' labels, renumbered to consecutive values
    in the same order (``_rank``, as ``_group_by_cell`` ranks its keys).
    That is the quantization of the subset because
    - floor cells are absolute: a row's cell does not depend on which other
      rows are quantized with it;
    - labels number the cells lexicographically (``_group_by_cell``)
      whatever the other rows labelled, so the subset's distinct cells come
      in the same order, and a row's rank among them is its renumbered
      label;
    - with equal labels on the same rows in the same order, ``bin_atoms``'
      bincounts add the same floats in the same order.
    """

    def __init__(self, S: PointSet, R: float, diff_cutoff: float):
        if not (0 < R < math.inf):
            raise InvalidArgument("R must be positive and finite")
        if not (0 < diff_cutoff < math.inf):
            raise InvalidArgument("diff_cutoff must be positive and finite")
        self.S = S
        self.R = float(R)
        self.diff_cutoff = float(diff_cutoff)
        self.P = S.ball(R)
        n = len(self.P)
        if n >= _MAX_RANKED:
            raise InvalidArgument(
                f"{n} points in the R-ball; pair ranks hold fewer than {_MAX_RANKED}")
        # the cached norms that chose P, sorted, so _inside applies S.ball's rule
        norms = S.norms()[_in_ball(S.norms(), R)]
        by_norm = np.argsort(norms, kind="stable")
        self._sorted_norms = norms[by_norm]
        rank = np.empty(n, dtype=np.int32)
        rank[by_norm] = np.arange(n, dtype=np.int32)
        grid = GridIndex(self.P, max(diff_cutoff, S.hardcore_radius))
        # the walk's run lookups, made once: they size the arrays and feed
        # the walk
        runs = list(grid._offset_runs(self.P, diff_cutoff))
        # pages past the last pair are never written, so never resident
        cap = grid._candidates(runs)
        diffs = np.empty((cap, S.dim))
        reach = np.empty(cap, dtype=np.int32)
        count = 0
        for qrows, prows, diff, keep in grid._blocks(self.P, diff_cutoff, runs):
            end = count + int(np.count_nonzero(keep))
            diffs[count:end] = np.compress(keep, diff, axis=0)
            np.maximum(rank[np.compress(keep, qrows)],
                       rank[np.compress(keep, prows)], out=reach[count:end])
            count = end
        self.diffs, self._reach = diffs[:count], reach[:count]
        self._labels: dict[float, tuple[np.ndarray, int]] = {}

    def _inside(self, r: float) -> np.ndarray:
        return self._reach < np.count_nonzero(_in_ball(self._sorted_norms, r))

    def at(self, r: float) -> np.ndarray:
        """Differences of the pairs with both ends in the closed r-ball.

        At r = R this is ``diffs`` itself, not a copy.
        """
        if r == self.R:
            return self.diffs
        return np.compress(self._inside(r), self.diffs, axis=0)

    def cells_at(self, r: float, bin_tol: float):
        """``at(r)`` and its rows' bin_tol cell labels with their count.

        The labels are those ``bin_atoms(at(r), w, bin_tol)`` would compute;
        the differences at R are quantized once per bin_tol, and a smaller
        radius renumbers its rows' labels with ``_rank``.
        """
        if bin_tol not in self._labels:
            self._labels[bin_tol] = _group_by_cell(self.diffs, bin_tol)
        gid, n_groups = self._labels[bin_tol]
        if r == self.R:
            return self.diffs, (gid, n_groups)
        keep = self._inside(r)
        # relabel first, so the subset's old labels are gone before its
        # differences are gathered
        labels = _rank(np.compress(keep, gid), n_groups)
        return np.compress(keep, self.diffs, axis=0), labels


def finite_autocorrelation(S: PointSet, R: float, bin_tol: float | None = None,
                           diff_cutoff: float | None = None, *,
                           pairs: PairDifferences | None = None
                           ) -> WeightedAtomMeasure:
    """Ordered pair-difference measure of S within the closed R-ball.

    Every ordered pair (x, y) of points in S with |x|, |y| <= R and
    |y - x| <= diff_cutoff contributes weight 1/|B_R| at y - x. Self pairs
    give the atom at 0 weight card/|B_R|. With the default cutoff 2R the
    total mass is exactly card^2/|B_R|.

    ``pairs`` lends the pairs of one enumeration at a radius >= R, built
    for this very S and cutoff, so a radius schedule enumerates its pairs
    once (``autocorrelation_limit``); the measure is bit-identical to the
    one without it. A ``pairs`` built for another set, another cutoff or a
    smaller radius raises InvalidArgument.
    """
    if not (0 < R < math.inf):
        raise InvalidArgument("R must be positive and finite")
    _check_reach(R, S.window_radius, RadiusExceedsWindow, "radius")
    if bin_tol is None:
        bin_tol = S.hardcore_radius * 1e-3
    if diff_cutoff is None:
        diff_cutoff = 2.0 * R
    if pairs is None:
        pairs = PairDifferences(S, R, diff_cutoff)
    elif pairs.S is not S:
        raise InvalidArgument("pairs were enumerated for another point set")
    elif pairs.diff_cutoff != diff_cutoff:
        raise InvalidArgument(
            f"pairs were enumerated at cutoff {pairs.diff_cutoff:g}, "
            f"not {diff_cutoff:g}")
    elif pairs.R < R:
        raise InvalidArgument(
            f"pairs were enumerated within radius {pairs.R:g} < R={R:g}")
    diffs, labels = pairs.cells_at(R, bin_tol)
    if len(diffs) == 0:
        return WeightedAtomMeasure(S.dim, np.empty((0, S.dim)), np.empty(0),
                                   bin_tol, validate=False)
    # unit weights as a read-only broadcast view, not an n_pairs array
    locs, wts = bin_atoms(diffs, np.broadcast_to(1.0, len(diffs)), bin_tol,
                          labels=labels)
    return WeightedAtomMeasure(S.dim, locs, wts / ball_volume(S.dim, R),
                               bin_tol, validate=False)


def ball_overlap_fraction(dim: int, R: float, separations: np.ndarray) -> np.ndarray:
    """|B_R intersect (B_R + v)| / |B_R| as a function of s = |v|.

    Exact in 1D; evaluated by Simpson quadrature of the cross-section formula
    in higher dimensions.
    """
    s = np.asarray(separations, dtype=float)
    out = np.zeros(s.shape)
    inside = s < 2.0 * R
    if dim == 1:
        out[inside] = 1.0 - s[inside] / (2.0 * R)
        return out
    # overlap = 2 * cap volume; cap from x = s/2 to R of (n-1)-ball sections
    nodes = np.linspace(0.0, 1.0, 513)
    w = np.ones(len(nodes))
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    half = s[inside] / 2.0
    x = half[:, None] + (R - half[:, None]) * nodes[None, :]
    sec = (np.maximum(R * R - x * x, 0.0)) ** ((dim - 1) / 2.0)
    cap = np.sum(w[None, :] * sec, axis=1) * ((R - half) / (len(nodes) - 1)) / 3.0
    cap *= ball_volume(dim - 1, 1.0)
    out[inside] = 2.0 * cap / ball_volume(dim, R)
    return out


def debias_ball_edge(mu: WeightedAtomMeasure, R: float) -> WeightedAtomMeasure:
    """Divide weights by the ball-overlap fraction at each atom's distance.

    Turns the restricted pair-difference estimate into an (unbiased, higher
    variance near the support edge) estimate of the limiting weights. Atoms
    within 1% of the 2R horizon are dropped rather than blown up.
    """
    if len(mu) == 0:
        return mu
    seps = np.sqrt(np.sum(mu.locations ** 2, axis=1))
    frac = ball_overlap_fraction(mu.dim, R, seps)
    keep = frac > 0.01
    return WeightedAtomMeasure(mu.dim, mu.locations[keep],
                               mu.weights[keep] / frac[keep], mu.bin_tol,
                               validate=False)


@dataclass
class AutocorrEstimate:
    """Autocorrelation along a radius schedule with atom tracking."""

    measure: WeightedAtomMeasure
    radius_schedule: np.ndarray
    per_radius_mass_at_zero: np.ndarray
    converged: bool
    tracked_locations: np.ndarray
    tracked_weights: np.ndarray   # (n_tracked, n_radii)

    def to_json(self) -> dict:
        return {
            "radii": [float(r) for r in self.radius_schedule],
            "mass_at_zero": [float(v) for v in self.per_radius_mass_at_zero],
            "converged": self.converged,
            "atoms": len(self.measure),
            "total_mass": self.measure.total_mass(),
            "bin_tol": self.measure.bin_tol,
        }


def autocorrelation_limit(S: PointSet, radii, bin_tol: float | None = None,
                          diff_cutoff: float | None = None,
                          significance: float = 0.01,
                          track_rtol: float = 0.05) -> AutocorrEstimate:
    """Pair-difference measures along a schedule, with limit diagnostics.

    The returned measure is the one at the largest radius. Atoms carrying at
    least ``significance`` times the zero-atom weight are tracked across the
    schedule; the estimate is converged when every tracked weight series and
    the zero-atom series pass ``util.tail_converged`` at ``track_rtol``.
    A shared difference cutoff (default twice the smallest radius) keeps the
    measures comparable across the schedule, and lets every radius take its
    pairs from one enumeration at the largest radius (``PairDifferences``).
    """
    radii = schedule(radii)
    if radii.size < 2:
        raise InvalidArgument("need at least two radii to track convergence")
    if not (0 <= significance < math.inf and 0 < track_rtol < math.inf):
        raise InvalidArgument(
            "significance must be finite and >= 0, track_rtol positive and finite")
    if diff_cutoff is None:
        diff_cutoff = 2.0 * float(radii[0])
    pairs = PairDifferences(S, float(radii[-1]), diff_cutoff)
    measures = [finite_autocorrelation(S, float(r), bin_tol, diff_cutoff,
                                       pairs=pairs)
                for r in radii]
    final = measures[-1]
    zero = np.zeros(S.dim)
    mass0 = np.array([m.mass_at(zero) for m in measures])
    if mass0[-1] == 0.0:
        raise NoAtomAtZero("empty sample: autocorrelation has no zero atom")
    sig = final.weights >= significance * mass0[-1]
    tracked_locs = final.locations[sig]
    tracked = np.zeros((len(tracked_locs), len(radii)))
    for j, m in enumerate(measures):
        if len(m) == 0 or len(tracked_locs) == 0:
            continue
        grid = GridIndex(m.locations, max(final.bin_tol, m.bin_tol))
        tracked[:, j] = grid.pair_sums(tracked_locs, final.bin_tol,
                                       lambda q, p: m.weights[p])
    ok = all(tail_converged(row, track_rtol) for row in [mass0, *tracked])
    return AutocorrEstimate(
        measure=final,
        radius_schedule=radii,
        per_radius_mass_at_zero=mass0,
        converged=ok,
        tracked_locations=tracked_locs,
        tracked_weights=tracked,
    )


def _check_psi(psi: TestFunction) -> None:
    if psi.amplitude < 0:
        raise PsiNotNormalized("weight function must be nonnegative")
    total = psi.integral()
    if abs(total - 1.0) > 1e-9:
        raise PsiNotNormalized(
            f"weight function integral {total!r} differs from 1 by more than 1e-9")


def birkhoff_average_hf(S: PointSet, psi: TestFunction, f: TestFunction,
                        R: float, quad_points: int = 4096) -> float:
    """Ball average over translates t in B_R of the weighted pair sum of S - t.

    Midpoint quadrature; the translate is applied inside the pair sum (psi
    slides over the window) so no per-node point set is materialized.
    """
    from .pseudometrics import _midpoint_grid

    if psi.dim != S.dim or f.dim != S.dim:
        raise DimensionMismatch("test function dimension differs from the set")
    _check_psi(psi)
    _check_reach(R + psi.support_bound() + f.support_bound(), S.window_radius,
                 WindowTooSmall, "R plus both supports")
    nodes, _ = _midpoint_grid(R, S.dim, quad_points)
    # inner sums F(x) = sum_y f(y - x) for every x that psi can reach
    X = S.ball(R + psi.support_bound())
    grid_all = S.grid(max(f.support_radius, S.hardcore_radius))
    F = grid_all.pair_sums(X + f.center, f.support_radius,
                           lambda q, p: f(S.points[p] - X[q]))
    # pair each node t with the points psi(x - t) can see
    grid_x = GridIndex(X, max(psi.support_radius, S.hardcore_radius))
    H = grid_x.pair_sums(nodes + psi.center, psi.support_radius,
                         lambda t, x: psi(X[x] - nodes[t]) * F[x])
    return float(np.mean(H))


# ---------------------------------------------------------------------------
# CSV interchange


def measure_to_csv(mu: WeightedAtomMeasure) -> str:
    lines = [f"# dim={mu.dim}", f"# bin_tol={fmt_float(mu.bin_tol)}"]
    for loc, w in zip(mu.locations, mu.weights):
        lines.append(",".join(fmt_float(v) for v in loc) + "," + fmt_float(w))
    return "\n".join(lines) + "\n"


def write_measure_csv(mu: WeightedAtomMeasure, path: str) -> None:
    atomic_write_text(path, measure_to_csv(mu))


def read_measure_csv(path: str) -> WeightedAtomMeasure:
    meta, data = _read_csv(path, ("bin_tol",), extra_cols=1)
    dim = data.shape[1] - 1
    return WeightedAtomMeasure(dim, data[:, :dim], data[:, dim],
                               meta["bin_tol"])
