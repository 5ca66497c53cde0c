"""Translation-insensitive pseudo-metrics between windowed point sets.

Four ways to compare configurations at a fixed hardcore radius:

* ``dbar``: the smallest scale a at which the density of a-mismatched points
  drops below a (bisection, capped at r/2);
* ``dbar_c``: the ball-averaged scale metric (quadrature over translates);
* ``dbar_f``: the averaged absolute difference of bump convolutions;
* ``dtilde``: the density of the exact symmetric difference.

Each averaged quantity reports its full radius schedule so callers can see
what the limsup surrogate was taken over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    OutsideWindow,
    RadiusExceedsWindow,
    SupportTooLarge,
    WindowTooSmall,
)
from .pointset import PointSet, metric_d, translate, upper_density
from .testfunc import TestFunction
from .util import schedule, tail_converged, tail_max


@dataclass
class PseudoMetricReport:
    """Averaged pseudo-metric value with its evidence trail."""

    value: float
    radius_schedule: np.ndarray
    per_radius: np.ndarray
    converged: bool
    pitch: float

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "radii": [float(r) for r in self.radius_schedule],
            "per_radius": [float(v) for v in self.per_radius],
            "converged": self.converged,
            "pitch": self.pitch,
        }


def _check_pair(S: PointSet, S2: PointSet) -> None:
    if S.dim != S2.dim:
        raise DimensionMismatch("point sets live in different dimensions")


def asymmetric_mismatch(S: PointSet, S2: PointSet, a: float) -> PointSet:
    """Points of S (within the shared evaluation window) farther than a from S2.

    The evaluation window shrinks by a so the emptiness test never needs
    points of S2 beyond its faithful horizon.
    """
    _check_pair(S, S2)
    if not (a > 0):
        raise InvalidArgument("mismatch scale a must be positive")
    w_eval = min(S.window_radius, S2.window_radius) - a
    if w_eval <= 0:
        raise WindowTooSmall("windows too small for this mismatch scale")
    pts = S.points[S.norms() <= w_eval * (1.0 + 1e-9)]
    d2 = S2.grid(max(a, S2.hardcore_radius)).nn_d2(pts, a)
    return PointSet(pts[~(d2 <= a * a)], w_eval, S.hardcore_radius,
                    validate=False)


def symmetric_mismatch(S: PointSet, S2: PointSet, a: float) -> PointSet:
    """Union of both one-sided mismatch sets (cross pairs are > a apart)."""
    m1 = asymmetric_mismatch(S, S2, a)
    m2 = asymmetric_mismatch(S2, S, a)
    pts = np.vstack([m1.points, m2.points])
    r = min(S.hardcore_radius, S2.hardcore_radius, a)
    return PointSet(pts, m1.window_radius, r, validate=False)


def dbar(S: PointSet, S2: PointSet, radii, tol: float | None = None) -> float:
    """Smallest scale a (within tol) with mismatch density <= a, capped at r/2.

    The membership predicate is monotone in a, so bisection on
    [tol, r/2] locates the threshold; values at or below tol are reported
    as tol, and a predicate failing at the cap returns the cap.

    Each point's least squared distance to the other set, capped at r/2, is
    computed once; a bisection step masks the points of both sets to the
    mismatch set that ``symmetric_mismatch(S, S2, a)`` would build.
    """
    _check_pair(S, S2)
    r = S.hardcore_radius
    if abs(S2.hardcore_radius - r) > 1e-12 * max(1.0, r):
        raise InvalidArgument("dbar needs a shared hardcore radius")
    if tol is None:
        tol = 1e-3 * r
    cap = r / 2.0
    if not (0 < tol < cap):
        raise InvalidArgument("tol must lie in (0, r/2)")
    radii = schedule(radii)
    min_w = min(S.window_radius, S2.window_radius)
    if radii[-1] > min_w - cap:
        raise RadiusExceedsWindow(
            f"density radii must stay within min window - r/2 = {min_w - cap:g}")
    sides = [(A, B.grid(max(cap, B.hardcore_radius)).nn_d2(A.points, cap))
             for A, B in ((S, S2), (S2, S))]

    def ok(a: float) -> bool:
        w_eval = min_w - a
        if w_eval <= 0:
            raise WindowTooSmall("windows too small for this mismatch scale")
        pts = np.vstack([A.points[(A.norms() <= w_eval * (1.0 + 1e-9))
                                  & ~(d2 <= a * a)] for A, d2 in sides])
        mism = PointSet(pts, w_eval, r, validate=False)
        return upper_density(mism, radii).value <= a

    if ok(tol):
        return tol
    if not ok(cap):
        return cap
    lo, hi = tol, cap
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _midpoint_grid(R: float, dim: int, quad_points: int):
    """Midpoint-rule nodes on [-R, R]^dim clipped to the closed R-ball."""
    h = 2.0 * R / quad_points
    axis = -R + (np.arange(quad_points) + 0.5) * h
    if dim == 1:
        nodes = axis.reshape(-1, 1)
    else:
        nodes = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"),
                         axis=-1).reshape(-1, dim)
    keep = np.sum(nodes ** 2, axis=1) <= R * R
    return nodes[keep], h


def _ball_report(nodes: np.ndarray, h: float, vals: np.ndarray,
                 radii: np.ndarray) -> PseudoMetricReport:
    """Means of the node values over the nested balls of the schedule."""
    norms = np.sqrt(np.sum(nodes ** 2, axis=1))
    per_radius = np.array([float(np.mean(vals[norms <= rr])) for rr in radii])
    return PseudoMetricReport(tail_max(per_radius), radii, per_radius,
                              tail_converged(per_radius), h)


def dbar_c(S: PointSet, S2: PointSet, R: float, quad_points: int = 48,
           tol: float = 1e-2, schedule_fractions=(0.4, 0.6, 0.8, 1.0)
           ) -> PseudoMetricReport:
    """Ball average of the scale metric over translates of both sets.

    Midpoint quadrature on the translation ball B_R; per_radius reports the
    running averages over the nested sub-balls R * schedule_fractions, and
    the headline value is the max over that schedule's tail.
    """
    _check_pair(S, S2)
    radii = schedule(R * np.asarray(schedule_fractions, dtype=float))
    min_w = min(S.window_radius, S2.window_radius)
    if R + 1.0 / tol > min_w * (1.0 + 1e-9):
        raise WindowTooSmall(
            f"need window >= R + 1/tol = {R + 1.0 / tol:g}, have {min_w:g}")
    nodes, h = _midpoint_grid(R, S.dim, quad_points)
    vals = np.array([metric_d(translate(S, t), translate(S2, t), tol)
                     for t in nodes])
    return _ball_report(nodes, h, vals, radii)


def _mu_conv_f_batch(S: PointSet, f: TestFunction, u: np.ndarray) -> np.ndarray:
    """sum_x f(u - x) for a batch of evaluation points u."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    out = np.zeros(u.shape[0])
    if len(S) == 0:
        return out
    rho = f.support_radius
    # f(u - x) != 0 iff x lies within rho of (u - center)
    grid = S.grid(max(rho, S.hardcore_radius))
    qrows, prows = grid.pairs_within(u - f.center, rho)
    if qrows.size:
        contrib = f(u[qrows] - S.points[prows])
        np.add.at(out, qrows, contrib)
    return out


def mu_conv_f(S: PointSet, f: TestFunction, u) -> float:
    """Convolution of the counting measure of S with f, at the point u."""
    if f.dim != S.dim:
        raise DimensionMismatch("test function dimension differs from the set")
    u = np.asarray(u, dtype=float).reshape(-1)
    reach = float(np.linalg.norm(u - f.center)) + f.support_radius
    if reach > S.window_radius * (1.0 + 1e-9):
        raise OutsideWindow(
            f"evaluation needs points out to {reach:g}, window is "
            f"{S.window_radius:g}")
    return float(_mu_conv_f_batch(S, f, u.reshape(1, -1))[0])


def dbar_f(S: PointSet, S2: PointSet, f: TestFunction, radii,
           quad_points: int = 2048) -> PseudoMetricReport:
    """Ball-averaged |mu_S * f - mu_S2 * f| for a narrow bump f.

    The bump's support ball must fit inside B_{r/5} for the shared hardcore
    radius r, so each evaluation point sees at most one point per set.
    """
    _check_pair(S, S2)
    r = min(S.hardcore_radius, S2.hardcore_radius)
    if f.support_bound() > r / 5.0 + 1e-12:
        raise SupportTooLarge(
            f"support bound {f.support_bound():g} exceeds r/5 = {r / 5.0:g}")
    radii = schedule(radii)
    min_w = min(S.window_radius, S2.window_radius)
    if radii[-1] + f.support_bound() > min_w * (1.0 + 1e-9):
        raise RadiusExceedsWindow(
            "radius schedule plus bump support exceeds the windows")
    nodes, h = _midpoint_grid(float(radii[-1]), S.dim, quad_points)
    diff = np.abs(_mu_conv_f_batch(S, f, nodes) - _mu_conv_f_batch(S2, f, nodes))
    return _ball_report(nodes, h, diff, radii)


def dtilde(S: PointSet, S2: PointSet, radii, match_tol: float = 1e-12) -> float:
    """Upper density of the exact symmetric difference of the two sets.

    Points match only when within match_tol, so this pseudo-metric stays
    large under any true offset no matter how small; compare dbar.
    """
    _check_pair(S, S2)
    radii = schedule(radii)
    min_w = min(S.window_radius, S2.window_radius)
    if radii[-1] > min_w * (1.0 + 1e-9):
        raise RadiusExceedsWindow("radius schedule exceeds the shared window")

    def one_sided(A: PointSet, B: PointSet) -> np.ndarray:
        sel = A.norms() <= min_w * (1.0 + 1e-9)
        pts = A.points[sel]
        if len(pts) == 0 or len(B) == 0:
            return pts
        hit = B.grid(max(B.hardcore_radius, 1e-6)).any_within(pts, match_tol)
        return pts[~hit]

    pts = np.vstack([one_sided(S, S2), one_sided(S2, S)])
    union = PointSet(pts, min_w, min(S.hardcore_radius, S2.hardcore_radius),
                     validate=False)
    return upper_density(union, radii).value
