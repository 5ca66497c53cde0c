"""Translation-insensitive pseudo-metrics between windowed point sets.

Four ways to compare configurations at a fixed hardcore radius:

* ``dbar``: the smallest scale a at which the density of a-mismatched points
  drops below a (capped at r/2);
* ``dbar_c``: the ball-averaged scale metric (quadrature over translates);
* ``dbar_f``: the averaged absolute difference of bump convolutions;
* ``dtilde``: the density of the exact symmetric difference.

``dbar`` and ``dbar_c`` are exact thresholds, found in closed form from
each point's distance to the nearest point of the other set and floored at
``tol``. Each averaged quantity reports its full radius schedule so callers
can see what the limsup surrogate was taken over.
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
from .pointset import (
    METRIC_CAP,
    PointSet,
    _check_reach,
    _covering_scale,
    _in_ball,
    _partner_dist,
    ball_volume,
    upper_density,
)
from .testfunc import TestFunction
from .util import schedule, tail, tail_converged, tail_max


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
    pts = S.ball(w_eval)
    d2 = S2.grid(max(a, S2.hardcore_radius)).nn_d2(pts, a)
    return PointSet(pts[~(d2 <= a * a)], w_eval, S.hardcore_radius,
                    validate=False)


def dbar(S: PointSet, S2: PointSet, radii, tol: float | None = None) -> float:
    """Least scale a in [tol, r/2] with mismatch density D(a) <= a.

    r is the smaller of the two hardcore radii, as in ``dbar_f`` and
    ``dtilde``; tol defaults to 1e-3 * r. D(a) is the upper density, read
    along the schedule as ``upper_density`` does, of the points of both
    sets with no point of the other set within a (``asymmetric_mismatch``
    of each side). It is a nonincreasing
    step function with its steps at those nearest-partner distances b, so
    the least a is tol, r/2, a b, or a value that D takes: D is evaluated
    once at all of them. The cap r/2 is returned when no scale qualifies.
    """
    _check_pair(S, S2)
    r = min(S.hardcore_radius, S2.hardcore_radius)
    if tol is None:
        tol = 1e-3 * r
    cap = r / 2.0
    if not (0 < tol < cap):
        raise InvalidArgument("tol must lie in (0, r/2)")
    radii = schedule(radii)
    # the smallest mismatch window, min_w - a at a = cap, holds the schedule
    _check_reach(radii[-1], min(S.window_radius, S2.window_radius) - cap,
                 RadiusExceedsWindow, "schedule")
    norms = np.concatenate([S.norms(), S2.norms()])
    partner = np.concatenate([_partner_dist(S, S2, cap),
                              _partner_dist(S2, S, cap)])
    # per radius, the sorted partner distances of the points in that ball
    ball_b = [np.sort(partner[_in_ball(norms, rr)]) for rr in radii]
    vols = np.array([ball_volume(S.dim, rr) for rr in radii])

    def density(a: np.ndarray) -> np.ndarray:
        counts = np.array([len(b) - np.searchsorted(b, a, side="right")
                           for b in ball_b])
        return np.max(tail(counts / vols[:, None]), axis=0)

    cand = np.concatenate([[tol, cap],
                           partner[(partner > tol) & (partner <= cap)]])
    cand = np.concatenate([cand, density(cand)])
    cand = np.unique(cand[(cand >= tol) & (cand <= cap)])
    hit = cand[density(cand) <= cand]
    return float(hit[0]) if hit.size else cap


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
    the headline value is the max over that schedule's tail. The value at
    a node t is ``metric_d(translate(S, t), translate(S2, t), tol)``, every
    node evaluated at once by ``metric_d``'s kernel (``_covering_scale``).
    """
    _check_pair(S, S2)
    if not (0.0 < tol < METRIC_CAP):
        raise InvalidArgument("tol must lie in (0, 1/sqrt(2))")
    radii = schedule(R * np.asarray(schedule_fractions, dtype=float))
    _check_reach(R + 1.0 / tol, min(S.window_radius, S2.window_radius),
                 WindowTooSmall, "R + 1/tol")
    nodes, h = _midpoint_grid(R, S.dim, quad_points)
    tnorm = np.array([float(np.linalg.norm(t)) for t in nodes])
    return _ball_report(nodes, h, _covering_scale(S, S2, nodes, tnorm, tol),
                        radii)


def _mu_conv_f_batch(S: PointSet, f: TestFunction, u: np.ndarray) -> np.ndarray:
    """sum_x f(u - x) for a batch of evaluation points u."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    rho = f.support_radius
    # f(u - x) != 0 iff x lies within rho of (u - center)
    grid = S.grid(max(rho, S.hardcore_radius))
    return grid.pair_sums(u - f.center, rho,
                          lambda q, p: f(u[q] - S.points[p]))


def mu_conv_f(S: PointSet, f: TestFunction, u) -> float:
    """Convolution of the counting measure of S with f, at the point u."""
    if f.dim != S.dim:
        raise DimensionMismatch("test function dimension differs from the set")
    u = np.asarray(u, dtype=float).reshape(-1)
    _check_reach(float(np.linalg.norm(u - f.center)) + f.support_radius,
                 S.window_radius, OutsideWindow, "evaluation")
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
    _check_reach(radii[-1] + f.support_bound(),
                 min(S.window_radius, S2.window_radius), RadiusExceedsWindow,
                 "schedule plus bump support")
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
    _check_reach(radii[-1], min_w, RadiusExceedsWindow, "schedule")

    def one_sided(A: PointSet, B: PointSet) -> np.ndarray:
        pts = A.ball(min_w)
        if len(pts) == 0 or len(B) == 0:
            return pts
        hit = B.grid(max(B.hardcore_radius, 1e-6)).any_within(pts, match_tol)
        return pts[~hit]

    pts = np.vstack([one_sided(S, S2), one_sided(S2, S)])
    union = PointSet(pts, min_w, min(S.hardcore_radius, S2.hardcore_radius),
                     validate=False)
    return upper_density(union, radii).value
