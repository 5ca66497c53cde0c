"""Uniform-grid spatial index over a fixed batch of points.

Points are bucketed once into hypercube cells of a fixed edge length; cell
codes are sorted so each query resolves its candidate buckets with two binary
searches. All query methods are vectorized over query batches and use closed
Euclidean balls. The cell size is a tuning knob: pick it near the query
radius so each lookup touches a bounded number of neighbor cells.

``nn_d2`` is the one nearest-distance search: every "how far is the nearest
other point" question goes through it, except ``dtilde``'s exact-match
probe. It computes d2 with ``pairs_within``'s own expression, so its minima
compare exactly with a pair query's.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InvalidArgument

_MAX_CODES = 2**62


def _cell_codes(points: np.ndarray, cell: float, knob: str):
    """Row-major int64 codes of the floor cells of nonempty (N, dim) rows.

    Returns (codes, mins, extents, strides). Raises InvalidArgument, naming
    `knob`, when a cell coordinate or the code range would overflow int64.
    Works one column at a time. A column's extreme cells are the floors of
    its extreme coordinates (division and floor are monotone), and the codes
    are summed from per-column int64 products.
    """
    cols = [points[:, d] for d in range(points.shape[1])]
    ends = [sorted((float(c.min() / cell), float(c.max() / cell))) for c in cols]
    # bound before the cast: int64 conversion wraps silently; NaN fails too
    if not all(-_MAX_CODES < e < _MAX_CODES for pair in ends for e in pair):
        raise InvalidArgument(
            "cell coordinates out of range: non-finite coordinates or a "
            f"{knob} too fine for their extent")
    # exact Python ints: e // 1 is floor(e) for finite e
    lo = [int(e // 1) for e, _ in ends]
    sizes = [int(e // 1) - m + 1 for (_, e), m in zip(ends, lo)]
    steps = [1] * len(sizes)
    for d in range(len(sizes) - 1, 0, -1):
        steps[d - 1] = steps[d] * sizes[d]
    if steps[0] * sizes[0] >= _MAX_CODES:
        raise InvalidArgument(f"{knob} too fine for the coordinate extent")
    codes = np.zeros(len(points), dtype=np.int64)
    for c, m, s in zip(cols, lo, steps):
        part = np.floor(c / cell).astype(np.int64)
        part -= m
        part *= s
        codes += part
    return (codes, np.array(lo, dtype=np.int64),
            np.array(sizes, dtype=np.int64), np.array(steps, dtype=np.int64))


class GridIndex:
    def __init__(self, points: np.ndarray, cell_size: float):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise InvalidArgument("points must be an (N, dim) array")
        if not (cell_size > 0.0):
            raise InvalidArgument("cell_size must be positive")
        self.points = points
        self.cell = float(cell_size)
        self.dim = points.shape[1]
        n = points.shape[0]
        if n == 0:
            self._mins = np.zeros(self.dim, dtype=np.int64)
            self._extents = np.ones(self.dim, dtype=np.int64)
            self._strides = np.ones(self.dim, dtype=np.int64)
            self._order = np.empty(0, dtype=np.int64)
            self._codes = np.empty(0, dtype=np.int64)
            return
        codes, self._mins, self._extents, self._strides = _cell_codes(
            points, self.cell, "cell_size")
        self._order = np.argsort(codes, kind="stable")
        self._codes = codes[self._order]

    def _bucket(self, qcells: np.ndarray):
        """Candidate (query_row, point_row) pairs for exact cell coords."""
        if self._order.size == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e
        valid = np.all((qcells >= self._mins) & (qcells < self._mins + self._extents),
                       axis=1)
        vrows = np.nonzero(valid)[0]
        if vrows.size == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e
        codes = (qcells[vrows] - self._mins) @ self._strides
        left = np.searchsorted(self._codes, codes, side="left")
        right = np.searchsorted(self._codes, codes, side="right")
        lens = right - left
        total = int(lens.sum())
        if total == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e
        # flat[i] walks each [left, right) run in sequence
        starts = np.repeat(left, lens)
        offsets = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
        prows = self._order[starts + offsets]
        qrows = np.repeat(vrows, lens)
        return qrows, prows

    def _offsets(self, radius: float):
        k = int(np.ceil(radius / self.cell))
        return itertools.product(range(-k, k + 1), repeat=self.dim)

    def pairs_within(self, queries: np.ndarray, radius: float):
        """All (query_row, point_row) with Euclidean distance <= radius."""
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        qcells = np.floor(queries / self.cell).astype(np.int64)
        out_q, out_p = [], []
        r2 = radius * radius
        for off in self._offsets(radius):
            qrows, prows = self._bucket(qcells + np.asarray(off, dtype=np.int64))
            if qrows.size == 0:
                continue
            d2 = np.sum((self.points[prows] - queries[qrows]) ** 2, axis=1)
            keep = d2 <= r2
            out_q.append(qrows[keep])
            out_p.append(prows[keep])
        if not out_q:
            e = np.empty(0, dtype=np.int64)
            return e, e
        return np.concatenate(out_q), np.concatenate(out_p)

    def count_within(self, queries: np.ndarray, radius: float) -> np.ndarray:
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        counts = np.zeros(queries.shape[0], dtype=np.int64)
        qrows, _ = self.pairs_within(queries, radius)
        np.add.at(counts, qrows, 1)
        return counts

    def any_within(self, queries: np.ndarray, radius: float) -> np.ndarray:
        return self.count_within(queries, radius) > 0

    def nn_dist(self, queries: np.ndarray, r_max: float = np.inf) -> np.ndarray:
        """Distance to the nearest indexed point, inf if none within r_max."""
        return np.sqrt(self.nn_d2(queries, r_max))

    def nn_d2(self, queries: np.ndarray, r_max: float = np.inf,
              exclude_self: bool = False) -> np.ndarray:
        """Least squared distance to the indexed points; inf beyond r_max.

        With exclude_self the queries are the indexed points, row for row,
        and each skips its own row only: an exact duplicate still reads 0.
        Expands Chebyshev cell shells; a query stops once its best distance
        is certified (points in farther shells are strictly farther). A
        capped query visits the cells ``pairs_within(queries, r_max)`` does.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        best = np.full(queries.shape[0], np.inf)
        if self._order.size == 0 or best.size == 0:
            return best
        qcells = np.floor(queries / self.cell).astype(np.int64)
        # the farthest shell that can still contain indexed cells
        lo_gap = qcells - self._mins
        hi_gap = (self._mins + self._extents - 1) - qcells
        k_limit = int(np.max(np.maximum(np.abs(lo_gap), np.abs(hi_gap))))
        if np.isfinite(r_max):
            k_limit = min(k_limit, int(np.ceil(r_max / self.cell)))
        pending = np.arange(best.size)
        for k in range(0, k_limit + 1):
            for off in itertools.product(range(-k, k + 1), repeat=self.dim):
                if max(abs(o) for o in off) != k:
                    continue
                qrows, prows = self._bucket(qcells[pending] + np.asarray(off, dtype=np.int64))
                qrows = pending[qrows]
                if exclude_self:
                    other = qrows != prows
                    qrows, prows = qrows[other], prows[other]
                if qrows.size == 0:
                    continue
                d2 = np.sum((self.points[prows] - queries[qrows]) ** 2, axis=1)
                np.minimum.at(best, qrows, d2)
            # shells beyond k sit at distance > k*cell from any query point
            pending = pending[best[pending] > (k * self.cell) ** 2]
            if pending.size == 0:
                break
        best[best > r_max * r_max] = np.inf
        return best
