"""Uniform-grid spatial index over a fixed batch of points.

Points are bucketed once into hypercube cells of a fixed edge length; cell
codes are sorted so each query resolves its candidate buckets with two binary
searches. All query methods are vectorized over query batches and use closed
Euclidean balls. Pair queries walk their candidates in blocks of at most
``_PAIR_BLOCK`` (``_blocks``), so a walk's working set does not grow with
its pair count. The cell size is a tuning knob: pick it near the query
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

#: largest number of candidate pairs in one block of the pair walk
_PAIR_BLOCK = 1 << 18


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
        part = c / cell
        np.floor(part, out=part)
        part = part.astype(np.int64)
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

    def _runs(self, qcells: np.ndarray):
        """The run of sorted points in each query's cell (exact cell coords).

        Returns (rows, left, lens): the query rows whose cell lies in the
        grid's extent, in order, and the [left, left + lens) run of ``_order``
        holding that cell's points (lens may be 0).
        """
        valid = np.all((qcells >= self._mins) & (qcells < self._mins + self._extents),
                       axis=1)
        rows = np.nonzero(valid)[0]
        codes = (qcells[rows] - self._mins) @ self._strides
        left = np.searchsorted(self._codes, codes, side="left")
        lens = np.searchsorted(self._codes, codes, side="right") - left
        return rows, left, lens

    def _expand(self, rows, left, lens):
        """(query_row, point_row) for each point of each run, runs in order."""
        # flat[i] walks each [left, left + lens) run in sequence
        flat = np.repeat(left - (np.cumsum(lens) - lens), lens)
        flat += np.arange(flat.size)
        return np.repeat(rows, lens), self._order[flat]

    def _offsets(self, radius: float):
        k = int(np.ceil(radius / self.cell))
        return itertools.product(range(-k, k + 1), repeat=self.dim)

    def _blocks(self, queries: np.ndarray, radius: float):
        """The pair walk within radius, in blocks of (qrows, prows, diff, keep).

        Cell offsets outermost, then query rows in order, each with its
        cell's points in index order; a block holds whole runs and at most
        _PAIR_BLOCK candidates, unless one run alone is longer. ``diff`` is
        ``points[prows] - queries[qrows]`` and ``keep`` marks the rows whose
        squared sum is <= radius**2. ``queries`` is an (M, dim) float array.
        """
        if self._order.size == 0:
            return
        qcells = np.floor(queries / self.cell).astype(np.int64)
        r2 = radius * radius
        for off in self._offsets(radius):
            rows, left, lens = self._runs(qcells + np.asarray(off, dtype=np.int64))
            ends = np.cumsum(lens)
            if ends.size == 0 or ends[-1] == 0:
                continue
            a = 0
            while a < ends.size:
                base = ends[a - 1] if a else 0
                if ends[-1] - base <= _PAIR_BLOCK:
                    b = ends.size
                else:
                    b = int(np.searchsorted(ends, base + _PAIR_BLOCK, side="right"))
                    b = max(b, a + 1)   # one run longer than a block
                qrows, prows = self._expand(rows[a:b], left[a:b], lens[a:b])
                diff = self.points[prows] - queries[qrows]
                keep = np.sum(diff ** 2, axis=1) <= r2
                yield qrows, prows, diff, keep
                a = b

    def _candidates(self, queries: np.ndarray, radius: float) -> int:
        """How many candidates ``_blocks(queries, radius)`` tests."""
        if self._order.size == 0:
            return 0
        qcells = np.floor(queries / self.cell).astype(np.int64)
        return sum(int(self._runs(qcells + np.asarray(off, dtype=np.int64))[2].sum())
                   for off in self._offsets(radius))

    def pairs_within(self, queries: np.ndarray, radius: float):
        """All (query_row, point_row) with Euclidean distance <= radius."""
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        out_q, out_p = [], []
        for qrows, prows, _, keep in self._blocks(queries, radius):
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
                rows, left, lens = self._runs(
                    qcells[pending] + np.asarray(off, dtype=np.int64))
                qrows, prows = self._expand(pending[rows], left, lens)
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
