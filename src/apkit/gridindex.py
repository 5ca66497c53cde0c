"""Uniform-grid spatial index over a fixed batch of points.

Points are bucketed once into hypercube cells of a fixed edge length; cell
codes are sorted so each query resolves its candidate buckets with two binary
searches. All query methods are vectorized over query batches and use closed
Euclidean balls. Pair queries walk their candidates in blocks of at most
``_PAIR_BLOCK`` (``_blocks``), so a walk's working set does not grow with
its pair count. The cell size is a tuning knob: pick it near the query
radius so each lookup touches a bounded number of neighbor cells.

``_column_cells`` is the one cell quantizer: it floors one column at a time
and checks its range, for the grid's codes here and for
``autocorr._group_by_cell``'s labels. Every squared distance is a
``_sq_norms`` of ``_pair_diffs``.

``nn_d2`` is the one nearest-distance search: every "how far is the nearest
other point" question goes through it, except ``dtilde``'s exact-match
probe. It looks up a whole Chebyshev shell of cells for all pending queries
at once, and computes d2 as ``pairs_within`` does, so its minima compare
exactly with a pair query's.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InvalidArgument

_MAX_CODES = 2**62

#: largest number of candidate pairs in one block of the pair walk
_PAIR_BLOCK = 1 << 18


def _sq_norms(diff: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms of the rows of an (N, dim) float array.

    Adds the squared columns left to right, which is the order in which
    ``np.sum(diff ** 2, axis=1)`` adds fewer than 8 columns, so the two are
    equal bit for bit; wider rows go through ``np.sum`` itself.
    """
    if diff.shape[1] >= 8:   # numpy adds 8 or more columns pairwise
        return np.sum(diff ** 2, axis=1)
    d2 = diff[:, 0] ** 2
    for d in range(1, diff.shape[1]):
        d2 += diff[:, d] ** 2
    return d2


def _column_cells(points: np.ndarray, cell: float, knob: str):
    """Each column's floor cells of nonempty (N, dim) rows, one at a time.

    Yields (cells, lo, size) per column: the int64 floor cells shifted by
    their least value lo, and the size of their range. Raises
    InvalidArgument, naming `knob`, when a cell coordinate would overflow
    int64 and, once every column has passed that check, when the row-major
    code range (the product of the sizes) would. A column's extreme cells
    are the floors of its extreme coordinates (division and floor are
    monotone).
    """
    total = 1
    for d in range(points.shape[1]):
        col = points[:, d]
        lo, hi = sorted((float(col.min() / cell), float(col.max() / cell)))
        # bound before the cast: int64 conversion wraps silently; NaN fails too
        if not -_MAX_CODES < lo <= hi < _MAX_CODES:
            raise InvalidArgument(
                "cell coordinates out of range: non-finite coordinates or a "
                f"{knob} too fine for their extent")
        # exact Python ints: e // 1 is floor(e) for finite e
        lo, size = int(lo // 1), int(hi // 1) - int(lo // 1) + 1
        cells = col / cell
        np.floor(cells, out=cells)
        cells = cells.astype(np.int64)
        cells -= lo
        total *= size
        yield cells, lo, size
        del cells   # so a caller that drops it frees it before the next column
    if total >= _MAX_CODES:
        raise InvalidArgument(f"{knob} too fine for the coordinate extent")


def _cell_codes(points: np.ndarray, cell: float, knob: str):
    """Row-major int64 codes of the floor cells of nonempty (N, dim) rows.

    Returns (codes, mins, extents, strides); raises as ``_column_cells``.
    The codes are built column by column, code * size + cells, which is the
    sum of each column's cells times its stride.
    """
    codes, lo, sizes = None, [], []
    for cells, m, size in _column_cells(points, cell, knob):
        if codes is None:
            codes = cells
        else:
            # wraps silently only when _column_cells is about to raise
            codes *= size
            codes += cells
        lo.append(m)
        sizes.append(size)
    strides = [1] * len(sizes)
    for d in range(len(sizes) - 1, 0, -1):
        strides[d - 1] = strides[d] * sizes[d]
    return (codes, np.array(lo, dtype=np.int64),
            np.array(sizes, dtype=np.int64), np.array(strides, dtype=np.int64))


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
        return np.repeat(rows, lens), np.take(self._order, flat)

    def _pair_diffs(self, queries, qrows, prows):
        """``points[prows] - queries[qrows]``: two row gathers, one subtract."""
        diff = np.take(self.points, prows, axis=0)
        diff -= np.take(queries, qrows, axis=0)
        return diff

    def _offset_runs(self, queries: np.ndarray, radius: float):
        """Each cell offset's ``_runs`` lookup for the queries, in walk order."""
        qcells = np.floor(queries / self.cell).astype(np.int64)
        k = int(np.ceil(radius / self.cell))
        for off in itertools.product(range(-k, k + 1), repeat=self.dim):
            yield self._runs(qcells + np.asarray(off, dtype=np.int64))

    @staticmethod
    def _candidates(runs) -> int:
        """How many candidates a walk over these ``_offset_runs`` tests."""
        return sum(int(lens.sum()) for *_, lens in runs)

    def _blocks(self, queries: np.ndarray, radius: float, runs=None):
        """The pair walk within radius, in blocks of (qrows, prows, diff, keep).

        Cell offsets outermost, then query rows in order, each with its
        cell's points in index order; a block holds whole runs and at most
        _PAIR_BLOCK candidates, unless one run alone is longer. ``diff`` is
        ``points[prows] - queries[qrows]`` and ``keep`` marks the rows whose
        ``_sq_norms`` is <= radius**2. ``queries`` is an (M, dim) float
        array. ``runs`` lends the walk's lookups, ``_offset_runs(queries,
        radius)`` read into a list, to a caller that sizes its output by
        their ``_candidates`` first; by default each offset is looked up as
        the walk reaches it.
        """
        if self._order.size == 0:
            return
        r2 = radius * radius
        for rows, left, lens in (self._offset_runs(queries, radius)
                                 if runs is None else runs):
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
                diff = self._pair_diffs(queries, qrows, prows)
                yield qrows, prows, diff, _sq_norms(diff) <= r2
                a = b

    def pairs_within(self, queries: np.ndarray, radius: float):
        """All (query_row, point_row) with Euclidean distance <= radius."""
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        out_q, out_p = [], []
        for qrows, prows, _, keep in self._blocks(queries, radius):
            out_q.append(np.compress(keep, qrows))
            out_p.append(np.compress(keep, prows))
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
            side = np.arange(-k, k + 1)
            cube = np.stack(np.meshgrid(*[side] * self.dim, indexing="ij"),
                            axis=-1).reshape(-1, self.dim)
            shell = cube[np.max(np.abs(cube), axis=1) == k]
            pcells = qcells[pending]
            # one lookup for the shell's offsets x the pending queries, in
            # slices of at most _PAIR_BLOCK cells (one offset at least)
            step = max(1, _PAIR_BLOCK // pending.size)
            for s in range(0, len(shell), step):
                cells = (pcells + shell[s:s + step, None, :]).reshape(-1, self.dim)
                rows, left, lens = self._runs(cells)
                qrows, prows = self._expand(pending[rows % pending.size],
                                            left, lens)
                if exclude_self:
                    other = qrows != prows
                    qrows, prows = np.compress(other, qrows), np.compress(other, prows)
                if qrows.size == 0:
                    continue
                np.minimum.at(best, qrows,
                              _sq_norms(self._pair_diffs(queries, qrows, prows)))
            # shells beyond k sit at distance > k*cell from any query point
            pending = pending[best[pending] > (k * self.cell) ** 2]
            if pending.size == 0:
                break
        best[best > r_max * r_max] = np.inf
        return best
