"""Independent brute-force reference implementations.

Everything here is deliberately naive (quadratic scans, direct sums, dense
grids) and shares no code with the package under test. Tests compute
expected values through these and compare the library against them.
"""

import math

import numpy as np


def brute_min_pair_distance(points) -> float:
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    best = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            best = min(best, float(np.linalg.norm(pts[i] - pts[j])))
    return best


def brute_lattice_points(basis, window_radius: float) -> np.ndarray:
    """Integer combinations of the basis rows in the closed ball, one meshgrid."""
    B = np.asarray(basis, dtype=float)
    inv = np.linalg.inv(B)
    bounds = np.ceil(window_radius * np.sqrt(np.sum(inv ** 2, axis=0)) + 1e-9)
    axes = [np.arange(-b, b + 1) for b in bounds]
    M = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(B))
    pts = M @ B
    return pts[np.sum(pts ** 2, axis=1) <= window_radius ** 2 * (1 + 1e-12)]


def brute_strip_points(cfg):
    """A cut-and-project config's physical points and grazes, one box scan.

    Every integer row z of the box covering the strip is translated by the
    torus offset; it is kept when its internal coordinates w = F z lie in the
    window (closed ball, half-open box) and its deformed physical point lies
    in the output ball (relative slack 1e-12). A graze is a row with w
    exactly on the window boundary and |E z| <= output radius + deformation
    bound + 1e-9. Returns (points, grazes), points in scan order.
    """
    E, F, W = cfg.E_basis, cfg.F_basis, cfg.window
    amp = float(np.linalg.norm(cfg.deformation.amplitude)) \
        if cfg.deformation is not None else 0.0
    rho_E = cfg.output_radius + amp + 1e-9
    if W.kind == "ball":
        w_reach = float(np.linalg.norm(W.center)) + W.radius
    else:
        w_reach = float(np.linalg.norm(np.maximum(np.abs(W.lo), np.abs(W.hi))))
    rho = math.sqrt(rho_E ** 2 + w_reach ** 2)
    axes = [np.arange(math.floor(-rho - o), math.ceil(rho - o) + 1)
            for o in cfg.torus_offset]
    z = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, cfg.n)
    z = z + cfg.torus_offset
    w = z @ F.T
    if W.kind == "ball":
        d2 = np.sum((w - W.center) ** 2, axis=1)
        inside, edge = d2 <= W.radius ** 2, d2 == W.radius ** 2
    else:
        inside = np.all((w >= W.lo) & (w < W.hi), axis=1)
        edge = np.any((w == W.lo) | (w == W.hi), axis=1)
    near = np.sum((z @ E.T) ** 2, axis=1) <= rho_E ** 2
    grazes = int(np.count_nonzero(edge & near))
    z, w = z[inside], w[inside]
    phys = z @ E.T
    if cfg.deformation is not None:
        d = cfg.deformation
        phys = phys + np.sin(2.0 * np.pi * (w @ d.frequency) + d.phase)[:, None] \
            * d.amplitude[None, :]
    keep = np.sum(phys ** 2, axis=1) <= cfg.output_radius ** 2 * (1 + 1e-12)
    return phys[keep], grazes


def brute_nn_d2(points, queries, r_max: float = math.inf,
                exclude_self: bool = False) -> np.ndarray:
    """Least squared distance from each query to the points, by a full scan.

    Under exclude_self query row i skips point row i, and nothing else;
    minima above r_max**2 read inf.
    """
    pts = np.asarray(points, dtype=float)
    out = []
    for i, q in enumerate(np.asarray(queries, dtype=float)):
        d2 = np.sum((pts - q) ** 2, axis=1)
        if exclude_self:
            d2 = np.delete(d2, i)
        best = float(np.min(d2)) if len(d2) else math.inf
        out.append(best if best <= r_max * r_max else math.inf)
    return np.array(out)


def brute_nn_mean(points) -> float:
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    dists = []
    for i in range(n):
        best = math.inf
        for j in range(n):
            if i != j:
                best = min(best, float(np.linalg.norm(pts[i] - pts[j])))
        dists.append(best)
    return float(np.mean(dists))


def brute_count_in_ball(points, center, R) -> int:
    pts = np.asarray(points, dtype=float)
    c = np.asarray(center, dtype=float)
    return int(np.sum(np.linalg.norm(pts - c, axis=1) <= R + 1e-12))


def ball_volume(dim: int, R: float) -> float:
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0) * R ** dim


def brute_upper_density(points, radii, dim: int) -> float:
    """Tail max (trailing half) of count/volume along the schedule."""
    radii = np.sort(np.asarray(radii, dtype=float))
    vals = [brute_count_in_ball(points, np.zeros(dim), R) / ball_volume(dim, R)
            for R in radii]
    tail = vals[len(vals) - max(1, (len(vals) + 1) // 2):]
    return max(tail)


def brute_pair_diffs(points, R):
    """All ordered difference vectors among points in the closed R-ball."""
    pts = np.asarray(points, dtype=float)
    inside = pts[np.linalg.norm(pts, axis=1) <= R + 1e-12]
    out = []
    for x in inside:
        for y in inside:
            out.append(y - x)
    return np.array(out) if out else np.zeros((0, pts.shape[1]))


def brute_autocorr_atoms(points, R, dim: int, decimals: int = 9):
    """Difference vectors grouped by rounding; weights are counts/volume."""
    diffs = brute_pair_diffs(points, R)
    vol = ball_volume(dim, R)
    atoms: dict = {}
    for d in np.round(diffs, decimals):
        key = tuple(d)
        atoms[key] = atoms.get(key, 0) + 1
    return {k: v / vol for k, v in atoms.items()}


def brute_mismatch_points(A, B, a, w_eval):
    """Points of A within the evaluation ball with no B-point within a."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    out = []
    for x in A:
        if np.linalg.norm(x) > w_eval + 1e-12:
            continue
        if len(B) == 0 or np.min(np.linalg.norm(B - x, axis=1)) > a:
            out.append(x)
    return np.array(out) if out else np.zeros((0, A.shape[1]))


def brute_dbar(A, B, w: float, r: float, radii, tol: float) -> float:
    """dbar by quadratic scans at every bisection scale.

    A scale a passes when the points of both sets within w - a that have no
    point of the other set within a have upper density at most a; w is the
    smaller window and r the shared hardcore radius. Same bisection
    schedule as the library.
    """
    dim = np.asarray(A).shape[1]

    def ok(a):
        pts = np.vstack([brute_mismatch_points(A, B, a, w - a),
                         brute_mismatch_points(B, A, a, w - a)])
        return brute_upper_density(pts, radii, dim) <= a

    cap = r / 2.0
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


def brute_fourier_sum(points, k) -> complex:
    pts = np.asarray(points, dtype=float)
    k = np.asarray(k, dtype=float)
    return complex(np.sum(np.exp(-2j * math.pi * (pts @ k))))


def dirichlet_magnitude(n_terms: int, k: float) -> float:
    """|sum_{|m| <= N} e^{-2 pi i k m}| via the closed form."""
    if abs(k - round(k)) < 1e-15:
        return 2 * n_terms + 1
    return abs(math.sin((2 * n_terms + 1) * math.pi * k)
               / math.sin(math.pi * k))


def gauss_disc_count(R: float) -> int:
    """Integer pairs inside the closed disc of radius R."""
    n = 0
    m = int(math.floor(R)) + 1
    for i in range(-m, m + 1):
        for j in range(-m, m + 1):
            if i * i + j * j <= R * R + 1e-12:
                n += 1
    return n


def brute_density_gap_1d(candidates, search_radius: float,
                         n_probe: int = 200001) -> float:
    """Directed Hausdorff distance from [-M, M] to the candidate set."""
    cand = np.asarray(candidates, dtype=float).reshape(-1)
    probes = np.linspace(-search_radius, search_radius, n_probe)
    if len(cand) == 0:
        return math.inf
    return float(np.max(np.min(np.abs(probes[:, None] - cand[None, :]),
                               axis=1)))


def brute_bump(shape: str, rho: float, amp: float, x) -> float:
    """Radial bump evaluated at a point."""
    r = float(np.linalg.norm(x))
    if r >= rho:
        return 0.0
    if shape == "triangle_bump":
        return amp * (1.0 - r / rho)
    return amp * 0.5 * (1.0 + math.cos(math.pi * r / rho))


def brute_bump_integral(shape: str, rho: float, amp: float, dim: int,
                        n: int = 20001) -> float:
    """Radial quadrature of the bump over R^dim (surface-area weighted)."""
    rs = np.linspace(0.0, rho, n)
    vals = np.array([brute_bump(shape, rho, amp, [r]) for r in rs])
    if dim == 1:
        surf = 2.0 * np.ones_like(rs)
    else:
        surf = (dim * math.pi ** (dim / 2.0)
                / math.gamma(dim / 2.0 + 1.0) * rs ** (dim - 1))
    return float(np.trapezoid(vals * surf, rs))


def brute_ball_overlap_1d(R: float, s: float) -> float:
    """|B_R cap (B_R + s)| / |B_R| for intervals."""
    return max(0.0, 1.0 - abs(s) / (2.0 * R))


def brute_mu_conv_f(points, shape, rho, amp, u) -> float:
    pts = np.asarray(points, dtype=float)
    u = np.asarray(u, dtype=float)
    return float(sum(brute_bump(shape, rho, amp, u - x) for x in pts))


def brute_metric_d(A, wa: float, B, wb: float, tol: float) -> float:
    """Scale metric by a quadratic scan at every bisection scale.

    A scale a covers when every point of each set with norm at most
    min(1/a, other window - a) has a point of the other set whose squared
    distance is at most a*a. Same bisection schedule as the library.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    cap = 1.0 / math.sqrt(2.0)

    def one_side(P, Q, w_other, a):
        dom = min(1.0 / a, w_other - a)
        for x in P:
            if math.sqrt(float(np.sum(x * x))) > dom:
                continue
            if not np.any(np.sum((Q - x) ** 2, axis=1) <= a * a):
                return False
        return True

    def covers(a):
        return one_side(A, B, wb, a) and one_side(B, A, wa, a)

    if covers(tol):
        return tol
    if not covers(cap):
        return cap
    lo, hi = tol, cap
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if covers(mid):
            hi = mid
        else:
            lo = mid
    return hi


_MAX_CODES = 2**62


def ref_cell_codes(points, cell: float, knob: str):
    """Row-major floor-cell codes, reducing the whole (N, dim) cell array.

    The reference for ``gridindex._cell_codes``: axis-0 reductions and one
    int64 matmul. Raises ValueError with the library's messages.
    """
    cells = np.floor(np.asarray(points, dtype=float) / cell)
    if not -_MAX_CODES < float(cells.min()) <= float(cells.max()) < _MAX_CODES:
        raise ValueError(
            "cell coordinates out of range: non-finite coordinates or a "
            f"{knob} too fine for their extent")
    cells = cells.astype(np.int64)
    mins = cells.min(axis=0)
    extents = cells.max(axis=0) - mins + 1
    if np.prod(extents.astype(object)) >= _MAX_CODES:
        raise ValueError(f"{knob} too fine for the coordinate extent")
    strides = np.ones(len(extents), dtype=np.int64)
    for i in range(len(extents) - 2, -1, -1):
        strides[i] = strides[i + 1] * extents[i + 1]
    return (cells - mins) @ strides, mins, extents, strides


def ref_group_by_cell(locations, cell: float):
    """Cell labels of the rows in code order, and their count.

    A stable argsort of the codes, "new cell" flags summed along the sorted
    order, and the sums scattered back through the permutation.
    """
    codes = ref_cell_codes(locations, cell, "bin_tol")[0]
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    sorted_gid = np.zeros(len(order), dtype=np.int64)
    np.cumsum(codes[1:] != codes[:-1], out=sorted_gid[1:])
    gid = np.empty(len(order), dtype=np.int64)
    gid[order] = sorted_gid
    return gid, int(sorted_gid[-1]) + 1
