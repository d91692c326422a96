"""Composite midpoint quadrature with adaptive refinement.

Every mean in the package settles by one rule (``_refine``).  Composite
midpoint means are taken at successive levels, each with four times the
nodes of the last.  A mean is done when two successive levels agree
exactly, or when the Richardson extrapolations (4 I_l - I_{l-1}) / 3 of
two successive level pairs agree within tol * max(|extrapolation|, floor).
A mean whose extrapolations stop contracting by STALL_RATIO twice in a row
stalls.  Stalled means, and those still unsettled at the last level, are
finished by a worst-first locally adaptive rule.  The entry points differ
only in their levels:

* ``triangle_means``: cell averages over batches of triangles on 4^m
  congruent subtriangles, m = 0..EXTENDED_CAP, floor given by the caller;
  stalls count only above UNIFORM_CAP, so cells that still contract there
  keep doubling a few extra levels.

* ``square_mean`` / ``square_means_batch``: averages of scalars over axis
  aligned squares on tensor midpoint grids of 16..MAX_SQUARE_GRID points
  per side, floor 1.

* ``dyadic_means``: averages of a scalar over every dyadic square of
  generations 0..depth at once.  It samples the field once on each global
  midpoint grid 2^g x 2^g, in bounded row strips, and block sums give each
  square its 16/32/64-per-side grid means; the rule runs on those three
  levels, and only squares it leaves in rest go to ``square_means_batch``.

Midpoint nodes are strictly interior to their subcells, so fields with an
integrable singularity at a mesh vertex are only evaluated at finite
points.  Any non-finite evaluation raises SingularityError.
"""

from __future__ import annotations

import heapq
from functools import lru_cache

import numpy as np

from .errors import QuadratureError, SingularityError

UNIFORM_CAP = 8
EXTENDED_CAP = 12
MIN_SQUARE_GRID = 16
MAX_SQUARE_GRID = 1024
STALL_RATIO = 0.45
ADAPTIVE_NODE_CAP = 200_000
STRIP_POINTS = 1 << 18
# the shared ladder's grids are 16, 32 and 64 = MIN_SQUARE_GRID * 2^k per
# square side, k < _RUNGS; one row of the finest grid must fit a strip
_RUNG0 = MIN_SQUARE_GRID.bit_length() - 1
_RUNGS = 3
MAX_LADDER_DEPTH = STRIP_POINTS.bit_length() - 1 - (_RUNG0 + _RUNGS - 1)
_CHUNK = 1 << 21


def _check_finite(values: np.ndarray, points: np.ndarray) -> None:
    if np.all(np.isfinite(values)):
        return
    flat = values.reshape(values.shape[0], -1) if values.ndim > 1 else values[:, None]
    bad = ~np.all(np.isfinite(flat), axis=1)
    p = points[int(np.argmax(bad))]
    raise SingularityError(
        f"non-finite field value at quadrature node ({p[0]}, {p[1]})",
        point=(float(p[0]), float(p[1])),
    )


def _eval(f, points, region_ids):
    values = np.asarray(f(points, region_ids), dtype=float)
    _check_finite(values, points)
    return values


@lru_cache(maxsize=None)
def _centroid_offsets(m: int) -> np.ndarray:
    """Affine coordinates (a, b) of the 4^m subtriangle centroids.

    A node is v0 + a*(v1-v0) + b*(v2-v0).  Splitting into n^2 = 4^m
    congruent triangles gives upward cells (i, j) with i+j <= n-1 and
    downward cells with i+j <= n-2, all of equal area.
    """
    n = 2**m
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    up = i + j <= n - 1
    down = i + j <= n - 2
    a = np.concatenate([(3 * i[up] + 1), (3 * i[down] + 2)]) / (3 * n)
    b = np.concatenate([(3 * j[up] + 1), (3 * j[down] + 2)]) / (3 * n)
    out = np.column_stack([a, b])
    out.setflags(write=False)
    return out


def _flat_norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norm over all trailing value axes, one number per row."""
    return np.sqrt(np.sum(a.reshape(a.shape[0], -1) ** 2, axis=1))


def _uniform_tri_means(f, verts, cell_ids, m):
    """Composite midpoint means at uniform level m for each triangle."""
    offs = _centroid_offsets(m)
    k = offs.shape[0]
    per = max(1, _CHUNK // k)
    chunks = []
    for start in range(0, verts.shape[0], per):
        v = verts[start : start + per]
        ids = cell_ids[start : start + per]
        e1 = v[:, 1, :] - v[:, 0, :]
        e2 = v[:, 2, :] - v[:, 0, :]
        pts = (
            v[:, None, 0, :]
            + offs[None, :, 0, None] * e1[:, None, :]
            + offs[None, :, 1, None] * e2[:, None, :]
        )
        vals = _eval(f, pts.reshape(-1, 2), np.repeat(ids, k))
        vals = vals.reshape((v.shape[0], k) + vals.shape[1:])
        chunks.append(vals.mean(axis=1))
    return np.concatenate(chunks, axis=0)


def _refine(means_at, count, levels, tol, floor, stall_after):
    """Run the module's refinement rule over `levels` for `count` items.

    means_at(level, idx) returns the means of items idx at that level, one
    row per item, of any value shape; norms are Euclidean over the value
    axes.  Exact agreement keeps the finer mean, the Richardson test the
    later extrapolation.  Stalls count only at levels above stall_after.

    Returns (means, rest): rest holds the items that stalled or were still
    unsettled at the last level; their rows of means are left unset.
    """
    active = np.arange(count)
    if count == 0:
        return np.empty(0), active
    means = None
    prev = extrap_prev = d_prev = None
    streak = np.zeros(count, dtype=int)
    stalled = []
    for level in levels:
        cur = means_at(level, active)
        if means is None:
            means = np.empty((count,) + cur.shape[1:])
        if prev is None:
            prev = cur
            continue
        extrap = (4.0 * cur - prev) / 3.0
        exact = np.all((cur == prev).reshape(active.size, -1), axis=1)
        if extrap_prev is None:
            d, done = None, exact
        else:
            d = _flat_norm(extrap - extrap_prev)
            done = exact | (d <= tol * np.maximum(_flat_norm(extrap), max(floor, 1e-300)))
        means[active[exact]] = cur[exact]
        means[active[done & ~exact]] = extrap[done & ~exact]
        keep = ~done
        if level > stall_after and d_prev is not None:
            bad = d > STALL_RATIO * d_prev
            streak[active[bad]] += 1
            streak[active[~bad]] = 0
            stall = keep & (streak[active] >= 2)
            stalled.append(active[stall])
            keep &= ~stall
        active = active[keep]
        if active.size == 0:
            break
        prev = cur[keep]
        extrap_prev = extrap[keep]
        d_prev = None if d is None else d[keep]
    return means, np.concatenate(stalled + [active])


def triangle_means(f, verts, rel_tol, cell_ids=None, abs_floor=0.0):
    """Mean of f over each triangle, entrywise to tolerance rel_tol.

    f(points (N,2), cell_ids (N,)) -> (N, ...) values; the value shape may
    be scalar, vector or matrix.  verts has shape (ncells, 3, 2).

    Uniform levels m = 0..EXTENDED_CAP refine by the rule of ``_refine``
    with floor abs_floor; stalls count only above UNIFORM_CAP, so cells
    that still contract keep doubling.  Stalled and unsettled cells finish
    with the locally adaptive rule.
    """
    verts = np.asarray(verts, dtype=float)
    cell_ids = np.arange(verts.shape[0]) if cell_ids is None else np.asarray(cell_ids)
    means, rest = _refine(
        lambda m, idx: _uniform_tri_means(f, verts[idx], cell_ids[idx], m),
        verts.shape[0],
        range(EXTENDED_CAP + 1),
        rel_tol,
        abs_floor,
        stall_after=UNIFORM_CAP,
    )
    for i in rest:
        means[i] = _adaptive_tri_mean(f, verts[i], int(cell_ids[i]), rel_tol, abs_floor)
    return means


def global_scale_floor(f, verts, cell_ids=None) -> float:
    """Mean magnitude of f over all cells, from a coarse (4 points per
    cell) composite rule; a tolerance floor so that cells with negligible
    contribution to a global quantity are not over-refined."""
    verts = np.asarray(verts, dtype=float)
    if verts.shape[0] == 0:
        return 0.0
    if cell_ids is None:
        cell_ids = np.arange(verts.shape[0])
    vals = _uniform_tri_means(f, verts, np.asarray(cell_ids), 1)
    return float(np.mean(_flat_norm(np.abs(vals))))


def _tri_children(v):
    m01 = 0.5 * (v[0] + v[1])
    m12 = 0.5 * (v[1] + v[2])
    m02 = 0.5 * (v[0] + v[2])
    return (
        np.array([v[0], m01, m02]),
        np.array([m01, v[1], m12]),
        np.array([m02, m12, v[2]]),
        np.array([m01, m12, m02]),
    )


def _adaptive_tri_mean(f, verts, cell_id, rel_tol, abs_floor):
    return _adaptive_mean(
        lambda pts: f(pts, np.full(pts.shape[0], cell_id)),
        verts,
        _tri_children,
        lambda g: (g[0] + g[1] + g[2]) / 3.0,
        rel_tol,
        abs_floor,
    )


def _square_children(sq):
    (x, y), size = sq
    h = 0.5 * size
    return ((x, y), h), ((x + h, y), h), ((x, y + h), h), ((x + h, y + h), h)


def _square_center(sq):
    (x, y), size = sq
    return np.array([x + 0.5 * size, y + 0.5 * size])


def _adaptive_mean(f, root, split, center, rel_tol, abs_floor):
    """Greedy worst-first adaptive composite midpoint mean over one region.

    Each leaf stores a one-point estimate and the four-child composite; the
    difference is the refinement indicator.  Deterministic via insertion
    order tie-breaking.  Cost is logarithmic in the tolerance for point
    singularities.
    """

    def make_leaf(geom, frac):
        children = split(geom)
        pts = np.vstack([center(geom)[None, :]] + [center(c)[None, :] for c in children])
        vals = np.asarray(f(pts), dtype=float)
        _check_finite(vals, pts)
        coarse = frac * vals[0]
        fine = 0.25 * frac * (vals[1] + vals[2] + vals[3] + vals[4])
        err = float(np.sqrt(np.sum((coarse - fine) ** 2)))
        # Richardson-corrected leaf value; err stays the conservative
        # two-level difference.
        value = fine + (fine - coarse) / 3.0
        return geom, frac, value, err, children

    counter = 0
    _, _, fine0, err0, _ = first = make_leaf(root, 1.0)
    integral = np.array(fine0, dtype=float)
    err_total = err0
    heap = [(-err0, 0, first)]
    nodes = 1
    while err_total > rel_tol * max(float(np.sqrt(np.sum(integral**2))), abs_floor, 1e-300):
        if nodes > ADAPTIVE_NODE_CAP:
            raise QuadratureError(
                f"adaptive quadrature stalled above tolerance {rel_tol} "
                f"after {ADAPTIVE_NODE_CAP} subdivisions"
            )
        _, _, worst = heapq.heappop(heap)
        _, wfrac, wfine, werr, wchildren = worst
        err_total -= werr
        integral -= wfine
        for child in wchildren:
            counter += 1
            nodes += 1
            lf = make_leaf(child, wfrac / 4.0)
            integral += lf[2]
            err_total += lf[3]
            heapq.heappush(heap, (-lf[3], counter, lf))
    return integral


def _square_grid_means(f, los, size, n, square_ids):
    """Tensor midpoint means on n x n grids for a batch of squares."""
    k = los.shape[0]
    t = (np.arange(n) + 0.5) * (size / n)
    xx, yy = np.meshgrid(t, t, indexing="xy")
    base = np.column_stack([xx.ravel(), yy.ravel()])
    per = max(1, _CHUNK // base.shape[0])
    out = np.empty(k)
    for start in range(0, k, per):
        lo = los[start : start + per]
        pts = lo[:, None, :] + base[None, :, :]
        ids = np.repeat(square_ids[start : start + per], base.shape[0])
        vals = _eval(f, pts.reshape(-1, 2), ids)
        out[start : start + per] = vals.reshape(lo.shape[0], -1).mean(axis=1)
    return out


def square_means_batch(f, los, size, tol, square_ids=None):
    """Means of scalar f over a batch of equal-size axis-aligned squares.

    f(points (N,2), square_ids (N,)) -> (N,).  Tensor midpoint grids of
    16..MAX_SQUARE_GRID points per side refine by the rule of ``_refine``
    with floor 1, stalls counting from the start; kinked or singular
    integrands that stall or stay unsettled switch to the locally adaptive
    rule instead of refining globally.
    """
    los = np.asarray(los, dtype=float).reshape(-1, 2)
    square_ids = np.arange(los.shape[0]) if square_ids is None else np.asarray(square_ids)
    grids = [MIN_SQUARE_GRID << k for k in range((MAX_SQUARE_GRID // MIN_SQUARE_GRID).bit_length())]
    means, rest = _refine(
        lambda n, idx: _square_grid_means(f, los[idx], size, n, square_ids[idx]),
        los.shape[0],
        grids,
        tol,
        1.0,
        stall_after=0,
    )
    for i in rest:
        means[i] = _adaptive_mean(
            lambda pts, i=i: f(pts, np.full(pts.shape[0], square_ids[i])),
            ((float(los[i, 0]), float(los[i, 1])), float(size)),
            _square_children,
            _square_center,
            tol,
            1.0,
        )
    return means


def square_mean(f, lo, size, tol=1e-8):
    """Mean of scalar f(points (N,2)) -> (N,) over one square."""
    lo = np.asarray(lo, dtype=float)
    return float(square_means_batch(lambda p, i: f(p), lo[None, :], size, tol)[0])


def _ladder_strips(f, g):
    """Samples of f on the global midpoint grid 2^g x 2^g of the unit
    square, in row strips of at most STRIP_POINTS points: yields (first row,
    points, values with shape (rows, 2^g))."""
    n = 2**g
    t = (np.arange(n) + 0.5) / n
    rows = min(n, STRIP_POINTS // n)
    for r0 in range(0, n, rows):
        y = t[r0 : r0 + rows]
        pts = np.column_stack([np.tile(t, y.size), np.repeat(y, n)])
        values = np.asarray(f(pts), dtype=float)
        _check_finite(values, pts)
        yield r0, pts, values.reshape(y.size, n)


def _raw_samples(values, square_ids, j):
    return values


def dyadic_means(f, depth, tol, transform=None):
    """Means over every dyadic square of generations 0..depth.

    f(points (N,2)) -> (N,) is sampled once on each global midpoint grid
    2^g x 2^g, g = 4..depth+6.  A generation-j square holds a 2^(g-j)-point
    per side block of grid g, so block sums give it the 16, 32 and 64 per
    side grid means of ``square_means_batch`` on the same nodes.  Those
    three levels refine by the rule of ``_refine`` with floor 1; squares
    that do not settle on them go to ``square_means_batch``, which redoes
    them from its first grid.

    transform(values, square_ids, j), if given, maps the samples of f in
    generation-j squares (square_ids: ix + iy * 2^j, same shape as values)
    to the integrand of that generation; the raw samples are reused for
    every generation they serve.

    Returns (means, fallbacks): means[j] is indexed ix + iy * 2^j, and
    fallbacks[j] counts the generation-j squares finished by
    ``square_means_batch``.
    """
    if not (0 <= depth <= MAX_LADDER_DEPTH):
        raise ValueError(f"depth must be in [0, {MAX_LADDER_DEPTH}], got {depth}")
    transform = transform or _raw_samples
    # sums[j][k]: sums over the (16 * 2^k)^2 ladder nodes of each generation-j square
    sums = [np.zeros((_RUNGS, 2**j, 2**j)) for j in range(depth + 1)]
    for g in range(_RUNG0, depth + _RUNG0 + _RUNGS):
        n = 2**g
        gens = range(max(0, g - _RUNG0 - _RUNGS + 1), min(depth, g - _RUNG0) + 1)
        for r0, pts, values in _ladder_strips(f, g):
            rows = values.shape[0]
            for j in gens:
                b = 2 ** (g - j)  # nodes per square side
                ids = (r0 + np.arange(rows))[:, None] // b * 2**j + np.arange(n) // b
                vals = np.asarray(transform(values, ids, j), dtype=float)
                _check_finite(vals.ravel(), pts)
                per_row = vals.reshape(rows, 2**j, b).sum(axis=2)
                # a strip holds whole squares, or lies inside one row of them
                k = min(rows, b)
                first = r0 // b
                sums[j][g - j - _RUNG0, first : first + rows // k] += (
                    per_row.reshape(rows // k, k, 2**j).sum(axis=1)
                )
    means = []
    fallbacks = []
    for j in range(depth + 1):
        ladder = [sums[j][k].ravel() / 4.0 ** (k + _RUNG0) for k in range(_RUNGS)]
        out, rest = _refine(
            lambda k, idx: ladder[k][idx], 4**j, range(_RUNGS), tol, 1.0, stall_after=0
        )
        if rest.size:
            n = 2**j
            los = np.column_stack([rest % n, rest // n]) * (1.0 / n)
            out[rest] = square_means_batch(
                lambda p, ids, j=j: transform(np.asarray(f(p), dtype=float), ids, j),
                los,
                1.0 / n,
                tol,
                square_ids=rest,
            )
        means.append(out)
        fallbacks.append(int(rest.size))
    return means, fallbacks
