"""Composite midpoint quadrature with adaptive refinement, and four fixed
rules for fields that declare their form.

Four kernels are not refined:

* ``polynomial_means``: the 6-point degree-4 rule, exact for a field that
  is a polynomial of degree at most 4 on each triangle.  coeff.cell_means
  uses it for fields that declare such a degree between their breaklines.
  It is the first output of ``_polynomial_moments``, which also gives each
  triangle's spread about its mean from the same node values, and with it
  the L^2 misfit of a field of degree at most 2 against any constant.

* ``radial_edge_integrals``: integrals of a radial field over the
  triangles between a centre and edges, from the field's radial
  antiderivative by Gauss-Legendre rules along each edge (GAUSS_NODES
  nodes per piece), exact up to a few ulps.  ``radial_polygon_integrals``
  sums them over each polygon's edges.  The package takes it only for
  int w^2 of the L^2 error (coeff._isotropic_l2_error), whose line
  integral is not elementary.

* ``_radial_line_edges`` and ``_radial_line_polygons``: the same
  integrals in closed form, for a profile that declares the line integral
  of its radial antiderivative, with no nodes: each edge, or each piece
  of one that crosses the field's kink, is one call of that line
  integral.  For scalars that declare such a profile the BMO diagnostics
  take it on dyadic squares, and the cell means of |w| and of a
  coefficient declared (1 + beta |w|) I on the mesh cells, each grid edge
  integrated once (coeff._radial_cell_integrals).

* ``_trigonometric_cell_means``: the cell means of a trigonometric
  polynomial on every cell of a mesh level, each term's from one constant
  per cell orientation (the divided difference of exp, _exp_triangle_means)
  times its value at the cells' corners, exact up to a few ulps.
  coeff.cell_means uses it for fields declared trigonometric.

Every other mean in the package settles by one rule (``_refine``).  Composite
midpoint means are taken at successive levels, each on four times the
subcells of the last.  A mean is done when two successive levels agree
exactly, or when the Richardson extrapolations (4 I_l - I_{l-1}) / 3 of
two successive level pairs agree within tol * max(|extrapolation|, floor).
A mean whose extrapolations stop contracting by STALL_RATIO twice in a row
stalls.  Stalled means, and those still unsettled at the last level, are
finished by a worst-first locally adaptive rule.  The entry points differ
only in their levels:

* ``triangle_means``: cell averages over batches of triangles on 4^m
  congruent subtriangles, m = 0..EXTENDED_CAP, floor given by the caller;
  stalls count only above UNIFORM_CAP, so cells that still contract there
  keep doubling a few extra levels.  The levels nest: level m evaluates
  only the 3 * 4^(m-1) centroids that level m-1 lacks and adds their sum
  to the carried mean, so a cell settled at level M costs 4^M evaluations.

* ``square_means_batch``: averages of scalars over axis aligned squares
  on tensor midpoint grids of 16..MAX_SQUARE_GRID points per side, floor 1.

Cell sums reduce one value column at a time, and so do norms: every
Euclidean norm over a cell's or node's value axes in the package is
``_flat_norm``, which adds the squared columns left to right and takes one
sqrt.  numpy reduces a short trailing axis an order of magnitude slower,
in the same order, so the norms are np.linalg.norm's bit for bit.

Midpoint nodes are strictly interior to their subcells, so fields with an
integrable singularity at a mesh vertex are only evaluated at finite
points.  Any non-finite evaluation raises SingularityError.

Fields receive column-major float (N, 2) point batches, so P[:, 0] and
P[:, 1] are contiguous: each batch's nodes are written into one planar
(2, ...) buffer, by broadcasting corner plus offsets, and the field gets
its transposed view.  A batch holds at most _CHUNK points: whole
regions, or, when one square's grid is larger, a block of its grid rows;
a triangle level whose added nodes for one cell exceed the chunk is
evaluated in halves, split where numpy's pairwise sum splits, until each
part fits.  Every mean sums the nodes of one region only, a square's by
grid rows and then the row sums, so the batch size changes no result.
``triangle_means`` refines blocks of at most _CHUNK cells, one after the
other, so besides its output it holds only block-sized arrays.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import QuadratureError, SingularityError

UNIFORM_CAP = 8
EXTENDED_CAP = 12
MIN_SQUARE_GRID = 16
MAX_SQUARE_GRID = 1024
STALL_RATIO = 0.45
ADAPTIVE_NODE_CAP = 200_000
_CHUNK = 1 << 14

POLYNOMIAL_DEGREE = 4


def _degree4_orbit(a: float) -> np.ndarray:
    """Affine coordinates, as in _centroid_offsets, of the three nodes with
    barycentric coordinates the permutations of (a, a, 1 - 2a)."""
    out = np.array([[a, 1.0 - 2.0 * a, a], [1.0 - 2.0 * a, a, a]])
    out.setflags(write=False)
    return out


# the 6-point rule: nodes the permutations of (a, a, 1 - 2a) with
# a = (8 - sqrt 10 +- sqrt(38 - 44 sqrt(2/5))) / 18, and weights
# (620 +- sqrt(213125 - 53320 sqrt 10)) / 3720, the upper signs together
_DEGREE4_ORBITS = tuple(
    _degree4_orbit((8.0 - np.sqrt(10.0) + sign * np.sqrt(38.0 - 44.0 * np.sqrt(0.4))) / 18.0)
    for sign in (1.0, -1.0)
)
# half the difference of the orbits' weights, which sum to 1/3
_DEGREE4_SPREAD = np.sqrt(213125.0 - 53320.0 * np.sqrt(10.0)) / 3720.0

# the GAUSS_NODES-point Gauss-Legendre rule on [-1, 1], as
# numpy.polynomial.legendre.leggauss gives it, written out so that importing
# the package loads no numpy.polynomial: the positive nodes, whose mirror
# images are the negative ones, and the weights both share
GAUSS_NODES = 12
_GAUSS_X = (
    0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
    0.7699026741943047, 0.9041172563704748, 0.9815606342467192,
)
_GAUSS_W = (
    0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
    0.16007832854334642, 0.10693932599531907, 0.04717533638651141,
)
# the longest piece of an edge, in the variable u of radial_edge_integrals,
# that one Gauss rule covers
_PIECE_SPAN = 1.0
# edges per block of radial_edge_integrals' geometry
_EDGE_BLOCK = 1 << 12
# edges per block of the closed-form polar kernel (_radial_line_edges)
_LINE_BLOCK = 1 << 10


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


def _centroid_offsets(m: int, added: bool = False) -> np.ndarray:
    """Affine coordinates (a, b) of the 4^m subtriangle centroids, as the
    rows of a (2, 4^m) array; with added, only the centroids that level
    m - 1 lacks: 3 * 4^(m-1) of them for m >= 1, the one centroid at m = 0.

    A node is v0 + a*(v1-v0) + b*(v2-v0).  Splitting into n^2 = 4^m
    congruent triangles gives upward cells (i, j) with i+j <= n-1 and
    downward cells with i+j <= n-2, all of equal area.  The levels nest:
    the level m-1 upward cell (i, j) has the centroid of the level-m
    downward cell (2i, 2j), and the level m-1 downward cell (i, j) that of
    the level-m upward cell (2i+1, 2j+1).  Both sides are correctly
    rounded quotients of one rational, (3i+1)/(3n/2) = (6i+2)/(3n), so the
    nodes agree bit for bit.

    The array is built on each call, the upward cells first, each kind
    row by row (i, then j) straight into the output, so that building holds
    nothing beside it and the caller's reference is the only one: 192 MiB
    at m = 12.
    """
    n = 2**m
    out = np.empty((2, 4**m - (4 ** (m - 1) if added and m else 0)))
    k = 0
    for shift in (1, 2):  # the upward cells' numerators 3i + 1, the downward 3i + 2
        t = (3 * np.arange(n) + shift) / (3 * n)
        for i in range(n + 1 - shift):
            js = t[: n + 1 - shift - i]
            if added and i % 2 == shift % 2:
                # level m - 1 has the upward cells with i and j odd and the
                # downward ones with i and j even
                js = js[shift - 1 :: 2]
            out[0, k : k + js.size] = t[i]
            out[1, k : k + js.size] = js
            k += js.size
    out.setflags(write=False)
    return out


def _columns(a: np.ndarray) -> np.ndarray:
    """a as a (value columns, items) view: row c holds the c-th entry of
    every item's value, whatever the value shape."""
    return a.reshape(a.shape[0], math.prod(a.shape[1:])).T


def _column_norm(columns) -> np.ndarray:
    """Euclidean norm, element by element, across equal-length columns: the
    squares added left to right, then one sqrt.  columns may be an
    iterable, so that each column is made only when it is added.

    For fewer than 8 columns this is np.linalg.norm over the stacked
    columns' short axis bit for bit, since numpy reduces such an axis left
    to right too, but an order of magnitude faster."""
    it = iter(columns)
    first = next(it)
    out = first * first
    for c in it:
        out += c * c
    return np.sqrt(out, out=out)


def _flat_norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norm over all trailing value axes, one number per row."""
    return _column_norm(_columns(a))


def _value_norm(v) -> float:
    """Euclidean norm of one value of any shape."""
    return float(_column_norm(np.reshape(v, (-1, 1)))[0])


def _tri_sums(f, verts, cell_ids, offsets):
    """Sum of f over the nodes v0 + a*(v1-v0) + b*(v2-v0) of each triangle,
    (a, b) the columns of offsets.  Each value column is summed on its own:
    numpy reduces the middle axis of a (cells, nodes, values) block an order
    of magnitude slower.

    More than _CHUNK nodes per cell are summed in two parts, recursively,
    and the parts' sums added.  The parts split where numpy's pairwise
    summation splits an axis longer than its block of 128: the first holds
    half the nodes, rounded down to a multiple of 8.  So, with _CHUNK at
    least 128, the sums are the same bit for bit as one np.sum over all
    nodes, and no batch exceeds the chunk."""
    a, b = offsets
    k = a.size
    if k > _CHUNK:
        half = k // 2 - k // 2 % 8
        out = _tri_sums(f, verts, cell_ids, offsets[:, :half])
        out += _tri_sums(f, verts, cell_ids, offsets[:, half:])
        return out
    per = max(1, _CHUNK // k)
    out = None
    for start in range(0, verts.shape[0], per):
        v = verts[start : start + per]
        # (coordinate, cell, vertex, 1), C-ordered so that planar is too
        w = np.ascontiguousarray(v.transpose(2, 0, 1))[..., None]
        v0 = w[:, :, 0]
        planar = v0 + a * (w[:, :, 1] - v0) + b * (w[:, :, 2] - v0)
        pts = planar.reshape(2, -1).T
        vals = _eval(f, pts, np.repeat(cell_ids[start : start + per], k))
        if out is None:
            out = np.empty((verts.shape[0],) + vals.shape[1:])
        cols = vals.reshape(v.shape[0], k, -1)
        block = out[start : start + per].reshape(v.shape[0], -1)
        for c in range(cols.shape[2]):
            np.sum(cols[:, :, c], axis=1, out=block[:, c])
    return out


def _tri_level_means(f, verts, cell_ids, m, prev):
    """Composite midpoint means at uniform level m for each triangle, given
    prev, their level m-1 means (None at m = 0).  Only the nodes level m
    adds are evaluated; the power-of-two scaling makes prev/4 + S/4^m the
    running sum over all 4^m nodes divided by 4^m, bit for bit."""
    sums = _tri_sums(f, verts, cell_ids, _centroid_offsets(m, added=True))
    if prev is None:
        return sums
    sums *= 0.25**m
    sums += 0.25 * prev
    return sums


def _refine(means_at, count, levels, tol, floor, stall_after):
    """Run the module's refinement rule over `levels` for `count` items.

    means_at(level, idx, prev) returns the means of items idx at that
    level, one row per item, of any value shape; prev holds their means at
    the previous level (None at the first).  Norms are Euclidean over the
    value axes.  Exact agreement keeps the finer mean, the Richardson test
    the later extrapolation.  Stalls count only at levels above stall_after.

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
        cur = means_at(level, active, prev)
        if means is None:
            means = np.empty((count,) + cur.shape[1:])
        if prev is None:
            prev = cur
            continue
        extrap = cur * 4.0
        extrap -= prev
        extrap /= 3.0
        exact = np.logical_and.reduce([c == q for c, q in zip(_columns(cur), _columns(prev))])
        if extrap_prev is None:
            d, done = None, exact
        else:
            # the difference in extrap_prev's buffer
            d = _flat_norm(np.subtract(extrap, extrap_prev, out=extrap_prev))
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
        del cur, extrap  # not held while the next level is evaluated
    return means, np.concatenate(stalled + [active])


def triangle_means(f, verts, rel_tol, cell_ids=None, abs_floor=0.0):
    """Mean of f over each triangle, to relative tolerance rel_tol in the
    Euclidean norm over the value axes (the Frobenius norm of a matrix).

    f(points (N,2), cell_ids (N,)) -> (N, ...) values; the value shape may
    be scalar, vector or matrix.  verts has shape (ncells, 3, 2).

    Uniform levels m = 0..EXTENDED_CAP refine by the rule of ``_refine``
    with floor abs_floor; stalls count only above UNIFORM_CAP, so cells
    that still contract keep doubling.  Stalled and unsettled cells finish
    with the locally adaptive rule.  Cells are refined and finished in
    blocks of at most _CHUNK, each written into the output before the next
    starts; a cell's mean depends only on its own nodes, so the blocks
    change no result.
    """
    verts = np.asarray(verts, dtype=float)
    cell_ids = np.arange(verts.shape[0]) if cell_ids is None else np.asarray(cell_ids)
    out = np.empty(0)
    for start in range(0, verts.shape[0], _CHUNK):
        block = slice(start, start + _CHUNK)
        means = _triangle_block_means(f, verts[block], cell_ids[block], rel_tol, abs_floor)
        if start == 0:
            out = np.empty((verts.shape[0],) + means.shape[1:])
        out[block] = means
    return out


def _triangle_block_means(f, verts, cell_ids, rel_tol, abs_floor):
    means, rest = _refine(
        lambda m, idx, prev: _tri_level_means(f, verts[idx], cell_ids[idx], m, prev),
        verts.shape[0],
        range(EXTENDED_CAP + 1),
        rel_tol,
        abs_floor,
        stall_after=UNIFORM_CAP,
    )
    for i in rest:
        means[i] = _adaptive_tri_mean(f, verts[i], int(cell_ids[i]), rel_tol, abs_floor)
    return means


def polynomial_means(f, verts, cell_ids=None):
    """Mean of f over each triangle by the 6-point interior rule exact for
    polynomials of degree POLYNOMIAL_DEGREE = 4 (Strang & Fix 1973;
    Dunavant 1985): exact, up to rounding, for fields polynomial of degree
    at most 4 on each triangle, and not refined.

    Same call form and value shapes as triangle_means, without a tolerance:
    the means of _polynomial_moments."""
    return _polynomial_moments(f, verts, cell_ids)[0]


def _polynomial_moments(f, verts, cell_ids=None):
    """(means, spreads) of f over each triangle by the 6-point degree-4
    rule, with nodes f_i and weights w_i: the mean M_T = sum_i w_i f_i and
    the spread V_T = sum_i w_i |f_i - M_T|^2, the norm Euclidean over the
    value axes, one number per triangle.

    The weights sum to 1, so for any constant c
    sum_i w_i |f_i - c|^2 = V_T + |M_T - c|^2 (the law of total variance;
    Chan, Golub & LeVeque 1983): for a field of degree at most 2 on the
    triangle that is the exact mean of |f - c|^2, whatever c.

    The weights are 1/6 + d on the first orbit of three nodes and 1/6 - d
    on the second, and the mean is taken as (S1 + S2) / 6 + d (S1 - S2),
    S the orbits' sums, each added left to right: a constant c whose 3c is
    exact comes out as c, bit for bit.  Triangles come in batches of
    _CHUNK // 6, both orbits' nodes in one batch of at most _CHUNK points,
    and each batch's means and spreads are written into the outputs before
    the next is evaluated, so besides them the kernel holds one batch's
    values.
    """
    verts = np.asarray(verts, dtype=float)
    cell_ids = np.arange(verts.shape[0]) if cell_ids is None else np.asarray(cell_ids)
    a, b = np.concatenate(_DEGREE4_ORBITS, axis=1)
    heavy, light = 1.0 / 6.0 + _DEGREE4_SPREAD, 1.0 / 6.0 - _DEGREE4_SPREAD
    per = _CHUNK // 6
    means = spreads = np.empty(0)
    for start in range(0, verts.shape[0], per):
        block = slice(start, start + per)
        v = verts[block]
        # (coordinate, cell, vertex, 1), C-ordered so that planar is too
        w = np.ascontiguousarray(v.transpose(2, 0, 1))[..., None]
        v0 = w[:, :, 0]
        planar = v0 + a * (w[:, :, 1] - v0) + b * (w[:, :, 2] - v0)
        vals = _eval(f, planar.reshape(2, -1).T, np.repeat(cell_ids[block], 6))
        if start == 0:
            means = np.empty((verts.shape[0],) + vals.shape[1:])
            spreads = np.empty(verts.shape[0])
        nodes = vals.reshape(v.shape[0], 6, -1)  # (cell, node, value column)
        s1 = nodes[:, 0] + nodes[:, 1]
        s1 += nodes[:, 2]
        s2 = nodes[:, 3] + nodes[:, 4]
        s2 += nodes[:, 5]
        mean = means[block].reshape(v.shape[0], -1)
        np.add(s1, s2, out=mean)
        mean /= 6.0
        s1 -= s2
        s1 *= _DEGREE4_SPREAD
        mean += s1
        dev = nodes - mean[:, None, :]
        dev *= dev
        sq = dev[:, :, 0].copy()  # |f_i - M_T|^2, one value column at a time
        for c in range(1, dev.shape[2]):
            sq += dev[:, :, c]
        spread = spreads[block]
        np.add(sq[:, 0], sq[:, 1], out=spread)
        spread += sq[:, 2]
        spread *= heavy
        orbit = sq[:, 3] + sq[:, 4]
        orbit += sq[:, 5]
        orbit *= light
        spread += orbit
    return means, spreads


def _exp_triangle_means(z: np.ndarray) -> np.ndarray:
    """Mean of exp(z) over a triangle on which z is affine, from z at the
    vertices, z (..., 3) complex: 2 exp[z0, z1, z2], twice the divided
    difference of exp (Hermite-Genocchi).

    It is summed as e^m sum_q h_q(a, b, c) / (q + 2)!, the Taylor series
    about the vertices' mean m, with a, b, c = z - m and h_q the complete
    homogeneous symmetric polynomial of degree q (McCurdy, Ng and Parlett
    1984, Math. Comp. 43), which the recurrence over one, two, then three
    of the points builds.  With r = max |z - m|, |h_q| / (q + 2)! is at most
    r^q / (2 q!), and the sum stops once that bound is below 2^-60; the
    terms grow up to about e^r / r, so the sum is accurate for r of order
    1 (see _cell_exp_means)."""
    z = np.asarray(z, dtype=complex)
    m = z.mean(axis=-1)
    a, b, c = np.moveaxis(z - m[..., None], -1, 0)
    r = float(np.max(np.abs(z - m[..., None]), initial=0.0))
    one = np.ones_like(m)
    ha, hab, habc = one, one, one  # h_q of a; of a, b; of a, b, c
    total = 0.5 * one
    bound, scale, q = 0.5, 0.5, 0  # r^q / (2 q!) and 1 / (q + 2)!
    while bound > 2.0**-60:
        q += 1
        ha = a * ha
        hab = b * hab + ha
        habc = c * habc + hab
        scale /= q + 2
        total = total + habc * scale
        bound *= r / q
    return 2.0 * np.exp(m) * total


def _cell_exp_means(kx: int, ky: int, n: int) -> np.ndarray:
    """Means of exp(i pi (kx x + ky y)) over the lower cell (ll, lr, ur)
    and the upper cell (ll, ur, ul) of the grid square [0, 1/n]^2, (2,)
    complex.

    While the exponent varies by at most 2 over a cell they come from
    _exp_triangle_means.  Otherwise a cell's mean is the mean of its four
    red children's, of side h = 1/(2n): the lower cell holds lower children at
    (0, 0), (h, 0) and (h, h) and the upper child at (h, 0), the upper
    cell upper children at (0, 0), (0, h) and (h, h) and the lower child at
    (0, h); a child at v has its origin twin's mean times the term at v."""
    if np.pi / n * max(abs(kx), abs(ky), abs(kx + ky)) <= 2.0:
        return _exp_triangle_means(1j * np.pi / n * np.array([[0, kx, kx + ky], [0, kx + ky, ky]]))
    lower, upper = _cell_exp_means(kx, ky, 2 * n)
    ex, ey = np.exp(1j * np.pi / (2 * n) * np.array([kx, ky]))
    return 0.25 * np.array(
        [lower * (1.0 + ex + ex * ey) + upper * ex, upper * (1.0 + ey + ex * ey) + lower * ey]
    )


def _trigonometric_cell_means(terms, level: int) -> np.ndarray:
    """Means over every cell of the level-`level` mesh of real
    trigonometric polynomials Re sum_t c_t exp(i pi (kx x + ky y)), kx and
    ky integers: terms[e] holds entry e's pairs (c_t, (kx, ky)).  Returns
    (2 4^level, len(terms)), the cells in the mesh's order.

    Every lower cell of the mesh is a translate of every other, and so is
    every upper cell.  A cell's mean of exp(i pi k.x) is therefore its
    corner (x_i, y_j)'s value exp(i pi kx x_i) exp(i pi ky y_j) times one
    constant per orientation (_cell_exp_means), and each term adds, per
    orientation, the real part of the outer product of its row and column
    factors, as two real outer products.
    Besides the output the kernel holds one value per grid column and row
    per term and one n x n buffer, n = 2^level."""
    n = 2**level
    side = np.arange(n) * (1.0 / n)  # the cells' lower-left corners
    out = np.zeros((n, n, 2, len(terms)))  # (row j, column i, lower/upper, entry)
    buf = np.empty((n, n))
    for e, entry in enumerate(terms):
        for coef, (kx, ky) in entry:
            consts = complex(coef) * _cell_exp_means(kx, ky, n)
            fx = np.exp(1j * np.pi * kx * side)
            fy = np.exp(1j * np.pi * ky * side)
            for o in range(2):
                a = consts[o] * fy
                view = out[:, :, o, e]
                np.multiply.outer(a.real, fx.real, out=buf)
                view += buf
                np.multiply.outer(a.imag, fx.imag, out=buf)
                view -= buf
    return out.reshape(2 * n * n, len(terms))


def radial_polygon_integrals(H, centre, polys, kinks=None):
    """Integrals of a radial field g(|x - centre|) over each polygon, from
    its radial antiderivative, by a fixed rule and with no refinement.

    H(r (N,), ids (N,)) -> (N,) is H(r) = int_0^r g(s) s ds for the field
    of polygon ids, so each polygon may have its own profile.  polys
    (K, M, 2) holds each polygon's vertices in order, in either
    orientation; a repeated vertex makes an empty edge.  kinks, if given,
    broadcasts to one radius per polygon where g has a kink, such as where
    |w - c| changes sign.

    Seen from the centre, a polygon is the signed sum of the triangles
    (centre, p, q) over its edges pq, so int_K g is its orientation times
    the sum of radial_edge_integrals over its edges.  So the centre may lie
    inside the polygon, on it or outside it.  Polygons are taken in blocks
    of _CHUNK // (GAUSS_NODES M), a batch's worth at one piece per edge, so
    besides its output the rule holds only block-sized arrays; each polygon
    adds its edges in order, so the blocks change no result.
    """
    polys = np.asarray(polys, dtype=float)
    count, m = polys.shape[:2]
    kinks = None if kinks is None else np.broadcast_to(np.asarray(kinks, dtype=float), (count,))
    out = np.empty(count)
    per = max(1, _CHUNK // (GAUSS_NODES * m))
    for first in range(0, count, per):
        block = slice(first, first + per)
        p = polys[block]
        q = np.roll(p, -1, axis=1)
        edges = radial_edge_integrals(
            H,
            centre,
            p,
            q,
            None if kinks is None else kinks[block, None],
            np.arange(first, first + p.shape[0])[:, None],
        )
        cross = p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]
        out[block] = np.sign(cross.sum(axis=1)) * edges.sum(axis=1)
    return out


def radial_edge_integrals(H, centre, starts, ends, kinks=None, ids=None):
    """For each edge p -> q, the integral of H(r_e(theta)) over the angle
    theta that it sweeps about the centre, positive where it turns
    counterclockwise: r_e(theta) is the distance to the edge along the ray
    theta.  So for a radial field g with H(r) = int_0^r g(s) s ds it is the
    integral of g over the triangle (centre, p, q), signed by that
    triangle's orientation, and an edge on a line through the centre gives
    0.

    starts and ends (..., 2) hold the edges' end points, of one shape
    S + (2,); kinks, if given, broadcasts to S: per edge a radius where g
    has a kink.  H(r (N,), ids (N,)) -> (N,) gets the radii of the edges
    ids; ids broadcasts to S and is each edge's flat index in S by default.
    Returns S.

    An edge whose line lies at distance d from the centre sweeps
    dtheta = d ds / (d^2 + s^2) at signed distance s from the foot of the
    perpendicular.  In u = asinh(s / d) that is du / cosh(u), at radius
    r = d cosh(u): the integrand H(d cosh u) / cosh u is as smooth for an
    edge close to the centre as for a far one, while in theta such an edge
    ends near the poles of r_e (the sinh transformation of nearly singular
    integrals).  The u-range is split at +-acosh(kink / d), where r crosses
    the kink, and into pieces of at most _PIECE_SPAN, each integrated by
    the GAUSS_NODES-point Gauss-Legendre rule.  An edge whose u-range
    overflows, its line within about 1e-154 of the centre, adds O(d) and
    is dropped.

    Edges are taken in blocks of at most _EDGE_BLOCK along the first axis
    of S (at least one row of it), and H gets at most _CHUNK radii at a
    time; so besides its output the rule holds only block-sized arrays.
    Each piece adds its nodes' values pairwise by mirror node, and a
    bincount adds each edge's pieces in order, so neither the blocks nor
    the batches change any result.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    centre = np.asarray(centre, dtype=float)
    shape = starts.shape[:-1]
    if kinks is not None:
        kinks = np.broadcast_to(np.asarray(kinks, dtype=float), shape)
    if ids is not None:
        ids = np.broadcast_to(ids, shape)
    out = np.empty(shape)
    x = np.array(_GAUSS_X)
    nodes = np.concatenate([x, -x])[:, None]  # each node, then its mirror image
    weights = np.array(_GAUSS_W)[:, None]
    per = max(1, _CHUNK // GAUSS_NODES)
    row = math.prod(shape[1:])
    rows = max(1, _EDGE_BLOCK // max(row, 1))
    for first in range(0, shape[0], rows):
        block = slice(first, first + rows)
        mid, half, d, edge, sign = _edge_pieces(
            (starts[block] - centre).reshape(-1, 2),
            (ends[block] - centre).reshape(-1, 2),
            None if kinks is None else kinks[block].reshape(-1),
        )
        count = out[block].size
        owners = np.arange(first * row, first * row + count) if ids is None else ids[block].ravel()
        sums = np.empty(mid.size)
        for start in range(0, mid.size, per):
            part = slice(start, start + per)
            c = np.cosh(mid[part] + nodes * half[part])  # (node, piece)
            r = d[part] * c
            owner = np.broadcast_to(owners[edge[part]], c.shape)
            vals = np.asarray(H(r.ravel(), owner.ravel()), dtype=float).reshape(c.shape)
            if not np.all(np.isfinite(vals)):
                i = np.unravel_index(int(np.argmin(np.isfinite(vals))), c.shape)
                raise SingularityError(
                    f"non-finite radial antiderivative at radius {r[i]} for id {owner[i]}"
                )
            vals /= c
            # each node's value plus its mirror image's, weighted, summed
            pairs = vals[: len(_GAUSS_X)]
            pairs += vals[len(_GAUSS_X) :]
            pairs *= weights
            np.sum(pairs, axis=0, out=sums[part])
            sums[part] *= half[part] * sign[part]
        out[block] = np.bincount(edge, weights=sums, minlength=count).reshape(out[block].shape)
    return out


def _edge_pieces(p, q, kinks):
    """The Gauss pieces of radial_edge_integrals for the edges p -> q
    (E, 2), relative to the centre: per piece its midpoint and half width
    in u, the distance d of its edge's line, its edge's index and the sign
    of its edge's turn.  Each edge's pieces are consecutive, in order of u.

    An edge from p to q spans u_p..u_p + W.  W comes from
    sinh W = (s_q |p| - s_p |q|) / d^2, which for s_p, s_q of one sign is
    L (s_p + s_q) / (s_q |p| + s_p |q|), L the edge's length: with no
    cancellation, so that a far edge's narrow span keeps its relative
    accuracy.  Most edges are one piece, no longer than _PIECE_SPAN and
    not crossing the kink; the others are cut where they cross it and into
    pieces of at most _PIECE_SPAN, laid out as offsets from u_p."""
    ex, ey = q[:, 0] - p[:, 0], q[:, 1] - p[:, 1]
    # p x q as p x (q - p): p0 q1 - p1 q0 cancels for a short far edge
    cross = p[:, 0] * ey - p[:, 1] * ex
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        length = np.hypot(ex, ey)
        h = cross / length  # signed distance of the edge's line
        d = np.abs(h)
        sp = (p[:, 0] * ex + p[:, 1] * ey) / length
        sq = (q[:, 0] * ex + q[:, 1] * ey) / length
        rp, rq = np.hypot(p[:, 0], p[:, 1]), np.hypot(q[:, 0], q[:, 1])
        up = np.arcsinh(sp / d)
        one_side = length * (sp + sq) / (sq * rp + sp * rq)
        span = np.arcsinh(np.where(sp * sq > 0, one_side, (sq * rp - sp * rq) / d / d))
        # drops empty edges, lines through the centre and overflowing spans
        edge = np.flatnonzero(np.isfinite(up) & np.isfinite(span))
        up, span, d, sign = up[edge], span[edge], d[edge], np.sign(h[edge])
        # r = d cosh(u) meets the kink at u = +-acosh(kink / d), offset from u_p
        at = None if kinks is None else np.arccosh(np.maximum(kinks[edge] / d, 1.0))
    cuts = [] if at is None else [-at - up, at - up]
    whole = span <= _PIECE_SPAN
    for t in cuts:
        whole &= (t <= 0.0) | (t >= span)
    rest = np.flatnonzero(~whole)
    bounds = [np.zeros(rest.size), *(np.clip(t[rest], 0.0, span[rest]) for t in cuts), span[rest]]
    bounds = np.stack(bounds, axis=1)
    lo, hi = bounds[:, :-1].ravel(), bounds[:, 1:].ravel()
    n = np.ceil((hi - lo) / _PIECE_SPAN).astype(np.intp)  # 0 for empty parts
    width = np.repeat((hi - lo) / np.maximum(n, 1), n)
    k = np.arange(width.size) - np.repeat(np.cumsum(n) - n, n)
    owner = np.concatenate([np.flatnonzero(whole), np.repeat(np.repeat(rest, len(cuts) + 1), n)])
    half = np.concatenate([0.5 * span[whole], 0.5 * width])
    offset = np.concatenate([half[: whole.sum()], np.repeat(lo, n) + (k + 0.5) * width])
    return up[owner] + offset, half, d[owner], edge[owner], sign[owner]


def _radial_line_polygons(line, centre, polys, c=0.0, kinks=None, tops=None):
    """radial_polygon_integrals in closed form: the integral of a radial
    field over each polygon (K, M, 2), as _radial_line_edges gives it for
    the polygon's edges, with c, kinks and tops one value per polygon or
    one for all.  Polygons are taken in blocks of _LINE_BLOCK // M, a
    block's worth of edges; each polygon adds its edges in order, so the
    blocks change no result.  A non-finite integral raises
    SingularityError naming the polygon."""
    polys = np.asarray(polys, dtype=float)
    count, m = polys.shape[:2]
    out = np.empty(count)
    per = max(1, _LINE_BLOCK // m)
    for first in range(0, count, per):
        block = slice(first, first + per)
        p = polys[block] - centre
        q = np.roll(p, -1, axis=1)
        level = [v if np.ndim(v) == 0 else np.repeat(v[block], m) for v in (c, kinks, tops)]
        edges = _line_block(line, p.reshape(-1, 2), q.reshape(-1, 2), *level)
        edges = edges.reshape(p.shape[:2])
        cross = p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]
        out[block] = np.sign(cross.sum(axis=1)) * edges.sum(axis=1)
        bad = ~np.isfinite(out[block])
        if bad.any():
            k = first + int(np.argmax(bad))
            raise SingularityError(f"non-finite radial integral over polygon {k}: {polys[k].tolist()}")
    return out


def _radial_line_edges(line, centre, starts, ends, c=0.0, kinks=None, tops=None):
    """radial_edge_integrals in closed form, for a field whose profile
    declares the line integral of its radial antiderivative
    P(r, c) = int_0^r (v(s) - c) s ds: line(d, a, t, c) is
    E = int_a^(a+t) P(sqrt(d^2 + s^2), c) d / (d^2 + s^2) ds, the angle
    integral of P along a line at distance d > 0 from the centre, from
    signed position a (from the foot of the perpendicular) over a length
    t >= 0, for arrays that broadcast together.

    starts and ends (R, C, 2) hold the edges p -> q, and c, kinks and
    tops are one value for all of them.  Returns (R, C): per edge, its
    turn's sign times the angle integral of P(r, c) with kinks None, else
    of int_0^r |v - c| s ds.  That is sigma P(r, c) up to the radius
    rho = kinks where v = c, and sigma (T - P(r, c)) beyond it, with
    T = tops = 2 P(rho, c) and sigma its sign: an edge's piece inside rho
    adds sigma E, and a piece outside it sigma (T dphi - E), dphi the angle
    the piece sweeps.

    An edge of length L is the piece (0, L) in offsets from p; one that
    crosses rho is cut where it does.  Every piece is an offset and a
    length measured from p, never a difference of positions along the
    line, which would round a short far edge's length.  Edges on a line
    through the centre give 0.  Edges are taken in blocks of at most
    _LINE_BLOCK, so besides its output the kernel holds only block-sized
    arrays; a non-finite integral raises SingularityError naming the edge.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    rows, cols = starts.shape[:2]
    out = np.empty((rows, cols))
    width = min(cols, _LINE_BLOCK)
    height = max(1, _LINE_BLOCK // width)
    for r0 in range(0, rows, height):
        for c0 in range(0, cols, width):
            block = (slice(r0, r0 + height), slice(c0, c0 + width))
            p = (starts[block] - centre).reshape(-1, 2)
            q = (ends[block] - centre).reshape(-1, 2)
            sums = _line_block(line, p, q, c, kinks, tops)
            bad = ~np.isfinite(sums)
            if bad.any():
                i = int(np.argmax(bad))
                edge = starts[block].reshape(-1, 2)[i], ends[block].reshape(-1, 2)[i]
                raise SingularityError(
                    f"non-finite radial integral on the edge {edge[0].tolist()} -> {edge[1].tolist()}"
                )
            out[block] = sums.reshape(out[block].shape)
    return out


def _line_block(line, p, q, c, kinks, tops):
    """_radial_line_edges on one block of edges p -> q (E, 2), relative to
    the centre; c, kinks and tops broadcast to (E,).

    Every edge is first the one piece (0, L), with E and dphi those of the
    whole edge.  One that crosses rho = kinks is the outer pieces (0, lo)
    and (hi, L - hi) around the inner piece (lo, hi - lo), lo < hi the
    offsets -+sqrt(rho^2 - d^2) - a_p from p (a_p the position of p)
    clipped to [0, L].  Its inner piece adds sigma E_in and its outer ones
    sigma (T dphi_out - (E - E_in)), dphi_out the sum of their own angles:
    the whole edge's E less E_in, which scales with d, but no difference
    of angles, which T does not scale."""
    ex = q[:, 0] - p[:, 0]
    ey = q[:, 1] - p[:, 1]
    # p x q as p x (q - p): p0 q1 - p1 q0 cancels for a short far edge
    cross = p[:, 0] * ey - p[:, 1] * ex
    length = np.hypot(ex, ey)
    with np.errstate(invalid="ignore"):  # 0 / 0 for an empty edge
        h = cross / length  # signed distance of the edge's line
        start = p[:, 0] * ex
        start += p[:, 1] * ey
        start /= length  # the position of p
    d = np.abs(h)
    out = line(d, start, length, c)
    if kinks is not None:
        chord = np.sqrt(np.maximum((kinks - d) * (kinks + d), 0.0))  # half the chord inside rho
        lo = np.clip(-chord - start, 0.0, length)
        hi = np.clip(chord - start, 0.0, length)
        inside = (lo == 0.0) & (hi == length)
        swept = _swept(d, start, length)
        cut = np.flatnonzero((lo < hi) & ~inside)
        if cut.size:
            dk, ak, lo, hi = d[cut], start[cut], lo[cut], hi[cut]
            inner = line(dk, ak + lo, hi - lo, c if np.ndim(c) == 0 else c[cut])
            out[cut] -= 2.0 * inner
            swept[cut] = _swept(dk, ak, lo) + _swept(dk, ak + hi, length[cut] - hi)
        swept *= tops
        np.subtract(swept, out, out=out, where=~inside)
        out *= np.sign(tops)
    out *= np.sign(h)
    if not length.all():
        out[length == 0.0] = 0.0
    return out


def _swept(d, a, t):
    """The angle that the piece from position a over length t of a line
    at distance d sweeps about the centre."""
    return np.arctan2(d * t, d * d + a * (a + t))


def global_scale_floor(f, verts, cell_ids=None) -> float:
    """Mean magnitude of f over all cells, from a coarse (4 points per
    cell) composite rule; a tolerance floor so that cells with negligible
    contribution to a global quantity are not over-refined.  Cells are
    taken in blocks of _CHUNK, each block's magnitudes written into one
    array of one number per cell before its mean is taken."""
    verts = np.asarray(verts, dtype=float)
    if verts.shape[0] == 0:
        return 0.0
    cell_ids = np.arange(verts.shape[0]) if cell_ids is None else np.asarray(cell_ids)
    norms = np.empty(verts.shape[0])
    for start in range(0, verts.shape[0], _CHUNK):
        block = slice(start, start + _CHUNK)
        vals = _tri_sums(f, verts[block], cell_ids[block], _centroid_offsets(1)) / 4.0
        norms[block] = _flat_norm(vals)
    return float(np.mean(norms))


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
        pts = np.asfortranarray([center(g) for g in (geom, *children)])
        vals = np.asarray(f(pts), dtype=float)
        _check_finite(vals, pts)
        coarse = frac * vals[0]
        fine = 0.25 * frac * (vals[1] + vals[2] + vals[3] + vals[4])
        err = _value_norm(coarse - fine)
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
    while err_total > rel_tol * max(_value_norm(integral), abs_floor, 1e-300):
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
    """Tensor midpoint means on n x n grids for a batch of squares.

    Fields get at most _CHUNK points at a time: whole squares, or blocks of
    _CHUNK // n grid rows of one square whose grid is larger; a square's
    blocks share one points buffer, the next block overwriting its y
    column.  A mean sums each grid row, then the square's n row sums, and
    divides by n^2, so the batching changes no bit of it."""
    k = los.shape[0]
    t = (np.arange(n) + 0.5) * (size / n)
    per = max(1, _CHUNK // (n * n))
    rows = min(n, _CHUNK // n)
    out = np.empty(k)
    for start in range(0, k, per):
        lo = los[start : start + per]
        # (coordinate, square, row, column): x runs along rows, y down them
        planar = np.empty((2, lo.shape[0], rows, n))
        np.add(lo[:, 0, None, None], t, out=planar[0])
        # one square's ids stay a stride-0 view, not n * n stored copies
        ids = square_ids[start : start + per, None]
        ids = np.broadcast_to(ids, (lo.shape[0], rows * n)).reshape(-1)
        row_sums = np.empty((lo.shape[0], n))
        for r0 in range(0, n, rows):
            np.add(lo[:, 1, None, None], t[r0 : r0 + rows, None], out=planar[1])
            vals = _eval(f, planar.reshape(2, -1).T, ids)
            np.sum(vals.reshape(lo.shape[0], rows, n), axis=2, out=row_sums[:, r0 : r0 + rows])
        out[start : start + per] = row_sums.sum(axis=1) / (n * n)
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
        lambda n, idx, prev: _square_grid_means(f, los[idx], size, n, square_ids[idx]),
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
