"""Coefficient fields, piecewise constant projection, and BMO diagnostics.

The maximal functions here are computed over the finite dyadic-square
family of the unit square, not over all cubes; every reported value is a
lower bound for the corresponding supremum, within a fixed constant of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quadrature
from .errors import InvariantError, SingularityError
from .mesh import Mesh, triangle_areas

P_RANGE = (1.1, 10.0)  # Lebesgue exponents of every norm and study
PROJECTION_TOL_RANGE = (1e-12, 1e-4)
DEFAULT_PROJECTION_TOL = 1e-6
DEFAULT_SQUARE_TOL = 1e-8
DEFAULT_OSC_TOL = 1e-5
MAX_BMO_DEPTH = 8
_SNAP_TOL = 1e-12  # in square-local units, see _grid_pieces
_UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])  # counterclockwise


@dataclass(frozen=True)
class CoefficientField:
    """Symmetric positive definite matrix field on the unit square.

    evaluate maps points (N, 2) to matrices (N, 2, 2); alpha is the
    declared coercivity constant (a lower bound on the pointwise minimal
    eigenvalue).  No upper eigenvalue bound is assumed anywhere.

    breaks = (xs, ys) are the fixture's breaklines: the lines x = xs[i] and
    y = ys[j], strictly increasing inside (0, 1), off which the field is
    smooth.  Cell quantities are integrated piecewise between them (see
    cell_means).  degree, if not None, is a bound on the polynomial degree
    of every entry on each rectangle between the breaklines; cell_means
    then integrates with a fixed rule where that is exact, and at degree 2
    or less the projection and its L^2 error share one evaluation per node
    (_projection_with_abs_means).  isotropic, if
    not None, declares the field (1 + beta |w|) I (IsotropicForm), and
    trigonometric, if not None, declares every entry a trigonometric
    polynomial (TrigonometricForm of shape (2, 2), which is then also
    evaluate); the projection and the L^2 error are then exact
    (project_coefficient, coefficient_error).  Raises ValueError for other
    breaks, degrees or form shapes.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    alpha: float
    kind: str
    breaks: tuple[tuple[float, ...], tuple[float, ...]] = ((), ())
    degree: int | None = None
    isotropic: IsotropicForm | None = None
    trigonometric: TrigonometricForm | None = None

    def __post_init__(self):
        d = self.degree
        if d is not None and not (isinstance(d, int) and not isinstance(d, bool) and d >= 0):
            raise ValueError(f"degree must be None or a non-negative int, got {d!r}")
        for b in map(np.asarray, self.breaks):
            if not (np.all(b > 0.0) and np.all(b < 1.0) and np.all(np.diff(b) > 0.0)):
                raise ValueError(f"breaks must increase strictly inside (0, 1), got {self.breaks}")
        if self.trigonometric is not None and tuple(self.trigonometric.shape) != (2, 2):
            raise ValueError(f"a trigonometric form must have shape (2, 2), got {self.trigonometric}")


@dataclass(frozen=True)
class RadialProfile:
    """Declares that a scalar field is w(x) = v(|x - centre|) with v
    strictly monotone, by its centre and four functions of arrays:
    antiderivative(r, c) = P(r, c) = int_0^r (v(s) - c) s ds,
    level_radius(c), the radius where v = c, positive and finite for every
    c, square_antiderivative(r) = int_0^r v(s)^2 s ds, and
    line_integral(d, a, t, c) =
    int_a^(a+t) P(sqrt(d^2 + s^2), c) d / (d^2 + s^2) ds, the angle integral
    of P along a line at distance d > 0 from the centre, from signed
    position a (from the foot of the perpendicular) over a length t >= 0.

    The means of w and of |w - c| over cells and polygons take the line
    integral (quadrature._radial_line_edges), with no quadrature nodes;
    int w^2 takes square_antiderivative by the Gauss polar rule
    (quadrature.radial_polygon_integrals)."""

    centre: tuple[float, float]
    antiderivative: Callable[[np.ndarray, np.ndarray], np.ndarray]
    level_radius: Callable[[np.ndarray], np.ndarray]
    square_antiderivative: Callable[[np.ndarray], np.ndarray]
    line_integral: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ScalarField:
    """Scalar field used by the maximal-function diagnostics.  radial, if
    given, declares the field radial (RadialProfile); the dyadic square
    means and oscillations and the cell |w| means of such a field are
    exact, by the polar rule (_radial_means), and so is its
    John-Nirenberg table (john_nirenberg_check)."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    radial: RadialProfile | None = None


@dataclass(frozen=True)
class IsotropicForm:
    """Declares that a coefficient field is (1 + beta |w|) I, for a scalar
    w that declares a radial profile (ScalarField.radial) and beta >= 0.
    Raises ValueError for any other w or beta."""

    beta: float
    w: ScalarField

    def __post_init__(self):
        if self.w.radial is None or not self.beta >= 0.0:
            raise ValueError(f"an isotropic form needs a radial scalar and beta >= 0, got {self}")


@dataclass(frozen=True)
class TrigonometricForm:
    """A field whose every value entry is a real trigonometric polynomial
    Re sum_t c_t exp(i pi (kx x + ky y)) with integer frequencies kx, ky:
    terms[e] holds entry e's pairs (c_t, (kx, ky)), complex c_t, the
    entries in the C order of a value of shape `shape`.  Calling the form
    evaluates it, points (N, 2) to values (N,) + shape, so the declaration
    and the values cannot disagree.  Passed as the declaration of a field,
    it makes the field's cell means and its L^2 misfit against a cell field
    exact (cell_means, lp_misfit).  Raises
    ValueError when terms do not hold one entry per value entry or a
    frequency is no integer pair."""

    shape: tuple[int, ...]
    terms: tuple[tuple[tuple[complex, tuple[int, int]], ...], ...]

    def __post_init__(self):
        ints = all(
            len(k) == 2 and all(isinstance(j, int) and not isinstance(j, bool) for j in k)
            for entry in self.terms
            for _, k in entry
        )
        if len(self.terms) != math.prod(self.shape) or not ints:
            raise ValueError(f"terms must give one entry per value entry, integer k: {self}")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        x, y = points[:, 0], points[:, 1]
        out = np.zeros((points.shape[0], len(self.terms)))
        for col, entry in zip(out.T, self.terms):
            for c, (kx, ky) in entry:
                c = complex(c)
                if kx == ky == 0:
                    col += c.real
                    continue
                # Re(c e^{i theta}) = c.real cos(theta) - c.imag sin(theta)
                theta = np.pi * (kx * x + ky * y)
                if c.real:
                    col += c.real * np.cos(theta)
                if c.imag:
                    col -= c.imag * np.sin(theta)
        return out.reshape((-1,) + tuple(self.shape))

    def squared_norm(self) -> TrigonometricForm:
        """|f|^2, the squared Euclidean norm over the value entries, as a
        scalar form: Re(a) Re(b) = Re(a b + a conj(b)) / 2 for every pair
        of terms of an entry, like frequencies merged."""
        merged = {}
        for entry in self.terms:
            for c, k in entry:
                for d, l in entry:
                    for coef, freq in (
                        (c * d, (k[0] + l[0], k[1] + l[1])),
                        (c * np.conj(d), (k[0] - l[0], k[1] - l[1])),
                    ):
                        merged[freq] = merged.get(freq, 0.0) + 0.5 * complex(coef)
        return TrigonometricForm((), (tuple((c, k) for k, c in merged.items()),))


@dataclass(frozen=True)
class PiecewiseConstantMatrixField:
    """Cell-wise constant symmetric matrices aligned with a mesh."""

    mesh: Mesh
    values: np.ndarray  # (ncells, 2, 2)

    def __post_init__(self):
        if self.values.shape != (self.mesh.num_cells, 2, 2):
            raise InvariantError("cell matrix count does not match the mesh")


@dataclass(frozen=True)
class DyadicSquare:
    """Closed dyadic subsquare of the unit square: side 2^-level, corner
    (ix, iy) * 2^-level."""

    level: int
    ix: int
    iy: int

    def __post_init__(self):
        n = 2**self.level
        if self.level < 0 or not (0 <= self.ix < n and 0 <= self.iy < n):
            raise ValueError(f"dyadic indices out of range: {self}")

    @property
    def size(self) -> float:
        return 2.0**-self.level

    @property
    def lo(self) -> np.ndarray:
        return np.array([self.ix, self.iy]) * self.size


# ---------------------------------------------------------------------------
# fixtures


def constant_coefficient(matrix) -> CoefficientField:
    m = np.asarray(matrix, dtype=float)
    if m.shape != (2, 2) or m[0, 1] != m[1, 0]:
        raise InvariantError("constant coefficient must be a symmetric 2x2 matrix")
    alpha = float(np.linalg.eigvalsh(m)[0])

    def evaluate(points):
        return np.broadcast_to(m, (points.shape[0], 2, 2))

    return CoefficientField(evaluate, alpha, "constant", degree=0)


def identity_coefficient() -> CoefficientField:
    return constant_coefficient(np.eye(2))


def _diagonal(d11: np.ndarray, d22: np.ndarray) -> np.ndarray:
    """The matrices diag(d11[k], d22[k]), (N, 2, 2)."""
    out = np.zeros((d11.shape[0], 2, 2))
    out[:, 0, 0] = d11
    out[:, 1, 1] = d22
    return out


def smooth_coefficient() -> CoefficientField:
    """diag(2 + sin(pi x), 2 + cos(pi y)); coercivity constant 1.  Declared
    trigonometric: sin(pi x) = Re(-i e^{i pi x}), cos(pi y) = Re(e^{i pi y})."""
    form = TrigonometricForm(
        (2, 2), (((2.0, (0, 0)), (-1j, (1, 0))), (), (), ((2.0, (0, 0)), (1.0, (0, 1))))
    )
    return CoefficientField(form, 1.0, "smooth", trigonometric=form)


def log_singular_coefficient(beta: float, x0=(0.0, 0.0)) -> CoefficientField:
    """(1 + beta |w|) I with w = log(1/|x - x0|), the radial
    log_reciprocal_scalar, and declared so (IsotropicForm): unbounded but
    of bounded mean oscillation.  Its cell means and L^2 error are exact,
    for any x0; quadrature of its values, which only a field without the
    declaration takes, needs x0 at a mesh vertex, so that nodes, strictly
    interior, never hit the singularity."""
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    w = log_reciprocal_scalar(x0)

    def evaluate(points):
        s = 1.0 + beta * np.abs(w.evaluate(points))
        return _diagonal(s, s)

    return CoefficientField(evaluate, 1.0, "log-singular", isotropic=IsotropicForm(beta, w))


def checkerboard_coefficient(kappa: float) -> CoefficientField:
    """Four-quadrant pattern: kappa I on the lower-left and upper-right
    quadrants, I elsewhere.  Coercivity constant min(1, kappa); the jump
    lines x = 1/2 and y = 1/2 are its breaklines, constant between them."""
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")

    def evaluate(points):
        right = points[:, 0] >= 0.5
        top = points[:, 1] >= 0.5
        s = np.where(right ^ top, 1.0, kappa)
        return _diagonal(s, s)

    return CoefficientField(evaluate, min(1.0, kappa), "checkerboard", ((0.5,), (0.5,)), 0)


def _interval_finder(g: np.ndarray):
    """Interval search on the sorted abscissae g, which span [0, 1].

    Returns locate(t) -> (i, frac) with g[i] <= t < g[i + 1], the last
    interval closed, and frac = (t - g[i]) / (g[i + 1] - g[i]), as scipy's
    RegularGridInterpolator computes them.  The uniform spacing 1/n gives
    the guess floor(n t), which vectorised passes of one interval each then
    correct exactly against g: one or two passes for a uniform grid, as
    many as the guess is off for any other.
    """
    n = g.size - 1
    lower, width = g[:-1], np.diff(g)
    upper = np.append(g[1:-1], np.inf)  # closes the last interval

    def locate(t):
        i = np.minimum((t * n).astype(np.intp), n - 1)
        while (up := t >= upper.take(i)).any():
            i += up
        while (down := t < (lo := lower.take(i))).any():
            i -= down
        return i, (t - lo) / width.take(i)

    return locate


def load_sampled_coefficient(path) -> CoefficientField:
    """Read a grid-sampled coefficient from CSV.

    Format: a comment line `# alpha=<value>`, a header `x,y,a11,a12,a22`,
    then one row per sample on a rectilinear grid (any sorted abscissae
    times any sorted ordinates) covering the unit square, row-major; every
    grid point appears exactly once, else InvariantError names the first
    one missing or repeated.  alpha must be finite, positive and at most the
    smallest eigenvalue over the finite samples, else InvariantError names
    the sample that attains that minimum.
    Evaluation interpolates bilinearly between samples, so the interior
    sample lines are the field's breaklines, and between them every entry
    is a polynomial of degree 2.

    The kernel is bit-identical to scipy's RegularGridInterpolator: per
    axis an exact interval search (_interval_finder) and the weight
    t = (x - g[i]) / (g[i + 1] - g[i]), then per entry the corner samples,
    taken from one contiguous plane, summed in scipy's order
    0 + v00 (sy sx) + v01 (sy tx) + v10 (ty sx) + v11 (ty tx), s = 1 - t.
    A point outside the unit square raises ValueError naming it.
    """
    alpha = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header_seen = False
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    body = line[1:].strip()
                    if body.startswith("alpha="):
                        alpha = float(body.split("=", 1)[1])
                elif not header_seen:
                    if [c.strip() for c in line.split(",")] != ["x", "y", "a11", "a12", "a22"]:
                        raise InvariantError(f"bad sampled-coefficient header: {line!r}")
                    header_seen = True
                else:
                    x, y, a11, a12, a22 = map(float, line.split(","))
                    rows.append((x, y, a11, a12, a22))
            except ValueError:
                raise InvariantError(
                    f"sampled coefficient line {lineno}: expected a number for alpha "
                    f"or five numbers in a row, got {line!r}"
                ) from None
    if alpha is None:
        raise InvariantError("sampled coefficient file must declare '# alpha=<value>'")
    if not rows:
        raise InvariantError("sampled coefficient file has no sample rows")
    data = np.asarray(rows)
    xs, ix = np.unique(data[:, 0], return_inverse=True)
    ys, iy = np.unique(data[:, 1], return_inverse=True)
    # np.unique sorts NaN last, so this also rejects a non-finite coordinate
    if not (xs[0] == 0.0 and xs[-1] == 1.0 and ys[0] == 0.0 and ys[-1] == 1.0):
        raise InvariantError("sample grid must cover the unit square")
    nx = xs.size
    k = iy * nx + ix  # each row's grid point, y-major, x fastest
    counts = np.bincount(k, minlength=nx * ys.size)
    if (counts != 1).any():
        bad = int(np.argmax(counts != 1))
        what = "missing" if counts[bad] == 0 else f"given {counts[bad]} times"
        raise InvariantError(
            f"sampled coefficient rows do not form a full grid: "
            f"point ({xs[bad % nx]}, {ys[bad // nx]}) is {what}"
        )
    # one contiguous (ys.size * xs.size) plane per entry a11, a12, a22
    planes = np.empty((3, k.size))
    planes[:, k] = data[:, 2:].T
    # lambda_min is concave in the matrix and the bilinear weights are
    # convex, so the smallest eigenvalue over the samples bounds the whole
    # field; non-finite samples are left to the quadrature's guard
    finite = np.isfinite(planes).all(axis=0)
    eigs = np.full(k.size, np.inf)
    eigs[finite] = _min_eigenvalues(planes[[0, 1, 1, 2]][:, finite].T.reshape(-1, 2, 2))
    low = int(np.argmin(eigs))
    lam = float(eigs[low])
    if not (np.isfinite(alpha) and 0.0 < alpha <= lam):
        where = (
            f"; the smallest is {lam!r}, at point ({xs[low % nx]}, {ys[low // nx]})"
            if np.isfinite(lam) else ""
        )
        raise InvariantError(
            f"sampled coefficient declares alpha={alpha!r}, but alpha must be finite, "
            f"positive and at most every sample's smallest eigenvalue{where}"
        )
    locate_x, locate_y = _interval_finder(xs), _interval_finder(ys)

    def evaluate(points):
        x, y = points[:, 0], points[:, 1]
        # min and max propagate NaN, which fails the test as scipy's does
        if not (x.min(initial=0.0) >= 0.0 and y.min(initial=0.0) >= 0.0
                and x.max(initial=1.0) <= 1.0 and y.max(initial=1.0) <= 1.0):
            inside = (x >= 0.0) & (x <= 1.0) & (y >= 0.0) & (y <= 1.0)
            p = points[int(np.argmin(inside))]
            raise ValueError(f"point ({p[0]}, {p[1]}) is outside the sample grid [0, 1]^2")
        ix, tx = locate_x(x)
        iy, ty = locate_y(y)
        sx, sy = 1 - tx, 1 - ty
        weights = (sy * sx, sy * tx, ty * sx, ty * tx)
        k00 = iy * nx + ix
        corners = (k00, k00 + 1, k00 + nx, k00 + (nx + 1))
        out = np.empty((points.shape[0], 2, 2))
        for plane, (r, c) in zip(planes, ((0, 0), (0, 1), (1, 1))):
            acc = 0.0 + plane.take(k00) * weights[0]
            for k, w in zip(corners[1:], weights[1:]):
                acc += plane.take(k) * w
            out[:, r, c] = acc
        out[:, 1, 0] = out[:, 0, 1]
        return out

    breaks = (tuple(xs[1:-1].tolist()), tuple(ys[1:-1].tolist()))
    return CoefficientField(evaluate, alpha, "sampled-grid", breaks, degree=2)


def log_reciprocal_scalar(x0=(0.0, 0.0)) -> ScalarField:
    """log(1/|x - x0|): the classical unbounded BMO function, declared
    radial about x0: int_0^r (-log s - c) s ds = r^2 (1 - 2c - 2 log r) / 4,
    -log r = c at r = e^(-c), and
    int_0^r (log s)^2 s ds = r^2 ((log r - 1/2)^2 + 1/4) / 2."""
    x0 = np.asarray(x0, dtype=float)

    def evaluate(points):
        # -log sqrt(dx^2 + dy^2), in place; np.hypot costs several times more
        out = points[:, 0] - x0[0]
        out *= out
        dy = points[:, 1] - x0[1]
        dy *= dy
        out += dy
        np.sqrt(out, out=out)
        np.log(out, out=out)
        return np.negative(out, out=out)

    def antiderivative(r, c):
        # r^2 (1 - 2c - 2 log r) / 4, in place
        out = np.log(r)
        out += c
        out *= -2.0
        out += 1.0
        out *= r
        out *= r
        out *= 0.25
        return out

    def square_antiderivative(r):
        # r^2 ((log r - 1/2)^2 + 1/4) / 2, in place
        out = np.log(r)
        out -= 0.5
        out *= out
        out += 0.25
        out *= r
        out *= r
        out *= 0.5
        return out

    def line_integral(d, a, t, c):
        # P(r, c) d / r^2 = d (1 - 2c - log r^2) / 4, and
        # int_a^b log(d^2 + s^2) ds = [s log(d^2 + s^2)]_a^b - 2t + 2d dphi
        # with dphi = atan2(d t, d^2 + a b), b = a + t.  The bracket is
        # t log rf^2 + n log(rf^2 / rn^2), rf and rn the radii at the ends
        # farther from and nearer to the foot, n the nearer end's position
        # (a, or -b when b is the nearer end); the log ratio is
        # log1p(|t (a + b)| / rn^2), with no cancellation for a short far
        # piece.  Squared radii are held above 1e-300, which changes only
        # pieces within 1e-150 of x0, whose integrals are below 1e-300.
        b = a + t
        a2, b2 = a * a, b * b
        d2 = d * d
        near = np.where(b2 >= a2, a, -b)
        rf2 = np.maximum(a2, b2)
        rf2 += d2
        rn2 = np.minimum(a2, b2, out=a2)
        rn2 += d2
        ratio = a + b
        ratio *= t
        np.abs(ratio, out=ratio)
        ratio /= np.maximum(rn2, 1e-300, out=rn2)
        np.log1p(ratio, out=ratio)
        ratio *= near
        out = np.log(np.maximum(rf2, 1e-300, out=rf2))
        out += 2.0 * c
        np.subtract(3.0, out, out=out)
        out *= t
        out -= ratio
        swept = np.arctan2(d * t, d2 + a * b)
        swept *= 2.0 * d
        out -= swept
        out *= 0.25 * d
        return out

    radial = RadialProfile(
        (float(x0[0]), float(x0[1])),
        antiderivative,
        lambda c: np.exp(-c),
        square_antiderivative,
        line_integral,
    )
    return ScalarField(evaluate, name="log-reciprocal", radial=radial)


def coefficient_entry(A: CoefficientField, i: int = 0, j: int = 0) -> ScalarField:
    """One matrix entry of a coefficient field, as a diagnostic scalar."""

    def evaluate(points):
        return A.evaluate(points)[:, i, j]

    return ScalarField(evaluate, name=f"{A.kind}[{i}{j}]")


# ---------------------------------------------------------------------------
# projection


def _validate_rel_tol(rel_tol):
    lo, hi = PROJECTION_TOL_RANGE
    if not (lo <= rel_tol <= hi):
        raise ValueError(f"rel_tol must be in [{lo}, {hi}], got {rel_tol}")


def _clip(poly, s):
    """One Sutherland-Hodgman step: clip convex polygons poly (P, M, 2) to
    where s >= 0, s (P, M) the signed distances of their vertices from one
    line.  Returns the polygons, padded to a common width, and their vertex
    counts (P,).
    """
    s_next = np.roll(s, -1, axis=1)
    keep = s >= 0
    cross = ((s > 0) & (s_next < 0)) | ((s < 0) & (s_next > 0))
    t = np.divide(s, s - s_next, out=np.zeros_like(s), where=cross)
    hit = poly + t[..., None] * (np.roll(poly, -1, axis=1) - poly)
    # vertex k, then the crossing on the edge leaving it
    width = 2 * poly.shape[1]
    mask = np.stack([keep, cross], axis=2).reshape(len(poly), width)
    count = mask.sum(axis=1)
    order = np.argsort(~mask, axis=1, kind="stable")[:, : count.max(initial=0)]
    cand = np.stack([poly, hit], axis=2).reshape(len(poly), width, 2)
    return np.take_along_axis(cand, order[..., None], axis=1), count


def _grid_pieces(level, breaks):
    """Cut the cells of the level-`level` mesh along axis-parallel breaklines.

    breaks = (xs, ys) are strictly increasing breakline coordinates in
    (0, 1).  With n = 2^level, a breakline at t / n passes strictly inside
    grid column (or row) floor(t) when t is no integer, and then cuts both
    cells of every square there.  In square-local units (u, v) in [0, 1]^2
    such a square splits into the rectangles between its breaklines; each
    is clipped once to the cell's side of the diagonal (the lower cell
    u >= v, the upper v >= u), and the convex polygon left, of at most 5
    vertices, is fan-triangulated.  Local crossing points and areas are
    accurate to a few ulps of the square, and the power-of-two scale 1 / n
    maps them back.

    Returns (pieces (K, 3, 2), parent (K,), areas (K,)), ordered by parent:
    the pieces of the cut cells only, each inside one rectangle, every
    area > 0.

    A rectangle corner within _SNAP_TOL of the diagonal (|u - v| <= _SNAP_TOL)
    is moved onto it.  Such a corner lies on the diagonal but for rounding
    of the breaklines (0.3 and 0.55 give u = v = 1/5 at level 2, but not
    bit for bit); left where it is, the clip cuts it off as slivers of
    area down to 1e-33, each costing a full quadrature.  Dropping the
    slivers instead would lose up to 7e-15 of a cell's area at level 7.
    """
    n = 2**level
    spans = []
    for b in breaks:
        # grid lines and breaklines in grid units: interval k spans
        # edges[k]..edges[k + 1] inside column floor(edges[k])
        edges = np.union1d(np.arange(n + 1.0), np.asarray(b, dtype=float) * n)
        col = np.floor(edges[:-1])
        count = np.bincount(col.astype(np.intp), minlength=n)
        spans.append((edges[:-1] - col, edges[1:] - col, count, np.cumsum(count) - count))
    (u0, u1, nx, fx), (v0, v1, ny, fy) = spans
    square = np.flatnonzero((ny[:, None] > 1) | (nx > 1))  # j n + i
    rects = np.repeat(nx[square % n] * ny[square // n], 2)  # per cut cell
    # one (cell, rectangle) pair per entry, rectangle k of the cell's square
    cell = np.repeat((2 * square[:, None] + [0, 1]).ravel(), rects)
    k = np.arange(cell.size) - np.repeat(np.cumsum(rects) - rects, rects)
    j, i = np.divmod(cell // 2, n)
    x, y = fx[i] + k % nx[i], fy[j] + k // nx[i]
    us = np.stack([u0[x], u1[x], u1[x], u0[x]], axis=1)
    vs = np.stack([v0[y], v0[y], v1[y], v1[y]], axis=1)
    # a corner that only rounding of the breaklines keeps off the diagonal
    # goes onto it, as does each rectangle that shares it
    vs = np.where(np.abs(us - vs) <= _SNAP_TOL, us, vs)
    side = np.where(cell % 2, -1.0, 1.0)[:, None]
    poly, count = _clip(np.stack([us, vs], axis=2), side * (us - vs))
    fan = np.stack(
        [np.broadcast_to(poly[:, :1], poly[:, 2:].shape), poly[:, 1:-1], poly[:, 2:]], axis=2
    )
    areas = triangle_areas(fan)
    ok = (np.arange(2, poly.shape[1]) < count[:, None]) & (areas > 0)
    pair = np.broadcast_to(np.arange(cell.size)[:, None], ok.shape)[ok]
    corner = np.stack([i, j], axis=1)[pair, None, :]
    return (fan[ok] + corner) / n, cell[pair], areas[ok] / (n * n)


def _exact(degree) -> bool:
    """Whether quadrature.polynomial_means is exact for a field of this
    declared degree on each piece."""
    return degree is not None and degree <= quadrature.POLYNOMIAL_DEGREE


def _integration_triangles(mesh: Mesh, breaks):
    """The triangles that cell means are integrated over: the cells of
    mesh that no breakline of breaks = (xs, ys) cuts, whole, then the
    pieces of the cut ones (_grid_pieces).  Returns (tris (T, 3, 2), ids,
    cut): ids (T,) the cell of each triangle, or None when no cell is cut
    and tris are the cells themselves, and cut = (parent, areas), the cell
    and the area of each piece."""
    verts = mesh.cell_coordinates()
    pieces, parent, areas = _grid_pieces(mesh.level, breaks) if any(breaks) else ((), (), ())
    if len(parent) == 0:
        return verts, None, ((), ())
    uncut = np.ones(mesh.num_cells, dtype=bool)
    uncut[parent] = False
    whole = np.flatnonzero(uncut)
    return np.concatenate([verts[whole], pieces]), np.concatenate([whole, parent]), (parent, areas)


def _cell_aggregate(means: np.ndarray, ids, cut, n: int) -> np.ndarray:
    """The means of n cells from means over their integration triangles
    (_integration_triangles): an uncut cell's own, a cut cell's the
    area-weighted mean of its pieces'."""
    parent, areas = cut
    if len(parent) == 0:
        return means
    whole = ids[: ids.size - parent.size]
    shape = (-1,) + (1,) * (means.ndim - 1)
    sums = np.zeros((n,) + means.shape[1:])
    np.add.at(sums, parent, areas.reshape(shape) * means[whole.size :])
    weights = np.bincount(parent, areas, minlength=n)
    sums[whole] = means[: whole.size]
    weights[whole] = 1.0
    return sums / weights.reshape(shape)


def cell_means(
    f,
    mesh: Mesh,
    rel_tol: float,
    floor: float = 0.0,
    breaks=((), ()),
    degree=None,
    trigonometric: TrigonometricForm | None = None,
) -> np.ndarray:
    """Mean of f over each cell of mesh, to relative tolerance rel_tol in
    the Euclidean norm over the value axes, with tolerance floor `floor`.

    f(points (N, 2), cells (N,)) returns scalar, vector or matrix values;
    cells holds the cell of each point.  When f declares itself
    trigonometric (trigonometric, a TrigonometricForm), the means are
    exact up to rounding, by quadrature._trigonometric_cell_means, and f is
    not evaluated.  Otherwise a cell that a breakline of
    breaks = (xs, ys) cuts is integrated piece by piece (f is smooth on
    each piece), and its mean is the area-weighted mean of its pieces.  The
    uncut cells and all pieces go to quadrature as one batch: to
    quadrature.polynomial_means, which is exact, when f declares a
    polynomial degree of at most quadrature.POLYNOMIAL_DEGREE on each piece,
    and to quadrature.triangle_means, by its refinement rule, otherwise.
    rel_tol is validated in every case.  Raises SingularityError for
    non-finite evaluations and QuadratureError if refinement stalls.
    """
    _validate_rel_tol(rel_tol)
    if trigonometric is not None:
        means = quadrature._trigonometric_cell_means(trigonometric.terms, mesh.level)
        return means.reshape((-1,) + tuple(trigonometric.shape))
    tris, ids, cut = _integration_triangles(mesh, breaks)
    if _exact(degree):
        means = quadrature.polynomial_means(f, tris, ids)
    else:
        means = quadrature.triangle_means(f, tris, rel_tol, cell_ids=ids, abs_floor=floor)
    return _cell_aggregate(means, ids, cut, mesh.num_cells)


def project_coefficient(
    A: CoefficientField, mesh: Mesh, rel_tol: float = DEFAULT_PROJECTION_TOL
) -> PiecewiseConstantMatrixField:
    """Cell averages of A (cell_means along A's breaklines, of A's declared
    degree or trigonometric form), each to relative tolerance rel_tol in
    the Frobenius norm of the cell's matrix, symmetrised.  A field that
    declares itself (1 + beta |w|) I gets diag(1 + beta m_K), m_K the exact
    mean of |w| on cell K (_isotropic_projection), and a trigonometric
    field its exact means; rel_tol is then only validated."""
    if A.isotropic is not None:
        return _isotropic_projection(A.isotropic, mesh, rel_tol)[0]
    means = cell_means(
        lambda pts, ids: A.evaluate(pts),
        mesh,
        rel_tol,
        breaks=A.breaks,
        degree=A.degree,
        trigonometric=A.trigonometric,
    )
    return _symmetrised(mesh, means)


def _symmetrised(mesh: Mesh, means: np.ndarray) -> PiecewiseConstantMatrixField:
    """The cell field 0.5 (M + M^T), made in place in means: its diagonal
    is M's own, bit for bit."""
    off = means[:, 0, 1] + means[:, 1, 0]
    off *= 0.5
    means[:, 0, 1] = off
    means[:, 1, 0] = off
    return PiecewiseConstantMatrixField(mesh=mesh, values=means)


def _projection_with_abs_means(A: CoefficientField, mesh: Mesh, rel_tol=DEFAULT_PROJECTION_TOL):
    """project_coefficient(A, mesh, rel_tol), its coefficient_error at
    r = 2, and for a field that declares itself (1 + beta |w|) I the cell
    means of |w| that both read in one pass, the values of
    cell_abs_means(A.isotropic.w, mesh); None for any other field.

    Every declared field is read once.  A trigonometric field's raw cell
    means are also the M_K of its misfit (_trigonometric_misfit_means).  A
    field of declared degree at most 2 is evaluated once at the 6 nodes of
    each integration triangle (_polynomial_l2_pass), whose means give A_h
    and whose spreads, with the means, its L^2 error.  Any other field
    takes the two calls."""
    if A.isotropic is not None:
        A_h, abs_integrals = _isotropic_projection(A.isotropic, mesh, rel_tol)
        err = _isotropic_l2_error(A.isotropic, A_h, abs_integrals)
        abs_integrals /= 0.5 / 4**mesh.level  # every cell's area: now the means
        return A_h, err, abs_integrals
    if A.trigonometric is not None:
        _validate_rel_tol(rel_tol)
        raw = quadrature._trigonometric_cell_means(A.trigonometric.terms, mesh.level)
        A_h = _symmetrised(mesh, raw.reshape(-1, 2, 2).copy())
        means = _trigonometric_misfit_means(A.trigonometric, A_h, raw)
    elif _l2_exact(A.degree):
        _validate_rel_tol(rel_tol)
        moments, ids, cut = _polynomial_l2_pass(A.evaluate, mesh, A.breaks)
        # a copy: with no cut cell the aggregate is the moments' own means
        values = np.array(_cell_aggregate(moments[0], ids, cut, mesh.num_cells))
        A_h = _symmetrised(mesh, values)
        means = _moment_misfit_means(moments, A_h, ids, cut)
    else:
        A_h = project_coefficient(A, mesh, rel_tol)
        return A_h, coefficient_error(A, A_h, 2.0), None
    return A_h, _misfit_norm(means, mesh.level, 2.0), None


def _isotropic_projection(form: IsotropicForm, mesh: Mesh, rel_tol: float):
    """(diag(1 + beta m_K), the cell integrals |K| m_K of |w|) for a field
    (1 + beta |w|) I, m_K by the polar cell rule (_radial_means); rel_tol
    is only validated."""
    _validate_rel_tol(rel_tol)
    abs_integrals = _radial_means(form.w, mesh, 1.0, 0.0)
    s = abs_integrals / (0.5 / 4**mesh.level)  # every cell's area
    s *= form.beta
    s += 1.0
    return PiecewiseConstantMatrixField(mesh=mesh, values=_diagonal(s, s)), abs_integrals


def _min_eigenvalues(values: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetric matrix [[a, b], [b, c]].

    The entries are first scaled by the power of two that brings the
    largest into [1/2, 1), exactly, so that no product overflows.  With
    half = (a + c)/2 and rad = hypot((a - c)/2, b), the eigenvalues are
    half -+ rad: for half < 0 the smaller is half - rad, with no
    cancellation, and otherwise it is det / (half + rad), which keeps the
    relative accuracy of a small eigenvalue beside a large one.  The zero
    matrix gives 0.  Every step after the scaling writes into an array it
    owns, so the pass holds about five value columns at once."""
    a, b, c = values[:, 0, 0], values[:, 0, 1], values[:, 1, 1]
    top = np.abs(a)
    np.maximum(top, np.abs(b), out=top)
    np.maximum(top, np.abs(c), out=top)
    exp = np.frexp(top)[1]
    del top
    np.negative(exp, out=exp)
    a, b, c = (np.ldexp(v, exp) for v in (a, b, c))
    np.negative(exp, out=exp)
    half = a + c
    half *= 0.5
    rad = np.subtract(a, c)
    rad *= 0.5
    np.hypot(rad, b, out=rad)
    det = np.multiply(a, c, out=a)
    det -= np.multiply(b, b, out=b)
    del b
    out = np.subtract(half, rad, out=c)
    big = np.add(half, rad, out=rad)
    where = half >= 0
    where &= big > 0
    np.divide(det, big, out=out, where=where)
    return np.ldexp(out, exp, out=out)


def coercivity_of_projection(A_h: PiecewiseConstantMatrixField) -> float:
    """Smallest eigenvalue over all cells; the projected field inherits the
    coercivity constant of the original field."""
    v = A_h.values
    if not np.array_equal(v[:, 0, 1], v[:, 1, 0]):
        bad = int(np.argmax(v[:, 0, 1] != v[:, 1, 0]))
        raise InvariantError(f"cell {bad} carries a non-symmetric matrix")
    return float(np.min(_min_eigenvalues(v)))


def lp_misfit(
    f, field, p: float, rel_tol: float, breaks=((), ()), degree=None, trigonometric=None
) -> float:
    """||f - c||_{L^p} for a callable field f against a cell field c.

    f(points (N, 2)) returns scalar, vector or matrix values, and
    field.values holds one value of the same shape per cell of field.mesh;
    the pointwise norm is Euclidean over the value axes.  The misfit sums
    the cell means of |f - c|^p.  At p = 2, for an f declared
    trigonometric (trigonometric, a TrigonometricForm equal to f), they are
    exact (_trigonometric_misfit_means), with rel_tol only validated and f
    not evaluated.  Otherwise they are taken along the breaklines
    breaks = (xs, ys) of f.  When f declares a polynomial degree between
    them, |f - c|^p is a polynomial of degree 0 if that degree is 0, and
    of degree p * degree if p is an even integer; the 6-point rule
    integrates it exactly when that is at most
    quadrature.POLYNOMIAL_DEGREE.  At p = 2 the means then come from f's
    moments on each integration triangle (_polynomial_l2_pass,
    _moment_misfit_means), one evaluation per node whatever c, and at
    other p from cell_means of |f - c|^p.  Otherwise the means are
    refined with a floor at their global scale, so cells where f is nearly
    constant do not force needless refinement.
    """
    if trigonometric is not None and p == 2.0:
        _validate_rel_tol(rel_tol)
        means = _trigonometric_misfit_means(trigonometric, field)
    elif p == 2.0 and _l2_exact(degree):
        _validate_rel_tol(rel_tol)
        moments, ids, cut = _polynomial_l2_pass(f, field.mesh, breaks)
        means = _moment_misfit_means(moments, field, ids, cut)
    else:
        consts = field.values
        power = None  # the degree of |f - c|^p, if it is a polynomial
        if degree == 0:
            power = 0
        elif degree is not None and p % 2 == 0:
            power = p * degree

        def integrand(pts, ids):
            d = np.asarray(f(pts), dtype=float) - np.take(consts, ids, axis=0)
            return quadrature._flat_norm(d) ** p

        floor = 0.0
        if not _exact(power):
            floor = quadrature.global_scale_floor(integrand, field.mesh.cell_coordinates())
        means = cell_means(integrand, field.mesh, rel_tol, floor, breaks, power)
    return _misfit_norm(means, field.mesh.level, p)


def _misfit_norm(means: np.ndarray, level: int, p: float) -> float:
    """(sum_K |K| m_K)^(1/p) for the cell means m_K of |f - c|^p on the
    level-`level` mesh."""
    area = 0.5 / 4**level  # every cell's
    return float(np.sum(area * means) ** (1.0 / p))


def _l2_exact(degree) -> bool:
    """Whether the 6-point rule is exact for |f - c|^2, of degree 2 degree
    for a field f of this declared degree between its breaklines."""
    return degree is not None and _exact(2 * degree)


def _polynomial_l2_pass(f, mesh: Mesh, breaks):
    """One evaluation of f at the 6 nodes of every integration triangle of
    mesh along breaks (_integration_triangles): the triangles' (means,
    spreads) by quadrature._polynomial_moments, their ids and their cut."""
    tris, ids, cut = _integration_triangles(mesh, breaks)
    return quadrature._polynomial_moments(lambda pts, ids: f(pts), tris, ids), ids, cut


def _moment_misfit_means(moments, field, ids, cut) -> np.ndarray:
    """The cell means of |f - c|^2 against a cell field c from f's means
    M_T and spreads V_T over the integration triangles: on cell K,
    sum_T (|T| / |K|) (V_T + |M_T - c_K|^2), by the law of total variance
    (quadrature._polynomial_moments).  Takes the spreads' buffer."""
    means, out = moments
    for m, c in zip(quadrature._columns(means), quadrature._columns(field.values)):
        d = m - (c if ids is None else c[ids])
        d *= d
        out += d
    return _cell_aggregate(out, ids, cut, field.mesh.num_cells)


def _trigonometric_misfit_means(form: TrigonometricForm, field, means=None) -> np.ndarray:
    """The cell means of |f - c|^2 for a trigonometric f and a cell field
    c, exact up to rounding.  With M_K the cell means of f and Q_K those of
    |f|^2, a trigonometric polynomial too
    (TrigonometricForm.squared_norm), the mean on K is
    Q_K - |M_K|^2 + |c_K - M_K|^2: the identity
    int_K |f - M_K|^2 = int_K |f|^2 - |K| |M_K|^2 plus the misfit of the
    means, for any c.  It is nonnegative, and a value that rounding takes
    below 0 is set to 0.  means, if given, are the M_K
    (quadrature._trigonometric_cell_means of form, one row per cell, in any
    shape), which are then not recomputed."""
    level = field.mesh.level
    if means is None:
        means = quadrature._trigonometric_cell_means(form.terms, level)
    means = means.reshape(means.shape[0], -1)
    out = quadrature._trigonometric_cell_means(form.squared_norm().terms, level)[:, 0]
    for m, c in zip(means.T, quadrature._columns(field.values)):
        out -= m * m
        d = c - m
        out += d * d
    return np.maximum(out, 0.0, out=out)


def coefficient_error(
    A: CoefficientField,
    A_h: PiecewiseConstantMatrixField,
    r: float,
    rel_tol: float = 1e-4,
) -> float:
    """L^r norm of the pointwise Frobenius norm of A - A_h, r in P_RANGE
    = [1.1, 10], integrated along A's breaklines, of A's declared degree
    (lp_misfit).  The L^2 norm of a field that declares itself
    (1 + beta |w|) I (_isotropic_l2_error), trigonometric
    (_trigonometric_misfit_means) or of degree at most 2
    (_moment_misfit_means) is exact, with rel_tol only validated."""
    if not (P_RANGE[0] <= r <= P_RANGE[1]):
        raise ValueError(f"r must be in [1.1, 10], got {r}")
    if A.isotropic is not None and r == 2.0:
        _validate_rel_tol(rel_tol)
        return _isotropic_l2_error(A.isotropic, A_h)
    return lp_misfit(A.evaluate, A_h, r, rel_tol, A.breaks, A.degree, A.trigonometric)


def _isotropic_l2_error(
    form: IsotropicForm, A_h: PiecewiseConstantMatrixField, abs_integrals=None
) -> float:
    """||A - A_h||_{L^2} for A = (1 + beta |w|) I, exact up to rounding.

    With D = A_h - I on cell K, |A - A_h|_F^2 = 2 beta^2 w^2
    - 2 beta |w| tr D + |D|_F^2 pointwise, so the squared error is
    2 beta^2 int w^2 - 2 beta sum_K tr D_K int_K |w| + sum_K |K| |D_K|_F^2:
    int w^2 over the unit square from the profile's square_antiderivative,
    and int_K |w| from the cells' polar rule (_radial_means), split at
    r = level_radius(0), unless given.  This is the closed form of
    int_K (|w| - m)^2, expanded in m and summed over the cells."""
    beta, radial = form.beta, form.w.radial
    w2 = quadrature.radial_polygon_integrals(
        lambda r, ids: radial.square_antiderivative(r), radial.centre, _UNIT_SQUARE[None]
    )[0]
    area = 0.5 / 4**A_h.mesh.level  # every cell's
    if abs_integrals is None:
        abs_integrals = _radial_means(form.w, A_h.mesh, 1.0, 0.0)
    a11, a12, a21, a22 = quadrature._columns(A_h.values)
    trace = a11 + a22
    trace -= 2.0
    sq = np.square(a11 - 1.0)
    sq += np.square(a12)
    sq += np.square(a21)
    sq += np.square(a22 - 1.0)
    total = 2.0 * beta * beta * w2 - 2.0 * beta * np.sum(trace * abs_integrals) + area * np.sum(sq)
    return float(np.sqrt(max(total, 0.0)))


# ---------------------------------------------------------------------------
# maximal functions


def _point_in_domain(x):
    x = np.asarray(x, dtype=float)
    if x.shape != (2,) or not (0.0 <= x[0] <= 1.0 and 0.0 <= x[1] <= 1.0):
        raise ValueError(f"point {x} is outside the unit square")
    return x


def cells_containing_points(level: int, points) -> tuple[np.ndarray, np.ndarray]:
    """The closed cells of the level-`level` mesh containing each point.

    Grid square (i, j) holds the lower cell 2 (j 2^level + i) and the upper
    cell after it.  Per axis the squares whose closure holds a coordinate t
    are floor(t 2^level) and ceil(t 2^level) - 1; with local coordinates
    (xi, eta) in [0, 1]^2 the lower cell contains the point when
    xi >= eta and the upper one when eta >= xi, both up to 1e-12.

    Returns (cells, mask), both (P, 8): the lower and upper cell of the four
    candidate squares of each point, and which of them contain it (each
    containing cell once; entries outside the mask are 0, so cells always
    index cell arrays).  cells // 2 is the grid square, which is also the
    dyadic square of generation `level` indexed ix + iy 2^level.
    """
    n = 2**level
    g = np.asarray(points, dtype=float).reshape(-1, 2) * n
    cand = np.stack([np.floor(g), np.ceil(g) - 1], axis=2)  # (P, axis, candidate)
    ok = (cand >= 0) & (cand < n)
    ok[:, :, 1] &= cand[:, :, 1] != cand[:, :, 0]
    i, j = cand[:, 0, :, None], cand[:, 1, None, :]
    xi, eta = g[:, 0, None, None] - i, g[:, 1, None, None] - j
    square_ok = ok[:, 0, :, None] & ok[:, 1, None, :]
    lower = (2 * (j * n + i)).astype(np.intp)
    cells = np.stack([lower, lower + 1], axis=3).reshape(-1, 8)
    mask = np.stack(
        [square_ok & (xi >= eta - 1e-12), square_ok & (eta >= xi - 1e-12)], axis=3
    ).reshape(-1, 8)
    return np.where(mask, cells, 0), mask


def cells_containing(mesh: Mesh, x) -> list[int]:
    """Indices of all (closed) cells of the structured mesh containing x:
    the one-point case of cells_containing_points."""
    cells, mask = cells_containing_points(mesh.level, _point_in_domain(x))
    return sorted(int(c) for c in cells[mask])


def cell_abs_means(w: ScalarField, mesh: Mesh, rel_tol=1e-6) -> np.ndarray:
    """Average of |w| over every cell: exact for a field that declares a
    radial profile (_radial_means, rel_tol only validated), else by
    cell_means to relative tolerance rel_tol with floor 1."""
    if w.radial is not None:
        _validate_rel_tol(rel_tol)
        return _radial_means(w, mesh, 0.5 / 4**mesh.level, 0.0)
    return cell_means(lambda pts, ids: np.abs(w.evaluate(pts)), mesh, rel_tol, floor=1.0)


def _generation_grid(level: int):
    n = 2**level
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    los = np.column_stack([ii.ravel(), jj.ravel()]) * (1.0 / n)
    return los, 1.0 / n


def _radial_square_means(w: ScalarField, los, size, centres=None) -> np.ndarray:
    """_radial_means over the squares with lower corners los (K, 2) and
    sides size (scalar or (K,))."""
    squares = los[:, None, :] + _UNIT_SQUARE * np.reshape(size, (-1, 1, 1))
    return _radial_means(w, squares, np.square(size), centres)


def _radial_means(w: ScalarField, regions, areas, centres=None) -> np.ndarray:
    """Means of w, or with centres c of |w - c|, over regions of the given
    areas, for a field that declares a radial profile: exact, from the
    profile's line integral (quadrature._radial_line_edges).  regions are
    polygons (K, M, 2), with centres None, one value per polygon or one for
    all; or a Mesh, whose cells _radial_cell_integrals takes, with centres
    None or one value for all.

    With rho = level_radius(c), int_0^r |v - c| s ds is sigma P(r, c) up to
    rho and sigma (2 P(rho, c) - P(r, c)) beyond it, sigma the sign of
    P(rho, c); the kernel cuts each edge where it crosses rho."""
    radial = w.radial
    if centres is None:
        level = (0.0, None, None)
    else:
        rho = radial.level_radius(centres)
        level = (centres, rho, 2.0 * radial.antiderivative(rho, centres))
    if isinstance(regions, Mesh):
        integrals = _radial_cell_integrals(radial.line_integral, radial.centre, regions, *level)
    else:
        integrals = quadrature._radial_line_polygons(
            radial.line_integral, radial.centre, regions, *level
        )
    return integrals / areas


def _radial_cell_integrals(line, centre, mesh: Mesh, c=0.0, kinks=None, tops=None) -> np.ndarray:
    """quadrature._radial_line_polygons over the cells of mesh, with each
    grid edge integrated once by quadrature._radial_line_edges; c, kinks
    and tops are therefore one value for every cell (kinks and tops None
    for the integrals of w).

    Grid square (i, j) holds the lower cell (ll, lr, ur) and the upper
    cell (ll, ur, ul) after it, both counterclockwise.  With X, Y and D the
    quadrature._radial_line_edges of the horizontal edges
    (i, j) -> (i + 1, j), the vertical ones (i, j) -> (i, j + 1) and the
    diagonals (i, j) -> (i + 1, j + 1), the lower cell's integral is
    X[j, i] + Y[j, i + 1] - D[j, i] and the upper cell's
    D[j, i] - X[j + 1, i] - Y[j, i]."""
    g = mesh.grid  # g[j, i] is vertex (i, j)
    n = g.shape[0] - 1

    def edges(p, q):
        return quadrature._radial_line_edges(line, centre, p, q, c, kinks, tops)

    x = edges(g[:, :-1], g[:, 1:])
    y = edges(g[:-1], g[1:])
    d = edges(g[:-1, :-1], g[1:, 1:])
    out = np.empty((n, n, 2))
    lower, upper = out[..., 0], out[..., 1]
    np.add(x[:-1], y[:, 1:], out=lower)
    lower -= d
    np.subtract(d, x[1:], out=upper)
    upper -= y[:, :-1]
    return out.reshape(-1)


def generation_oscillation_means(w: ScalarField, level: int, tol=DEFAULT_OSC_TOL):
    """For every generation-`level` dyadic square Q: (average of w on Q,
    average of |w - w_Q| on Q), by per-square quadrature.  The reference
    that dyadic_oscillations is tested against."""
    los, size = _generation_grid(level)
    means = quadrature.square_means_batch(lambda p, i: w.evaluate(p), los, size, tol)

    def osc(pts, ids):
        return np.abs(w.evaluate(pts) - means[ids])

    oscs = quadrature.square_means_batch(osc, los, size, tol)
    return means, oscs


def dyadic_oscillations(w: ScalarField, depth: int, tol=DEFAULT_OSC_TOL):
    """For every dyadic generation j = 0..depth: the averages of w on each
    generation-j square Q, the averages of |w - w_Q| on Q (both indexed
    ix + iy * 2^j), and the number of generation-j squares the pyramid
    handed to the per-square rule (both passes together).

    A field that declares a radial profile takes the exact polar rule
    (_radial_square_means) instead of the pyramid, for all generations in
    one batch: tol is not used and no square falls back."""
    if w.radial is None:
        means, fb_means = quadrature.dyadic_means(w.evaluate, depth, tol)
        oscs, fb_oscs = quadrature.dyadic_means(w.evaluate, depth, tol, centres=means)
        return means, oscs, [a + b for a, b in zip(fb_means, fb_oscs)]
    if not (0 <= depth <= MAX_BMO_DEPTH):
        raise ValueError(f"depth must be in [0, {MAX_BMO_DEPTH}], got {depth}")
    grids = [_generation_grid(j) for j in range(depth + 1)]
    los = np.concatenate([lo for lo, _ in grids])
    sizes = np.concatenate([np.full(lo.shape[0], size) for lo, size in grids])
    means = _radial_square_means(w, los, sizes)
    oscs = _radial_square_means(w, los, sizes, means)
    splits = np.cumsum([4**j for j in range(depth)])
    return np.split(means, splits), np.split(oscs, splits), [0] * (depth + 1)


def generation_abs_means(w: ScalarField, level: int, tol=DEFAULT_SQUARE_TOL) -> np.ndarray:
    """Average of |w| over every generation-`level` dyadic square, indexed
    ix + iy * 2^level: exact for a field that declares a radial profile
    (_radial_square_means, tol not used), else by square_means_batch."""
    los, size = _generation_grid(level)
    if w.radial is not None:
        return _radial_square_means(w, los, size, 0.0)
    return quadrature.square_means_batch(
        lambda p, i: np.abs(w.evaluate(p)), los, size, tol
    )


def abs_means_pyramid(w: ScalarField, level: int, tol=DEFAULT_SQUARE_TOL) -> list[np.ndarray]:
    """Averages of |w| over the dyadic squares of generations 0..level,
    listed by generation: square quadrature on generation `level`
    (generation_abs_means), then each coarser square as the exact mean of
    its four children."""
    return _coarser_generations(generation_abs_means(w, level, tol))


def _coarser_generations(means: np.ndarray) -> list[np.ndarray]:
    """From the means over every generation-j dyadic square, indexed
    ix + iy * 2^j, the means over the squares of generations 0..j, listed
    by generation: each coarser square's is the mean of its four
    children's."""
    out = [means]
    while out[0].size > 1:
        half = math.isqrt(out[0].size) // 2
        children = out[0].reshape(half, 2, half, 2)
        out.insert(0, children.mean(axis=(1, 3)).ravel())
    return out


def bmo_seminorm_estimate(w: ScalarField, depth: int, tol=DEFAULT_OSC_TOL) -> float:
    """Max mean oscillation over all dyadic squares of generations
    0..depth; a lower bound for the BMO seminorm, nondecreasing in depth."""
    if not (1 <= depth <= MAX_BMO_DEPTH):
        raise ValueError(f"depth must be in [1, {MAX_BMO_DEPTH}], got {depth}")
    _, oscs, _ = dyadic_oscillations(w, depth, tol)
    return max(float(o.max()) for o in oscs)


def john_nirenberg_check(
    w: ScalarField, square: DyadicSquare, lambdas, depth: int
) -> list[tuple[float, float]]:
    """Fraction of the square where |w - w_Q| exceeds each lambda.

    Exact for a field that declares a radial profile, w = v(r) about its
    centre with v strictly monotone: with w_Q from _radial_square_means
    and r1, r2 = level_radius(w_Q + lambda), level_radius(w_Q - lambda),
    the set is {r < min(r1, r2)} joined with {r > max(r1, r2)}, so the fraction
    is (|Q cap B_min| + |Q| - |Q cap B_max|) / |Q| (_disc_square_areas),
    clipped to [0, 1]; depth is then only validated.

    Otherwise estimated by sampling w at the centers of a
    2^depth x 2^depth grid on the square, in row strips of at most
    quadrature.STRIP_POINTS = _CHUNK points, so that a strip of the
    depth-12 grid holds four rows, around w_Q by square_means_batch.
    Non-finite samples are skipped; more than 0.1% skipped is an error.
    Either way the result is monotone nonincreasing in lambda.  Raises
    ValueError for a depth outside [1, 12] or a lambda that is not
    positive and finite.
    """
    if not (1 <= depth <= 12):
        raise ValueError(f"depth must be in [1, 12], got {depth}")
    lambdas = [float(lam) for lam in lambdas]
    if not all(0.0 < lam < math.inf for lam in lambdas):
        raise ValueError(f"lambdas must be positive and finite, got {lambdas}")
    if w.radial is not None:
        radial = w.radial
        w_q = _radial_square_means(w, square.lo[None], square.size)[0]
        lams = np.array(lambdas)
        radii = np.sort([radial.level_radius(w_q + lams), radial.level_radius(w_q - lams)], axis=0)
        inside = _disc_square_areas(radial.centre, square.lo, square.size, radii)
        area = square.size**2
        fractions = np.clip((inside[0] + (area - inside[1])) / area, 0.0, 1.0)
        return [(lam, float(f)) for lam, f in zip(lambdas, fractions)]
    w_q = quadrature.square_means_batch(
        lambda p, i: w.evaluate(p), [square.lo], square.size, DEFAULT_SQUARE_TOL
    )[0]
    exceed = [0] * len(lambdas)
    finite_count = 0
    for _, _, vals in quadrature._ladder_strips(w.evaluate, depth, square.lo, square.size):
        dev = np.abs(vals[np.isfinite(vals)] - w_q)
        finite_count += dev.size
        for i, lam in enumerate(lambdas):
            exceed[i] += int(np.count_nonzero(dev > lam))
    total = 4**depth
    skipped = total - finite_count
    if skipped > 1e-3 * total:
        raise SingularityError(
            f"{skipped} of {total} sample points were non-finite", point=None
        )
    return [(lam, c / finite_count) for lam, c in zip(lambdas, exceed)]


def _disc_square_areas(centre, lo, size, r) -> np.ndarray:
    """Areas of the square [lo, lo + size]^2 inside the discs of radii
    r >= 0 (an array) about centre, which may lie anywhere.  A disc that
    misses or covers the square gives exactly 0 or size^2; one that cuts
    it, the signed sum of the four rectangles between centre and the
    square's corners.  The rectangle [0, a] x [0, b] meets the quarter
    disc in area a b when a <= x0 = sqrt(r^2 - b^2)_+, else
    b x0 + F(a) - F(x0) with F(x) = (x sqrt(r^2 - x^2) + r^2 asin(x / r)) / 2,
    held at F(r) for x > r."""
    r = np.asarray(r, dtype=float)
    u = np.array([lo[0] + size, lo[0]]) - centre[0]
    v = np.array([lo[1] + size, lo[1]]) - centre[1]
    near = np.hypot(*np.clip(centre, lo, lo + size) - np.asarray(centre))
    far = np.hypot(*np.maximum(np.abs(u), np.abs(v)))
    # the signed sum would leave rounding of the rectangles' size where the
    # disc misses or covers the square, and r^2 may overflow there
    areas = np.where(r <= near, 0.0, size * size)
    cut = (near < r) & (r < far)
    rc = r[cut]
    r2 = rc * rc
    # the rectangle to corner (u[i], v[j]) counts with sign (-1)^(i + j)
    signs = np.outer(np.sign(u) * [1.0, -1.0], np.sign(v) * [1.0, -1.0]).ravel()
    a = np.repeat(np.abs(u), 2)[:, None]
    b = np.tile(np.abs(v), 2)[:, None]
    x0 = np.sqrt(np.maximum(r2 - b * b, 0.0))

    def F(x):
        return 0.5 * (
            x * np.sqrt(np.maximum(r2 - x * x, 0.0)) + r2 * np.arcsin(np.minimum(x / rc, 1.0))
        )

    areas[cut] = signs @ np.where(a <= x0, a * b, b * x0 + F(a) - F(x0))
    return areas
