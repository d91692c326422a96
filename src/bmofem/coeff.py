"""Coefficient fields, piecewise constant projection, and BMO diagnostics.

The maximal functions here are computed over the finite dyadic-square
family of the unit square, not over all cubes; every reported value is a
lower bound for the corresponding supremum, within a fixed constant of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import quadrature
from .errors import InvariantError, SingularityError
from .mesh import Mesh, cell_areas

PROJECTION_TOL_RANGE = (1e-12, 1e-4)
DEFAULT_PROJECTION_TOL = 1e-6
DEFAULT_SQUARE_TOL = 1e-8
DEFAULT_OSC_TOL = 1e-5
MAX_DYADIC_DEPTH = 10
MAX_BMO_DEPTH = 8


@dataclass(frozen=True)
class CoefficientField:
    """Symmetric positive definite matrix field on the unit square.

    evaluate maps points (N, 2) to matrices (N, 2, 2); alpha is the
    declared coercivity constant (a lower bound on the pointwise minimal
    eigenvalue).  No upper eigenvalue bound is assumed anywhere.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    alpha: float
    kind: str
    params: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ScalarField:
    """Scalar field used by the maximal-function diagnostics."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    name: str = ""


@dataclass(frozen=True)
class PiecewiseConstantMatrixField:
    """Cell-wise constant symmetric matrices aligned with a mesh."""

    mesh: Mesh
    values: np.ndarray  # (ncells, 2, 2)


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

    return CoefficientField(evaluate, alpha, "constant", {"matrix": m})


def identity_coefficient() -> CoefficientField:
    return constant_coefficient(np.eye(2))


def smooth_coefficient() -> CoefficientField:
    """diag(2 + sin(pi x), 2 + cos(pi y)); coercivity constant 1."""

    def evaluate(points):
        out = np.zeros((points.shape[0], 2, 2))
        out[:, 0, 0] = 2.0 + np.sin(np.pi * points[:, 0])
        out[:, 1, 1] = 2.0 + np.cos(np.pi * points[:, 1])
        return out

    return CoefficientField(evaluate, 1.0, "smooth", {})


def log_singular_coefficient(beta: float, x0=(0.0, 0.0)) -> CoefficientField:
    """(1 + beta |log |x - x0||) I: unbounded but of bounded mean
    oscillation.  x0 should be a mesh vertex so quadrature nodes, which are
    strictly interior, never hit the singularity."""
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    x0 = np.asarray(x0, dtype=float)

    def evaluate(points):
        r = np.linalg.norm(points - x0, axis=1)
        s = 1.0 + beta * np.abs(np.log(r))
        out = np.zeros((points.shape[0], 2, 2))
        out[:, 0, 0] = s
        out[:, 1, 1] = s
        return out

    return CoefficientField(evaluate, 1.0, "log-singular", {"beta": beta, "x0": tuple(x0)})


def checkerboard_coefficient(kappa: float) -> CoefficientField:
    """Four-quadrant pattern: kappa I on the lower-left and upper-right
    quadrants, I elsewhere.  Coercivity constant min(1, kappa)."""
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")

    def evaluate(points):
        right = points[:, 0] >= 0.5
        top = points[:, 1] >= 0.5
        s = np.where(right ^ top, 1.0, kappa)
        out = np.zeros((points.shape[0], 2, 2))
        out[:, 0, 0] = s
        out[:, 1, 1] = s
        return out

    return CoefficientField(evaluate, min(1.0, kappa), "checkerboard", {"kappa": kappa})


def load_sampled_coefficient(path) -> CoefficientField:
    """Read a grid-sampled coefficient from CSV.

    Format: a comment line `# alpha=<value>`, a header `x,y,a11,a12,a22`,
    then one row per sample on a uniform grid covering the unit square,
    row-major.  Evaluation interpolates bilinearly between samples.
    """
    from scipy.interpolate import RegularGridInterpolator

    alpha = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header_seen = False
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("alpha="):
                    alpha = float(body.split("=", 1)[1])
                continue
            if not header_seen:
                if [c.strip() for c in line.split(",")] != ["x", "y", "a11", "a12", "a22"]:
                    raise InvariantError(f"bad sampled-coefficient header: {line!r}")
                header_seen = True
                continue
            rows.append([float(c) for c in line.split(",")])
    if alpha is None:
        raise InvariantError("sampled coefficient file must declare '# alpha=<value>'")
    data = np.asarray(rows)
    xs = np.unique(data[:, 0])
    ys = np.unique(data[:, 1])
    if data.shape[0] != xs.size * ys.size:
        raise InvariantError("sampled coefficient rows do not form a full grid")
    if not (xs[0] == 0.0 and xs[-1] == 1.0 and ys[0] == 0.0 and ys[-1] == 1.0):
        raise InvariantError("sample grid must cover the unit square")
    order = np.lexsort((data[:, 0], data[:, 1]))  # y-major, x fastest
    grid = data[order][:, 2:].reshape(ys.size, xs.size, 3)
    interp = RegularGridInterpolator((ys, xs), grid, method="linear")

    def evaluate(points):
        v = interp(points[:, ::-1])
        out = np.empty((points.shape[0], 2, 2))
        out[:, 0, 0] = v[:, 0]
        out[:, 0, 1] = v[:, 1]
        out[:, 1, 0] = v[:, 1]
        out[:, 1, 1] = v[:, 2]
        return out

    return CoefficientField(evaluate, alpha, "sampled-grid", {"path": str(path)})


def log_reciprocal_scalar(x0=(0.0, 0.0)) -> ScalarField:
    """log(1/|x - x0|): the classical unbounded BMO function."""
    x0 = np.asarray(x0, dtype=float)

    def evaluate(points):
        return -np.log(np.hypot(points[:, 0] - x0[0], points[:, 1] - x0[1]))

    return ScalarField(evaluate, name="log-reciprocal")


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


def project_coefficient(
    A: CoefficientField, mesh: Mesh, rel_tol: float = DEFAULT_PROJECTION_TOL
) -> PiecewiseConstantMatrixField:
    """Cell averages of A, entrywise to relative tolerance rel_tol.

    Composite midpoint quadrature on uniformly subdivided cells, refined
    until successive levels agree within rel_tol; see the quadrature
    module for the refinement policy.  Raises SingularityError for
    non-finite evaluations and QuadratureError if refinement stalls.
    """
    _validate_rel_tol(rel_tol)
    verts = mesh.cell_coordinates()
    means = quadrature.triangle_means(lambda pts, ids: A.evaluate(pts), verts, rel_tol)
    means = 0.5 * (means + means.transpose(0, 2, 1))
    return PiecewiseConstantMatrixField(mesh=mesh, values=means)


def _min_eigenvalues(values: np.ndarray) -> np.ndarray:
    a = values[:, 0, 0]
    b = values[:, 0, 1]
    c = values[:, 1, 1]
    half = 0.5 * (a + c)
    rad = np.sqrt((0.5 * (a - c)) ** 2 + b**2)
    return half - rad


def coercivity_of_projection(A_h: PiecewiseConstantMatrixField) -> float:
    """Smallest eigenvalue over all cells; the projected field inherits the
    coercivity constant of the original field."""
    v = A_h.values
    if not np.array_equal(v[:, 0, 1], v[:, 1, 0]):
        bad = int(np.argmax(v[:, 0, 1] != v[:, 1, 0]))
        raise InvariantError(f"cell {bad} carries a non-symmetric matrix")
    return float(np.min(_min_eigenvalues(v)))


def coefficient_error(
    A: CoefficientField,
    A_h: PiecewiseConstantMatrixField,
    r: float,
    rel_tol: float = 1e-4,
) -> float:
    """Entrywise-Frobenius L^r norm of A - A_h.

    r must lie in [1.1, 10].  Quadrature tolerance is relative to the
    global error scale, so cells where the projection is nearly exact do
    not force needless refinement.
    """
    if not (1.1 <= r <= 10.0):
        raise ValueError(f"r must be in [1.1, 10], got {r}")
    mesh = A_h.mesh
    verts = mesh.cell_coordinates()
    consts = A_h.values

    def integrand(pts, ids):
        d = A.evaluate(pts) - consts[ids]
        return np.sqrt(np.sum(d * d, axis=(1, 2))) ** r

    floor = quadrature.global_scale_floor(integrand, verts)
    means = quadrature.triangle_means(integrand, verts, rel_tol, abs_floor=floor)
    areas = np.abs(cell_areas(mesh))
    return float(np.sum(areas * means) ** (1.0 / r))


# ---------------------------------------------------------------------------
# maximal functions


def _point_in_domain(x):
    x = np.asarray(x, dtype=float)
    if x.shape != (2,) or not (0.0 <= x[0] <= 1.0 and 0.0 <= x[1] <= 1.0):
        raise ValueError(f"point {x} is outside the unit square")
    return x


def cells_containing(mesh: Mesh, x) -> list[int]:
    """Indices of all (closed) cells containing x, via barycentric tests on
    the grid squares around x."""
    x = _point_in_domain(x)
    n = 2**mesh.level
    h = 1.0 / n
    gx, gy = x / h
    cand_i = {int(math.floor(gx)), int(math.ceil(gx)) - 1}
    cand_j = {int(math.floor(gy)), int(math.ceil(gy)) - 1}
    out = []
    coords = mesh.vertices
    for i in cand_i:
        for j in cand_j:
            if not (0 <= i < n and 0 <= j < n):
                continue
            for cell in (2 * (j * n + i), 2 * (j * n + i) + 1):
                tri = coords[mesh.cells[cell]]
                d = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
                ab = np.linalg.solve(d, x - tri[0])
                if ab[0] >= -1e-12 and ab[1] >= -1e-12 and ab.sum() <= 1 + 1e-12:
                    out.append(cell)
    return sorted(set(out))


def cell_abs_means(w: ScalarField, mesh: Mesh, cells=None, rel_tol=1e-6) -> np.ndarray:
    """Cell averages of |w| over the given cells (all cells by default)."""
    cells = np.arange(mesh.num_cells) if cells is None else np.asarray(cells)
    verts = mesh.cell_coordinates()[cells]
    return quadrature.triangle_means(
        lambda pts, ids: np.abs(w.evaluate(pts)), verts, rel_tol, abs_floor=1.0
    )


def mesh_maximal(w: ScalarField, mesh: Mesh, x, rel_tol=1e-6) -> float:
    """Max over cells containing x of the cell average of |w|."""
    cells = cells_containing(mesh, x)
    if not cells:
        raise ValueError(f"no cell contains {x}")
    return float(np.max(cell_abs_means(w, mesh, cells, rel_tol)))


def dyadic_squares_containing(x, level: int) -> list[DyadicSquare]:
    """All generation-`level` dyadic squares whose closure contains x."""
    x = _point_in_domain(x)
    n = 2**level
    sx = {int(math.floor(x[0] * n)), int(math.ceil(x[0] * n)) - 1}
    sy = {int(math.floor(x[1] * n)), int(math.ceil(x[1] * n)) - 1}
    return [
        DyadicSquare(level, i, j)
        for i in sorted(sx)
        for j in sorted(sy)
        if 0 <= i < n and 0 <= j < n
    ]


def square_average(w: ScalarField, square: DyadicSquare, tol=DEFAULT_SQUARE_TOL) -> float:
    """Average of w over one dyadic square."""
    return quadrature.square_mean(w.evaluate, square.lo, square.size, tol)


def dyadic_maximal(w: ScalarField, depth: int, x, tol=DEFAULT_SQUARE_TOL) -> float:
    """Max over dyadic squares of generations 0..depth containing x of the
    average of |w|.  A computable lower bound for the Hardy-Littlewood
    maximal function."""
    if not (1 <= depth <= MAX_DYADIC_DEPTH):
        raise ValueError(f"depth must be in [1, {MAX_DYADIC_DEPTH}], got {depth}")
    best = -np.inf
    for j in range(depth + 1):
        for sq in dyadic_squares_containing(x, j):
            val = quadrature.square_mean(
                lambda p: np.abs(w.evaluate(p)), sq.lo, sq.size, tol
            )
            best = max(best, val)
    return float(best)


def _generation_grid(level: int):
    n = 2**level
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    los = np.column_stack([ii.ravel(), jj.ravel()]) * (1.0 / n)
    return los, 1.0 / n


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
    handed to the per-square rule (both passes together)."""
    means, fb_means = quadrature.dyadic_means(w.evaluate, depth, tol)

    def oscillation(values, ids, j):
        return np.abs(values - means[j][ids])

    oscs, fb_oscs = quadrature.dyadic_means(w.evaluate, depth, tol, oscillation)
    return means, oscs, [a + b for a, b in zip(fb_means, fb_oscs)]


def generation_abs_means(w: ScalarField, level: int, tol=DEFAULT_SQUARE_TOL) -> np.ndarray:
    """Average of |w| over every generation-`level` dyadic square, indexed
    ix + iy * 2^level."""
    los, size = _generation_grid(level)
    return quadrature.square_means_batch(
        lambda p, i: np.abs(w.evaluate(p)), los, size, tol
    )


def abs_means_pyramid(w: ScalarField, level: int, tol=DEFAULT_SQUARE_TOL) -> list[np.ndarray]:
    """Averages of |w| over the dyadic squares of generations 0..level,
    listed by generation: square quadrature on generation `level`
    (generation_abs_means), then each coarser square as the exact mean of
    its four children."""
    means = [generation_abs_means(w, level, tol)]
    for j in range(level, 0, -1):
        half = 2 ** (j - 1)
        children = means[0].reshape(half, 2, half, 2)
        means.insert(0, children.mean(axis=(1, 3)).ravel())
    return means


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

    Estimated by sampling w at the centers of a 2^depth x 2^depth grid on
    the square, in row strips of at most quadrature.STRIP_POINTS points.
    Non-finite samples are skipped; more than 0.1% skipped is an error.
    The result is monotone nonincreasing in lambda.
    """
    if not (1 <= depth <= 12):
        raise ValueError(f"depth must be in [1, 12], got {depth}")
    lambdas = [float(lam) for lam in lambdas]
    if any(lam <= 0 for lam in lambdas):
        raise ValueError("lambdas must be positive")
    w_q = square_average(w, square)
    n = 2**depth
    t = (np.arange(n) + 0.5) * (square.size / n)
    xs = square.lo[0] + t
    ys = square.lo[1] + t
    rows = max(1, quadrature.STRIP_POINTS // n)
    exceed = [0] * len(lambdas)
    finite_count = 0
    for r0 in range(0, n, rows):
        y = ys[r0 : r0 + rows]
        pts = np.column_stack([np.tile(xs, y.size), np.repeat(y, n)])
        vals = np.asarray(w.evaluate(pts), dtype=float)
        dev = np.abs(vals[np.isfinite(vals)] - w_q)
        finite_count += dev.size
        for i, lam in enumerate(lambdas):
            exceed[i] += int(np.count_nonzero(dev > lam))
    skipped = n * n - finite_count
    if skipped > 1e-3 * n * n:
        raise SingularityError(
            f"{skipped} of {n * n} sample points were non-finite", point=None
        )
    return [(lam, c / finite_count) for lam, c in zip(lambdas, exceed)]
