"""P1 Galerkin discretization: spaces, assembly, solve, and field norms.

The discrete problem is posed on interior-vertex unknowns only
(homogeneous Dirichlet data by elimination).  The right hand side is
projected to cell averages (coeff.cell_means) before assembly, so every
assembled integral is exact: both the coefficient and the test-function
gradients are constant per cell.

On the structured mesh the gradient G is four slice differences on the
vertex grid and assemble_rhs is its exact adjoint.  The stiffness matrix
G^T diag(|K| A_K) G is applied as a stencil on the vertex grid
(StiffnessOperator): each cell's energy splits exactly into weights on
its horizontal, vertical and diagonal edge, so K is a 7-point stencil,
and a 5-point one where every a12 is 0.  CG preconditions it by the
exact identity-coefficient inverse L^-1 (poisson_solve), scaled to
s L^-1 s by s = a^(-1/2) at the vertices, a the local mean of
trace(A_h) / 2, where a spread rule computed from A_h says the scaling
narrows the spectrum (solve_projected).

Functions of cell fields read the mesh from the field:
assemble_rhs(f_h), assemble_stiffness(A_h) and
solve_projected(A_h, f_h, solver_tol), which refuses A_h and f_h on two
different meshes.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dc_field

import numpy as np

from . import quadrature
from .coeff import (
    DEFAULT_PROJECTION_TOL,
    P_RANGE,
    CoefficientField,
    PiecewiseConstantMatrixField,
    TrigonometricForm,
    _min_eigenvalues,
    cell_means,
    project_coefficient,
)
from .errors import (
    AssemblyError,
    InvariantError,
    IterationLimitError,
    NotSPDError,
)
from .mesh import Mesh, cell_areas, interior_vertex_indices

SOLVER_TOL_RANGE = (1e-14, 1e-6)
DEFAULT_SOLVER_TOL = 1e-12
ITERATION_FACTOR = 50
# a bound on the relative rounding error of a spread as _vertex_scaling
# evaluates it (a few ulps): a spread tie in exact arithmetic, as on the
# checkerboard, must not read as a gain
SPREAD_ROUNDING = 64 * np.finfo(float).eps


def _require_p(p: float) -> float:
    if not (P_RANGE[0] <= p <= P_RANGE[1]):
        raise ValueError(f"p must be in [{P_RANGE[0]}, {P_RANGE[1]}], got {p}")
    return float(p)


@dataclass(frozen=True)
class P1Function:
    """Continuous piecewise linear function given by vertex values."""

    mesh: Mesh
    values: np.ndarray
    zero_trace: bool = False

    def __post_init__(self):
        if self.values.shape != (self.mesh.num_vertices,):
            raise InvariantError("vertex value count does not match the mesh")
        U = self.values.reshape(2**self.mesh.level + 1, -1)  # .any(): NaN is nonzero, -0.0 zero
        if self.zero_trace and any(edge.any() for edge in (U[0], U[-1], U[:, 0], U[:, -1])):
            raise InvariantError("zero-trace function with nonzero boundary values")


@dataclass(frozen=True)
class PCVectorField:
    """Cell-wise constant vector field."""

    mesh: Mesh
    values: np.ndarray  # (ncells, 2)

    def __post_init__(self):
        if self.values.shape != (self.mesh.num_cells, 2):
            raise InvariantError("cell value count does not match the mesh")

    def __add__(self, other):
        _same_mesh(self.mesh, other.mesh)
        return PCVectorField(self.mesh, self.values + other.values)

    def __sub__(self, other):
        _same_mesh(self.mesh, other.mesh)
        return PCVectorField(self.mesh, self.values - other.values)

    def __rmul__(self, c):
        return PCVectorField(self.mesh, float(c) * self.values)


@dataclass(frozen=True)
class SPDSystem:
    """Symmetric positive definite system over interior-vertex unknowns;
    matrix is anything that applies by `matrix @ x`."""

    matrix: object
    rhs: np.ndarray


@dataclass(frozen=True)
class StiffnessOperator:
    """x -> K x over interior vertices for a cell-wise constant coefficient,
    as a stencil on the vertex grid.  Refuses a projected coefficient that
    is not coercive.

    A cell's energy |K| <A g, g> is (a11 dx^2 + 2 a12 dx dy + a22 dy^2) / 2
    in the differences dx, dy of its horizontal and vertical edge, and
    2 dx dy = dd^2 - dx^2 - dy^2 with dd the difference along its ll-ur
    diagonal.  So K is the weighted graph Laplacian of the grid edges:
    each horizontal edge weighs half the sum of a11 - a12 over its cells,
    each vertical edge half the sum of a22 - a12, each diagonal half the
    sum of a12.  The weights are built once; the stencil has 7 points, 5
    where every a12 is 0.  A negative a12 gives a negative diagonal weight,
    which the energy allows.

    scaling is the preconditioner's vertex scaling s = a^(-1/2), a the
    mean of trace(A_K) / 2 over the eight cells of the vertex's four grid
    squares, or None where the plain Laplacian inverse should be used
    (see solve_projected)."""

    A_h: PiecewiseConstantMatrixField
    scaling: np.ndarray | None = dc_field(init=False, repr=False, compare=False)
    _weights: tuple = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = self.A_h.values
        lam_min = _min_eigenvalues(values)
        if float(np.min(lam_min)) <= 0.0:
            raise AssemblyError(
                "projected coefficient is not positive definite; assembly refused"
            )
        n = 2**self.A_h.mesh.level
        cells = values.reshape(n, n, 2, 2, 2)  # square row, column, lower/upper
        object.__setattr__(self, "scaling", _vertex_scaling(cells, lam_min))
        del lam_min  # not held beside the weights
        object.__setattr__(self, "_weights", _stencil_weights(cells))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        diag, horizontal, vertical, diagonal = self._weights
        m = diag.shape[0]
        X = np.zeros((m + 2, m + 2))
        X[1:-1, 1:-1] = np.reshape(x, (m, m))
        y = diag * X[1:-1, 1:-1]
        pairs = [
            (horizontal[:, :-1], X[1:-1, :-2]),
            (horizontal[:, 1:], X[1:-1, 2:]),
            (vertical[:-1], X[:-2, 1:-1]),
            (vertical[1:], X[2:, 1:-1]),
        ]
        if diagonal is not None:
            pairs += [(diagonal[:-1, :-1], X[:-2, :-2]), (diagonal[1:, 1:], X[2:, 2:])]
        t = np.empty_like(y)
        for w, neighbour in pairs:
            y -= np.multiply(w, neighbour, out=t)
        return y.ravel()


def _stencil_weights(cells: np.ndarray):
    """(diagonal of K, horizontal, vertical and diagonal edge weights) of
    StiffnessOperator, as (n-1, n-1), (n-1, n), (n, n-1) and (n, n) grids
    over the edges that touch an interior vertex; the diagonal edge
    weights are None where every a12 is 0."""
    a11, a12, a22 = cells[..., 0, 0], cells[..., 0, 1], cells[..., 1, 1]
    full = bool(a12.any())
    ex = a11 - a12 if full else a11
    horizontal = ex[1:, :, 0] + ex[:-1, :, 1]  # lower cell's bottom, upper cell's top
    horizontal *= 0.5
    ey = a22 - a12 if full else a22
    vertical = ey[:, :-1, 0] + ey[:, 1:, 1]  # lower cell's right, upper cell's left
    vertical *= 0.5
    diag = horizontal[:, :-1] + horizontal[:, 1:]
    diag += vertical[:-1]
    diag += vertical[1:]
    diagonal = None
    if full:
        diagonal = a12[..., 0] + a12[..., 1]
        diagonal *= 0.5
        diag += diagonal[:-1, :-1]
        diag += diagonal[1:, 1:]
    return diag, horizontal, vertical, diagonal


def _vertex_scaling(cells: np.ndarray, lam_min: np.ndarray) -> np.ndarray | None:
    """The vertex scaling s = a^(-1/2) of StiffnessOperator, flattened like
    the interior vertices, if the scaled spread is strictly below the plain
    one, else None.

    The plain spread is max_K lambda_max(A_K) / min_K lambda_min(A_K), the
    spread that L^-1 leaves.  The scaled one is the same ratio of
    lambda(A_K) / a_v over the cells K and their interior vertices v, an
    estimate of the spread that s L^-1 s leaves, not a bound."""
    n = cells.shape[0]
    if n < 2:  # no interior vertex
        return None
    lo = lam_min.reshape(n, n, 2)
    trace = cells[..., 0, 0] + cells[..., 1, 1]
    hi = trace - lo
    square = trace[..., 0] + trace[..., 1]
    a = square[:-1, :-1] + square[:-1, 1:]
    a += square[1:, :-1]
    a += square[1:, 1:]
    a *= 1.0 / 16.0  # eight cells, half their traces
    inv = np.reciprocal(a, out=a)
    # per vertex, its six cells: the lower cell of the squares it is the
    # ll, lr or ur corner of, the upper cell of those it is ll, ur or ul of
    corners = [(1, 1, 0), (1, 0, 0), (0, 0, 0), (1, 1, 1), (0, 0, 1), (0, 1, 1)]
    t = np.empty_like(inv)
    top, bottom = 0.0, np.inf
    for r, c, k in corners:
        rows, cols = slice(r, r + n - 1), slice(c, c + n - 1)
        top = max(top, float(np.multiply(hi[rows, cols, k], inv, out=t).max()))
        bottom = min(bottom, float(np.multiply(lo[rows, cols, k], inv, out=t).min()))
    plain = float(hi.max()) / float(lo.min())
    if not top / bottom < plain * (1.0 - SPREAD_ROUNDING):
        return None
    return np.sqrt(inv).ravel()


def _same_mesh(a: Mesh, b: Mesh):
    if a != b:
        raise InvariantError("fields live on different meshes")


def p1_zero_trace(mesh: Mesh, interior_values: np.ndarray) -> P1Function:
    """Zero-trace P1 function from its interior vertex values."""
    n = 2**mesh.level
    values = np.zeros((n + 1, n + 1))
    values[1:-1, 1:-1] = np.reshape(interior_values, (n - 1, n - 1))
    return P1Function(mesh, values.ravel(), zero_trace=True)


def interpolate_p1(mesh: Mesh, func, zero_trace: bool = False) -> P1Function:
    """Vertex interpolant of func(points (N,2)) -> (N,)."""
    values = np.asarray(func(mesh.vertices), dtype=float)
    if zero_trace:
        values = values.copy()
        values[mesh.boundary_vertex_flags] = 0.0
    return P1Function(mesh, values, zero_trace=zero_trace)


def hat_gradients(mesh: Mesh):
    """Gradients of the three local hat functions per cell, (m, 3, 2), and
    the cell areas: the reference for assemble_stiffness and the tests."""
    coords = mesh.cell_coordinates()
    edges = coords[:, [2, 0, 1]] - coords[:, [1, 2, 0]]  # opposite each vertex
    areas = cell_areas(mesh)
    # grad of the hat that is 1 at vertex a: its opposite edge rotated
    return edges[:, :, ::-1] * np.array([-1.0, 1.0]) / (2.0 * areas[:, None, None]), areas


def gradient(u: P1Function) -> PCVectorField:
    """Exact cell-wise constant gradient of a P1 function.  On a grid square
    with corner values ll, lr, ul, ur it is n (lr - ll, ur - lr) on the
    lower cell and n (ur - ul, ul - ll) on the upper one."""
    n = 2**u.mesh.level
    U = u.values.reshape(n + 1, n + 1)
    ll, lr, ul, ur = U[:-1, :-1], U[:-1, 1:], U[1:, :-1], U[1:, 1:]
    g = np.empty((n, n, 4))  # per square: lower x, lower y, upper x, upper y
    for k, (a, b) in enumerate(((lr, ll), (ur, lr), (ur, ul), (ul, ll))):
        np.subtract(a, b, out=g[:, :, k])
    g *= n
    return PCVectorField(u.mesh, g.reshape(-1, 2))


def flux(A_h: PiecewiseConstantMatrixField, g: PCVectorField) -> PCVectorField:
    """The cell-wise product A_K g_K."""
    _same_mesh(A_h.mesh, g.mesh)
    return PCVectorField(g.mesh, np.einsum("kij,kj->ki", A_h.values, g.values))


def project_rhs(f, mesh: Mesh, rel_tol: float = 1e-8) -> PCVectorField:
    """Cell averages of a vector-valued function.

    f is a callable (points (N,2)) -> (N,2) or an aligned PCVectorField,
    which is already cell-constant and returned as is.  A callable that
    declares itself trigonometric (a coeff.TrigonometricForm, as every rhs
    fixture does) gets its exact means, with rel_tol only validated;
    any other is refined by cell_means to rel_tol, with a floor at the
    global scale of f (quadrature.global_scale_floor).
    """
    if isinstance(f, PCVectorField):
        _same_mesh(f.mesh, mesh)
        return f
    if isinstance(f, TrigonometricForm):
        return PCVectorField(mesh, cell_means(f, mesh, rel_tol, trigonometric=f))

    def integrand(pts, ids):
        return np.asarray(f(pts), dtype=float)

    floor = quadrature.global_scale_floor(integrand, mesh.cell_coordinates())
    return PCVectorField(mesh, cell_means(integrand, mesh, rel_tol, floor))


def assemble_stiffness(A_h: PiecewiseConstantMatrixField) -> SPDSystem:
    """Stiffness matrix over interior vertices for a cell-wise constant
    coefficient, as a scipy CSR matrix; every entry is an exact integral.

    M[i, j] = sum_K |K| <A_K grad phi_j, grad phi_i>.  Refuses to assemble
    when the projected coefficient is not coercive.  The slow reference for
    StiffnessOperator, which solve_projected uses instead.
    """
    import scipy.sparse as sp

    mesh = A_h.mesh
    StiffnessOperator(A_h)  # the coercivity refusal
    g, areas = hat_gradients(mesh)
    local = np.einsum("k,kai,kij,kbj->kab", areas, g, A_h.values, g)
    local = 0.5 * (local + local.transpose(0, 2, 1))  # exact symmetry
    rows = np.repeat(mesh.cells, 3, axis=1).ravel()
    cols = np.tile(mesh.cells, (1, 3)).ravel()
    shape = (mesh.num_vertices,) * 2
    full = sp.csr_matrix((local.ravel(), (rows, cols)), shape=shape)  # sums duplicates
    interior = interior_vertex_indices(mesh)
    return SPDSystem(matrix=full[interior][:, interior], rhs=np.zeros(interior.size))


def assemble_rhs(f_h: PCVectorField) -> np.ndarray:
    """b[i] = sum_K |K| <f_K, grad phi_i|K>, exactly: the adjoint of
    gradient, scaled by |K| n = 1 / (2n), on the interior vertices of
    f_h's mesh."""
    n = 2**f_h.mesh.level
    v = f_h.values.reshape(n, n, 4)
    lx, ly, ux, uy = v[..., 0], v[..., 1], v[..., 2], v[..., 3]
    b = np.zeros((n + 1, n + 1))
    b[:-1, :-1] -= lx + uy  # ll
    b[:-1, 1:] += lx - ly  # lr
    b[1:, :-1] += uy - ux  # ul
    b[1:, 1:] += ly + ux  # ur
    return b[1:-1, 1:-1].ravel() * (0.5 / n)


def _require_solver_tol(tol: float):
    lo, hi = SOLVER_TOL_RANGE
    if not (lo <= tol <= hi):
        raise ValueError(f"solver tolerance must be in [{lo}, {hi}]")


def _dst1(x: np.ndarray) -> np.ndarray:
    """Unnormalised type-I sine transform along the last axis,
    y_k = sum_j x_j sin(pi j k / (m + 1)), from the FFT of the odd
    extension [0, x, 0, -reversed(x)]."""
    m = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * m + 2,))
    ext[..., 1 : m + 1] = x
    ext[..., m + 2 :] = -x[..., ::-1]
    return -0.5 * np.fft.rfft(ext, axis=-1)[..., 1 : m + 1].imag


def poisson_solve(mesh: Mesh, b: np.ndarray) -> np.ndarray:
    """Exact inverse of the interior identity-coefficient stiffness matrix.

    On the structured family that matrix is the 5-point Laplacian (4 on
    the diagonal, -1 to grid neighbours), which the 2-D type-I sine
    transform diagonalises (Buzbee, Golub and Nielson 1970): with
    S_jk = sin(pi j k / n) and S^2 = (n / 2) I, the solution is
    (2 / n)^2 S [(S B S) / (lambda_j + lambda_k)] S,
    lambda_k = 4 sin^2(pi k / (2 n)).  b is indexed like
    interior_vertex_indices.
    """
    n = 2**mesh.level
    lam = 4.0 * np.sin(0.5 * np.pi * np.arange(1, n) / n) ** 2
    coef = _dst1(_dst1(np.reshape(b, (n - 1, n - 1))).T).T
    coef /= lam[:, None] + lam[None, :]
    return (_dst1(_dst1(coef).T).T * (2.0 / n) ** 2).ravel()


def solve_spd(
    system: SPDSystem,
    rel_residual_tol: float = DEFAULT_SOLVER_TOL,
    *,
    precondition,
) -> np.ndarray:
    """Preconditioned conjugate gradients, deterministic.

    precondition(r) applies a symmetric positive definite approximation of
    the inverse matrix to a residual.  Zero initial guess, fixed iteration
    order, cap 50 n.  Raises NotSPDError on nonpositive or non-finite
    curvature and on r z <= 0 or NaN (a preconditioner not SPD), and
    IterationLimitError on a non-finite residual norm or at the cap, with
    the relative residual; the messages name the iteration.  No comparison
    is true of NaN, so without the finiteness checks a NaN iterate would
    run to the cap.
    """
    _require_solver_tol(rel_residual_tol)
    A = system.matrix
    b = system.rhs
    n = b.size
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n)
    x = np.zeros(n)
    r = b.copy()
    threshold = rel_residual_tol * b_norm
    # overflow and NaN raise below, naming the iteration, instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        z = precondition(r)
        p = z.copy()
        rz = float(r @ z)
        if not rz > 0.0:
            raise NotSPDError(f"preconditioned residual r z = {rz} at CG iteration 0")
        for it in range(1, ITERATION_FACTOR * n + 1):
            Ap = A @ p
            pAp = float(p @ Ap)
            if not np.isfinite(pAp):
                raise NotSPDError(f"non-finite curvature {pAp} at CG iteration {it}")
            if pAp <= 0.0:
                raise NotSPDError(f"nonpositive curvature at CG iteration {it}")
            alpha = rz / pAp
            x += alpha * p
            r -= alpha * Ap
            r_norm = float(np.linalg.norm(r))
            if r_norm <= threshold:
                return x
            if not np.isfinite(r_norm):
                raise IterationLimitError(
                    f"CG residual norm {r_norm} at iteration {it} is not finite",
                    relative_residual=r_norm / b_norm,
                )
            z = precondition(r)
            rz_new = float(r @ z)
            if not rz_new > 0.0:
                raise NotSPDError(f"preconditioned residual r z = {rz_new} at CG iteration {it}")
            p = z + (rz_new / rz) * p
            rz = rz_new
    raise IterationLimitError(
        f"CG did not converge in {ITERATION_FACTOR * n} iterations "
        f"(relative residual {r_norm / b_norm:.3e})",
        relative_residual=r_norm / b_norm,
    )


def solve_bvp(
    mesh: Mesh,
    A: CoefficientField,
    f,
    projection_tol: float | None = None,
    solver_tol: float = DEFAULT_SOLVER_TOL,
) -> P1Function:
    """Galerkin solution: project A and f, assemble, solve.

    Returns the zero-trace P1 function whose discrete residual against
    every interior hat function is at solver tolerance.
    """
    tol = DEFAULT_PROJECTION_TOL if projection_tol is None else projection_tol
    A_h = project_coefficient(A, mesh, tol)
    f_h = project_rhs(f, mesh, tol)
    return solve_projected(A_h, f_h, solver_tol)


@dataclass(frozen=True)
class GalerkinSolve:
    """A solve_projected solution with its CG record: the iteration count
    and the preconditioner, "plain" or "scaled"."""

    u: P1Function
    cg_iterations: int
    preconditioner: str


def solve_projected(
    A_h: PiecewiseConstantMatrixField,
    f_h: PCVectorField,
    solver_tol: float = DEFAULT_SOLVER_TOL,
) -> P1Function:
    """Solve with already projected data (shared by studies and solve_bvp).

    CG applies the stiffness matrix as a stencil on the vertex grid, with
    edge weights built once from A_h (StiffnessOperator).  It is
    preconditioned by the exact identity-coefficient inverse L^-1
    (poisson_solve), so the condition number is bounded by the spread of
    the eigenvalues of A_h rather than growing like h^-2.  Where A_h's
    size varies smoothly, as for the log fixture, the vertex scaling
    s L^-1 s narrows that spread: s = a^(-1/2) at each interior vertex, a
    the mean of trace(A_K) / 2 over the vertex's four grid squares
    (equivalent-operator preconditioning, Axelsson and Karatson 2009).

    The choice is computed from A_h: scaled when the scaled spread, the
    largest lambda_max(A_K) / a_v over the cells K and their interior
    vertices v divided by the smallest lambda_min(A_K) / a_v, is strictly
    below the plain spread max lambda_max / min lambda_min, beyond
    rounding (SPREAD_ROUNDING); else plain.  The rule is a heuristic, not
    a bound, and its choices are pinned in the tests: on a jump
    coefficient such as the checkerboard the two spreads tie, and the
    scaling would cost up to ten times more iterations.  A_h and f_h must
    live on one mesh, the solution's.  galerkin_solve returns the same
    solution with the iteration count and the choice.
    """
    return galerkin_solve(A_h, f_h, solver_tol).u


def galerkin_solve(
    A_h: PiecewiseConstantMatrixField,
    f_h: PCVectorField,
    solver_tol: float = DEFAULT_SOLVER_TOL,
) -> GalerkinSolve:
    """solve_projected, with its CG iteration count (one preconditioner
    application each) and the preconditioner, "plain" or "scaled"."""
    _same_mesh(A_h.mesh, f_h.mesh)
    mesh = A_h.mesh
    K = StiffnessOperator(A_h)
    b = assemble_rhs(f_h)
    s = K.scaling
    calls = 0

    def precondition(r):
        nonlocal calls
        calls += 1
        if s is None:
            return poisson_solve(mesh, r)
        z = poisson_solve(mesh, s * r)
        z *= s
        return z

    x = solve_spd(SPDSystem(K, b), solver_tol, precondition=precondition)
    return GalerkinSolve(p1_zero_trace(mesh, x), calls, "plain" if s is None else "scaled")


def lp_norm(field: PCVectorField, p: float) -> float:
    """(sum_K |K| |v_K|^p)^(1/p) with the Euclidean cell norm."""
    return _lp_norm(field, _require_p(p))


def _lp_norm(field: PCVectorField, p: float) -> float:
    """lp_norm for any p > 0, such as a conjugate exponent above P_RANGE."""
    area = 0.5 / 4**field.mesh.level  # every cell's
    mags = quadrature._flat_norm(field.values)
    return float(np.sum(area * mags**p) ** (1.0 / p))


def evaluate_p1(u: P1Function, points: np.ndarray) -> np.ndarray:
    """Evaluate a P1 function on the structured mesh at points of the
    closed unit square."""
    pts = np.asarray(points, dtype=float)
    n = 2**u.mesh.level
    gx = np.clip(np.floor(pts[:, 0] * n).astype(np.int64), 0, n - 1)
    gy = np.clip(np.floor(pts[:, 1] * n).astype(np.int64), 0, n - 1)
    xi = pts[:, 0] * n - gx
    eta = pts[:, 1] * n - gy
    U = u.values.reshape(n + 1, n + 1)
    v_ll, v_lr = U[gy, gx], U[gy, gx + 1]
    v_ul, v_ur = U[gy + 1, gx], U[gy + 1, gx + 1]
    lower = xi >= eta  # below the cell diagonal
    vals = np.where(
        lower,
        v_ll * (1.0 - xi) + v_lr * (xi - eta) + v_ur * eta,
        v_ll * (1.0 - eta) + v_ur * xi + v_ul * (eta - xi),
    )
    return vals

