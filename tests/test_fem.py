import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from bmofem import coeff as C
from bmofem import fem as F
from bmofem.errors import (
    AssemblyError,
    InvariantError,
    IterationLimitError,
    NotSPDError,
)
from bmofem.mesh import build_uniform_mesh, cell_areas, interior_vertex_indices


def _identity_projected(mesh):
    return C.project_coefficient(C.identity_coefficient(), mesh)


# ---------------------------------------------------------------------------
# gradient


def test_gradient_of_zero(meshes):
    u = F.P1Function(meshes[2], np.zeros(meshes[2].num_vertices), zero_trace=True)
    assert not F.gradient(u).values.any()


def test_gradient_of_coordinate(meshes):
    u = F.interpolate_p1(meshes[2], lambda p: p[:, 0])
    g = F.gradient(u).values
    assert np.allclose(g, [1.0, 0.0], atol=1e-14)


def test_gradient_hat_pattern(meshes):
    # hand oracle on the 8-cell mesh: the hat at (0.5, 0.5) has gradient
    # magnitude 2 on four cells, 2 sqrt(2) on two, and 0 on the rest
    mesh = meshes[1]
    center = np.flatnonzero((mesh.vertices[:, 0] == 0.5) & (mesh.vertices[:, 1] == 0.5))[0]
    vals = np.zeros(mesh.num_vertices)
    vals[center] = 1.0
    mags = np.sort(np.linalg.norm(F.gradient(F.P1Function(mesh, vals)).values, axis=1))
    expected = np.sort([0.0, 0.0, 2.0, 2.0, 2.0, 2.0, 2.0 * math.sqrt(2.0), 2.0 * math.sqrt(2.0)])
    assert np.allclose(mags, expected, atol=1e-14)


def _gradient_by_hats(u):
    """The former gradient: vertex values against the per-cell hat gradients."""
    g, _ = F.hat_gradients(u.mesh)
    return np.einsum("ka,kad->kd", u.values[u.mesh.cells], g)


def _rhs_by_hats(mesh, f_h):
    """The former assemble_rhs: per-cell hat contributions scattered to the
    vertices."""
    g, areas = F.hat_gradients(mesh)
    contrib = np.einsum("k,kad,kd->ka", areas, g, f_h.values)
    b_full = np.zeros(mesh.num_vertices)
    np.add.at(b_full, mesh.cells.ravel(), contrib.ravel())
    return b_full[interior_vertex_indices(mesh)]


@pytest.mark.parametrize("level", range(9))
def test_grid_gradient_is_bit_identical_to_hat_gradients(level, rng):
    mesh = build_uniform_mesh(level)
    u = F.P1Function(mesh, rng.standard_normal(mesh.num_vertices))
    assert np.array_equal(F.gradient(u).values, _gradient_by_hats(u))


# ---------------------------------------------------------------------------
# right hand side projection


def test_project_rhs_constant(meshes):
    f_h = F.project_rhs(lambda p: np.tile([1.0, 0.5], (p.shape[0], 1)), meshes[2], 1e-8)
    assert np.allclose(f_h.values, [1.0, 0.5], atol=1e-15)


def test_project_rhs_passthrough_for_aligned_field(meshes):
    u = F.interpolate_p1(meshes[2], lambda p: p[:, 0] * p[:, 1], zero_trace=True)
    g = F.gradient(u)
    assert F.project_rhs(g, meshes[2], 1e-8) is g


def _sin_strip_integral(x0, h, lower):
    # integral of sin(pi x) weighted by the strip width of the lower
    # (width x - x0) or upper (width h - (x - x0)) triangle of a grid square
    pi = math.pi
    a, b = x0, x0 + h
    moment = -(b - a) * math.cos(pi * b) / pi + (math.sin(pi * b) - math.sin(pi * a)) / pi**2
    if lower:
        return moment
    plain = (math.cos(pi * a) - math.cos(pi * b)) / pi
    return h * plain - moment


def test_project_rhs_sin_matches_closed_form(meshes):
    mesh = meshes[3]
    f_h = F.project_rhs(
        lambda p: np.column_stack([np.sin(np.pi * p[:, 0]), np.zeros(p.shape[0])]),
        mesh,
        1e-8,
    )
    h = 0.125
    area = 0.5 * h * h
    n = 8
    for k in range(mesh.num_cells):
        sq, upper = divmod(k, 2)
        i = sq % n
        expected = _sin_strip_integral(i * h, h, lower=not upper) / area
        assert f_h.values[k, 0] == pytest.approx(expected, abs=1e-8)
        assert f_h.values[k, 1] == 0.0


# ---------------------------------------------------------------------------
# assembly


def test_stiffness_level1_single_entry(meshes):
    system = F.assemble_stiffness(_identity_projected(meshes[1]))
    assert system.matrix.shape == (1, 1)
    assert system.matrix[0, 0] == 4.0


def test_stiffness_doubles_exactly(meshes):
    mesh = meshes[2]
    m1 = F.assemble_stiffness(_identity_projected(mesh)).matrix
    A2 = C.PiecewiseConstantMatrixField(mesh, 2.0 * _identity_projected(mesh).values)
    m2 = F.assemble_stiffness(A2).matrix
    assert (m2 - 2.0 * m1).nnz == 0


def test_stiffness_five_point_stencil(meshes):
    # identity coefficient on the criss-cross mesh reproduces the classical
    # 5-point pattern: 4 on the diagonal, -1 to grid neighbours, 0 across
    # the cell diagonals
    mesh = meshes[2]
    system = F.assemble_stiffness(_identity_projected(mesh))
    M = system.matrix.toarray()
    coords = mesh.vertices[interior_vertex_indices(mesh)]
    h = 0.25
    for a in range(len(coords)):
        for b in range(len(coords)):
            dist = np.linalg.norm(coords[a] - coords[b])
            if a == b:
                expected = 4.0
            elif abs(dist - h) < 1e-12:
                expected = -1.0
            else:
                expected = 0.0
            assert M[a, b] == expected


def test_stiffness_exact_symmetry(meshes):
    mesh = meshes[3]
    A = C.project_coefficient(C.smooth_coefficient(), mesh)
    M = F.assemble_stiffness(A).matrix
    assert (M != M.T).nnz == 0


def test_assembly_refuses_noncoercive(meshes):
    vals = np.broadcast_to(np.diag([1.0, -1.0]), (meshes[1].num_cells, 2, 2)).copy()
    bad = C.PiecewiseConstantMatrixField(meshes[1], vals)
    with pytest.raises(AssemblyError):
        F.assemble_stiffness(bad)


def test_rhs_zero_field(meshes):
    f_h = F.PCVectorField(meshes[2], np.zeros((meshes[2].num_cells, 2)))
    assert not F.assemble_rhs(f_h).any()


def test_rhs_of_gradient_matches_stiffness_action(meshes, rng):
    mesh = meshes[3]
    w = F.p1_zero_trace(mesh, rng.uniform(-1, 1, interior_vertex_indices(mesh).size))
    b = F.assemble_rhs(F.gradient(w))
    system = F.assemble_stiffness(_identity_projected(mesh))
    expected = system.matrix @ w.values[interior_vertex_indices(mesh)]
    assert np.max(np.abs(b - expected)) <= 1e-14 * max(1.0, np.max(np.abs(expected)))


@pytest.mark.parametrize("level", range(1, 9))
def test_grid_rhs_matches_hat_contributions(level, rng):
    mesh = build_uniform_mesh(level)
    f_h = F.PCVectorField(mesh, rng.standard_normal((mesh.num_cells, 2)))
    expected = _rhs_by_hats(mesh, f_h)
    assert np.max(np.abs(F.assemble_rhs(f_h) - expected)) <= 1e-15 * np.max(
        np.abs(expected)
    )


def _random_spd(mesh, rng):
    """Per-cell SPD matrices whose off-diagonals take both signs and
    exceed either diagonal entry's half, so some stencil weights are
    negative."""
    m = mesh.num_cells
    a11, a22 = rng.uniform(0.5, 3.0, m), rng.uniform(0.5, 3.0, m)
    a12 = rng.uniform(-0.95, 0.95, m) * np.sqrt(a11 * a22)
    vals = np.stack([np.stack([a11, a12], 1), np.stack([a12, a22], 1)], 1)
    return C.PiecewiseConstantMatrixField(mesh, vals)


@pytest.mark.parametrize(
    "name",
    [
        "identity", "smooth", "log", "checkerboard", "sampled", "log-2",
        "checkerboard-0.01", "negative-offdiagonal", "random-spd",
    ],
)
@pytest.mark.parametrize("level", range(1, 8))
def test_stiffness_operator_matches_assembled_matrix(name, level, sampled_csv_path, rng):
    mesh = build_uniform_mesh(level)
    if name == "random-spd":
        A_h = _random_spd(mesh, rng)
    else:
        A = {
            "identity": C.identity_coefficient,
            "smooth": C.smooth_coefficient,
            "log": lambda: C.log_singular_coefficient(0.5),
            "checkerboard": lambda: C.checkerboard_coefficient(100.0),
            "sampled": lambda: C.load_sampled_coefficient(sampled_csv_path),
            "log-2": lambda: C.log_singular_coefficient(2.0),
            "checkerboard-0.01": lambda: C.checkerboard_coefficient(0.01),
            "negative-offdiagonal": lambda: C.constant_coefficient([[2.0, -0.9], [-0.9, 1.0]]),
        }[name]()
        A_h = C.project_coefficient(A, mesh)
    x = rng.standard_normal((2**level - 1) ** 2)
    expected = F.assemble_stiffness(A_h).matrix @ x
    got = F.StiffnessOperator(A_h) @ x
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_stiffness_stencil_is_five_point_for_diagonal_coefficients(meshes):
    # the diagonal edges carry a12 only; the sampled grid's a12 is nonzero
    log = C.project_coefficient(C.log_singular_coefficient(0.5), meshes[3])
    assert F.StiffnessOperator(log)._weights[3] is None
    tilted = C.project_coefficient(C.constant_coefficient([[2.0, 0.5], [0.5, 1.0]]), meshes[3])
    assert np.all(F.StiffnessOperator(tilted)._weights[3] == 0.5)


def test_solve_projected_refuses_noncoercive(meshes):
    mesh = meshes[2]
    vals = np.broadcast_to(np.diag([1.0, -1.0]), (mesh.num_cells, 2, 2)).copy()
    bad = C.PiecewiseConstantMatrixField(mesh, vals)
    f_h = F.PCVectorField(mesh, np.ones((mesh.num_cells, 2)))
    with pytest.raises(AssemblyError):
        F.solve_projected(bad, f_h)


def test_studies_import_no_scipy():
    # scipy is needed only by the assembled reference, imported where it
    # is used
    code = (
        "import sys, bmofem.harness, bmofem.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(F.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_rhs_constant_field_vanishes(meshes):
    # sum_K |K| d_x phi_i = integral of d_x phi_i = 0 for zero-trace hats
    mesh = meshes[3]
    f_h = F.PCVectorField(mesh, np.tile([1.0, 0.0], (mesh.num_cells, 1)))
    b = F.assemble_rhs(f_h)
    assert np.max(np.abs(b)) <= 1e-15


# ---------------------------------------------------------------------------
# conjugate gradient solver


def _jacobi(M):
    return lambda r: r / M.diagonal()


def test_solve_one_by_one():
    M = sp.csr_matrix(np.array([[4.0]]))
    x = F.solve_spd(F.SPDSystem(M, np.array([1.0])), precondition=_jacobi(M))
    assert x[0] == 0.25


def test_solve_zero_rhs(meshes):
    system = F.assemble_stiffness(_identity_projected(meshes[2]))
    assert not F.solve_spd(system, precondition=_jacobi(system.matrix)).any()


def test_solver_tolerance_range(meshes):
    system = F.assemble_stiffness(_identity_projected(meshes[1]))
    with pytest.raises(ValueError):
        F.solve_spd(system, 1e-5, precondition=_jacobi(system.matrix))
    with pytest.raises(ValueError):
        F.solve_spd(system, 1e-15, precondition=_jacobi(system.matrix))


def test_solver_not_spd():
    M = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(NotSPDError):
        F.solve_spd(F.SPDSystem(M, np.array([1.0, -1.0])), precondition=_jacobi(M))


def test_solver_refuses_a_preconditioner_that_is_not_positive_definite():
    # a rotation by a right angle gives r z = 0 while p A p = 1: the next
    # step would divide by r z
    with pytest.raises(NotSPDError, match=r"r z = 0\.0 at CG iteration 0$"):
        F.solve_spd(
            F.SPDSystem(np.eye(2), np.array([1.0, 0.0])),
            precondition=lambda r: np.array([r[1], -r[0]]),
        )


@pytest.mark.parametrize("entry", [1e300, np.nan])
def test_solver_fails_fast_on_nonfinite_curvature(entry):
    # p A p overflows, or is NaN, at the first iteration; no comparison
    # with it is true, so without the check CG would run to its cap
    M = np.array([[entry, 0.0], [0.0, entry]])
    with pytest.raises(NotSPDError, match="non-finite curvature .* at CG iteration 1$"):
        F.solve_spd(F.SPDSystem(M, np.array([1e10, 1e10])), precondition=lambda r: r)


def test_solver_fails_fast_on_nonfinite_residual():
    # r z overflows, so the step is infinite and so is the residual, while
    # the curvature, about 1e300, stays finite
    M = 1e-300 * np.eye(2)
    with pytest.raises(IterationLimitError, match="residual norm inf at iteration 1 ") as err:
        F.solve_spd(F.SPDSystem(M, np.array([1e100, 1.0])), precondition=lambda r: 1e200 * r)
    assert err.value.relative_residual == math.inf


def test_solver_iteration_cap():
    # a small very ill-conditioned dense SPD matrix cannot reach 1e-14
    n = 12
    H = sp.csr_matrix(np.array([[1.0 / (i + j + 1) for j in range(n)] for i in range(n)]))
    with pytest.raises(IterationLimitError) as err:
        F.solve_spd(F.SPDSystem(H, np.ones(n)), 1e-14, precondition=_jacobi(H))
    assert 0.0 < err.value.relative_residual < 1e-6


# ---------------------------------------------------------------------------
# sine-transform Poisson solve and the preconditioned coefficient solve


def _direct(A_h, b):
    return spla.spsolve(F.assemble_stiffness(A_h).matrix.tocsc(), b)


@pytest.mark.parametrize("level", range(1, 9))
def test_poisson_solve_matches_direct_solve(level, rng):
    mesh = build_uniform_mesh(level)
    b = rng.standard_normal(interior_vertex_indices(mesh).size)
    x = F.poisson_solve(mesh, b)
    expected = _direct(_identity_projected(mesh), b)
    assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


_FIXTURES = {
    "log": lambda: C.log_singular_coefficient(0.5),
    "checkerboard": lambda: C.checkerboard_coefficient(100.0),
    "smooth": C.smooth_coefficient,
}


@pytest.mark.parametrize("name", sorted(_FIXTURES))
@pytest.mark.parametrize("level", range(3, 8))
def test_preconditioned_solve_matches_direct_solve(name, level, rng):
    mesh = build_uniform_mesh(level)
    A_h = C.project_coefficient(_FIXTURES[name](), mesh)
    f_h = F.PCVectorField(mesh, rng.standard_normal((mesh.num_cells, 2)))
    u = F.solve_projected(A_h, f_h)
    expected = _direct(A_h, F.assemble_rhs(f_h))
    err = np.max(np.abs(u.values[interior_vertex_indices(mesh)] - expected))
    assert err <= 1e-9 * np.max(np.abs(expected))


def _count_kernel_calls(monkeypatch):
    calls = []
    kernel = F.poisson_solve

    def counted(mesh_, r):
        calls.append(1)
        return kernel(mesh_, r)

    monkeypatch.setattr(F, "poisson_solve", counted)
    return calls


@pytest.mark.parametrize("level", range(5, 9))
def test_preconditioner_bounds_cg_iterations(level, monkeypatch, rng):
    # one kernel call per CG iteration; Jacobi CG needs hundreds to
    # thousands of iterations at these levels, the plain Laplacian inverse
    # tens and the vertex-scaled one 6
    mesh = build_uniform_mesh(level)
    A_h = C.project_coefficient(C.log_singular_coefficient(0.5), mesh)
    f_h = F.PCVectorField(mesh, rng.standard_normal((mesh.num_cells, 2)))
    calls = _count_kernel_calls(monkeypatch)
    F.solve_projected(A_h, f_h)
    assert 0 < len(calls) <= 6


# sin(pi x), cos(pi y), declared trigonometric: exact cell means
_SIN_COS = C.TrigonometricForm((2,), (((-1j, (1, 0)),), ((1.0, (0, 1)),)))

# fixture -> (choice, kernel calls of the choice, of the plain inverse) at
# level 7 with the sin-cos load; the checkerboards tie on the spread, and
# scaling would take 125 / 46 / 107 calls
_PINNED_CHOICES = {
    "log-0.5": (lambda: C.log_singular_coefficient(0.5), "scaled", 7, 23),
    "log-2": (lambda: C.log_singular_coefficient(2.0), "scaled", 9, 43),
    "checkerboard-1000": (lambda: C.checkerboard_coefficient(1000.0), "plain", 15, 15),
    "checkerboard-4": (lambda: C.checkerboard_coefficient(4.0), "plain", 13, 13),
    "checkerboard-0.01": (lambda: C.checkerboard_coefficient(0.01), "plain", 15, 15),
    "smooth": (C.smooth_coefficient, "plain", 23, 23),
    "identity": (C.identity_coefficient, "plain", 1, 1),
    "sampled": (None, "scaled", 10, 11),
}


@pytest.mark.parametrize("name", sorted(_PINNED_CHOICES))
def test_preconditioner_choice_is_pinned(name, monkeypatch, nondyadic_csv_path):
    make, choice, count, plain = _PINNED_CHOICES[name]
    A = C.load_sampled_coefficient(nondyadic_csv_path) if make is None else make()
    mesh = build_uniform_mesh(7)
    A_h = C.project_coefficient(A, mesh)
    f_h = F.project_rhs(_SIN_COS, mesh)
    calls = _count_kernel_calls(monkeypatch)
    solve = F.galerkin_solve(A_h, f_h)
    assert (solve.preconditioner, solve.cg_iterations, len(calls)) == (choice, count, count)
    calls.clear()
    monkeypatch.setattr(F, "_vertex_scaling", lambda cells, lam_min: None)
    assert F.galerkin_solve(A_h, f_h).preconditioner == "plain"
    assert len(calls) == plain
    assert count <= plain


@pytest.mark.parametrize("kappa", [1e300, 1e-300, 3.0, 1e5])
def test_spread_tie_keeps_the_plain_inverse(kappa, meshes):
    # scaled and plain spreads of a two-valued checkerboard are equal in
    # exact arithmetic; at kappa 1e300 the scaled one reads 2 ulps lower
    A_h = C.project_coefficient(C.checkerboard_coefficient(kappa), meshes[5])
    assert F.StiffnessOperator(A_h).scaling is None


def test_solve_memory_peak():
    # 2.3 MiB at level 7, the CG loop with its stencil weights, vertex
    # scaling and transform buffers (2.6 MiB with the former product); a
    # held temporary of the size of A_h's values (1 MiB) exceeds the bound
    mesh = build_uniform_mesh(7)
    A_h = C.project_coefficient(C.log_singular_coefficient(0.5), mesh)
    f_h = F.project_rhs(_SIN_COS, mesh)
    F.solve_projected(A_h, f_h)
    tracemalloc.start()
    try:
        F.solve_projected(A_h, f_h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


# ---------------------------------------------------------------------------
# boundary value problem


def test_solve_bvp_reproduces_p1_data(meshes, rng):
    mesh = meshes[3]
    w = F.p1_zero_trace(mesh, rng.uniform(-1, 1, interior_vertex_indices(mesh).size))
    u = F.solve_bvp(mesh, C.identity_coefficient(), F.gradient(w))
    assert np.max(np.abs(u.values - w.values)) <= 1e-10
    assert u.zero_trace


def test_solve_bvp_scales_with_coefficient(meshes):
    mesh = meshes[2]

    def f(p):
        return np.column_stack([np.sin(np.pi * p[:, 0]), np.cos(np.pi * p[:, 1])])

    u1 = F.solve_bvp(mesh, C.identity_coefficient(), f)
    u2 = F.solve_bvp(mesh, C.constant_coefficient(2.0 * np.eye(2)), f)
    assert np.array_equal(u2.values, 0.5 * u1.values)  # exact for powers of two
    u3 = F.solve_bvp(mesh, C.constant_coefficient(3.0 * np.eye(2)), f)
    assert np.max(np.abs(u3.values - u1.values / 3.0)) <= 1e-12


def test_solve_bvp_is_linear_in_data(meshes, rng):
    # linearity holds at solver tolerance for cell-constant data; adaptive
    # projection of callables adds quadrature-level noise on top
    mesh = meshes[2]
    n = interior_vertex_indices(mesh).size
    w1 = F.p1_zero_trace(mesh, rng.uniform(-1, 1, n))
    w2 = F.p1_zero_trace(mesh, rng.uniform(-1, 1, n))
    A = C.identity_coefficient()
    u12 = F.solve_bvp(mesh, A, F.gradient(w1) + F.gradient(w2))
    u1 = F.solve_bvp(mesh, A, F.gradient(w1))
    u2 = F.solve_bvp(mesh, A, F.gradient(w2))
    assert np.max(np.abs(u12.values - u1.values - u2.values)) <= 1e-10


def test_galerkin_residual_small(meshes):
    mesh = meshes[3]

    def f(p):
        return np.column_stack([np.sin(np.pi * p[:, 0]), np.cos(np.pi * p[:, 1])])

    A = C.log_singular_coefficient(0.5)
    A_h = C.project_coefficient(A, mesh)
    f_h = F.project_rhs(f, mesh, 1e-8)
    u = F.solve_projected(A_h, f_h)
    system = F.assemble_stiffness(A_h)
    b = F.assemble_rhs(f_h)
    residual = np.abs(system.matrix @ u.values[interior_vertex_indices(mesh)] - b)
    assert np.max(residual) <= 1e-9 * np.max(np.abs(b))


def test_coercivity_transfers_to_algebra(meshes, rng):
    mesh = meshes[3]
    A = C.log_singular_coefficient(0.5)
    A_h = C.project_coefficient(A, mesh)
    system = F.assemble_stiffness(A_h)
    for _ in range(100):
        x = rng.uniform(-1, 1, system.rhs.size)
        u = F.p1_zero_trace(mesh, x)
        energy = x @ (system.matrix @ x)
        h1 = F.lp_norm(F.gradient(u), 2.0) ** 2
        assert energy >= A.alpha * h1 - 1e-9


# ---------------------------------------------------------------------------
# norms and evaluation


def test_lp_norm_constant_field(meshes):
    field = F.PCVectorField(meshes[2], np.tile([0.6, 0.8], (meshes[2].num_cells, 1)))
    for p in (1.1, 2.0, 4.0, 10.0):
        assert F.lp_norm(field, p) == pytest.approx(1.0, abs=1e-12)


def test_lp_norm_half_domain(meshes):
    mesh = meshes[1]
    vals = np.zeros((mesh.num_cells, 2))
    centroids = mesh.vertices[mesh.cells].mean(axis=1)
    vals[centroids[:, 0] < 0.5] = [3.0, 0.0]
    field = F.PCVectorField(mesh, vals)
    for p in (1.5, 2.0, 3.0):
        assert F.lp_norm(field, p) == pytest.approx(3.0 * 0.5 ** (1.0 / p), rel=1e-12)


def test_lp_norm_square_consistency(meshes, rng):
    mesh = meshes[2]
    field = F.PCVectorField(mesh, rng.standard_normal((mesh.num_cells, 2)))
    direct = np.sum(
        np.abs(cell_areas(mesh)) * np.linalg.norm(field.values, axis=1) ** 2
    )
    assert F.lp_norm(field, 2.0) ** 2 == pytest.approx(direct, rel=1e-12)


@settings(deadline=None, max_examples=25)
@given(
    c=st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
    sign=st.sampled_from([-1.0, 1.0]),
    p=st.floats(min_value=1.1, max_value=10.0, allow_nan=False),
)
def test_lp_norm_homogeneous(c, sign, p):
    mesh = build_uniform_mesh(2)
    rng = np.random.default_rng(5)
    field = F.PCVectorField(mesh, rng.standard_normal((mesh.num_cells, 2)))
    assert F.lp_norm(sign * c * field, p) == pytest.approx(c * F.lp_norm(field, p), rel=1e-12)


def test_lp_norm_range(meshes):
    field = F.PCVectorField(meshes[1], np.ones((8, 2)))
    with pytest.raises(ValueError):
        F.lp_norm(field, 1.0)
    with pytest.raises(ValueError):
        F.lp_norm(field, 12.0)


def test_evaluate_p1_at_vertices(meshes, rng):
    mesh = meshes[2]
    u = F.P1Function(mesh, rng.uniform(-1, 1, mesh.num_vertices))
    assert np.allclose(F.evaluate_p1(u, mesh.vertices), u.values, atol=1e-14)


def test_zero_trace_invariant_enforced(meshes):
    vals = np.ones(meshes[1].num_vertices)
    with pytest.raises(InvariantError):
        F.P1Function(meshes[1], vals, zero_trace=True)


def test_zero_trace_check_reads_every_edge_and_corner(meshes):
    mesh = meshes[2]
    n = 2**mesh.level
    interior = np.zeros((n + 1, n + 1))
    interior[1:-1, 1:-1] = 1.0
    interior[1, 2] = np.nan
    F.P1Function(mesh, interior.ravel(), zero_trace=True)  # interior values are free
    signed_zero = np.zeros((n + 1, n + 1))
    signed_zero[0], signed_zero[:, -1] = -0.0, -0.0
    F.P1Function(mesh, signed_zero.ravel(), zero_trace=True)
    # the middle of each edge, then each corner
    points = [(0, 2), (n, 2), (2, 0), (2, n), (0, 0), (0, n), (n, 0), (n, n)]
    for j, i in points:
        for bad in (1e-300, -2.0, np.nan):
            U = np.zeros((n + 1, n + 1))
            U[j, i] = bad
            with pytest.raises(InvariantError, match="nonzero boundary"):
                F.P1Function(mesh, U.ravel(), zero_trace=True)
            F.P1Function(mesh, U.ravel())  # no trace claimed, nothing checked


@pytest.mark.parametrize("level", range(7))
def test_zero_trace_check_agrees_with_the_boundary_mask(level, rng):
    # the edge check against the boundary-flag gather it replaced, on zero
    # traces (of either sign) with one random value at one random vertex,
    # a boundary vertex every other time
    mesh = build_uniform_mesh(level)
    boundary = mesh.boundary_vertex_flags
    on_boundary = np.flatnonzero(boundary)
    verdicts = set()
    for trial in range(40):
        vals = rng.choice([0.0, -0.0, 1.0, np.nan], mesh.num_vertices)
        vals[boundary] = rng.choice([0.0, -0.0], on_boundary.size)
        k = rng.choice(on_boundary) if trial % 2 else rng.integers(mesh.num_vertices)
        vals[k] = rng.choice([-0.0, 3.0, np.nan])
        want = bool(np.any(vals[boundary] != 0.0))
        try:
            F.P1Function(mesh, vals, zero_trace=True)
            got = False
        except InvariantError:
            got = True
        assert got == want
        verdicts.add(got)
    assert verdicts == {False, True}


@pytest.mark.parametrize(
    "field, shape",
    [
        (F.P1Function, (24,)),
        (F.PCVectorField, (32, 3)),
        (C.PiecewiseConstantMatrixField, (5, 2, 2)),
    ],
)
def test_fields_reject_values_that_do_not_match_the_mesh(meshes, field, shape):
    # the level-2 mesh has 25 vertices and 32 cells
    with pytest.raises(InvariantError, match="does not match the mesh"):
        field(meshes[2], np.zeros(shape))


def test_field_mesh_mismatch(meshes):
    u = F.PCVectorField(meshes[1], np.zeros((meshes[1].num_cells, 2)))
    v = F.PCVectorField(meshes[2], np.zeros((meshes[2].num_cells, 2)))
    with pytest.raises(InvariantError, match="different meshes"):
        _ = u + v
    with pytest.raises(InvariantError, match="different meshes"):
        _ = u - v
    with pytest.raises(InvariantError, match="different meshes"):
        F.solve_projected(_identity_projected(meshes[1]), v)
