import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from bmofem import coeff as C
from bmofem import fem as F
from bmofem import hodge as H
from bmofem.errors import (
    DegenerateFieldError,
    IterationLimitError,
    MeshTooCoarseError,
)
from bmofem.mesh import build_uniform_mesh, interior_vertex_indices


def _sinsin(mesh):
    return F.interpolate_p1(
        mesh, lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]), zero_trace=True
    )


def _hat_at_center(mesh):
    center = np.flatnonzero((mesh.vertices[:, 0] == 0.5) & (mesh.vertices[:, 1] == 0.5))[0]
    vals = np.zeros(mesh.num_vertices)
    vals[center] = 1.0
    return F.P1Function(mesh, vals, zero_trace=True)


def test_pure_gradient_input(meshes, rng):
    mesh = meshes[3]
    w = F.p1_zero_trace(mesh, rng.uniform(-1, 1, interior_vertex_indices(mesh).size))
    split = H.hodge_decompose(F.gradient(w), solver_tol=1e-13)
    assert np.max(np.abs(split.potential.values - w.values)) <= 1e-10
    assert np.max(np.abs(split.sigma.values)) <= 1e-10


def test_redecomposition_is_idempotent(meshes, rng):
    mesh = meshes[2]
    s = F.PCVectorField(mesh, rng.standard_normal((mesh.num_cells, 2)))
    split = H.hodge_decompose(s, solver_tol=1e-13)
    again = H.hodge_decompose(split.sigma, solver_tol=1e-13)
    assert np.max(np.abs(again.potential.values)) <= 1e-9
    assert np.max(np.abs(again.sigma.values - split.sigma.values)) <= 1e-9


def test_constant_field_on_level1(meshes):
    # the single interior hat integrates d_x phi to zero, so a constant
    # field is already discretely divergence free
    mesh = meshes[1]
    s = F.PCVectorField(mesh, np.tile([1.0, 0.0], (mesh.num_cells, 1)))
    split = H.hodge_decompose(s)
    assert np.max(np.abs(split.potential.values)) == 0.0
    assert np.array_equal(split.sigma.values, s.values)


def test_split_residual_invariants(meshes, rng):
    mesh = meshes[3]
    s = F.PCVectorField(mesh, rng.standard_normal((mesh.num_cells, 2)))
    split = H.hodge_decompose(s, solver_tol=1e-13)
    assert split.reconstruction_residual <= 1e-10 * (1 + np.abs(s.values).max())
    g_l2 = F.lp_norm(split.sigma, 2.0)
    assert split.orthogonality_residual <= 1e-9 * max(g_l2, 1.0)


def test_l2_pythagoras(meshes, rng):
    mesh = meshes[2]
    s = F.PCVectorField(mesh, rng.standard_normal((mesh.num_cells, 2)))
    split = H.hodge_decompose(s, solver_tol=1e-13)
    lhs = F.lp_norm(s, 2.0) ** 2
    rhs = F.lp_norm(F.gradient(split.potential), 2.0) ** 2 + F.lp_norm(split.sigma, 2.0) ** 2
    assert abs(lhs - rhs) <= 1e-9 * lhs


@settings(deadline=None, max_examples=10)
@given(
    a=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    b=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
def test_decomposition_is_linear(a, b):
    mesh = build_uniform_mesh(2)
    rng = np.random.default_rng(99)
    s = F.PCVectorField(mesh, rng.standard_normal((mesh.num_cells, 2)))
    t = F.PCVectorField(mesh, rng.standard_normal((mesh.num_cells, 2)))
    combo = a * s + b * t
    sp_c = H.hodge_decompose(combo, solver_tol=1e-13)
    sp_s = H.hodge_decompose(s, solver_tol=1e-13)
    sp_t = H.hodge_decompose(t, solver_tol=1e-13)
    expect = a * sp_s.potential.values + b * sp_t.potential.values
    scale = 1.0 + abs(a) + abs(b)
    assert np.max(np.abs(sp_c.potential.values - expect)) <= 1e-9 * scale


def test_stability_ratio_bounds(rng):
    # the split is bounded in L^r with a level-independent constant;
    # at r = 2 orthogonality gives the explicit bound 2
    for r in (1.5, 2.0, 3.0):
        per_level = []
        for level in (1, 2, 3, 4):
            mesh = build_uniform_mesh(level)
            worst = 0.0
            for _ in range(50):
                s = F.PCVectorField(mesh, rng.standard_normal((mesh.num_cells, 2)))
                split = H.hodge_decompose(s)
                ratio = (
                    F.lp_norm(F.gradient(split.potential), r) + F.lp_norm(split.sigma, r)
                ) / F.lp_norm(s, r)
                worst = max(worst, ratio)
            per_level.append(worst)
        if r == 2.0:
            assert max(per_level) <= 4.0
        assert max(per_level) / min(per_level) <= 2.0


def test_too_coarse_mesh_error(meshes):
    s = F.PCVectorField(meshes[0], np.ones((2, 2)))
    with pytest.raises(MeshTooCoarseError):
        H.hodge_decompose(s)


@pytest.mark.parametrize("level", range(1, 9))
def test_potential_matches_direct_solve(level, rng):
    mesh = build_uniform_mesh(level)
    s = F.PCVectorField(mesh, rng.standard_normal((mesh.num_cells, 2)))
    split = H.hodge_decompose(s)
    identity = C.project_coefficient(C.identity_coefficient(), mesh)
    K = F.assemble_stiffness(identity).matrix.tocsc()
    expected = spla.spsolve(K, F.assemble_rhs(s))
    got = split.potential.values[interior_vertex_indices(mesh)]
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_tightest_tolerance_passes_at_level8(rng):
    mesh = build_uniform_mesh(8)
    s = F.PCVectorField(mesh, rng.standard_normal((mesh.num_cells, 2)))
    split = H.hodge_decompose(s, solver_tol=1e-14)
    b = F.assemble_rhs(s)
    residual = b - F.assemble_rhs(F.gradient(split.potential))
    assert np.linalg.norm(residual) <= 1e-14 * np.linalg.norm(b)


def test_correction_solves_recover_a_slightly_inexact_kernel(rng, monkeypatch):
    # each correction shrinks the residual by the kernel's relative error,
    # so 1e-5 needs both correction solves to reach 1e-13
    mesh = build_uniform_mesh(5)
    s = F.PCVectorField(mesh, rng.standard_normal((mesh.num_cells, 2)))
    exact = H.hodge_decompose(s, solver_tol=1e-13)
    calls = []
    kernel = H.poisson_solve

    def inexact(mesh_, r):
        calls.append(1)
        return (1.0 + 1e-5) * kernel(mesh_, r)

    monkeypatch.setattr(H, "poisson_solve", inexact)
    split = H.hodge_decompose(s, solver_tol=1e-13)
    assert len(calls) == 1 + H.REFINEMENT_STEPS
    scale = np.max(np.abs(exact.potential.values))
    assert np.max(np.abs(split.potential.values - exact.potential.values)) <= 1e-12 * scale


def test_inexact_kernel_raises_naming_level(rng, monkeypatch):
    mesh = build_uniform_mesh(5)
    s = F.PCVectorField(mesh, rng.standard_normal((mesh.num_cells, 2)))
    kernel = H.poisson_solve
    monkeypatch.setattr(H, "poisson_solve", lambda mesh_, r: 1.5 * kernel(mesh_, r))
    with pytest.raises(IterationLimitError, match="level 5") as err:
        H.hodge_decompose(s)
    assert err.value.relative_residual > 1e-3


# Fine meshes at the default tolerance.  Forming K x rounds at about
# eps ||K|| ||x||, and for smooth data ||x|| / ||b|| grows like h^-2, so
# from level 9 only the backward error bound of hodge_decompose is
# reachable.  The limits are the h^2 extrapolations of levels 9 and 10.
GAP_RATIO_LIMIT = 0.14636  # conjugate gap of the sin sin interpolant, p = 2.1
FLUX_RATIO_LIMIT = 0.14937  # its flux under (1 + 0.5 |log |x||) I at centroids


@pytest.fixture(scope="module", params=[9, 10])
def fine_sinsin(request):
    return _sinsin(build_uniform_mesh(request.param))


def test_conjugate_gap_at_fine_levels(fine_sinsin):
    _, ratio = H.conjugate_gap(fine_sinsin, 2.1)
    assert ratio == pytest.approx(GAP_RATIO_LIMIT, rel=1e-4)


def test_flux_decompose_at_fine_levels(fine_sinsin):
    u, mesh = fine_sinsin, fine_sinsin.mesh
    centroids = mesh.cell_coordinates().mean(axis=1)
    A_h = C.PiecewiseConstantMatrixField(
        mesh, C.log_singular_coefficient(0.5).evaluate(centroids)
    )
    _, _, ratio = H.flux_decompose(u, A_h, 2.1)
    assert ratio == pytest.approx(FLUX_RATIO_LIMIT, rel=1e-4)


def test_split_meets_backward_error_where_relative_residual_cannot():
    mesh = build_uniform_mesh(9)
    s = H.conjugate_field(_sinsin(mesh), 2.1)
    split = H.hodge_decompose(s)
    b = F.assemble_rhs(s)
    x = split.potential.values[interior_vertex_indices(mesh)]
    res_norm = np.linalg.norm(b - F.assemble_rhs(F.gradient(split.potential)))
    assert res_norm <= 1e-12 * (H.LAPLACIAN_NORM_BOUND * np.linalg.norm(x) + np.linalg.norm(b))
    assert res_norm > 1e-12 * np.linalg.norm(b)


# ---------------------------------------------------------------------------
# conjugate field


def test_conjugate_p2_is_gradient(meshes):
    u = _sinsin(meshes[2])
    assert np.array_equal(H.conjugate_field(u, 2.0).values, F.gradient(u).values)


@settings(deadline=None, max_examples=20)
@given(p=st.floats(min_value=1.1, max_value=10.0, allow_nan=False))
def test_conjugate_magnitudes(p):
    mesh = build_uniform_mesh(2)
    u = _sinsin(mesh)
    s = H.conjugate_field(u, p)
    grad_mags = np.linalg.norm(F.gradient(u).values, axis=1)
    s_mags = np.linalg.norm(s.values, axis=1)
    assert np.allclose(s_mags, grad_mags ** (p - 1.0), rtol=1e-12)


def test_conjugate_zero_gradient_cells(meshes):
    # cells where the gradient vanishes map to zero even for p < 2
    u = _hat_at_center(meshes[1])
    s = H.conjugate_field(u, 1.5)
    zero_cells = ~F.gradient(u).values.any(axis=1)
    assert zero_cells.any()
    assert not s.values[zero_cells].any()
    assert np.all(np.isfinite(s.values))


def test_conjugate_norm_identity(meshes):
    u = _sinsin(meshes[3])
    for p in (1.5, 2.5, 4.0):
        q = p / (p - 1.0)
        s = H.conjugate_field(u, p)
        assert F.lp_norm(s, q) ** q == pytest.approx(
            F.lp_norm(F.gradient(u), p) ** p, rel=1e-10
        )


# ---------------------------------------------------------------------------
# the split's norms and residuals against the expressions the norm kernel
# and the plain slices of assemble_rhs replaced


def _old_lp_norm(field, p):
    area = 0.5 / 4**field.mesh.level
    return float(np.sum(area * np.linalg.norm(field.values, axis=1) ** p) ** (1.0 / p))


def _old_assemble_rhs(f_h):
    n = 2**f_h.mesh.level
    lx, ly, ux, uy = np.moveaxis(f_h.values.reshape(n, n, 4), -1, 0)
    b = np.zeros((n + 1, n + 1))
    b[:-1, :-1] -= lx + uy
    b[:-1, 1:] += lx - ly
    b[1:, :-1] += uy - ux
    b[1:, 1:] += ly + ux
    return b[1:-1, 1:-1].ravel() * (0.5 / n)


def _old_conjugate(gu, p):
    mags = np.linalg.norm(gu.values, axis=1)
    with np.errstate(divide="ignore"):
        scale = np.where(mags > 0.0, mags ** (p - 2.0), 0.0)
    return scale[:, None] * gu.values


@pytest.mark.parametrize("level", range(1, 7))
def test_lp_norm_and_rhs_are_the_old_expressions_bit_for_bit(level, rng):
    mesh = build_uniform_mesh(level)
    scale = np.exp(rng.uniform(-3, 3, (mesh.num_cells, 1)))
    field = F.PCVectorField(mesh, rng.standard_normal((mesh.num_cells, 2)) * scale)
    field.values[::7] = 0.0
    for p in (1.1, 1.5, 2.0, 2.1, 3.0, 10.0, 11.0):
        assert F._lp_norm(field, p) == _old_lp_norm(field, p)
    assert np.array_equal(F.assemble_rhs(field), _old_assemble_rhs(field))


@pytest.mark.parametrize("level", range(1, 7))
def test_conjugate_and_residuals_are_the_old_expressions_bit_for_bit(level, rng):
    mesh = build_uniform_mesh(level)
    w = F.p1_zero_trace(mesh, rng.standard_normal(interior_vertex_indices(mesh).size))
    for p in (1.1, 1.5, 2.1, 3.0):
        assert np.array_equal(H.conjugate_field(w, p).values, _old_conjugate(F.gradient(w), p))
    s = F.PCVectorField(mesh, rng.standard_normal((mesh.num_cells, 2)))
    split = H.hodge_decompose(s)
    grad_phi = F.gradient(split.potential)
    assert np.array_equal(split.sigma.values, (s - grad_phi).values)
    recon = s - (grad_phi + split.sigma)
    old_recon = float(np.max(np.linalg.norm(recon.values, axis=1), initial=0.0))
    assert split.reconstruction_residual == old_recon
    old_orth = float(np.max(np.abs(_old_assemble_rhs(split.sigma)), initial=0.0))
    assert split.orthogonality_residual == old_orth


# ---------------------------------------------------------------------------
# conjugate gap


def test_gap_vanishes_at_p2(meshes, rng):
    mesh = meshes[3]
    w = F.p1_zero_trace(mesh, rng.uniform(-1, 1, interior_vertex_indices(mesh).size))
    g_norm, ratio = H.conjugate_gap(w, 2.0, solver_tol=1e-13)
    assert g_norm <= 1e-10
    assert ratio == 0.0


def test_gap_hand_oracle_level1_p4(meshes):
    # dense direct-solve oracle on the 8-cell mesh: the conjugate of the
    # center hat at p = 4 has per-cell values |grad|^2 grad; the single
    # interior unknown solves 4 phi = b with b assembled by hand, and the
    # remainder norm follows from the 6 support cells of area 1/8
    mesh = meshes[1]
    u = _hat_at_center(mesh)
    grads = F.gradient(u).values
    s_vals = (np.linalg.norm(grads, axis=1) ** 2)[:, None] * grads
    areas = np.full(mesh.num_cells, 1.0 / 8.0)
    hats, _ = F.hat_gradients(mesh)
    center_local = np.flatnonzero(
        (mesh.vertices[:, 0] == 0.5) & (mesh.vertices[:, 1] == 0.5)
    )[0]
    b = 0.0
    for k in range(mesh.num_cells):
        for a in range(3):
            if mesh.cells[k, a] == center_local:
                b += areas[k] * (s_vals[k] @ hats[k, a])
    assert b == pytest.approx(24.0, abs=1e-12)
    phi = b / 4.0  # the level-1 stiffness matrix is [4]
    assert phi == pytest.approx(6.0, abs=1e-12)
    g_vals = s_vals - phi * grads
    q = 4.0 / 3.0
    oracle = float(np.sum(areas * np.linalg.norm(g_vals, axis=1) ** q) ** (1.0 / q))
    g_norm, _ = H.conjugate_gap(u, 4.0, solver_tol=1e-13)
    assert g_norm == pytest.approx(oracle, abs=1e-10)


def test_gap_monotone_in_distance_from_two(meshes):
    u = _sinsin(meshes[3])
    mesh = meshes[3]
    gaps = {
        p: H.conjugate_gap(u, p, solver_tol=1e-13)[0]
        for p in (1.8, 1.9, 2.1, 2.2)
    }
    assert gaps[1.8] > gaps[1.9]
    assert gaps[2.2] > gaps[2.1]
    assert min(gaps[1.8], gaps[2.2]) > max(gaps[1.9], gaps[2.1])


def test_gap_ratio_stable_across_levels():
    for p in (1.8, 2.2):
        ratios = []
        for level in (1, 2, 3, 4):
            mesh = build_uniform_mesh(level)
            u = _sinsin(mesh)
            _, ratio = H.conjugate_gap(u, p, solver_tol=1e-13)
            ratios.append(ratio)
        assert max(ratios) / min(ratios) <= 2.0


def test_gap_rejects_zero_gradient(meshes):
    u = F.P1Function(meshes[1], np.zeros(meshes[1].num_vertices), zero_trace=True)
    with pytest.raises(DegenerateFieldError):
        H.conjugate_gap(u, 2.5)


# ---------------------------------------------------------------------------
# flux decomposition


def test_flux_identity_coefficient_has_no_remainder(meshes, rng):
    mesh = meshes[3]
    w = F.p1_zero_trace(mesh, rng.uniform(-1, 1, interior_vertex_indices(mesh).size))
    I_h = C.project_coefficient(C.identity_coefficient(), mesh)
    _, ell, ratio = H.flux_decompose(w, I_h, 2.0, solver_tol=1e-13)
    assert np.max(np.abs(ell.values)) <= 1e-10
    assert ratio <= 1e-10


def test_flux_scales_exactly(meshes):
    mesh = meshes[2]
    u = _sinsin(mesh)
    I_h = C.project_coefficient(C.identity_coefficient(), mesh)
    doubled = C.PiecewiseConstantMatrixField(mesh, 2.0 * I_h.values)
    A = C.project_coefficient(C.checkerboard_coefficient(5.0), mesh)
    A2 = C.PiecewiseConstantMatrixField(mesh, 2.0 * A.values)
    _, ell_1, _ = H.flux_decompose(u, A, 2.0)
    _, ell_2, _ = H.flux_decompose(u, A2, 2.0)
    assert np.array_equal(ell_2.values, 2.0 * ell_1.values)


def test_flux_ratio_bounded_for_checkerboard():
    # the remainder is controlled by the oscillation of the coefficient,
    # uniformly in the refinement level
    A = C.checkerboard_coefficient(5.0)

    def f(p):
        return np.column_stack([np.sin(np.pi * p[:, 0]), np.cos(np.pi * p[:, 1])])

    ratios = []
    for level in (2, 3, 4):
        mesh = build_uniform_mesh(level)
        A_h = C.project_coefficient(A, mesh)
        u = F.solve_projected(A_h, F.project_rhs(f, mesh, 1e-8))
        _, _, ratio = H.flux_decompose(u, A_h, 2.0)
        ratios.append(ratio)
    assert max(ratios) / min(ratios) <= 2.0


def test_flux_rejects_zero_gradient(meshes):
    u = F.P1Function(meshes[1], np.zeros(meshes[1].num_vertices), zero_trace=True)
    I_h = C.project_coefficient(C.identity_coefficient(), meshes[1])
    with pytest.raises(DegenerateFieldError):
        H.flux_decompose(u, I_h, 2.0)
