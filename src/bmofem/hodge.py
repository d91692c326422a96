"""Discrete Hodge decomposition of cell-wise constant vector fields.

A field s in Q_h splits uniquely as s = grad(phi) + g with phi a
zero-trace P1 function and g discretely divergence free, i.e. orthogonal
to every discrete gradient.  phi is obtained by projecting s onto discrete
gradients through the identity-coefficient Poisson problem; the same
projection is used whatever norm the split is later measured in, so the
split itself is norm independent.

On the structured mesh that Poisson problem is the 5-point Laplacian and is
solved exactly by a sine transform (fem.poisson_solve); its normwise
backward error is checked against the solver tolerance, with at most
REFINEMENT_STEPS correction solves.

Every function works on the mesh of the field it is given:
hodge_decompose(s, solver_tol), conjugate_gap(u, p, solver_tol).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeff import PiecewiseConstantMatrixField
from .errors import DegenerateFieldError, IterationLimitError, MeshTooCoarseError
from .fem import (
    DEFAULT_SOLVER_TOL,
    P1Function,
    PCVectorField,
    _lp_norm,
    _require_p,
    _require_solver_tol,
    assemble_rhs,
    flux,
    gradient,
    lp_norm,
    p1_zero_trace,
    poisson_solve,
)
from .quadrature import _column_norm, _flat_norm

REFINEMENT_STEPS = 2
# Bound on the 2-norm of the 5-point Laplacian: its eigenvalues
# 4 sin^2(pi j / 2n) + 4 sin^2(pi k / 2n) lie below 8.
LAPLACIAN_NORM_BOUND = 8.0


@dataclass(frozen=True)
class HodgeSplit:
    """Result of a discrete Hodge decomposition.

    potential: the zero-trace P1 part (its gradient is the projection).
    sigma: the discretely divergence-free remainder.
    reconstruction_residual: max cell defect of potential-gradient + sigma
    against the input field.
    orthogonality_residual: max residual of sigma against interior hats.
    """

    potential: P1Function
    sigma: PCVectorField
    reconstruction_residual: float
    orthogonality_residual: float


def hodge_decompose(s: PCVectorField, solver_tol: float = DEFAULT_SOLVER_TOL) -> HodgeSplit:
    """Split s into a discrete gradient plus a discretely divergence-free
    remainder, on s's mesh.

    The residual b - K x of the Poisson solve, with K x assembled from the
    gradient of the potential, must reach the normwise backward error
    bound solver_tol * (8 ||x|| + ||b||) of Rigal and Gaches (1967), 8
    bounding ||K||.  A bound relative to ||b|| alone is out of reach for
    smooth data on fine meshes: forming K x rounds at about eps ||K|| ||x||,
    and ||x|| / ||b|| grows like h^-2.  Raises IterationLimitError naming
    the level when REFINEMENT_STEPS correction solves do not get there.
    """
    _require_solver_tol(solver_tol)
    mesh = s.mesh
    if mesh.level == 0:
        raise MeshTooCoarseError(
            "mesh has no interior vertices; refine at least once"
        )
    b = assemble_rhs(s)
    b_norm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    residual = b
    for _ in range(REFINEMENT_STEPS + 1):
        x = x + poisson_solve(mesh, residual)
        phi = p1_zero_trace(mesh, x)
        grad_phi = gradient(phi)
        residual = b - assemble_rhs(grad_phi)
        res_norm = float(np.linalg.norm(residual))
        scale = LAPLACIAN_NORM_BOUND * float(np.linalg.norm(x)) + b_norm
        if res_norm <= solver_tol * scale:
            break
    else:
        raise IterationLimitError(
            f"Hodge split at level {mesh.level}: backward error "
            f"{res_norm / scale:.3e} above {solver_tol:.1e} after "
            f"{REFINEMENT_STEPS} correction solves",
            relative_residual=res_norm / b_norm,
        )
    g = s - grad_phi
    # the cell defects of s - (grad_phi + g), one value column at a time
    sv, pv, gv = s.values, grad_phi.values, g.values
    defect = _column_norm(sv[:, c] - (pv[:, c] + gv[:, c]) for c in range(2))
    recon_res = float(np.max(defect, initial=0.0))
    orth_res = float(np.max(np.abs(assemble_rhs(g)), initial=0.0))
    return HodgeSplit(
        potential=phi,
        sigma=g,
        reconstruction_residual=recon_res,
        orthogonality_residual=orth_res,
    )


def conjugate_field(u: P1Function, p: float) -> PCVectorField:
    """Cell-wise |grad u|^(p-2) grad u; zero-gradient cells map to zero.

    The cell magnitudes are |grad u|^(p-1), and the L^q norm (q conjugate
    to p) raised to q equals the L^p norm of grad u raised to p.
    """
    _require_p(p)
    return _conjugate(gradient(u), p)


def _conjugate(gu: PCVectorField, p: float) -> PCVectorField:
    mags = _flat_norm(gu.values)
    with np.errstate(divide="ignore"):
        scale = np.where(mags > 0.0, mags ** (p - 2.0), 0.0)
    return PCVectorField(gu.mesh, scale[:, None] * gu.values)


def conjugate_gap(u: P1Function, p: float, solver_tol: float = DEFAULT_SOLVER_TOL):
    """Size of the divergence-free part of the conjugate of grad u.

    Returns (g_norm, bound_ratio) with g_norm the L^q norm of the
    divergence-free component and bound_ratio its size against
    |p-2| * ||grad u||_{L^p}^{p/q}.  At p = 2 the conjugate is grad u
    itself, so g_norm is at solver-noise level and bound_ratio is 0 by
    convention.
    """
    _require_p(p)
    gu = gradient(u)
    if not np.any(gu.values):
        raise DegenerateFieldError("conjugate gap of a function with zero gradient")
    split = hodge_decompose(_conjugate(gu, p), solver_tol)
    q = p / (p - 1.0)
    g_norm = _lp_norm(split.sigma, q)
    if p == 2.0:
        return g_norm, 0.0
    denom = abs(p - 2.0) * lp_norm(gu, p) ** (p / q)
    return g_norm, g_norm / denom


def flux_decompose(
    u: P1Function,
    A_h: PiecewiseConstantMatrixField,
    p: float,
    solver_tol: float = DEFAULT_SOLVER_TOL,
):
    """Hodge decomposition of the flux A_h grad u.

    Returns (grad_part, ell, bound_ratio): the P1 potential of the flux,
    its discretely divergence-free part, and
    ||ell||_{L^p} / ||grad u||_{L^p}.  The comparison against the
    coefficient oscillation is left to the caller.
    """
    _require_p(p)
    gu = gradient(u)
    gu_norm = lp_norm(gu, p)
    if gu_norm == 0.0:
        raise DegenerateFieldError("flux decomposition of a function with zero gradient")
    split = hodge_decompose(flux(A_h, gu), solver_tol)
    ratio = lp_norm(split.sigma, p) / gu_norm
    return split.potential, split.sigma, ratio
