"""Finite elements for divergence-form elliptic problems whose coefficients
are unbounded but of bounded mean oscillation."""

from .mesh import (
    MAX_LEVEL,
    Mesh,
    build_uniform_mesh,
    cell_areas,
    interior_vertex_indices,
)
from .coeff import (
    CoefficientField,
    DyadicSquare,
    PiecewiseConstantMatrixField,
    ScalarField,
    TrigonometricForm,
    bmo_seminorm_estimate,
    checkerboard_coefficient,
    coefficient_entry,
    coefficient_error,
    coercivity_of_projection,
    constant_coefficient,
    identity_coefficient,
    john_nirenberg_check,
    load_sampled_coefficient,
    log_reciprocal_scalar,
    log_singular_coefficient,
    project_coefficient,
    smooth_coefficient,
)
from .fem import (
    GalerkinSolve,
    P1Function,
    PCVectorField,
    SPDSystem,
    assemble_rhs,
    assemble_stiffness,
    evaluate_p1,
    galerkin_solve,
    gradient,
    interpolate_p1,
    lp_norm,
    p1_zero_trace,
    poisson_solve,
    project_rhs,
    solve_bvp,
    solve_projected,
    solve_spd,
)
from .hodge import (
    HodgeSplit,
    conjugate_field,
    conjugate_gap,
    flux_decompose,
    hodge_decompose,
)
from .harness import (
    CSV_HEADER,
    ExperimentConfig,
    ReportRow,
    StudyReport,
    config_from_dict,
    prolong,
    report_to_csv,
    run_study,
    write_report,
)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
