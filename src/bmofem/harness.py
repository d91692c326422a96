"""Experiment driver: stability, convergence, decay, Hodge and BMO studies.

Each study consumes an ExperimentConfig and produces a StudyReport whose
rows are written as CSV with the fixed header

    level,cells,grad_lp,f_lp,stability_ratio,err_phat,order,coeff_err_l2,conj_gap_ratio,flux_ratio

Absent quantities are written as empty fields, floats with 17 significant
digits.  Reports are deterministic: the same config always byte-reproduces
its CSV.  Output files are written atomically; an aborted run leaves no
partial file.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field, fields as dc_fields
from typing import Callable

import numpy as np

from . import coeff as coeff_mod
from . import fem, hodge
from .errors import ConfigError, LineageError
from .mesh import MAX_LEVEL, Mesh, build_uniform_mesh
from .fem import P1Function, PCVectorField

CSV_HEADER = (
    "level,cells,grad_lp,f_lp,stability_ratio,err_phat,order,"
    "coeff_err_l2,conj_gap_ratio,flux_ratio"
)
KINDS = ("stability", "convergence", "hodge-suite", "coeff-decay", "bmo-diagnostics")
COEFF_NAMES = ("identity", "smooth", "log", "checkerboard", "sampled")
RHS_NAMES = ("constant", "sin-cos", "grad-sinsin")

HODGE_SUITE_FIELDS = 50
BMO_DIAG_DEPTH = 6
JN_DEPTH = 10
JN_LAMBDAS = (1.0, 2.0, 3.0, 4.0)
MAXIMAL_GRID = 17
MAXIMAL_BOUND_CONSTANT = 2.0  # containing-square to cell measure ratio
MAXIMAL_BOUND_TOL = 1e-6


@dataclass(frozen=True)
class ExperimentConfig:
    """One study: coefficient and data fixtures, exponents, levels, seeds,
    tolerances, output path."""

    kind: str
    coeff: str = "identity"
    beta: float = 0.5
    kappa: float = 5.0
    coeff_csv: str | None = None
    rhs: str = "sin-cos"
    p: float = 2.0
    p_hat: float = 2.0
    levels: tuple[int, ...] = (2, 3, 4)
    seed: int = 0
    solver_tol: float = 1e-12
    projection_tol: float = coeff_mod.DEFAULT_PROJECTION_TOL
    out: str | None = None

    def validate(self) -> "ExperimentConfig":
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.coeff not in COEFF_NAMES:
            raise ConfigError(f"unknown coefficient fixture {self.coeff!r}")
        if self.coeff == "sampled" and not self.coeff_csv:
            raise ConfigError("coeff 'sampled' requires coeff_csv")
        if self.rhs not in RHS_NAMES:
            raise ConfigError(f"unknown rhs fixture {self.rhs!r}")
        for name, val in (("p", self.p), ("p_hat", self.p_hat)):
            if not (fem.P_RANGE[0] <= val <= fem.P_RANGE[1]):
                raise ConfigError(f"{name} must be in [1.1, 10], got {val}")
        if not self.levels:
            raise ConfigError("levels must be nonempty")
        if any(not (0 <= l <= MAX_LEVEL) for l in self.levels):
            raise ConfigError(f"levels must lie in [0, {MAX_LEVEL}]")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ConfigError("levels must be strictly increasing")
        if self.kind == "convergence":
            if not (self.p_hat <= self.p):
                raise ConfigError("convergence requires p_hat <= p")
            if len(self.levels) < 2:
                raise ConfigError("convergence requires study levels plus a reference")
            if self.levels[-1] < self.levels[-2] + 2:
                raise ConfigError(
                    "reference level must exceed the last study level by at least 2"
                )
        if self.kind in ("stability", "convergence", "hodge-suite") and self.levels[0] < 1:
            raise ConfigError(f"{self.kind} needs meshes with interior vertices (level >= 1)")
        lo, hi = fem.SOLVER_TOL_RANGE
        if not (lo <= self.solver_tol <= hi):
            raise ConfigError(f"solver_tol must be in [{lo}, {hi}]")
        lo, hi = coeff_mod.PROJECTION_TOL_RANGE
        if not (lo <= self.projection_tol <= hi):
            raise ConfigError(f"projection_tol must be in [{lo}, {hi}]")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigError("seed must fit in 64 bits")
        return self


def parse_levels(spec) -> tuple[int, ...]:
    """Accept [2,3,4], "2..4", or "2..4,7" (range plus extra levels)."""
    if isinstance(spec, (list, tuple)):
        return tuple(int(x) for x in spec)
    if isinstance(spec, str):
        out: list[int] = []
        for part in spec.split(","):
            part = part.strip()
            if ".." in part:
                a, b = part.split("..")
                out.extend(range(int(a), int(b) + 1))
            elif part:
                out.append(int(part))
        return tuple(out)
    raise ConfigError(f"cannot parse levels from {spec!r}")


_CONFIG_KEYS = {f.name for f in dc_fields(ExperimentConfig)}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate a config from a JSON object; unknown keys are
    rejected."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "kind" not in data:
        raise ConfigError("config must declare 'kind'")
    kwargs = dict(data)
    try:
        if "levels" in kwargs:
            kwargs["levels"] = parse_levels(kwargs["levels"])
        cfg = ExperimentConfig(**kwargs)
        return cfg.validate()
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dict(asdict(cfg), levels=list(cfg.levels))


def config_echo(cfg: ExperimentConfig) -> str:
    """Canonical JSON echo; parsing it reproduces the run."""
    return json.dumps(config_to_dict(cfg), sort_keys=True)


def coefficient_fixture(cfg: ExperimentConfig) -> coeff_mod.CoefficientField:
    if cfg.coeff == "identity":
        return coeff_mod.identity_coefficient()
    if cfg.coeff == "smooth":
        return coeff_mod.smooth_coefficient()
    if cfg.coeff == "log":
        return coeff_mod.log_singular_coefficient(cfg.beta)
    if cfg.coeff == "checkerboard":
        return coeff_mod.checkerboard_coefficient(cfg.kappa)
    return coeff_mod.load_sampled_coefficient(cfg.coeff_csv)


def rhs_fixture(cfg: ExperimentConfig) -> Callable[[np.ndarray], np.ndarray]:
    if cfg.rhs == "constant":
        return lambda P: np.broadcast_to(np.array([1.0, 0.0]), (P.shape[0], 2)).copy()
    if cfg.rhs == "sin-cos":
        return lambda P: np.column_stack(
            [np.sin(np.pi * P[:, 0]), np.cos(np.pi * P[:, 1])]
        )
    return lambda P: np.column_stack(
        [
            np.pi * np.cos(np.pi * P[:, 0]) * np.sin(np.pi * P[:, 1]),
            np.pi * np.sin(np.pi * P[:, 0]) * np.cos(np.pi * P[:, 1]),
        ]
    )


def diagnostic_scalar(cfg: ExperimentConfig) -> coeff_mod.ScalarField:
    """Scalar used by the BMO diagnostics: the classical log example for
    the unbounded fixture, the (1,1) entry otherwise."""
    if cfg.coeff == "log":
        return coeff_mod.log_reciprocal_scalar()
    return coeff_mod.coefficient_entry(coefficient_fixture(cfg), 0, 0)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ReportRow:
    level: int
    cells: int | None = None
    grad_lp: float | None = None
    f_lp: float | None = None
    stability_ratio: float | None = None
    err_phat: float | None = None
    order: float | None = None
    coeff_err_l2: float | None = None
    conj_gap_ratio: float | None = None
    flux_ratio: float | None = None


@dataclass(frozen=True)
class StudyReport:
    rows: tuple[ReportRow, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        levels = [r.level for r in self.rows]
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ConfigError("report rows must be strictly increasing in level")
        for r in self.rows:
            for name in ("grad_lp", "f_lp", "err_phat", "coeff_err_l2"):
                v = getattr(r, name)
                if v is not None and v < 0:
                    raise ConfigError(f"negative norm {name} in report row {r.level}")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def report_to_csv(report: StudyReport) -> str:
    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    r.level,
                    r.cells,
                    r.grad_lp,
                    r.f_lp,
                    r.stability_ratio,
                    r.err_phat,
                    r.order,
                    r.coeff_err_l2,
                    r.conj_gap_ratio,
                    r.flux_ratio,
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_report(report: StudyReport, path: str) -> None:
    """Atomic CSV write: the target file appears complete or not at all."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(report_to_csv(report))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# prolongation


def prolong(u: P1Function, fine: Mesh) -> P1Function:
    """Represent a coarse P1 function exactly on a nested finer mesh."""
    if fine.level < u.mesh.level:
        raise LineageError(
            f"target level {fine.level} is coarser than source level {u.mesh.level}"
        )
    vals = fem.evaluate_p1(u, fine.vertices)
    return P1Function(fine, vals, u.zero_trace)


# ---------------------------------------------------------------------------
# shared measurement helpers


def data_oscillation(f, f_h: PCVectorField, p: float, rel_tol=1e-4) -> float:
    """||f - f_h||_{L^p} for a callable f against its cell averages."""
    return coeff_mod.lp_misfit(f, f_h.values, f_h.mesh, p, rel_tol)


def gradient_error_against(grad_exact, u: P1Function, p: float, rel_tol=1e-4) -> float:
    """||grad_exact - grad u||_{L^p} with grad_exact a callable field."""
    return coeff_mod.lp_misfit(grad_exact, fem.gradient(u).values, u.mesh, p, rel_tol)


def _solve_level(cfg: ExperimentConfig, A, f, level: int):
    mesh = build_uniform_mesh(level)
    A_h = coeff_mod.project_coefficient(A, mesh, cfg.projection_tol)
    f_h = fem.project_rhs(f, mesh, cfg.projection_tol)
    u = fem.solve_projected(mesh, A_h, f_h, cfg.solver_tol)
    return mesh, A_h, f_h, u


# ---------------------------------------------------------------------------
# studies


def run_stability_study(cfg: ExperimentConfig) -> StudyReport:
    """Per level: solve, record the gradient-to-data norm ratio plus the
    conjugate-gap and flux-split ratios."""
    cfg = cfg.validate()
    A = coefficient_fixture(cfg)
    f = rhs_fixture(cfg)
    rows = []
    oscillations = []
    timings = []
    for level in cfg.levels:
        t0 = time.perf_counter()
        mesh, A_h, f_h, u = _solve_level(cfg, A, f, level)
        grad_lp = fem.lp_norm(fem.gradient(u), cfg.p)
        f_lp = fem.lp_norm(f_h, cfg.p)
        if grad_lp > 0.0:
            _, conj_ratio = hodge.conjugate_gap(u, cfg.p, mesh, cfg.solver_tol)
            _, _, flux_ratio = hodge.flux_decompose(u, A_h, cfg.p, cfg.solver_tol)
        else:
            # data whose discrete load vanishes gives u = 0; the split
            # ratios are undefined and their columns stay empty
            conj_ratio = None
            flux_ratio = None
        err_l2 = coeff_mod.coefficient_error(A, A_h, 2.0)
        oscillations.append(data_oscillation(f, f_h, cfg.p))
        rows.append(
            ReportRow(
                level=level,
                cells=mesh.num_cells,
                grad_lp=grad_lp,
                f_lp=f_lp,
                stability_ratio=grad_lp / f_lp,
                coeff_err_l2=err_l2,
                conj_gap_ratio=conj_ratio,
                flux_ratio=flux_ratio,
            )
        )
        timings.append(time.perf_counter() - t0)
    ratios = [r.stability_ratio for r in rows]
    spread = max(ratios) / min(ratios) if min(ratios) > 0 else None
    meta = {
        "config": config_echo(cfg),
        "kind": cfg.kind,
        "stability_ratio_max_over_min": spread,
        "data_oscillation_lp": oscillations,
        "timings_s": timings,
    }
    return StudyReport(rows=tuple(rows), metadata=meta)


def run_convergence_study(cfg: ExperimentConfig) -> StudyReport:
    """Errors against a fine reference solution under exact prolongation;
    the last configured level is the reference."""
    cfg = cfg.validate()
    A = coefficient_fixture(cfg)
    f = rhs_fixture(cfg)
    study_levels = cfg.levels[:-1]
    ref_level = cfg.levels[-1]
    timings = []
    t0 = time.perf_counter()
    ref_mesh, ref_A_h, ref_f_h, u_ref = _solve_level(cfg, A, f, ref_level)
    g_ref = fem.gradient(u_ref)
    ref_time = time.perf_counter() - t0
    rows = []
    prev_err = None
    for level in study_levels:
        t0 = time.perf_counter()
        mesh, A_h, f_h, u = _solve_level(cfg, A, f, level)
        grad_lp = fem.lp_norm(fem.gradient(u), cfg.p)
        f_lp = fem.lp_norm(f_h, cfg.p)
        err = fem.lp_norm(g_ref - fem.gradient(prolong(u, ref_mesh)), cfg.p_hat)
        order = None if prev_err is None else float(np.log2(prev_err / err))
        prev_err = err
        rows.append(
            ReportRow(
                level=level,
                cells=mesh.num_cells,
                grad_lp=grad_lp,
                f_lp=f_lp,
                stability_ratio=grad_lp / f_lp,
                err_phat=err,
                order=order,
                coeff_err_l2=coeff_mod.coefficient_error(A, A_h, 2.0),
            )
        )
        timings.append(time.perf_counter() - t0)
    grad_lp = fem.lp_norm(g_ref, cfg.p)
    f_lp = fem.lp_norm(ref_f_h, cfg.p)
    rows.append(
        ReportRow(
            level=ref_level,
            cells=ref_mesh.num_cells,
            grad_lp=grad_lp,
            f_lp=f_lp,
            stability_ratio=grad_lp / f_lp,
            coeff_err_l2=coeff_mod.coefficient_error(A, ref_A_h, 2.0),
        )
    )
    meta = {
        "config": config_echo(cfg),
        "kind": cfg.kind,
        "reference_level": ref_level,
        "reference_time_s": ref_time,
        "timings_s": timings,
    }
    return StudyReport(rows=tuple(rows), metadata=meta)


def run_coeff_decay_study(cfg: ExperimentConfig) -> StudyReport:
    """||A - A_h||_{L^r} per level with r = p; the L^2 value fills the
    dedicated column, the r-norm sequence drives the order column."""
    cfg = cfg.validate()
    A = coefficient_fixture(cfg)
    rows = []
    err_r_list = []
    prev = None
    for level in cfg.levels:
        mesh = build_uniform_mesh(level)
        A_h = coeff_mod.project_coefficient(A, mesh, cfg.projection_tol)
        err_r = coeff_mod.coefficient_error(A, A_h, cfg.p)
        err_l2 = err_r if cfg.p == 2.0 else coeff_mod.coefficient_error(A, A_h, 2.0)
        order = None
        if prev is not None:
            order = None if (err_r == 0 or prev == 0) else float(np.log2(prev / err_r))
        prev = err_r
        err_r_list.append(err_r)
        rows.append(
            ReportRow(level=level, cells=mesh.num_cells, coeff_err_l2=err_l2, order=order)
        )
    meta = {
        "config": config_echo(cfg),
        "kind": cfg.kind,
        "coeff_err_lr": err_r_list,
        "r": cfg.p,
    }
    return StudyReport(rows=tuple(rows), metadata=meta)


def run_hodge_suite(cfg: ExperimentConfig) -> StudyReport:
    """Random piecewise constant fields per level: decomposition residuals
    and the L^r stability ratio of the split, r = p."""
    cfg = cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    rows = []
    residuals = []
    for level in cfg.levels:
        mesh = build_uniform_mesh(level)
        worst_ratio = 0.0
        worst_recon = 0.0
        worst_orth = 0.0
        for _ in range(HODGE_SUITE_FIELDS):
            s = PCVectorField(mesh, rng.standard_normal((mesh.num_cells, 2)))
            split = hodge.hodge_decompose(s, mesh, cfg.solver_tol)
            ratio = (
                fem.lp_norm(fem.gradient(split.potential), cfg.p)
                + fem.lp_norm(split.sigma, cfg.p)
            ) / fem.lp_norm(s, cfg.p)
            worst_ratio = max(worst_ratio, ratio)
            worst_recon = max(worst_recon, split.reconstruction_residual)
            worst_orth = max(worst_orth, split.orthogonality_residual)
        residuals.append(
            {"level": level, "reconstruction": worst_recon, "orthogonality": worst_orth}
        )
        rows.append(
            ReportRow(level=level, cells=mesh.num_cells, stability_ratio=worst_ratio)
        )
    meta = {
        "config": config_echo(cfg),
        "kind": cfg.kind,
        "fields_per_level": HODGE_SUITE_FIELDS,
        "residuals": residuals,
    }
    return StudyReport(rows=tuple(rows), metadata=meta)


def maximal_bound_check(w, level: int, tol=MAXIMAL_BOUND_TOL, gen_means=None):
    """Verify mesh_maximal <= 2 * dyadic_maximal + tol on a 17x17 grid.

    The constant 2 is the measure ratio between a cell and its containing
    grid square, which for this mesh family is itself a dyadic square, so
    the dyadic family at depth = level always contains it.  gen_means[j]
    holds the |w| averages of the generation-j squares for j = 0..level (or
    deeper), as coeff.abs_means_pyramid builds them; by default that
    pyramid is built for this level.  Returns (violations, worst_margin).
    """
    mesh = build_uniform_mesh(level)
    cell_means = coeff_mod.cell_abs_means(w, mesh)
    if gen_means is None:
        gen_means = coeff_mod.abs_means_pyramid(w, level)
    grid = np.linspace(0.0, 1.0, MAXIMAL_GRID)
    violations = 0
    worst = -np.inf
    for x in grid:
        for y in grid:
            pt = (x, y)
            mm = max(cell_means[c] for c in coeff_mod.cells_containing(mesh, pt))
            dm = -np.inf
            for j in range(level + 1):
                n = 2**j
                for sq in coeff_mod.dyadic_squares_containing(pt, j):
                    dm = max(dm, gen_means[j][sq.iy * n + sq.ix])
            margin = mm - MAXIMAL_BOUND_CONSTANT * dm
            worst = max(worst, margin)
            if margin > tol:
                violations += 1
    return violations, float(worst)


def run_bmo_diagnostics(cfg: ExperimentConfig) -> StudyReport:
    """BMO seminorm estimates per depth, the John-Nirenberg distribution
    table, and the maximal-function comparison per level."""
    cfg = cfg.validate()
    A = coefficient_fixture(cfg)
    w = diagnostic_scalar(cfg)
    _, oscs, fallbacks = coeff_mod.dyadic_oscillations(w, BMO_DIAG_DEPTH)
    seminorm_by_depth = [float(v) for v in np.maximum.accumulate([o.max() for o in oscs])]
    jn_table = coeff_mod.john_nirenberg_check(
        w, coeff_mod.DyadicSquare(0, 0, 0), JN_LAMBDAS, JN_DEPTH
    )
    abs_means = coeff_mod.abs_means_pyramid(w, cfg.levels[-1])
    rows = []
    lemma = []
    for level in cfg.levels:
        mesh = build_uniform_mesh(level)
        A_h = coeff_mod.project_coefficient(A, mesh, cfg.projection_tol)
        violations, worst = maximal_bound_check(w, level, gen_means=abs_means)
        lemma.append({"level": level, "violations": violations, "worst_margin": worst})
        rows.append(
            ReportRow(
                level=level,
                cells=mesh.num_cells,
                coeff_err_l2=coeff_mod.coefficient_error(A, A_h, 2.0),
            )
        )
    meta = {
        "config": config_echo(cfg),
        "kind": cfg.kind,
        "scalar": w.name,
        "seminorm_by_depth": seminorm_by_depth,
        "john_nirenberg": [list(t) for t in jn_table],
        "maximal_bound": lemma,
        "dyadic_fallbacks": fallbacks,
    }
    return StudyReport(rows=tuple(rows), metadata=meta)


_RUNNERS = {
    "stability": run_stability_study,
    "convergence": run_convergence_study,
    "coeff-decay": run_coeff_decay_study,
    "hodge-suite": run_hodge_suite,
    "bmo-diagnostics": run_bmo_diagnostics,
}


def run_study(cfg: ExperimentConfig) -> StudyReport:
    """Dispatch on config kind; writes the CSV when an output path is set."""
    cfg = cfg.validate()
    report = _RUNNERS[cfg.kind](cfg)
    if cfg.out:
        write_report(report, cfg.out)
    return report
