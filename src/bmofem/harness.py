"""Experiment driver: stability, convergence, decay, Hodge and BMO studies.

Each study consumes an ExperimentConfig and produces a StudyReport whose
rows are written as CSV, one column per ReportRow field in field order
(CSV_HEADER).  Absent quantities are written as empty fields, floats with
17 significant digits.  Reports are deterministic: the same config always
byte-reproduces its CSV.  Output files are written atomically; an aborted
run leaves no partial file.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field, fields as dc_fields, replace

import numpy as np

from . import coeff as coeff_mod
from . import fem, hodge
from .errors import ConfigError, LineageError
from .mesh import MAX_LEVEL, Mesh, build_uniform_mesh
from .fem import P1Function, PCVectorField

KINDS = ("stability", "convergence", "hodge-suite", "coeff-decay", "bmo-diagnostics")
COEFF_NAMES = ("identity", "smooth", "log", "checkerboard", "sampled")
RHS_NAMES = ("constant", "sin-cos", "grad-sinsin")

HODGE_SUITE_FIELDS = 50
BMO_DIAG_DEPTH = 6
JN_DEPTH = 10  # the sampler's grid; a scalar with a radial profile takes exact areas
JN_LAMBDAS = (1.0, 2.0, 3.0, 4.0)
MAXIMAL_GRID = 17
MAXIMAL_BOUND_CONSTANT = 2.0  # containing-square to cell measure ratio
MAXIMAL_BOUND_TOL = 1e-6


@dataclass(frozen=True)
class ExperimentConfig:
    """One study: coefficient and data fixtures, exponents, levels, seed,
    solver tolerance, output path."""

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
    out: str | None = None

    def validate(self) -> "ExperimentConfig":
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.coeff not in COEFF_NAMES:
            raise ConfigError(f"unknown coefficient fixture {self.coeff!r}")
        if self.coeff == "sampled" and not self.coeff_csv:
            raise ConfigError("coeff 'sampled' requires coeff_csv")
        if self.coeff == "log" and not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ConfigError(f"beta must be finite and >= 0, got {self.beta}")
        if self.coeff == "checkerboard" and not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise ConfigError(f"kappa must be finite and > 0, got {self.kappa}")
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
        if not (0 <= _integer("seed", self.seed) < 2**64):
            raise ConfigError("seed must fit in 64 bits")
        return self


def _integer(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"invalid config value: {name} takes integers only, got {value!r}")
    return int(value)


def parse_levels(spec) -> tuple[int, ...]:
    """Accept [2,3,4], "2..4", or "2..4,7" (range plus extra levels)."""
    if isinstance(spec, (list, tuple)):
        return tuple(_integer("levels", x) for x in spec)
    if isinstance(spec, str):
        out: list[int] = []
        for part in spec.split(","):
            part = part.strip()
            if ".." in part:
                a, b = (int(x) for x in part.split(".."))
                if b < a:
                    raise ConfigError(f"reversed level range {part!r}")
                out.extend(range(a, b + 1))
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


def rhs_fixture(cfg: ExperimentConfig) -> coeff_mod.TrigonometricForm:
    """The rhs field, declared trigonometric (coeff.TrigonometricForm):
    constant (1, 0); sin-cos (sin pi x, cos pi y); grad-sinsin, the gradient
    of sin(pi x) sin(pi y), with pi cos(pi x) sin(pi y) =
    (pi / 2) (sin(pi (x + y)) - sin(pi (x - y))) and pi sin(pi x) cos(pi y)
    = (pi / 2) (sin(pi (x + y)) + sin(pi (x - y))), sin = Re(-i e^{i .})."""
    if cfg.rhs == "constant":
        terms = (((1.0, (0, 0)),), ())
    elif cfg.rhs == "sin-cos":
        terms = (((-1j, (1, 0)),), ((1.0, (0, 1)),))
    else:
        half = 0.5j * np.pi
        terms = (((-half, (1, 1)), (half, (1, -1))), ((-half, (1, 1)), (-half, (1, -1))))
    return coeff_mod.TrigonometricForm((2,), terms)


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


_CSV_COLUMNS = tuple(f.name for f in dc_fields(ReportRow))
CSV_HEADER = ",".join(_CSV_COLUMNS)


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
    lines += [",".join(_fmt(getattr(r, c)) for c in _CSV_COLUMNS) for r in report.rows]
    return "\n".join(lines) + "\n"


def _report(cfg: ExperimentConfig, rows, **meta) -> StudyReport:
    """The study's report; its metadata starts with the config echo and kind."""
    return StudyReport(
        rows=tuple(rows), metadata={"config": config_echo(cfg), "kind": cfg.kind, **meta}
    )


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
    """||f - f_h||_{L^p} for a callable f against its cell averages, by
    coeff.lp_misfit.  The stability study reports the p = 2 value, which
    for a trigonometric f (every rhs fixture) is exact, by the identity
    int_K |f - f_K|^2 = int_K |f|^2 - |K| |f_K|^2 with |f|^2 trigonometric
    too, and costs no evaluation of f.  Any other f, or p != 2, refines:
    at p != 2 the integrand |f - f_K|^p is not smooth where f - f_K
    vanishes, inside every cell, so the cell means refine deep."""
    form = f if isinstance(f, coeff_mod.TrigonometricForm) else None
    return coeff_mod.lp_misfit(f, f_h, p, rel_tol, trigonometric=form)


def _projected_oscillation(f, f_h: PCVectorField) -> float:
    """data_oscillation(f, f_h, 2.0) for f_h = fem.project_rhs(f, ...),
    bit for bit.  f_h holds the exact cell means M_K of a trigonometric f,
    so the L^2 identity reads them instead of recomputing them; c_K - M_K
    is exactly 0 either way."""
    if not isinstance(f, coeff_mod.TrigonometricForm):
        return data_oscillation(f, f_h, 2.0)
    means = coeff_mod._trigonometric_misfit_means(f, f_h, f_h.values)
    return coeff_mod._misfit_norm(means, f_h.mesh.level, 2.0)


def gradient_error_against(grad_exact, u: P1Function, p: float, rel_tol=1e-4) -> float:
    """||grad_exact - grad u||_{L^p} with grad_exact a callable field."""
    return coeff_mod.lp_misfit(grad_exact, fem.gradient(u), p, rel_tol)


def _project_level(A, level: int):
    """Project A on the level mesh; the row carries the level, its cell
    count and the L^2 coefficient error.  Also returns the cell means of
    |w| that the projection read for A = (1 + beta |w|) I, else None."""
    mesh = build_uniform_mesh(level)
    A_h, err, abs_means = coeff_mod._projection_with_abs_means(A, mesh)
    return A_h, ReportRow(level=level, cells=mesh.num_cells, coeff_err_l2=err), abs_means


def _solve_level(cfg: ExperimentConfig, A, f, level: int):
    """_project_level, then project f on the same mesh and solve; the row
    adds the gradient and data norms and their ratio.  Also returns the
    solve's CG record for the metadata (_solver_record).  f_h is exact for
    every rhs fixture; an undeclared f refines to the default tolerance."""
    A_h, row, _ = _project_level(A, level)
    f_h = fem.project_rhs(f, A_h.mesh, coeff_mod.DEFAULT_PROJECTION_TOL)
    solve = fem.galerkin_solve(A_h, f_h, cfg.solver_tol)
    u = solve.u
    grad_lp = fem.lp_norm(fem.gradient(u), cfg.p)
    f_lp = fem.lp_norm(f_h, cfg.p)
    row = replace(row, grad_lp=grad_lp, f_lp=f_lp, stability_ratio=grad_lp / f_lp)
    return A_h, f_h, u, row, solve


def _solver_record(solves) -> dict:
    """Metadata of a study's solves, one entry per level in level order:
    CG iterations and the preconditioner galerkin_solve chose."""
    return {
        "cg_iterations": [s.cg_iterations for s in solves],
        "preconditioner": [s.preconditioner for s in solves],
    }


def _orders(errors) -> list:
    """log2(previous / current) per level: None for the first level and
    wherever either error is 0."""
    pairs = zip(errors, errors[1:])
    return [None] + [float(np.log2(a / b)) if a != 0 and b != 0 else None for a, b in pairs]


# ---------------------------------------------------------------------------
# studies


def run_stability_study(cfg: ExperimentConfig) -> StudyReport:
    """Per level: solve, record the gradient-to-data norm ratio plus the
    conjugate-gap and flux-split ratios.

    The metadata's data_oscillation_l2 holds ||f - f_h||_{L^2} per level,
    whatever p.  The scheme loads the P1 system with the cell means f_h, and
    that load equals the load of f exactly (the test gradients are constant
    per cell), so the oscillation never enters u_h; it is reported, not
    used, and its L^2 integrand stays smooth where the L^p one does not."""
    A = coefficient_fixture(cfg)
    f = rhs_fixture(cfg)
    rows = []
    oscillations = []
    timings = []
    solves = []
    for level in cfg.levels:
        t0 = time.perf_counter()
        A_h, f_h, u, row, solve = _solve_level(cfg, A, f, level)
        solves.append(solve)
        # data whose discrete load vanishes gives u = 0; the split ratios
        # are undefined and their columns stay empty
        if row.grad_lp > 0.0:
            _, conj_ratio = hodge.conjugate_gap(u, cfg.p, cfg.solver_tol)
            _, _, flux_ratio = hodge.flux_decompose(u, A_h, cfg.p, cfg.solver_tol)
            row = replace(row, conj_gap_ratio=conj_ratio, flux_ratio=flux_ratio)
        oscillations.append(_projected_oscillation(f, f_h))
        rows.append(row)
        timings.append(time.perf_counter() - t0)
    ratios = [r.stability_ratio for r in rows]
    return _report(
        cfg,
        rows,
        stability_ratio_max_over_min=max(ratios) / min(ratios) if min(ratios) > 0 else None,
        data_oscillation_l2=oscillations,
        timings_s=timings,
        **_solver_record(solves),
    )


def run_convergence_study(cfg: ExperimentConfig) -> StudyReport:
    """Errors against a fine reference solution under exact prolongation;
    the last configured level is the reference, reported as its own row."""
    A = coefficient_fixture(cfg)
    f = rhs_fixture(cfg)
    ref_level = cfg.levels[-1]
    t0 = time.perf_counter()
    _, _, u_ref, ref_row, ref_solve = _solve_level(cfg, A, f, ref_level)
    g_ref = fem.gradient(u_ref)
    ref_time = time.perf_counter() - t0
    rows = []
    errors = []
    timings = []
    solves = []
    for level in cfg.levels[:-1]:
        t0 = time.perf_counter()
        _, _, u, row, solve = _solve_level(cfg, A, f, level)
        solves.append(solve)
        errors.append(fem.lp_norm(g_ref - fem.gradient(prolong(u, u_ref.mesh)), cfg.p_hat))
        rows.append(row)
        timings.append(time.perf_counter() - t0)
    rows = [replace(r, err_phat=e, order=o) for r, e, o in zip(rows, errors, _orders(errors))]
    return _report(
        cfg,
        rows + [ref_row],
        reference_level=ref_level,
        reference_time_s=ref_time,
        timings_s=timings,
        **_solver_record(solves + [ref_solve]),
    )


def run_coeff_decay_study(cfg: ExperimentConfig) -> StudyReport:
    """||A - A_h||_{L^r} per level with r = p; the L^2 value fills the
    dedicated column, the r-norm sequence drives the order column."""
    A = coefficient_fixture(cfg)
    rows = []
    errors = []
    for level in cfg.levels:
        A_h, row, _ = _project_level(A, level)
        err_r = row.coeff_err_l2 if cfg.p == 2.0 else coeff_mod.coefficient_error(A, A_h, cfg.p)
        errors.append(err_r)
        rows.append(row)
    rows = [replace(r, order=o) for r, o in zip(rows, _orders(errors))]
    return _report(cfg, rows, coeff_err_lr=errors, r=cfg.p)


def run_hodge_suite(cfg: ExperimentConfig) -> StudyReport:
    """Random piecewise constant fields per level: decomposition residuals
    and the L^r stability ratio of the split, r = p."""
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
            split = hodge.hodge_decompose(s, cfg.solver_tol)
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
    return _report(cfg, rows, fields_per_level=HODGE_SUITE_FIELDS, residuals=residuals)


def maximal_bound_check(w, level: int, tol=MAXIMAL_BOUND_TOL, gen_means=None, cell_means=None):
    """At every point x of a 17x17 grid, verify that the largest average of
    |w| over the cells containing x is at most 2 times the largest average
    of |w| over the dyadic squares of generations 0..level containing x,
    plus tol.

    The constant 2 is the measure ratio between a cell and its containing
    grid square, which for this mesh family is itself a dyadic square, so
    the dyadic family at depth = level always contains it.  gen_means[j]
    holds the |w| averages of the generation-j squares for j = 0..level (or
    deeper), as coeff.abs_means_pyramid builds them; by default that
    pyramid is built for this level.  cell_means holds the |w| averages
    of the level mesh's cells, coeff.cell_abs_means by default.  The
    closed generation-j squares containing x are the grid squares of the
    level-j mesh cells containing x, so one containment rule serves both
    maxima, for all points at once.  Returns (violations, worst_margin).
    """
    if cell_means is None:
        cell_means = coeff_mod.cell_abs_means(w, build_uniform_mesh(level))
    if gen_means is None:
        gen_means = coeff_mod.abs_means_pyramid(w, level)
    grid = np.linspace(0.0, 1.0, MAXIMAL_GRID)
    points = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=2).reshape(-1, 2)

    def masked_max(values, cells, mask):
        return np.where(mask, values[cells], -np.inf).max(axis=1)

    mm = masked_max(cell_means, *coeff_mod.cells_containing_points(level, points))
    dm = np.full(len(points), -np.inf)
    for j in range(level + 1):
        cells, mask = coeff_mod.cells_containing_points(j, points)
        dm = np.maximum(dm, masked_max(gen_means[j], cells // 2, mask))
    margin = mm - MAXIMAL_BOUND_CONSTANT * dm
    return int(np.count_nonzero(margin > tol)), float(margin.max())


def _projected_abs_means(A, level: int):
    """_project_level's row, and the cell means of |w| it read for
    A = (1 + beta |w|) I, else a copy of A_h's (1,1) entries, the cell
    means of |A_11| since A_11 >= alpha > 0; A_h itself is not kept."""
    A_h, row, cell_means = _project_level(A, level)
    return row, A_h.values[:, 0, 0].copy() if cell_means is None else cell_means


def _square_abs_means(cell_means) -> list:
    """The |w| means of the dyadic squares of generations 0..level, from
    the cell means of the level mesh: grid square ix + iy 2^level holds
    the lower and the upper cell, of equal areas, so its mean is half
    their sum; each coarser square is the mean of its four children
    (coeff._coarser_generations)."""
    base = cell_means[0::2] + cell_means[1::2]
    base *= 0.5
    return coeff_mod._coarser_generations(base)


def run_bmo_diagnostics(cfg: ExperimentConfig) -> StudyReport:
    """BMO seminorm estimates per depth, the John-Nirenberg distribution
    table, and the maximal-function comparison per level, of w for a
    coefficient (1 + beta |w|) I, such as the log fixture with the
    classical log example w = log(1/|x|), of A's (1,1) entry otherwise.
    Every level is projected first, keeping only its row and its cell
    means of |w| (_projected_abs_means); the maximal comparison reads them
    at each level, and its dyadic |w| means come from the finest level's
    (_square_abs_means), so |w| is integrated once per level."""
    A = coefficient_fixture(cfg)
    w = coeff_mod.coefficient_entry(A) if A.isotropic is None else A.isotropic.w
    _, oscs, fallbacks = coeff_mod.dyadic_oscillations(w, BMO_DIAG_DEPTH)
    seminorm_by_depth = [float(v) for v in np.maximum.accumulate([o.max() for o in oscs])]
    jn_table = coeff_mod.john_nirenberg_check(
        w, coeff_mod.DyadicSquare(0, 0, 0), JN_LAMBDAS, JN_DEPTH
    )
    rows, cell_means = zip(*(_projected_abs_means(A, level) for level in cfg.levels))
    abs_means = _square_abs_means(cell_means[-1])
    lemma = []
    for level, means in zip(cfg.levels, cell_means):
        violations, worst = maximal_bound_check(w, level, gen_means=abs_means, cell_means=means)
        lemma.append({"level": level, "violations": violations, "worst_margin": worst})
    return _report(
        cfg,
        rows,
        scalar=w.name,
        seminorm_by_depth=seminorm_by_depth,
        john_nirenberg=[list(t) for t in jn_table],
        maximal_bound=lemma,
        dyadic_fallbacks=fallbacks,
    )


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
