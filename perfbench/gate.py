"""Correctness gate applied to every study run of the benchmark.

A run passes when

* its CSV has the fixed header, and the `level` and `cells` columns and the
  pattern of empty fields match the values frozen in `reference.json`
  exactly;
* where the reference holds this seed (always for the two workloads that do
  not depend on the seed), every float agrees with the frozen value within
  the tolerance the code promises for that quantity (below), and so do the
  gated metadata entries;
* the invariants hold at every seed: finite values, Hodge reconstruction
  and orthogonality residuals, zero maximal-bound violations, monotone BMO
  and John-Nirenberg tables, decreasing convergence errors.

Tolerances are derived from the study's own tolerances.  `projection_tol`
bounds every cell mean; `QUAD_ALLOWANCE` lets another quadrature at the same
tolerance (exact means, a dyadic pyramid) land anywhere within ten times
it.  Solve outputs add `solver_tol` times `COND_ALLOWANCE`, a bound on the
condition number of the systems at levels <= 7, so a direct solve at 1e-12
passes as well as the Jacobi CG.  Constants taken from the package are
frozen at the values of the commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

CSV_HEADER = (
    "level,cells,grad_lp,f_lp,stability_ratio,err_phat,order,"
    "coeff_err_l2,conj_gap_ratio,flux_ratio"
)
COLUMNS = CSV_HEADER.split(",")
FLOAT_COLUMNS = COLUMNS[2:]

DEFAULT_PROJECTION_TOL = 1e-6  # coeff.DEFAULT_PROJECTION_TOL
DEFAULT_SOLVER_TOL = 1e-12  # harness.ExperimentConfig.solver_tol
COEFF_ERROR_TOL = 1e-4  # rel_tol the harness uses for coeff.coefficient_error
DEFAULT_OSC_TOL = 1e-5  # coeff.DEFAULT_OSC_TOL, BMO oscillation means
MAXIMAL_BOUND_TOL = 1e-6  # harness.MAXIMAL_BOUND_TOL

QUAD_ALLOWANCE = 10.0
COND_ALLOWANCE = 1e6
# ||A_h||_{L^2} (Frobenius) of the benchmark's fixtures is below 4, so a
# cell-mean change of projection_tol moves ||A - A_h|| by at most 4x that.
COEFF_NORM_BOUND = 4.0
# (max |A_h| + 1) times the L^p bound of the Hodge projection, for the
# flux split of the log fixture at levels <= 7.
FLUX_ALLOWANCE = 10.0
# CG stops at ||r|| <= solver_tol ||b||, and ||b|| < 100 for standard
# normal fields; reconstruction is exact up to a few ulps of |s| < 10.
ORTH_ALLOWANCE = 100.0
RECON_BOUND = 1e-12

GATED_META = ("seminorm_by_depth", "john_nirenberg", "maximal_bound", "residuals")

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def reference_entry(reference: dict, workload: str, seed: int):
    """(frozen entry for this seed or None, any entry for structure)."""
    table = reference[workload]
    entry = table.get("any", table.get(str(seed)))
    return entry, entry or next(iter(table.values()))


def parse_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {lines[:1]!r}")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(COLUMNS):
            raise ValueError(f"CSV row with {len(fields)} fields: {line!r}")
        rows.append(dict(zip(COLUMNS, fields)))
    return rows


def _num(text: str):
    return None if text == "" else float(text)


def column_tolerances(cfg: dict, ref: dict, prev_ref: dict | None, prev_tols: dict | None) -> dict:
    """Absolute tolerance per float column of one frozen row."""
    proj = cfg.get("projection_tol", DEFAULT_PROJECTION_TOL)
    quad = QUAD_ALLOWANCE * proj
    solve = quad + COND_ALLOWANCE * cfg.get("solver_tol", DEFAULT_SOLVER_TOL)
    p = float(cfg.get("p", 2.0))
    v = {c: _num(ref[c]) for c in FLOAT_COLUMNS}
    tol = {}
    if v["f_lp"] is not None:
        tol["f_lp"] = quad * abs(v["f_lp"])
    if v["grad_lp"] is not None:
        tol["grad_lp"] = solve * abs(v["grad_lp"])
    if v["stability_ratio"] is not None:
        tol["stability_ratio"] = (solve + quad) * abs(v["stability_ratio"])
    if v["err_phat"] is not None:
        # difference of two solutions of norm about grad_lp
        tol["err_phat"] = 2.0 * solve * abs(v["grad_lp"])
    if v["order"] is not None:
        prev_err = _num(prev_ref["err_phat"])
        tol["order"] = (
            prev_tols["err_phat"] / prev_err + tol["err_phat"] / v["err_phat"]
        ) / math.log(2.0)
    if v["coeff_err_l2"] is not None:
        tol["coeff_err_l2"] = QUAD_ALLOWANCE * (
            COEFF_ERROR_TOL * abs(v["coeff_err_l2"]) + proj * COEFF_NORM_BOUND
        )
    if v["conj_gap_ratio"] is not None:
        # g is a |p-2|-sized part of the conjugate field, whose error is
        # (p-1) times the solve error, plus the split's own solve
        tol["conj_gap_ratio"] = p * solve / abs(p - 2.0) if p != 2.0 else 0.0
    if v["flux_ratio"] is not None:
        tol["flux_ratio"] = FLUX_ALLOWANCE * solve
    return tol


def _compare_rows(rows, frozen, cfg, problems, compare_floats):
    if len(rows) != len(frozen):
        problems.append(f"{len(rows)} rows, expected {len(frozen)}")
        return
    prev_ref = prev_tols = None
    for row, ref in zip(rows, frozen):
        where = f"level {ref['level']}"
        for col in ("level", "cells"):
            if row[col] != ref[col]:
                problems.append(f"{where}: {col} {row[col]!r}, expected {ref[col]!r}")
        for col in FLOAT_COLUMNS:
            if (row[col] == "") != (ref[col] == ""):
                problems.append(f"{where}: {col} {row[col]!r}, expected {ref[col]!r}")
        if not compare_floats:
            continue
        tols = column_tolerances(cfg, ref, prev_ref, prev_tols)
        for col, tol in tols.items():
            if row[col] == "":
                continue
            got, want = float(row[col]), float(ref[col])
            if not abs(got - want) <= tol:
                problems.append(
                    f"{where}: {col} {got!r} differs from {want!r} by more than {tol:.3g}"
                )
        prev_ref, prev_tols = ref, tols


def _compare_meta(meta, frozen, problems):
    if "seminorm_by_depth" in frozen:
        got, want = meta["seminorm_by_depth"], frozen["seminorm_by_depth"]
        if len(got) != len(want):
            problems.append(f"seminorm_by_depth has {len(got)} depths, expected {len(want)}")
        for depth, (g, w) in enumerate(zip(got, want)):
            tol = QUAD_ALLOWANCE * DEFAULT_OSC_TOL * max(1.0, abs(w))
            if not abs(g - w) <= tol:
                problems.append(f"seminorm depth {depth}: {g!r} vs {w!r} (tol {tol:.3g})")
    if "john_nirenberg" in frozen:
        got, want = meta["john_nirenberg"], frozen["john_nirenberg"]
        if [g[0] for g in got] != [w[0] for w in want]:
            problems.append("John-Nirenberg lambdas differ from the reference")
        for (lam, g), (_, w) in zip(got, want):
            tol = QUAD_ALLOWANCE * DEFAULT_OSC_TOL
            if not abs(g - w) <= tol:
                problems.append(f"John-Nirenberg lambda {lam}: {g!r} vs {w!r} (tol {tol:.3g})")
    if "maximal_bound" in frozen:
        if [m["level"] for m in meta["maximal_bound"]] != [m["level"] for m in frozen["maximal_bound"]]:
            problems.append("maximal_bound levels differ from the reference")


def _invariants(kind, rows, meta, cfg, problems):
    for row in rows:
        for col in FLOAT_COLUMNS:
            if row[col] != "" and not math.isfinite(float(row[col])):
                problems.append(f"level {row['level']}: {col} is {row[col]}")
    if kind == "hodge-suite":
        solver_tol = cfg.get("solver_tol", DEFAULT_SOLVER_TOL)
        for res in meta["residuals"]:
            if not res["reconstruction"] <= RECON_BOUND:
                problems.append(f"level {res['level']}: reconstruction residual {res['reconstruction']!r}")
            if not res["orthogonality"] <= ORTH_ALLOWANCE * solver_tol:
                problems.append(f"level {res['level']}: orthogonality residual {res['orthogonality']!r}")
        for row in rows:
            # (|grad phi| + |sigma|) / |s| >= 1 by the triangle inequality
            if not float(row["stability_ratio"]) >= 1.0 - 1e-12:
                problems.append(f"level {row['level']}: split ratio {row['stability_ratio']} < 1")
    elif kind == "bmo-diagnostics":
        for m in meta["maximal_bound"]:
            if m["violations"] != 0 or not m["worst_margin"] <= MAXIMAL_BOUND_TOL:
                problems.append(f"level {m['level']}: maximal bound violated {m}")
        semi = meta["seminorm_by_depth"]
        if not all(math.isfinite(s) for s in semi) or any(b < a for a, b in zip(semi, semi[1:])):
            problems.append(f"seminorm_by_depth not finite and nondecreasing: {semi}")
        fracs = [f for _, f in meta["john_nirenberg"]]
        if any(not 0.0 <= f <= 1.0 for f in fracs) or any(b > a for a, b in zip(fracs, fracs[1:])):
            problems.append(f"John-Nirenberg fractions not nonincreasing in [0, 1]: {fracs}")
    elif kind == "convergence":
        errs = [float(r["err_phat"]) for r in rows if r["err_phat"] != ""]
        if any(b >= a for a, b in zip(errs, errs[1:])):
            problems.append(f"convergence errors do not decrease: {errs}")
    elif kind == "stability":
        for row in rows:
            if not float(row["stability_ratio"]) > 0.0:
                problems.append(f"level {row['level']}: stability ratio {row['stability_ratio']}")


def check_study(reference: dict, workload: str, seed: int, cfg: dict,
                csv_text: str, meta: dict) -> list[str]:
    """Problems found in one study's CSV and gated metadata; empty if it
    passes."""
    problems = []
    try:
        rows = parse_csv(csv_text)
    except ValueError as exc:
        return [str(exc)]
    entry, template = reference_entry(reference, workload, seed)
    missing = [k for k in template["meta"] if k not in meta]
    if missing:
        return problems + [f"metadata lacks {missing}"]
    _compare_rows(rows, parse_csv(template["csv"]), cfg, problems, entry is not None)
    if entry is not None:
        _compare_meta(meta, entry["meta"], problems)
    _invariants(cfg["kind"], rows, meta, cfg, problems)
    return problems
