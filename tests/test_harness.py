import dataclasses
import importlib.util
import json
import math
import os
import pathlib
import tracemalloc

import numpy as np
import pytest

from bmofem import coeff as C
from bmofem import fem as F
from bmofem import harness as X
from bmofem import quadrature as Q
from bmofem.errors import ConfigError, LineageError
from bmofem.mesh import Mesh, build_uniform_mesh, interior_vertex_indices


# ---------------------------------------------------------------------------
# configuration


def test_parse_levels_variants():
    assert X.parse_levels("2..5") == (2, 3, 4, 5)
    assert X.parse_levels("2..4,7") == (2, 3, 4, 7)
    assert X.parse_levels([1, 3]) == (1, 3)
    assert X.parse_levels("3..3") == (3,)
    with pytest.raises(ConfigError, match="reversed level range"):
        X.parse_levels("4..2,5")
    with pytest.raises(ConfigError, match="cannot parse levels"):
        X.parse_levels(4)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        X.config_from_dict({"kind": "stability", "levels": "2..3", "extra": 1})


def test_kind_required_and_validated():
    with pytest.raises(ConfigError, match="kind"):
        X.config_from_dict({"levels": "2..3"})
    with pytest.raises(ConfigError, match="unknown kind"):
        X.config_from_dict({"kind": "mystery"})


def test_validation_rules():
    with pytest.raises(ConfigError, match="strictly increasing"):
        X.config_from_dict({"kind": "stability", "levels": [3, 3]})
    with pytest.raises(ConfigError, match="p_hat"):
        X.config_from_dict(
            {"kind": "convergence", "levels": [2, 3, 6], "p": 2.0, "p_hat": 3.0}
        )
    with pytest.raises(ConfigError, match="reference level"):
        X.config_from_dict({"kind": "convergence", "levels": [2, 3, 4]})
    with pytest.raises(ConfigError, match="interior"):
        X.config_from_dict({"kind": "stability", "levels": [0, 1]})
    with pytest.raises(ConfigError, match="coeff_csv"):
        X.config_from_dict({"kind": "coeff-decay", "coeff": "sampled", "levels": [1, 2]})
    with pytest.raises(ConfigError, match="solver_tol"):
        X.config_from_dict({"kind": "stability", "levels": [2], "solver_tol": 1.0})
    for bad, match in [
        ({"coeff": "granite"}, "unknown coefficient"),
        ({"rhs": "granite"}, "unknown rhs"),
        ({"p": 1.05}, "p must be in"),
        ({"p_hat": 11.0}, "p_hat must be in"),
        ({"levels": []}, "nonempty"),
        ({"levels": [2, X.MAX_LEVEL + 1]}, "levels must lie in"),
        ({"projection_tol": 1e-6}, r"unknown config keys: \['projection_tol'\]"),
        ({"seed": 2**64}, "64 bits"),
        ({"seed": -1}, "64 bits"),
    ]:
        with pytest.raises(ConfigError, match=match):
            X.config_from_dict({"kind": "stability", "levels": [2], **bad})
    with pytest.raises(ConfigError, match="study levels plus a reference"):
        X.config_from_dict({"kind": "convergence", "levels": [4]})


def test_non_numeric_values_become_config_errors():
    with pytest.raises(ConfigError, match="invalid config value"):
        X.config_from_dict({"kind": "stability", "levels": [2], "seed": "lots"})
    with pytest.raises(ConfigError):
        X.config_from_dict({"kind": "stability", "levels": [2], "p": "two"})


def test_config_echo_roundtrip():
    cfg = X.config_from_dict(
        {"kind": "stability", "coeff": "log", "beta": 0.25, "levels": "2..3", "p": 2.1}
    )
    echo = json.loads(X.config_echo(cfg))
    assert set(echo) == {f.name for f in dataclasses.fields(X.ExperimentConfig)}
    assert X.config_from_dict(echo) == cfg


# ---------------------------------------------------------------------------
# prolongation


def test_prolong_preserves_function(meshes, rng):
    coarse = meshes[2]
    fine = meshes[4]
    u = F.p1_zero_trace(coarse, rng.uniform(-1, 1, interior_vertex_indices(coarse).size))
    up = X.prolong(u, fine)
    assert up.zero_trace
    g_coarse = F.lp_norm(F.gradient(u), 2.0)
    g_fine = F.lp_norm(F.gradient(up), 2.0)
    assert abs(g_coarse - g_fine) <= 1e-12 * g_coarse


def test_prolong_zero(meshes):
    u = F.P1Function(meshes[1], np.zeros(meshes[1].num_vertices), zero_trace=True)
    assert not X.prolong(u, meshes[3]).values.any()


def test_prolong_hat_values_are_affine(meshes):
    mesh = meshes[1]
    center = np.flatnonzero((mesh.vertices[:, 0] == 0.5) & (mesh.vertices[:, 1] == 0.5))[0]
    vals = np.zeros(mesh.num_vertices)
    vals[center] = 1.0
    hat = F.P1Function(mesh, vals, zero_trace=True)
    up = X.prolong(hat, meshes[3])
    assert up.values.max() == 1.0
    # value at (0.25, 0.25): on the lower-left cell the hat is x + y - 0
    at = np.flatnonzero(
        (meshes[3].vertices[:, 0] == 0.25) & (meshes[3].vertices[:, 1] == 0.25)
    )[0]
    assert up.values[at] == pytest.approx(0.5, abs=1e-14)


def test_prolong_rejects_coarser_target(meshes, rng):
    u = F.p1_zero_trace(meshes[3], rng.uniform(-1, 1, 49))
    with pytest.raises(LineageError):
        X.prolong(u, meshes[2])


# ---------------------------------------------------------------------------
# reports


def test_csv_header_is_pinned():
    # CSV_HEADER is derived from ReportRow; the published column order is not
    assert X.CSV_HEADER == (
        "level,cells,grad_lp,f_lp,stability_ratio,err_phat,order,"
        "coeff_err_l2,conj_gap_ratio,flux_ratio"
    )


def test_csv_header_and_formatting(tmp_path):
    rows = (
        X.ReportRow(level=2, cells=32, grad_lp=1.0 / 3.0),
        X.ReportRow(level=3, cells=128, err_phat=0.25, order=1.0),
    )
    report = X.StudyReport(rows=rows, metadata={})
    text = X.report_to_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == X.CSV_HEADER
    assert lines[1].startswith("2,32,0.33333333333333331,")
    assert lines[1].count(",") == 9
    assert lines[2].split(",")[5] == "0.25"


def test_rows_must_increase():
    rows = (X.ReportRow(level=3), X.ReportRow(level=2))
    with pytest.raises(ConfigError):
        X.StudyReport(rows=rows, metadata={})


def test_write_report_atomic(tmp_path, monkeypatch):
    report = X.StudyReport(rows=(X.ReportRow(level=1, cells=8),), metadata={})
    out = tmp_path / "r.csv"
    X.write_report(report, str(out))
    assert out.read_text().startswith(X.CSV_HEADER)
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert not leftovers

    # a failed write removes its temp file and leaves the target unwritten
    def full_disk(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(X.os, "replace", full_disk)
    with pytest.raises(OSError, match="no space"):
        X.write_report(report, str(tmp_path / "s.csv"))
    assert sorted(os.listdir(tmp_path)) == ["r.csv"]


def test_aborted_run_leaves_no_output(tmp_path, monkeypatch):
    out = tmp_path / "never.csv"
    cfg = X.config_from_dict(
        {"kind": "hodge-suite", "levels": [1], "out": str(out), "seed": 3}
    )

    def boom(config):
        raise RuntimeError("injected failure")

    monkeypatch.setitem(X._RUNNERS, "hodge-suite", boom)
    with pytest.raises(RuntimeError):
        X.run_study(cfg)
    assert not out.exists()
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# data oscillation


def _x_oscillation(p, level):
    """||f - f_h||_p for f = (x, 0) against its cell means.  A lower cell
    of side h has its centroid at a = 2/3 of its width along x, and there
    int |x - x_K|^p = c_p h^(p+2); an upper cell gives the same by the
    reflection x -> 1 - x.  So the norm is (2 c_p)^(1/p) h, and
    2 c_2 = 1/18."""
    a = 2.0 / 3.0
    c_p = (
        a ** (p + 2) / ((p + 1) * (p + 2))
        + (1 - a) ** (p + 2) / (p + 2)
        + a * (1 - a) ** (p + 1) / (p + 1)
    )
    return (2.0 * c_p) ** (1.0 / p) * 2.0**-level


@pytest.mark.parametrize("level", [2, 4, 6])
@pytest.mark.parametrize("p", [2.0, 2.1, 3.0])
def test_data_oscillation_of_x_matches_closed_form(meshes, p, level):
    def f(P):
        return np.column_stack([P[:, 0], np.zeros(P.shape[0])])

    f_h = F.project_rhs(f, meshes[level])
    got = X.data_oscillation(f, f_h, p)
    if p == 2.0:
        want = 2.0**-level / np.sqrt(18.0)
        assert _x_oscillation(p, level) == pytest.approx(want, rel=1e-15)
        assert got == pytest.approx(want, rel=1e-14)
    else:
        # |x - x_K|^p is kinked in every cell: the default rel_tol 1e-4
        # lands within 1e-6 of the closed form
        assert got == pytest.approx(_x_oscillation(p, level), rel=1e-5)


def test_stability_study_reports_the_l2_data_oscillation():
    # the report is the L^2 misfit whatever p: at p = 2.1 it is the value
    # data_oscillation computes at p = 2, bit for bit
    cfg = X.config_from_dict(
        {"kind": "stability", "coeff": "identity", "rhs": "sin-cos", "p": 2.1, "levels": "2..4"}
    )
    report = X.run_study(cfg)
    assert "data_oscillation_lp" not in report.metadata
    f = X.rhs_fixture(cfg)
    want = [
        X.data_oscillation(
            f, F.project_rhs(f, build_uniform_mesh(level), C.DEFAULT_PROJECTION_TOL), 2.0
        )
        for level in (2, 3, 4)
    ]
    assert report.metadata["data_oscillation_l2"] == want


@pytest.mark.parametrize("coeff, per_level", [("log", 2), ("smooth", 4)])
def test_stability_study_takes_each_trigonometric_mean_once(monkeypatch, coeff, per_level):
    # per level: f's cell means (project_rhs, which the oscillation then
    # reads from f_h) and those of |f|^2; the smooth coefficient adds its
    # own means, which its error reads as M_K, and those of |A|^2
    calls = []
    means = Q._trigonometric_cell_means

    def spy(terms, level):
        calls.append(level)
        return means(terms, level)

    monkeypatch.setattr(Q, "_trigonometric_cell_means", spy)
    X.run_study(
        X.config_from_dict(
            {"kind": "stability", "coeff": coeff, "beta": 0.5, "rhs": "sin-cos", "p": 2.1,
             "levels": "2..4"}
        )
    )
    assert sorted(calls) == [level for level in (2, 3, 4) for _ in range(per_level)]


def test_l2_data_oscillation_of_sin_cos_decays_at_first_order(meshes):
    f = X.rhs_fixture(X.ExperimentConfig(kind="stability", rhs="sin-cos"))
    osc = [X.data_oscillation(f, F.project_rhs(f, meshes[level]), 2.0) for level in range(3, 8)]
    assert osc[0] == pytest.approx(0.0924, rel=1e-3)
    assert osc[-1] == pytest.approx(0.00578, rel=1e-3)
    assert all(abs(math.log2(a / b) - 1.0) <= 0.01 for a, b in zip(osc, osc[1:]))


def test_stability_study_evaluates_the_rhs_about_90_times_per_cell(monkeypatch):
    # an rhs without its trigonometric declaration (the counting wrapper
    # hides it) is refined: projection and the L^2 oscillation take 91.3
    # evaluations per cell at level 6; the L^p oscillation at p = 2.1 refines
    # every cell to m = 4..5, which makes 329.3
    evals = 0
    rhs_fixture = X.rhs_fixture

    def counting(cfg):
        f = rhs_fixture(cfg)

        def count(P):
            nonlocal evals
            evals += P.shape[0]
            return f(P)

        return count

    monkeypatch.setattr(X, "rhs_fixture", counting)
    X.run_study(
        X.config_from_dict(
            {"kind": "stability", "coeff": "log", "beta": 0.5, "rhs": "sin-cos", "p": 2.1,
             "levels": [6]}
        )
    )
    assert evals <= 120 * build_uniform_mesh(6).num_cells


# every coefficient fixture, the sampled one also on a grid off the dyadic
# lines; coeff_csv names the conftest fixture that holds the path
_COEFF_FIXTURES = {
    "identity": {"coeff": "identity"},
    "smooth": {"coeff": "smooth"},
    "log": {"coeff": "log", "beta": 2.0},
    "checkerboard": {"coeff": "checkerboard", "kappa": 0.01},
    "sampled": {"coeff": "sampled", "coeff_csv": "sampled_csv_path"},
    "sampled-nondyadic": {"coeff": "sampled", "coeff_csv": "nondyadic_csv_path"},
}
_EXACT_STUDIES = {
    **{f"stability-{rhs}": {"kind": "stability", "rhs": rhs, "levels": "1..3"}
       for rhs in X.RHS_NAMES},
    **{f"convergence-{rhs}": {"kind": "convergence", "rhs": rhs, "levels": "1..2,4"}
       for rhs in X.RHS_NAMES},
    "coeff-decay": {"kind": "coeff-decay", "p": 2.0, "levels": "0..3"},
    "bmo-diagnostics": {"kind": "bmo-diagnostics", "levels": "2..3"},
}


@pytest.mark.parametrize(
    "config",
    [
        {"kind": "stability", "coeff": "log", "beta": 0.5, "rhs": "sin-cos", "p": 2.1,
         "levels": "1..4"},
        {"kind": "stability", "coeff": "smooth", "rhs": "grad-sinsin", "levels": "1..3"},
        {"kind": "coeff-decay", "coeff": "smooth", "p": 2.0, "levels": "0..4"},
    ]
    + [
        pytest.param({**coeff, **study}, id=f"{name}-{kind}")
        for name, coeff in _COEFF_FIXTURES.items()
        for kind, study in _EXACT_STUDIES.items()
    ],
)
def test_trigonometric_studies_take_no_quadrature(monkeypatch, request, config):
    # every rhs fixture is trigonometric: its cell means and L^2 oscillation
    # are exact.  So are the projection and L^2 error of the smooth and log
    # coefficients, with no quadrature at all, and of the piecewise
    # polynomial ones, by the fixed rule.  Nothing refines, so no study
    # depends on a projection tolerance, and the maximal check of
    # bmo-diagnostics reads its cell means off the projection; so do the
    # seminorm and John-Nirenberg tables of a coefficient entry
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature called")

    declared = config["coeff"] in ("smooth", "log")
    refused = ("triangle_means", "global_scale_floor", "polynomial_means")
    for name in refused if declared else refused[:2]:
        monkeypatch.setattr(Q, name, refuse)
    monkeypatch.setattr(C, "cell_abs_means", refuse)
    if config["kind"] == "bmo-diagnostics" and config["coeff"] != "log":
        for module, name in ((Q, "square_means_batch"), (C, "dyadic_oscillations"),
                             (C, "john_nirenberg_check")):
            monkeypatch.setattr(module, name, refuse)
    if "coeff_csv" in config:
        config = {**config, "coeff_csv": request.getfixturevalue(config["coeff_csv"])}
    report = X.run_study(X.config_from_dict(config))
    if declared:
        assert all(r.coeff_err_l2 > 0.0 for r in report.rows)


@pytest.mark.parametrize(
    "config",
    [
        {"kind": "stability", "coeff": "log", "beta": 0.5, "rhs": "sin-cos", "p": 2.1,
         "levels": "2..4"},
        {"kind": "coeff-decay", "coeff": "log", "beta": 0.5, "p": 2.0, "levels": "0..3"},
        {"kind": "convergence", "coeff": "log", "beta": 0.5, "levels": "1..2,4"},
        {"kind": "bmo-diagnostics", "coeff": "log", "beta": 0.5, "levels": "2..5"},
    ],
)
def test_log_studies_integrate_the_cells_once_per_level(monkeypatch, config):
    # the projection and its L^2 error share one polar pass over the cells,
    # and the maximal check of bmo-diagnostics reuses its |w| cell means
    levels = []
    original = C._radial_cell_integrals

    def spy(line, centre, mesh, *level):
        levels.append(mesh.level)
        return original(line, centre, mesh, *level)

    monkeypatch.setattr(C, "_radial_cell_integrals", spy)
    cfg = X.config_from_dict(config)
    X.run_study(cfg)
    assert sorted(levels) == sorted(cfg.levels)


@pytest.mark.parametrize(
    "config",
    [
        {"kind": "bmo-diagnostics", "coeff": "log", "beta": 0.5, "levels": "2..5"},
        {"kind": "stability", "coeff": "log", "beta": 0.5, "rhs": "sin-cos", "p": 2.1,
         "levels": "2..3"},
    ],
)
def test_log_studies_take_no_gauss_node_for_w(monkeypatch, config):
    # the means of w and |w - c| over cells and squares take the profile's
    # line integral; the Gauss polar rule integrates only w^2 over the unit
    # square for the L^2 error, one polygon of four edges per level
    shapes = []
    original = Q.radial_edge_integrals

    def spy(H, centre, starts, ends, kinks=None, ids=None):
        shapes.append(np.shape(starts))
        return original(H, centre, starts, ends, kinks, ids)

    monkeypatch.setattr(Q, "radial_edge_integrals", spy)
    cfg = X.config_from_dict(config)
    X.run_study(cfg)
    assert shapes == [(1, 4, 2)] * len(cfg.levels)


# ---------------------------------------------------------------------------
# studies


def test_stability_study_identity(tmp_path):
    cfg = X.config_from_dict(
        {
            "kind": "stability",
            "coeff": "identity",
            "rhs": "grad-sinsin",
            "p": 2.0,
            "levels": [2, 3],
            "out": str(tmp_path / "s.csv"),
        }
    )
    report = X.run_study(cfg)
    assert (tmp_path / "s.csv").exists()
    assert [r.level for r in report.rows] == [2, 3]
    for row in report.rows:
        assert row.stability_ratio is not None and row.stability_ratio > 0
        assert row.coeff_err_l2 <= 1e-12  # identity projects exactly
        assert row.flux_ratio <= 1e-9  # identity flux of a discrete gradient
    assert report.metadata["stability_ratio_max_over_min"] >= 1.0


def test_stability_ratio_scales_with_coefficient():
    base = {"kind": "stability", "rhs": "sin-cos", "p": 2.0, "levels": [2]}
    r1 = X.run_study(X.config_from_dict({**base, "coeff": "identity"}))
    # checkerboard with kappa=1 equals the identity: same ratios
    r2 = X.run_study(X.config_from_dict({**base, "coeff": "checkerboard", "kappa": 1.0}))
    assert r1.rows[0].stability_ratio == pytest.approx(
        r2.rows[0].stability_ratio, rel=1e-12
    )


def test_stability_ratio_is_one_for_reproduced_data(meshes, rng):
    # with identity coefficient and data that is itself a discrete
    # gradient, the solve reproduces the potential and the ratio is 1
    mesh = meshes[3]
    w = F.p1_zero_trace(mesh, rng.uniform(-1, 1, interior_vertex_indices(mesh).size))
    f_h = F.gradient(w)
    u = F.solve_bvp(mesh, C.identity_coefficient(), f_h, solver_tol=1e-13)
    ratio = F.lp_norm(F.gradient(u), 2.0) / F.lp_norm(f_h, 2.0)
    assert ratio == pytest.approx(1.0, abs=1e-11)


def test_stability_ratio_inverse_in_constant_coefficient(meshes):
    # scaling the coefficient by c scales every ratio by 1/c
    mesh = meshes[2]
    f_h = F.project_rhs(X.rhs_fixture(X.ExperimentConfig(kind="stability")), mesh, 1e-8)
    u1 = F.solve_bvp(mesh, C.identity_coefficient(), f_h)
    u3 = F.solve_bvp(mesh, C.constant_coefficient(3.0 * np.eye(2)), f_h)
    r1 = F.lp_norm(F.gradient(u1), 2.0) / F.lp_norm(f_h, 2.0)
    r3 = F.lp_norm(F.gradient(u3), 2.0) / F.lp_norm(f_h, 2.0)
    assert r3 == pytest.approx(r1 / 3.0, rel=1e-10)


def test_convergence_errors_vanish_for_coarse_gradient_data(meshes, rng):
    # data that is a discrete gradient at the coarsest level is reproduced
    # on every finer level, so all reference errors sit at solver noise
    coarse = meshes[2]
    ref = meshes[5]
    w = F.p1_zero_trace(coarse, rng.uniform(-1, 1, interior_vertex_indices(coarse).size))
    A = C.identity_coefficient()
    u_ref = F.solve_bvp(ref, A, F.gradient(X.prolong(w, ref)), solver_tol=1e-13)
    for level in (2, 3, 4):
        mesh = meshes[level]
        u = F.solve_bvp(mesh, A, F.gradient(X.prolong(w, mesh)), solver_tol=1e-13)
        err = F.lp_norm(F.gradient(u_ref) - F.gradient(X.prolong(u, ref)), 2.0)
        assert err <= 1e-9


def test_convergence_study_reference_and_orders():
    cfg = X.config_from_dict(
        {
            "kind": "convergence",
            "coeff": "identity",
            "rhs": "grad-sinsin",
            "levels": [2, 3, 5],
        }
    )
    report = X.run_study(cfg)
    assert report.metadata["reference_level"] == 5
    assert [r.level for r in report.rows] == [2, 3, 5]
    assert report.rows[0].err_phat > report.rows[1].err_phat
    assert report.rows[0].order is None
    assert report.rows[1].order == pytest.approx(1.0, abs=0.2)
    assert report.rows[2].err_phat is None


def test_coeff_decay_study_smooth_orders():
    cfg = X.config_from_dict(
        {"kind": "coeff-decay", "coeff": "smooth", "levels": [2, 3, 4]}
    )
    report = X.run_study(cfg)
    orders = [r.order for r in report.rows if r.order is not None]
    assert all(abs(o - 1.0) <= 0.15 for o in orders)


def test_coeff_decay_study_constant_is_zero():
    cfg = X.config_from_dict(
        {"kind": "coeff-decay", "coeff": "identity", "levels": [1, 2]}
    )
    report = X.run_study(cfg)
    assert all(r.coeff_err_l2 <= 1e-12 for r in report.rows)


def test_stability_study_with_degenerate_data_leaves_ratios_empty():
    # the constant right hand side has zero discrete load on this mesh
    # family, so u = 0 and the split ratios have no value
    cfg = X.config_from_dict(
        {"kind": "stability", "coeff": "identity", "rhs": "constant", "levels": [2]}
    )
    report = X.run_study(cfg)
    row = report.rows[0]
    assert row.grad_lp == 0.0
    assert row.stability_ratio == 0.0
    assert row.conj_gap_ratio is None
    assert row.flux_ratio is None


def test_hodge_suite_study_deterministic_and_seed_sensitive():
    base = {"kind": "hodge-suite", "levels": [1, 2], "seed": 7}
    r1 = X.run_study(X.config_from_dict(base))
    r2 = X.run_study(X.config_from_dict(base))
    assert X.report_to_csv(r1) == X.report_to_csv(r2)
    r3 = X.run_study(X.config_from_dict({**base, "seed": 8}))
    assert X.report_to_csv(r3) != X.report_to_csv(r1)
    for entry in r1.metadata["residuals"]:
        assert entry["reconstruction"] <= 1e-12
        assert entry["orthogonality"] <= 1e-10


def test_bmo_diagnostics_study_constant_scalar():
    cfg = X.config_from_dict(
        {"kind": "bmo-diagnostics", "coeff": "identity", "levels": [2]}
    )
    report = X.run_study(cfg)
    assert all(v <= 1e-12 for v in report.metadata["seminorm_by_depth"])
    assert report.metadata["maximal_bound"][0]["violations"] == 0
    jn = report.metadata["john_nirenberg"]
    assert all(frac == 0.0 for _, frac in jn)


def test_bmo_diagnostics_maximal_bound_matches_its_own_cell_means():
    # the study hands the projection's |w| cell means to the check; the
    # check's own cell_abs_means pass gives the same margins
    cfg = X.config_from_dict(
        {"kind": "bmo-diagnostics", "coeff": "log", "beta": 0.5, "levels": "2..5"}
    )
    lemma = X.run_study(cfg).metadata["maximal_bound"]
    w = C.log_reciprocal_scalar()
    pyramid = C.abs_means_pyramid(w, 5)
    for entry, level in zip(lemma, range(2, 6)):
        [(violations, worst)] = X.maximal_bound_check(w, [level], gen_means=pyramid)
        assert entry["level"] == level
        assert entry["violations"] == violations
        assert abs(entry["worst_margin"] - worst) <= 1e-12


def test_bmo_diagnostics_hands_the_check_the_projection_of_a11(monkeypatch, nondyadic_csv_path):
    # for a coefficient entry the check's cell means are A_h's (1,1)
    # entries, bit for bit: A_11 >= alpha > 0, so they are the cell means
    # of |A_11|.  A refined cell_abs_means pass misses them by up to 1.3e-5
    # relative on this grid (level-5 cell 1543)
    received = []
    check = X.maximal_bound_check

    def spy(w, levels, tol=X.MAXIMAL_BOUND_TOL, gen_means=None, cell_means=None):
        received.extend(zip(levels, cell_means))
        return check(w, levels, tol, gen_means, cell_means)

    def refuse(*args, **kwargs):
        raise AssertionError("cell_abs_means called")

    monkeypatch.setattr(X, "maximal_bound_check", spy)
    monkeypatch.setattr(C, "cell_abs_means", refuse)
    cfg = X.config_from_dict(
        {"kind": "bmo-diagnostics", "coeff": "sampled", "coeff_csv": nondyadic_csv_path,
         "levels": "2..5"}
    )
    report = X.run_study(cfg)
    assert [level for level, _ in received] == [2, 3, 4, 5]
    A = X.coefficient_fixture(cfg)
    for level, cell_means in received:
        want = C.project_coefficient(A, build_uniform_mesh(level)).values[:, 0, 0]
        assert np.array_equal(cell_means, want)
    assert all(entry["violations"] == 0 for entry in report.metadata["maximal_bound"])


def test_bmo_diagnostics_builds_its_pyramid_from_the_finest_cell_means(monkeypatch):
    # the log study's dyadic |w| means are the finest level's cell means,
    # two cells per grid square: abs_means_pyramid's polar square means
    # within 1e-14 relative, absolute below 1 (the polar rule sums fan
    # triangles much larger than a small square, so where |w| nearly
    # vanishes, by r = 1, a generation-5 mean of 0.0075 differs by 8.5e-16)
    received = []
    check = X.maximal_bound_check

    def spy(w, levels, tol=X.MAXIMAL_BOUND_TOL, gen_means=None, cell_means=None):
        received.append((list(levels), gen_means))
        return check(w, levels, tol, gen_means, cell_means)

    monkeypatch.setattr(X, "maximal_bound_check", spy)
    cfg = X.config_from_dict(
        {"kind": "bmo-diagnostics", "coeff": "log", "beta": 0.5, "levels": "2..5"}
    )
    X.run_study(cfg)
    want = C.abs_means_pyramid(C.log_reciprocal_scalar(), 5)
    # one call, so one pyramid, for the four levels
    assert [levels for levels, _ in received] == [[2, 3, 4, 5]]
    pyramid = received[0][1]
    assert len(pyramid) == len(want) == 6
    for got, ref in zip(pyramid, want):
        assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(ref, 1.0))


def test_bmo_pyramid_of_a_coefficient_entry_is_the_restricted_projection(nondyadic_csv_path):
    # for A_11 of a sampled grid whose sample lines miss every dyadic line,
    # the pyramid from the level-5 A_h equals the square means restricted
    # from the level-7 A_h within 1e-14 relative: both are exact, where the
    # square rule was 5.8e-6 relative off
    A = C.load_sampled_coefficient(nondyadic_csv_path)
    _, cell_means = X._projected_abs_means(A, 5)
    got = X._square_abs_means(cell_means)
    fine = C.project_coefficient(A, build_uniform_mesh(7)).values[:, 0, 0]
    squares = 0.5 * (fine[0::2] + fine[1::2])  # generation 7, ix + iy 2^7
    for j, means in enumerate(got):
        b = 2 ** (7 - j)
        want = squares.reshape(2**j, b, 2**j, b).mean(axis=(1, 3)).ravel()
        assert np.all(np.abs(means - want) <= 1e-14 * want)


def _entry_config(name, nondyadic_csv_path, levels):
    """A bmo-diagnostics config of a coefficient entry, by fixture name."""
    coeff = {"coeff": name, "kappa": 100.0}
    if name == "sampled-nondyadic":
        coeff = {"coeff": "sampled", "coeff_csv": nondyadic_csv_path}
    return X.config_from_dict({"kind": "bmo-diagnostics", "levels": levels, **coeff})


def _entry_tables(cell_means):
    """_cell_field_tables of cell means, with their own pyramid."""
    return X._cell_field_tables(cell_means, X._square_abs_means(cell_means))


@pytest.mark.parametrize("name", ["smooth", "checkerboard", "sampled-nondyadic"])
def test_projection_tables_obey_the_jensen_bound(name, nondyadic_csv_path):
    # every square of generations 0..4 is a union of level-4 cells, so A_h's
    # mean on it is A's and, by Jensen, A_h's mean oscillation is at most
    # A's: both against the per-square rule on A's (1,1) entry
    A = X.coefficient_fixture(_entry_config(name, nondyadic_csv_path, [4]))
    _, cell_means = X._projected_abs_means(A, 4)
    pyramid = X._square_abs_means(cell_means)
    oscs, _ = X._cell_field_tables(cell_means, pyramid)
    assert len(oscs) == 5
    w, tol = C.coefficient_entry(A), C.DEFAULT_OSC_TOL
    for j in range(5):
        ref_means, ref_oscs = C.generation_oscillation_means(w, j, tol)
        assert np.all(np.abs(pyramid[j] - ref_means) <= tol * np.maximum(1.0, np.abs(ref_means)))
        assert np.all(oscs[j] <= ref_oscs + tol * np.maximum(1.0, ref_oscs))


def test_checkerboard_tables_are_the_closed_form():
    # A_h is kappa or 1 on whole quadrants: every cell lies (kappa - 1) / 2
    # from the unit square's mean (kappa + 1) / 2, exactly
    meta = X.run_study(_entry_config("checkerboard", None, "2..4")).metadata
    assert meta["seminorm_by_depth"] == [49.5] * (X.BMO_DIAG_DEPTH + 1)
    assert meta["john_nirenberg"] == [[lam, 1.0] for lam in X.JN_LAMBDAS]


@pytest.mark.parametrize("name", ["smooth", "sampled-nondyadic"])
def test_generations_past_the_finest_level_repeat_its_largest_oscillation(
    name, nondyadic_csv_path
):
    # the level-2 A_h copied onto level 4 is the same field: its tables
    # there, from generations 0..4, equal the level-2 study's, which takes
    # generations 3..6 as generation 2
    cfg = _entry_config(name, nondyadic_csv_path, [2])
    _, coarse = X._projected_abs_means(X.coefficient_fixture(cfg), 2)
    corners = build_uniform_mesh(4).cell_coordinates()
    cells, mask = C.cells_containing_points(2, corners.mean(axis=1))
    assert np.all(mask.sum(axis=1) == 1)
    fine = coarse[cells[mask]]
    oscs, table = _entry_tables(fine)
    coarse_oscs, coarse_table = _entry_tables(coarse)
    for got, want in zip(oscs, coarse_oscs):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    largest = np.maximum.accumulate([o.max() for o in oscs])
    want = list(largest) + [largest[-1]] * (X.BMO_DIAG_DEPTH - 4)
    meta = X.run_study(cfg).metadata
    np.testing.assert_allclose(meta["seminorm_by_depth"], want, rtol=1e-14, atol=0.0)
    assert table == coarse_table
    assert meta["john_nirenberg"] == [list(t) for t in coarse_table]


def test_log_projection_tables_meet_the_polar_maximum():
    # A_11 = 1 + beta |w| for w = log(1/|x|): its level-9 A_h oscillates at
    # most beta times w's exact polar maximum, which sits on the squares at
    # the singular corner, where |w| = w, and within 1e-6 of it
    beta = 0.5
    A_h = C.project_coefficient(C.log_singular_coefficient(beta), build_uniform_mesh(9))
    oscs, _ = _entry_tables(A_h.values[:, 0, 0].copy())
    got = max(o.max() for o in oscs)
    _, polar = C.dyadic_oscillations(C.log_reciprocal_scalar(), X.BMO_DIAG_DEPTH)
    want = beta * max(o.max() for o in polar)
    assert abs(want / beta - 0.3762050) <= 1e-7
    assert want - 1e-6 <= got <= want


@pytest.mark.parametrize(
    "config, iterations, preconditioner",
    [
        ({"kind": "stability", "coeff": "log", "beta": 0.5, "rhs": "sin-cos", "p": 2.1,
          "levels": "5..7"}, [7, 7, 7], ["scaled"] * 3),
        ({"kind": "stability", "coeff": "checkerboard", "kappa": 1000.0, "rhs": "sin-cos",
          "levels": "1..4"}, [1, 5, 9, 11], ["plain"] * 4),
        ({"kind": "convergence", "coeff": "log", "beta": 0.5, "rhs": "sin-cos",
          "levels": "2,3,5"}, None, ["scaled"] * 3),
        ({"kind": "convergence", "coeff": "identity", "rhs": "grad-sinsin",
          "levels": [2, 3, 5]}, [1, 1, 1], ["plain"] * 3),
    ],
)
def test_solve_studies_report_cg_iterations_and_preconditioner(
    config, iterations, preconditioner
):
    # one entry per level in level order, the convergence reference last
    cfg = X.config_from_dict(config)
    meta = X.run_study(cfg).metadata
    assert meta["preconditioner"] == preconditioner
    counts = meta["cg_iterations"]
    assert len(counts) == len(cfg.levels)
    assert all(isinstance(c, int) and c > 0 for c in counts)
    if iterations is not None:
        assert counts == iterations


def test_bmo_diagnostics_study_keeps_its_traced_peak_small():
    # every kernel samples in batches of at most quadrature._CHUNK points:
    # a BMO kernel that hands a field one 1024^2 square grid again (8 MiB
    # of values alone, 32 MiB traced) exceeds this bound, and so does the
    # projection of the log fixture at level 2 if its corner cells' level
    # m = 8 (3 * 4^7 added nodes of 2x2 values) is one batch again (about
    # 6.6 MiB traced)
    cfg = X.config_from_dict(
        {"kind": "bmo-diagnostics", "coeff": "log", "beta": 0.5, "levels": "2..3"}
    )
    tracemalloc.start()
    try:
        X.run_study(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_maximal_bound_check_level1_oracle():
    # w = x: cell averages are centroid abscissae and square averages centre
    # abscissae.  The worst margin, max over containing cells minus twice the
    # max over containing squares, is 1/3 - 2 (1/2) = 5/6 - 2 (3/4) = -2/3;
    # the value is the one the per-point mesh_maximal and dyadic_maximal
    # (removed) gave on the same 17x17 grid.
    w = C.ScalarField(lambda p: p[:, 0], "x")
    assert X.maximal_bound_check(w, [1]) == [(0, -0.6666666666666667)]


def test_maximal_bound_check_accepts_a_deeper_pyramid():
    w = C.log_reciprocal_scalar()
    [own] = X.maximal_bound_check(w, [2])
    [shared] = X.maximal_bound_check(w, [2], gen_means=C.abs_means_pyramid(w, 4))
    assert shared[0] == own[0] == 0
    assert shared[1] == pytest.approx(own[1], abs=2 * X.MAXIMAL_BOUND_TOL)


def _dyadic_squares_containing(x, level):
    """The former coeff.dyadic_squares_containing, as (ix, iy) pairs."""
    n = 2**level
    sx = {int(math.floor(x[0] * n)), int(math.ceil(x[0] * n)) - 1}
    sy = {int(math.floor(x[1] * n)), int(math.ceil(x[1] * n)) - 1}
    return [(i, j) for i in sorted(sx) for j in sorted(sy) if 0 <= i < n and 0 <= j < n]


def _maximal_bound_per_point(w, level, gen_means, tol=X.MAXIMAL_BOUND_TOL):
    """The former per-point maximal_bound_check: the reference for the
    vectorised one."""
    mesh = build_uniform_mesh(level)
    cell_means = C.cell_abs_means(w, mesh)
    grid = np.linspace(0.0, 1.0, X.MAXIMAL_GRID)
    violations = 0
    worst = -np.inf
    for x in grid:
        for y in grid:
            pt = (x, y)
            mm = max(cell_means[c] for c in C.cells_containing(mesh, pt))
            dm = -np.inf
            for j in range(level + 1):
                n = 2**j
                for ix, iy in _dyadic_squares_containing(pt, j):
                    dm = max(dm, gen_means[j][iy * n + ix])
            margin = mm - X.MAXIMAL_BOUND_CONSTANT * dm
            worst = max(worst, margin)
            if margin > tol:
                violations += 1
    return violations, float(worst)


_MAXIMAL_FIELDS = {
    "log-origin": lambda: C.log_reciprocal_scalar(),
    "log-centre": lambda: C.log_reciprocal_scalar((0.5, 0.5)),
    "x": lambda: C.ScalarField(lambda p: p[:, 0], "x"),
    "checkerboard-100": lambda: C.coefficient_entry(C.checkerboard_coefficient(100.0), 0, 0),
}


@pytest.mark.parametrize("name", sorted(_MAXIMAL_FIELDS))
def test_maximal_bound_check_matches_per_point_loop(name):
    w = _MAXIMAL_FIELDS[name]()
    shared = C.abs_means_pyramid(w, 6)
    for level in range(6):
        own = C.abs_means_pyramid(w, level)
        assert X.maximal_bound_check(w, [level]) == [_maximal_bound_per_point(w, level, own)]
        ref = _maximal_bound_per_point(w, level, shared)
        assert X.maximal_bound_check(w, [level], gen_means=shared) == [ref]
        # every worst margin here is negative: 1.5 times it counts violations
        tol = 1.5 * ref[1]
        assert X.maximal_bound_check(
            w, [level], tol, gen_means=shared
        ) == [_maximal_bound_per_point(w, level, shared, tol)]


def _maximal_bound_per_level(level, gen_means, cell_means, tol=X.MAXIMAL_BOUND_TOL):
    """The former one-level maximal_bound_check, which found the containing
    cells anew for every level and generation: the reference for the
    shared per-generation pass."""
    grid = np.linspace(0.0, 1.0, X.MAXIMAL_GRID)
    points = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=2).reshape(-1, 2)

    def masked_max(values, cells, mask):
        return np.where(mask, values[cells], -np.inf).max(axis=1)

    mm = masked_max(cell_means, *C.cells_containing_points(level, points))
    dm = np.full(len(points), -np.inf)
    for j in range(level + 1):
        cells, mask = C.cells_containing_points(j, points)
        dm = np.maximum(dm, masked_max(gen_means[j], cells // 2, mask))
    margin = mm - X.MAXIMAL_BOUND_CONSTANT * dm
    return int(np.count_nonzero(margin > tol)), float(margin.max())


@pytest.mark.parametrize("coeff", ["log", "sampled"])
def test_shared_maximal_margins_equal_per_level_containment(coeff, nondyadic_csv_path):
    # the study's inputs for levels 2..5: the projection's |w| cell means
    # (A_h's (1,1) entries for the sampled grid) and the pyramid from the
    # finest of them; one pass per generation gives every level's
    # violations and worst margin bit for bit, also at a tol that counts
    # violations
    cfg = X.config_from_dict(
        {"kind": "bmo-diagnostics", "coeff": coeff, "beta": 0.5,
         "coeff_csv": nondyadic_csv_path, "levels": "2..5"}
    )
    A = X.coefficient_fixture(cfg)
    w = C.coefficient_entry(A) if A.isotropic is None else A.isotropic.w
    cell_means = [X._projected_abs_means(A, level)[1] for level in cfg.levels]
    pyramid = X._square_abs_means(cell_means[-1])
    want = [
        _maximal_bound_per_level(level, pyramid, means)
        for level, means in zip(cfg.levels, cell_means)
    ]
    got = X.maximal_bound_check(w, cfg.levels, gen_means=pyramid, cell_means=cell_means)
    assert got == want
    tol = 1.5 * max(margin for _, margin in want)
    counted = [
        _maximal_bound_per_level(level, pyramid, means, tol)
        for level, means in zip(cfg.levels, cell_means)
    ]
    assert any(violations > 0 for violations, _ in counted)
    got = X.maximal_bound_check(w, cfg.levels, tol, gen_means=pyramid, cell_means=cell_means)
    assert got == counted


def test_bmo_study_finds_containing_cells_once_per_generation(monkeypatch):
    # levels 2..5 share one pass per generation 0..5: 6 containment calls,
    # where one per level and one per level and generation made 22
    generations = []
    original = C.cells_containing_points

    def spy(level, points):
        generations.append(level)
        return original(level, points)

    monkeypatch.setattr(C, "cells_containing_points", spy)
    cfg = X.config_from_dict(
        {"kind": "bmo-diagnostics", "coeff": "log", "beta": 0.5, "levels": "2..5"}
    )
    X.run_study(cfg)
    assert generations == [0, 1, 2, 3, 4, 5]


def test_maximal_bound_check_refuses_bad_levels():
    w = C.ScalarField(lambda p: p[:, 0], "x")
    for levels in ([], [3, 2], [2, 2]):
        with pytest.raises(ValueError, match="strictly increasing"):
            X.maximal_bound_check(w, levels)
    with pytest.raises(ValueError, match="2 cell mean arrays for 1 levels"):
        X.maximal_bound_check(w, [1], cell_means=[np.ones(8), np.ones(8)])


def test_study_csv_bytes_reproducible(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = {
        "kind": "stability",
        "coeff": "checkerboard",
        "kappa": 5.0,
        "rhs": "sin-cos",
        "levels": [2, 3],
    }
    X.run_study(X.config_from_dict({**base, "out": str(out1)}))
    X.run_study(X.config_from_dict({**base, "out": str(out2)}))
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# connectivity


@pytest.mark.parametrize(
    "config",
    [
        {"kind": "stability", "coeff": "log", "levels": [3]},
        {"kind": "convergence", "coeff": "sampled", "levels": [2, 4]},  # cut cells
        {"kind": "coeff-decay", "coeff": "log", "levels": [3]},
        {"kind": "bmo-diagnostics", "coeff": "log", "levels": [2]},
    ],
)
def test_studies_never_read_the_connectivity(config, monkeypatch, nondyadic_csv_path):
    def refuse(mesh):
        raise AssertionError(f"a study read the cells of the level-{mesh.level} mesh")

    monkeypatch.setattr(Mesh, "cells", property(refuse))
    if config["coeff"] == "sampled":
        config = {**config, "coeff_csv": nondyadic_csv_path}
    assert X.run_study(X.config_from_dict(config)).rows


@pytest.mark.parametrize("p", [1.1, 10.0])
def test_stability_study_at_the_ends_of_the_p_range(p):
    # at p = 1.1 the conjugate exponent q = 11 lies outside the p range
    report = X.run_study(
        X.config_from_dict({"kind": "stability", "coeff": "log", "p": p, "levels": [2, 3]})
    )
    assert all(math.isfinite(r.conj_gap_ratio) for r in report.rows)


# ---------------------------------------------------------------------------
# study battery script


def test_battery_metadata_drops_timings_and_the_output_path():
    spec = importlib.util.spec_from_file_location(
        "run_all_studies", pathlib.Path(__file__).parents[1] / "scripts" / "run_all_studies.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    cfg = X.ExperimentConfig(
        kind="convergence", coeff="sampled", coeff_csv="/some/dir/grid.csv",
        levels=(2, 4), out="/some/dir/out.csv",
    )
    metadata = {"config": X.config_echo(cfg), "kind": "convergence", "reference_level": 4,
                "reference_time_s": 1.5, "timings_s": [0.1, 0.2]}
    meta = script.reproducible_metadata(metadata)
    assert meta == {"config": meta["config"], "kind": "convergence", "reference_level": 4}
    config = json.loads(meta["config"])
    assert "out" not in config and config["coeff_csv"] == "grid.csv"
    assert {k: v for k, v in config.items() if k != "coeff_csv"} == {
        k: v for k, v in X.config_to_dict(cfg).items() if k not in ("out", "coeff_csv")
    }
    # the study's own metadata is left as it was
    assert "timings_s" in metadata and json.loads(metadata["config"])["out"] == cfg.out
