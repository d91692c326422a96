import dataclasses
import json
import os

import numpy as np
import pytest

from bmofem import coeff as C
from bmofem import fem as F
from bmofem import harness as X
from bmofem.errors import ConfigError, LineageError
from bmofem.mesh import build_uniform_mesh, interior_vertex_indices


# ---------------------------------------------------------------------------
# configuration


def test_parse_levels_variants():
    assert X.parse_levels("2..5") == (2, 3, 4, 5)
    assert X.parse_levels("2..4,7") == (2, 3, 4, 7)
    assert X.parse_levels([1, 3]) == (1, 3)


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


def test_write_report_atomic(tmp_path):
    report = X.StudyReport(rows=(X.ReportRow(level=1, cells=8),), metadata={})
    out = tmp_path / "r.csv"
    X.write_report(report, str(out))
    assert out.read_text().startswith(X.CSV_HEADER)
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert not leftovers


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
    # a constant settles on the shared ladder in every generation
    assert report.metadata["dyadic_fallbacks"] == [0] * (X.BMO_DIAG_DEPTH + 1)


def test_maximal_bound_check_accepts_a_deeper_pyramid():
    w = C.log_reciprocal_scalar()
    own = X.maximal_bound_check(w, 2)
    shared = X.maximal_bound_check(w, 2, gen_means=C.abs_means_pyramid(w, 4))
    assert shared[0] == own[0] == 0
    assert shared[1] == pytest.approx(own[1], abs=2 * X.MAXIMAL_BOUND_TOL)


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
