"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line (visible with `pytest -s`); pytest itself
reports the fail state.  Meshes go up to level 6 with a level-7 reference,
so the whole module stays within a desk-scale time budget.
"""

import numpy as np
import pytest

from bmofem import coeff as C
from bmofem import fem as F
from bmofem import harness as X
from bmofem import hodge as H
from bmofem.mesh import build_uniform_mesh, interior_vertex_indices

SEED = 1729


def _report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS - {text}")


def _sinsin(mesh):
    return F.interpolate_p1(
        mesh,
        lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
        zero_trace=True,
    )


def _sincos(p):
    return np.column_stack([np.sin(np.pi * p[:, 0]), np.cos(np.pi * p[:, 1])])


def test_c01_galerkin_exactness():
    mesh = build_uniform_mesh(3)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10):
        w = F.p1_zero_trace(mesh, rng.uniform(-1, 1, interior_vertex_indices(mesh).size))
        u = F.solve_bvp(mesh, C.identity_coefficient(), F.gradient(w), solver_tol=1e-13)
        worst = max(worst, float(np.max(np.abs(u.values - w.values))))
    assert worst <= 1e-10
    _report(1, f"Galerkin exactness, max vertex error {worst:.2e}")


def test_c02_hodge_suite():
    rng = np.random.default_rng(SEED)
    worst = {"recon": 0.0, "orth": 0.0, "idem": 0.0, "pyth": 0.0}
    for level in (1, 2, 3, 4):
        mesh = build_uniform_mesh(level)
        system = F.assemble_stiffness(C.project_coefficient(C.identity_coefficient(), mesh))
        hat_scale = float(np.sqrt(system.matrix.diagonal().max()))
        for _ in range(50):
            s = F.PCVectorField(mesh, rng.standard_normal((mesh.num_cells, 2)))
            split = H.hodge_decompose(s, solver_tol=1e-13)
            recon = split.reconstruction_residual / (1.0 + np.abs(s.values).max())
            assert recon <= 1e-10
            g_norm = F.lp_norm(split.sigma, 2.0)
            orth = split.orthogonality_residual
            assert orth <= 1e-9 * g_norm * hat_scale
            again_g = H.hodge_decompose(F.gradient(split.potential), solver_tol=1e-13)
            again_s = H.hodge_decompose(split.sigma, solver_tol=1e-13)
            idem = max(
                np.max(np.abs(again_g.potential.values - split.potential.values)),
                np.max(np.abs(again_g.sigma.values)),
                np.max(np.abs(again_s.potential.values)),
                np.max(np.abs(again_s.sigma.values - split.sigma.values)),
            )
            assert idem <= 1e-9
            total = F.lp_norm(s, 2.0) ** 2
            pyth = abs(
                total
                - F.lp_norm(F.gradient(split.potential), 2.0) ** 2
                - g_norm**2
            ) / total
            assert pyth <= 1e-9
            for key, val in (("recon", recon), ("orth", orth), ("idem", idem), ("pyth", pyth)):
                worst[key] = max(worst[key], float(val))
    _report(2, "Hodge suite residuals " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_c03_conjugate_split_bound():
    rng = np.random.default_rng(SEED)
    worst_g2 = 0.0
    for level in (1, 2, 3, 4):
        mesh = build_uniform_mesh(level)
        for _ in range(10):
            w = F.p1_zero_trace(mesh, rng.uniform(-1, 1, interior_vertex_indices(mesh).size))
            g_norm, ratio = H.conjugate_gap(w, 2.0, solver_tol=1e-13)
            worst_g2 = max(worst_g2, g_norm)
            assert ratio == 0.0
    assert worst_g2 <= 1e-10

    sweeps = {}
    for level in (1, 2, 3, 4):
        mesh = build_uniform_mesh(level)
        u = _sinsin(mesh)
        for p in (1.8, 1.9, 2.1, 2.2):
            g, r = H.conjugate_gap(u, p, solver_tol=1e-13)
            sweeps.setdefault(p, []).append((g, r))
    # monotone in |p - 2| on the fixed function, every level
    for idx in range(4):
        gaps = {p: sweeps[p][idx][0] for p in sweeps}
        assert gaps[1.8] > gaps[1.9]
        assert gaps[2.2] > gaps[2.1]
        assert min(gaps[1.8], gaps[2.2]) > max(gaps[1.9], gaps[2.1])
    spreads = {}
    for p, entries in sweeps.items():
        ratios = [r for _, r in entries]
        spreads[p] = max(ratios) / min(ratios)
        assert spreads[p] <= 2.0
    _report(
        3,
        f"conjugate gap: p=2 norm {worst_g2:.2e}, ratio spread "
        + ", ".join(f"p={p}:{s:.3f}" for p, s in sorted(spreads.items())),
    )


def test_c04_flux_split_bound():
    rng = np.random.default_rng(SEED)
    mesh = build_uniform_mesh(3)
    I_h = C.project_coefficient(C.identity_coefficient(), mesh)
    worst = 0.0
    for _ in range(5):
        w = F.p1_zero_trace(mesh, rng.uniform(-1, 1, interior_vertex_indices(mesh).size))
        _, ell, _ = H.flux_decompose(w, I_h, 2.0, solver_tol=1e-13)
        worst = max(worst, float(np.max(np.abs(ell.values))))
    assert worst <= 1e-10

    A = C.checkerboard_coefficient(5.0)
    ratios = []
    for level in (2, 3, 4, 5):
        m = build_uniform_mesh(level)
        A_h = C.project_coefficient(A, m)
        u = F.solve_projected(A_h, F.project_rhs(_sincos, m, 1e-8))
        _, _, ratio = H.flux_decompose(u, A_h, 2.0)
        ratios.append(ratio)
    spread = max(ratios) / min(ratios)
    assert spread <= 2.0
    _report(4, f"flux split: identity remainder {worst:.2e}, checkerboard spread {spread:.3f}")


def test_c05_coercivity_transfer(sampled_csv_path):
    fixtures = [
        C.identity_coefficient(),
        C.smooth_coefficient(),
        C.log_singular_coefficient(0.25),
        C.log_singular_coefficient(0.5),
        C.log_singular_coefficient(1.0),
        C.checkerboard_coefficient(5.0),
        C.checkerboard_coefficient(100.0),
        C.load_sampled_coefficient(sampled_csv_path),
    ]
    worst_margin = np.inf
    for A in fixtures:
        for level in range(6):
            mesh = build_uniform_mesh(level)
            A_h = C.project_coefficient(A, mesh)
            margin = C.coercivity_of_projection(A_h) - A.alpha
            worst_margin = min(worst_margin, margin)
            assert margin >= -1e-8, f"{A.kind} level {level}"
    _report(5, f"coercivity transfer on 8 fixtures, worst margin {worst_margin:.2e}")


def test_c06_coefficient_decay():
    smooth = C.smooth_coefficient()
    errs = []
    for level in (2, 3, 4, 5):
        mesh = build_uniform_mesh(level)
        errs.append(C.coefficient_error(smooth, C.project_coefficient(smooth, mesh), 2.0))
    orders = [float(np.log2(a / b)) for a, b in zip(errs, errs[1:])]
    assert all(abs(o - 1.0) <= 0.15 for o in orders)

    log = C.log_singular_coefficient(0.5)
    log_errs = []
    for level in (1, 2, 3, 4, 5):
        mesh = build_uniform_mesh(level)
        log_errs.append(C.coefficient_error(log, C.project_coefficient(log, mesh), 2.0))
    assert all(b < a for a, b in zip(log_errs, log_errs[1:]))
    _report(6, f"decay: smooth orders {['%.3f' % o for o in orders]}, log strictly decreasing")


def test_c07_a_priori_stability():
    cfg = X.config_from_dict(
        {
            "kind": "stability",
            "coeff": "log",
            "beta": 0.5,
            "rhs": "sin-cos",
            "p": 2.1,
            "levels": "2..6",
        }
    )
    report = X.run_study(cfg)
    spread = report.metadata["stability_ratio_max_over_min"]
    assert spread <= 1.5
    _report(7, f"stability ratio spread {spread:.4f} over levels 2..6")


def test_c08_strong_convergence():
    outcomes = []
    for coeff, kappa_beta, p, p_hat in (
        ("checkerboard", {"kappa": 100.0}, 2.0, 2.0),
        ("log", {"beta": 0.5}, 2.1, 2.0),
    ):
        cfg = X.config_from_dict(
            {
                "kind": "convergence",
                "coeff": coeff,
                **kappa_beta,
                "rhs": "sin-cos",
                "p": p,
                "p_hat": p_hat,
                "levels": [2, 3, 4, 5, 7],
            }
        )
        report = X.run_study(cfg)
        errs = [r.err_phat for r in report.rows if r.err_phat is not None]
        assert len(errs) == 4
        ratios = [b / a for a, b in zip(errs, errs[1:])]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert all(r <= 0.9 for r in ratios)
        outcomes.append(f"{coeff}: ratios {['%.3f' % r for r in ratios]}")
    _report(8, "strong convergence vs level-7 reference; " + "; ".join(outcomes))


def test_c09_classical_rate():
    def grad_exact(p):
        return np.column_stack(
            [
                np.pi * np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
                np.pi * np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
            ]
        )

    errs = []
    for level in (3, 4, 5):
        mesh = build_uniform_mesh(level)
        u = F.solve_bvp(mesh, C.identity_coefficient(), grad_exact)
        errs.append(X.gradient_error_against(grad_exact, u, 2.0))
    orders = [float(np.log2(a / b)) for a, b in zip(errs, errs[1:])]
    assert all(abs(o - 1.0) <= 0.15 for o in orders)
    _report(9, f"manufactured-solution H1 orders {['%.4f' % o for o in orders]}")


def test_c10_maximal_function_bound():
    scalars = [
        C.coefficient_entry(C.identity_coefficient()),
        C.coefficient_entry(C.smooth_coefficient()),
        C.log_reciprocal_scalar(),
        C.coefficient_entry(C.checkerboard_coefficient(5.0)),
        C.coefficient_entry(C.checkerboard_coefficient(100.0)),
    ]
    worst = -np.inf
    for w in scalars:
        levels = (2, 3, 4)
        checks = X.maximal_bound_check(w, levels)
        assert len(checks) == len(levels)
        for level, (violations, margin) in zip(levels, checks):
            worst = max(worst, margin)
            assert violations == 0, f"{w.name} level {level}"
    _report(10, f"maximal-function bound: zero violations, worst margin {worst:.2e}")


def test_c11_bmo_diagnostics():
    w = C.log_reciprocal_scalar()
    estimates = [C.bmo_seminorm_estimate(w, d) for d in (5, 6)]
    increment = estimates[1] - estimates[0]
    assert increment <= 0.1 * estimates[0]

    table = C.john_nirenberg_check(w, C.DyadicSquare(0, 0, 0), [1.0, 2.0, 3.0, 4.0], 10)
    fractions = [frac for _, frac in table]
    assert all(b <= a for a, b in zip(fractions, fractions[1:]))
    slopes = np.abs(np.diff(np.log(fractions)))
    assert slopes.max() / slopes.min() <= 3.0
    _report(
        11,
        f"seminorm saturates ({increment:.2e} increment), "
        f"John-Nirenberg slopes {['%.3f' % s for s in slopes]}",
    )


def test_c12_determinism(tmp_path):
    configs = [
        {
            "kind": "stability",
            "coeff": "log",
            "beta": 0.5,
            "rhs": "sin-cos",
            "p": 2.1,
            "levels": "2..3",
        },
        {"kind": "hodge-suite", "levels": "1..3", "seed": 42, "p": 2.0},
        {"kind": "coeff-decay", "coeff": "smooth", "levels": "2..4"},
    ]
    for idx, base in enumerate(configs):
        a = tmp_path / f"{idx}_a.csv"
        b = tmp_path / f"{idx}_b.csv"
        X.run_study(X.config_from_dict({**base, "out": str(a)}))
        X.run_study(X.config_from_dict({**base, "out": str(b)}))
        assert a.read_bytes() == b.read_bytes(), base["kind"]
    _report(12, "byte-identical CSVs across reruns for three study kinds")
