"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import gate
import workloads
from tracer import Tracer, layer_functions

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BASELINE = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _small_configs(tmp_path):
    grid = tmp_path / "coeff.csv"
    grid.write_text(workloads.sampled_grid_text(3), encoding="utf-8")
    return [
        {"kind": "stability", "coeff": "log", "beta": 0.5, "rhs": "sin-cos",
         "p": 2.1, "levels": "2..3"},
        {"kind": "hodge-suite", "p": 3.0, "levels": "1..2", "seed": 5},
        {"kind": "convergence", "coeff": "sampled", "coeff_csv": str(grid),
         "rhs": "sin-cos", "levels": "2,4"},
        {"kind": "coeff-decay", "coeff": "smooth", "levels": "1..3"},
    ]


def _bindings():
    """id of every value bound in a bmofem module namespace or in a dict
    held by one."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "bmofem" or name.startswith("bmofem.")):
            continue
        for attr, val in vars(mod).items():
            out[(name, attr)] = id(val)
            if isinstance(val, dict) and attr != "__builtins__":
                for key, item in val.items():
                    out[(name, attr, key)] = id(item)
    return out


def test_traced_csv_matches_untraced(tmp_path):
    from bmofem import harness

    for i, data in enumerate(_small_configs(tmp_path)):
        plain = tmp_path / f"plain-{i}.csv"
        traced = tmp_path / f"traced-{i}.csv"
        harness.run_study(harness.config_from_dict(dict(data, out=str(plain))))
        with Tracer():
            harness.run_study(harness.config_from_dict(dict(data, out=str(traced))))
        assert traced.read_bytes() == plain.read_bytes(), data["kind"]


def test_tracer_restores_every_binding():
    from bmofem import fem, harness, hodge

    originals = layer_functions()
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            # hodge binds fem's function by name, harness keeps its runners
            # in a dict: every binding is patched
            assert hodge.assemble_stiffness is not originals["fem.assemble_stiffness"]
            assert hodge.assemble_stiffness is fem.assemble_stiffness
            assert harness._RUNNERS["stability"] is not originals["harness.run_stability_study"]
            raise RuntimeError("leave the context by an exception")
    assert _bindings() == before


def test_tracer_spans_and_counts(tmp_path):
    from bmofem import harness

    data = _small_configs(tmp_path)[0]
    tracer = Tracer()
    with tracer:
        harness.run_study(harness.config_from_dict(data))
    m = tracer.metrics()
    assert m["harness.run_study.calls"] == 1
    assert m["trace.coverage"] >= 0.9
    assert m["quadrature.triangle_means.evals"] > 0
    assert 0.0 < m["fem.solve_spd.rel_residual_max"] <= 1e-10
    assert m["fem.solve_spd.unknowns"] > 0
    for name in layer_functions():
        assert m[f"{name}.self_s"] <= m[f"{name}.total_s"] + 1e-9


def test_gate_accepts_reference_and_rejects_nudged_float():
    reference = gate.load_reference()
    cfg = workloads.WORKLOADS["stability-log"]
    frozen = reference["stability-log"]["any"]
    assert gate.check_study(reference, "stability-log", 7, cfg, frozen["csv"], frozen["meta"]) == []

    rows = gate.parse_csv(frozen["csv"])
    tol = gate.column_tolerances(cfg, rows[1], rows[0], None)["grad_lp"]
    for factor, passes in ((0.5, True), (2.0, False)):
        nudged = [dict(r) for r in rows]
        nudged[1]["grad_lp"] = repr(float(rows[1]["grad_lp"]) + factor * tol)
        text = "\n".join([gate.CSV_HEADER] + [",".join(r[c] for c in gate.COLUMNS) for r in nudged]) + "\n"
        problems = gate.check_study(reference, "stability-log", 7, cfg, text, frozen["meta"])
        assert (problems == []) == passes, problems


def test_gate_checks_invariants_at_unfrozen_seeds():
    reference = gate.load_reference()
    frozen = reference["hodge-suite"]["0"]
    cfg = dict(workloads.WORKLOADS["hodge-suite"], seed=10**6)
    assert gate.check_study(reference, "hodge-suite", 10**6, cfg, frozen["csv"], frozen["meta"]) == []
    meta = {"residuals": [dict(r, orthogonality=1e-6) for r in frozen["meta"]["residuals"]]}
    assert gate.check_study(reference, "hodge-suite", 10**6, cfg, frozen["csv"], meta)


def test_metric_names(tmp_path):
    from bmofem import harness

    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    tracer = Tracer()
    with tracer:
        harness.run_study(harness.config_from_dict(_small_configs(tmp_path)[0]))
    produced = set(tracer.metrics()) | {"trace.overhead", "warmup_excess_s"}
    assert {m["name"] for m in SPEC["per_layer"]} <= produced
    assert all(NAME.fullmatch(n) for n in produced)


def test_sampled_grid_is_seeded_and_certified(tmp_path):
    from bmofem.coeff import load_sampled_coefficient

    assert workloads.sampled_grid_text(4) == workloads.sampled_grid_text(4)
    assert workloads.sampled_grid_text(4) != workloads.sampled_grid_text(5)
    path = tmp_path / "grid.csv"
    path.write_text(workloads.sampled_grid_text(4), encoding="utf-8")
    field = load_sampled_coefficient(path)
    pts = np.random.default_rng(0).random((20000, 2))
    assert np.min(np.linalg.eigvalsh(field.evaluate(pts))) >= field.alpha


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_baseline_dominant_layer(workload):
    """The measured baseline shows the dominant layer each workload was
    chosen for."""
    m = {k: v["value"] for k, v in BASELINE["trace"][workload].items()}
    selfs = {k: v for k, v in m.items() if k.endswith(".self_s")}
    top = max(selfs, key=selfs.get)
    evals = sum(v for k, v in m.items() if k.startswith("quadrature.") and k.endswith(".evals"))
    assert m["trace.coverage"] >= 0.9
    if workload in ("stability-log", "convergence-sampled"):
        assert top == "quadrature.triangle_means.self_s"
    elif workload == "bmo-log":
        assert top == "quadrature.square_means_batch.self_s"
        assert m["fem.solve_spd.calls"] == 0
    else:
        fem_mesh = sum(v for k, v in selfs.items() if k.startswith(("fem.", "mesh.")))
        assert evals == 0
        assert fem_mesh >= 0.5 * m["harness.run_study.total_s"]
