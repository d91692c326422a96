#!/usr/bin/env python3
"""Run the full battery of studies and write one CSV per study.

Beside each CSV goes `<csv stem>.meta.json`: the study's metadata without
its wall-clock times, and with the config echo's `out` path left out, so
two runs into different directories give byte-identical files.  The last
two lines printed are the battery's wall time and its peak RSS.  This is
the scripted equivalent of a handful of `bmofem run` invocations; edit the
CONFIGS list to explore other fixtures or exponents.
"""

import argparse
import json
import pathlib
import resource
import subprocess
import sys
import time

from bmofem.harness import _orders, config_from_dict, run_study

# written into the output directory by make_sampled_coefficient.py --n 10
SAMPLED_GRID = "sampled_coeff_10.csv"

CONFIGS = [
    # a priori stability of the gradient norm for the unbounded fixture
    {"kind": "stability", "coeff": "log", "beta": 0.5, "rhs": "sin-cos",
     "p": 2.1, "levels": "2..6", "out": "stability_log_p2.1.csv"},
    # how fast the stability ratio degrades as |p - 2| grows
    {"kind": "stability", "coeff": "log", "beta": 1.0, "rhs": "sin-cos",
     "p": 3.0, "levels": "2..5", "out": "stability_log_p3.csv"},
    # a constant load's discrete load vector vanishes, so u = 0: the split
    # columns stay empty and there is no ratio spread
    {"kind": "stability", "coeff": "log", "beta": 0.5, "rhs": "constant",
     "p": 2.1, "levels": "1..4", "out": "stability_log_constant.csv"},
    # strong convergence against a fine discrete reference
    {"kind": "convergence", "coeff": "checkerboard", "kappa": 100.0,
     "rhs": "sin-cos", "p": 2.0, "p_hat": 2.0, "levels": "2..5,7",
     "out": "convergence_checkerboard.csv"},
    {"kind": "convergence", "coeff": "log", "beta": 0.5, "rhs": "sin-cos",
     "p": 2.1, "p_hat": 2.0, "levels": "2..5,7", "out": "convergence_log.csv"},
    # a coefficient sampled on a 10x10 grid: its sample lines (spacing 1/9)
    # lie off every dyadic line, so cut cells and the bilinear kernel run
    {"kind": "convergence", "coeff": "sampled", "coeff_csv": SAMPLED_GRID,
     "rhs": "sin-cos", "p": 2.0, "p_hat": 2.0, "levels": "2..5,7",
     "out": "convergence_sampled.csv"},
    # piecewise constant approximation of the coefficient itself
    {"kind": "coeff-decay", "coeff": "smooth", "p": 2.0, "levels": "1..6",
     "out": "decay_smooth.csv"},
    {"kind": "coeff-decay", "coeff": "log", "beta": 0.5, "p": 2.0,
     "levels": "1..6", "out": "decay_log.csv"},
    # level 0: the one cell pair of the unit square, whose corner holds
    # the log singularity; its polar cell means and L^2 error are exact
    {"kind": "coeff-decay", "coeff": "log", "beta": 0.5, "p": 2.0,
     "levels": "0..2", "out": "decay_log_tight.csv"},
    # the sampled grid is bilinear between its sample lines: at p = 2 the
    # misfit |A - A_h|^2 has degree 4 and takes the fixed rule, at p = 3 it
    # is no polynomial and is refined
    {"kind": "coeff-decay", "coeff": "sampled", "coeff_csv": SAMPLED_GRID, "p": 2.0,
     "levels": "1..6", "out": "decay_sampled_p2.csv"},
    {"kind": "coeff-decay", "coeff": "sampled", "coeff_csv": SAMPLED_GRID, "p": 3.0,
     "levels": "1..6", "out": "decay_sampled_p3.csv"},
    # the checkerboard's lines cut only the level-0 cells, where the
    # diagonal meets the corners of the rectangles between them
    {"kind": "coeff-decay", "coeff": "checkerboard", "kappa": 100.0, "p": 2.0,
     "levels": "0..3", "out": "decay_checkerboard.csv"},
    # split quality for random piecewise constant fields
    {"kind": "hodge-suite", "p": 2.0, "levels": "1..4", "seed": 7,
     "out": "hodge_suite.csv"},
    {"kind": "hodge-suite", "p": 3.0, "levels": "1..4", "seed": 7,
     "out": "hodge_suite_p3.csv"},
    # the levels of the benchmark's hodge-suite workload
    {"kind": "hodge-suite", "p": 3.0, "levels": "5..6", "seed": 7,
     "out": "hodge_suite_p3_fine.csv"},
    # oscillation diagnostics for the classical unbounded example
    {"kind": "bmo-diagnostics", "coeff": "log", "beta": 0.5, "levels": "2..4",
     "out": "bmo_log.csv"},
    # its maximal check reads the generation-7 |w| means of the polar rule
    {"kind": "bmo-diagnostics", "coeff": "log", "beta": 0.5, "levels": "2..7",
     "out": "bmo_log_fine.csv"},
    # the same diagnostics of a coefficient entry (coeff.coefficient_entry);
    # the maximal check reads its cell means off A_h, piecewise constant
    # for the checkerboard and not for the smooth coefficient
    {"kind": "bmo-diagnostics", "coeff": "checkerboard", "kappa": 100.0,
     "levels": "2..4", "out": "bmo_checkerboard.csv"},
    {"kind": "bmo-diagnostics", "coeff": "smooth", "levels": "2..4",
     "out": "bmo_smooth.csv"},
    # a coefficient entry on cut cells: its tables are A_h's, off the
    # dyadic sample lines of the 10x10 grid
    {"kind": "bmo-diagnostics", "coeff": "sampled", "coeff_csv": SAMPLED_GRID,
     "levels": "2..5", "out": "bmo_sampled.csv"},
]


# metadata entries that hold wall-clock times
TIMING_KEYS = ("timings_s", "reference_time_s")


def reproducible_metadata(metadata: dict) -> dict:
    """The study's metadata less its timings and the config's out path,
    with the coefficient file named without its directory."""
    meta = {k: v for k, v in metadata.items() if k not in TIMING_KEYS}
    config = json.loads(meta["config"])
    del config["out"]
    if config.get("coeff_csv"):
        config["coeff_csv"] = pathlib.Path(config["coeff_csv"]).name
    meta["config"] = json.dumps(config, sort_keys=True)
    return meta


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="directory for the CSVs")
    args = parser.parse_args()
    battery_start = time.perf_counter()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    script = pathlib.Path(__file__).with_name("make_sampled_coefficient.py")
    subprocess.run(
        [sys.executable, str(script), "--n", "10", "--out", str(outdir / SAMPLED_GRID)], check=True
    )

    for data in CONFIGS:
        data = dict(data)
        data["out"] = str(outdir / data["out"])
        if "coeff_csv" in data:
            data["coeff_csv"] = str(outdir / data["coeff_csv"])
        cfg = config_from_dict(data)
        start = time.perf_counter()
        report = run_study(cfg)
        elapsed = time.perf_counter() - start
        meta_path = pathlib.Path(data["out"]).with_suffix(".meta.json")
        meta_path.write_text(
            json.dumps(reproducible_metadata(report.metadata), indent=1) + "\n", encoding="utf-8"
        )
        summary = ""
        if cfg.kind == "stability":
            spread = report.metadata["stability_ratio_max_over_min"]
            summary = "no ratio spread" if spread is None else f"ratio spread {spread:.4f}"
            osc = report.metadata["data_oscillation_l2"]
            order = _orders(osc)[-1]
            if osc[-1] == 0.0:
                summary += ", oscillation 0"
            else:
                summary += f", oscillation {osc[-1]:.4e}"
                if order is not None:
                    summary += f" (order {order:.3f})"
        elif cfg.kind == "convergence":
            orders = [r.order for r in report.rows if r.order is not None]
            summary = "orders " + ", ".join(f"{o:.3f}" for o in orders)
        elif cfg.kind == "coeff-decay":
            summary = "errors " + ", ".join(f"{r.coeff_err_l2:.3e}" for r in report.rows)
        elif cfg.kind == "hodge-suite":
            summary = "worst split ratio " + ", ".join(
                f"{r.stability_ratio:.3f}" for r in report.rows
            )
        elif cfg.kind == "bmo-diagnostics":
            summary = f"seminorm estimate {report.metadata['seminorm_by_depth'][-1]:.5f}"
        print(f"{data['out']}: {summary}  [{elapsed:.1f}s]")
    print(f"wall time of the battery: {time.perf_counter() - battery_start:.1f}s")
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS of the battery: {peak_mb:.0f} MB")


if __name__ == "__main__":
    main()
