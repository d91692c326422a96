#!/usr/bin/env python3
"""bmofem benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.  The run

1. writes the workload's inputs for the seed into perfbench/out/NAME/
   (config.json, and the sampled grid for convergence-sampled);
2. with --trace 0, measures setup_s: fresh interpreters that import
   bmofem.harness and bmofem.cli and validate the config, median of
   SETUP_STARTS after one discarded start;
3. runs worker.py in a process of its own: a cold study, then warm studies
   for --seconds (closed loop, one client), and with --trace 1 a traced one;
4. gates every study's output (gate.py) and prints the metrics named in
   BENCHMARK.json as the last line of stdout.

Each study is one operation; it fails if it raises, if its output fails
the gate, or if its CSV differs from the run's first CSV.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_STARTS = 5
DEADLINE_S = 170.0

SETUP_PROBE = (
    "import json, sys, time\n"
    "import bmofem.harness, bmofem.cli\n"
    "bmofem.harness.config_from_dict(json.load(open(sys.argv[1])))\n"
    "print(time.monotonic())\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def package_env() -> dict:
    """Environment of the studies: the package from ./src, and NumPy's
    transparent-huge-page advice off.  Whether a huge page is available at
    fault time depends on the host, and with the advice on peak_rss_mb of
    stability-log read 237 MB instead of 226 MB in 3 of 10 runs (1 of 20
    with it off)."""
    path = str(ROOT / "src")
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    return dict(os.environ, PYTHONPATH=path, NUMPY_MADVISE_HUGEPAGE="0")


def measure_setup(env: dict, config: Path) -> float:
    """Median seconds from spawning an interpreter to a validated config.

    time.monotonic is one system-wide clock, so the probe's reading of it
    is comparable with the spawn time taken here.
    """
    samples = []
    for i in range(SETUP_STARTS + 1):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(config)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        if i:  # the first start may compile bytecode
            samples.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(samples)


def gate_studies(studies, outdir, workload, seed, cfg):
    """Number of failed studies; prints one line per problem to stderr."""
    reference = gate.load_reference()
    failed = 0
    first_csv = None
    for study in studies:
        problems = [study["error"]] if study["error"] else []
        if not problems:
            csv_text = (outdir / f"study-{study['index']:03d}.csv").read_text(encoding="utf-8")
            problems = gate.check_study(reference, workload, seed, cfg, csv_text, study["meta"])
            if first_csv is None:
                first_csv = csv_text
            elif csv_text != first_csv:
                problems.append("CSV differs from the run's first CSV")
        if problems:
            failed += 1
            for problem in problems:
                print(f"study {study['index']}: {problem}", file=sys.stderr)
    return failed


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "bmofem" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'bmofem'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    outdir = HERE / "out" / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    config = workloads.write_config(args.workload, args.seed, outdir, ROOT)
    cfg = json.loads(config.read_text(encoding="utf-8"))
    env = package_env()

    values = {}
    if not args.trace:
        values["setup_s"] = measure_setup(env, config)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(config), str(outdir),
             repr(args.seconds), str(args.trace)],
            env=env, cwd=ROOT, check=True,
            timeout=DEADLINE_S - (time.monotonic() - started),
        )
    except subprocess.TimeoutExpired:
        print("worker did not finish in time", file=sys.stderr)
        return 1
    result = json.loads((outdir / "result.json").read_text(encoding="utf-8"))
    if not Path(result["bmofem"]).resolve().is_relative_to(ROOT / "src"):
        print(f"imported bmofem from {result['bmofem']}, not from ./src", file=sys.stderr)
        return 2

    studies = result["studies"]
    failed = gate_studies(studies, outdir, args.workload, args.seed, cfg)
    cold = studies[0]["seconds"]
    warm_all = [s for s in studies[1:] if not s["traced"]]
    warm = [s["seconds"] for s in warm_all if not s["error"]] or [s["seconds"] for s in warm_all]
    study_s = statistics.median(warm)
    values["study_s"] = study_s
    values["peak_rss_mb"] = result["peak_rss_mb"]
    if args.trace:
        traced = studies[-1]["seconds"]
        values.update(result["trace"])
        values["trace.overhead"] = traced / study_s - 1.0
        values["warmup_excess_s"] = cold - study_s
    print(
        f"# {args.workload} seed {args.seed}: study_s median of {len(warm)} warm "
        f"studies {study_s:.4f} s, cold {cold:.4f} s, {failed} of {len(studies)} failed"
    )
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(studies),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
