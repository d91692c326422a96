#!/usr/bin/env python3
"""Freeze the study outputs that gate.py compares every benchmark run with.

    PYTHONPATH=src python3 perfbench/freeze.py

Runs each workload once: the seed-independent ones once for all seeds
("any"), the seeded ones for seeds 0..FROZEN_SEEDS-1; other seeds are
checked by invariants only.  Writes perfbench/reference.json.  The file
was frozen at the commit that introduced the benchmark; regenerating it
after a numerical change would hide that change from the gate.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import gate
import workloads

FROZEN_SEEDS = 16


def main() -> int:
    from bmofem.harness import config_from_dict, report_to_csv, run_study

    here = Path(__file__).resolve().parent
    root = here.parent
    workdir = here / "out" / "freeze"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    for name in workloads.WORKLOADS:
        seeds = range(FROZEN_SEEDS) if name in workloads.SEEDED else [0]
        table = reference[name] = {}
        for seed in seeds:
            data = workloads.study_config(name, seed, workdir, root)
            report = run_study(config_from_dict(data))
            meta = {k: report.metadata[k] for k in gate.GATED_META if k in report.metadata}
            table[str(seed) if name in workloads.SEEDED else "any"] = {
                "csv": report_to_csv(report), "meta": meta,
            }
            print(f"{name} seed {seed}", flush=True)
    gate.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
