"""Closed study loop, run in a process of its own by run.py.

One client, one study at a time: a cold study first (lazy imports, caches
and page faults land there), then warm studies back to back while another
one is expected to end within --seconds, at least one.  With --trace 1 a
last study runs under the tracer.  Each study writes its CSV to
<outdir>/study-NNN.csv through run_study itself; the timings, the gated
metadata, the peak RSS of this process and the trace metrics go to
<outdir>/result.json.

Usage: python3 perfbench/worker.py CONFIG OUTDIR SECONDS TRACE
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import gate


def main(argv) -> int:
    config_path, outdir, seconds, trace = argv
    outdir = Path(outdir)
    seconds = float(seconds)

    from bmofem import harness

    data = json.loads(Path(config_path).read_text(encoding="utf-8"))
    studies = []

    def one(tracer=None):
        index = len(studies)
        cfg = harness.config_from_dict(dict(data, out=str(outdir / f"study-{index:03d}.csv")))
        record = {"index": index, "traced": tracer is not None, "error": None}
        with tracer if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                report = harness.run_study(cfg)
            except Exception:  # a failing study is one failed operation
                record["error"] = traceback.format_exc()
            record["seconds"] = time.perf_counter() - start
        if record["error"] is None:
            record["meta"] = {k: report.metadata[k] for k in gate.GATED_META if k in report.metadata}
        studies.append(record)
        return record["seconds"]

    one()  # cold
    warm = []
    begin = time.perf_counter()
    while True:
        warm.append(one())
        if time.perf_counter() - begin + statistics.median(warm) > seconds:
            break
    result = {"bmofem": harness.__file__, "studies": studies}
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        one(tracer)
        result["trace"] = tracer.metrics()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (outdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
