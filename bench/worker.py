"""One pass of a workload in a fresh process.

Usage: ``python3 worker.py '<json job>'``.  The job names the workload, the
input and output directories, the mode and the file to write the result to.

* ``pass`` runs the workload's command chain through ``leadframe.cli.main``
  in this process, one command after the other, and reports the pass's wall
  and CPU seconds, the host's speed while the chain ran (``reference.py``)
  and the process's peak resident memory.  With ``trace``
  set, the layer entry points are wrapped first and the spans are returned.
* ``memory`` parses the panel and builds timelines under ``tracemalloc``
  and reports the parse peak and the memory still live per row.

A fresh process per pass keeps one pass's peak memory from hiding the next.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import checkout  # noqa: F401  (puts the checkout's src/ on sys.path)
import reference
import workloads
from leadframe import cli
from leadframe.config import load_run_config
from leadframe.panel import build_timelines, parse_panel_csv
from tracer import Tracer, instrument, no_span


def _peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB (10^6 bytes).

    ``VmHWM`` belongs to this process's own address space; ``ru_maxrss`` can
    carry over the parent's peak across fork and exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_pass(job: dict) -> dict:
    workload = workloads.WORKLOADS[job["workload"]]
    chain = workloads.commands(
        workload, job["seed"], job["smoke"], Path(job["inputs"]), Path(job["out"])
    )
    tracer = None
    span = no_span
    if job["trace"]:
        tracer = Tracer()
        instrument(tracer)
        span = tracer.span

    results = []
    with reference.Sampler() as sampler:
        wall, cpu = time.perf_counter(), time.process_time()
        with span("bench.pass"):
            for name, argv in chain:
                error = None
                with span(f"cli.{name}"):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                    except Exception:  # a crash is a failed operation, not a failed benchmark
                        code, error = None, traceback.format_exc(limit=4)
                results.append({"name": name, "exit": code, "error": error})
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu

    return {
        "job_s": wall,
        "job_cpu_s": cpu,
        "speed": sampler.speed(),
        "probes": len(sampler.times),
        "peak_rss_mb": _peak_rss_mb(),
        "commands": results,
        "spans": tracer.spans if tracer else None,
    }


def run_memory(job: dict) -> dict:
    inputs = Path(job["inputs"])
    schema = load_run_config(inputs / "config.json").schema
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    with open(inputs / "panel.csv", "rb") as handle:
        dataset = parse_panel_csv(handle, schema)
    parse_peak = tracemalloc.get_traced_memory()[1] - base
    rows = len(dataset.records)
    timelines = build_timelines(dataset)
    del dataset  # the CLI keeps only the timelines
    gc.collect()
    live = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()
    del timelines
    return {"rows": rows, "parse_peak_mb": parse_peak / 1e6, "live_bytes_per_row": live / rows}


def main() -> int:
    job = json.loads(sys.argv[1])
    result = run_pass(job) if job["mode"] == "pass" else run_memory(job)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
