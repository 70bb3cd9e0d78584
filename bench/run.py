"""Benchmark of the leadframe CLI on seeded synthetic panels.

Usage (from the root of a checkout):

    python3 bench/run.py --workload churn-monthly --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all

A run generates the workload's inputs from the seed (set-up, repeated and
timed), then runs passes of the workload's command chain until ``--seconds``
have elapsed.  The host's speed is sampled all through every set-up and
every pass (``reference.py``), and the end-to-end times are reported in
reference seconds, measured seconds x speed, so that the host's changing
speed cancels.  Each pass is a fresh process that calls ``leadframe.cli.main``
once per command, one after the other (a closed loop with one caller).
After the passes, the outputs are checked; a command that exits non-zero,
raises, or writes output that fails a check is a failed operation.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics: spans around
the layer entry points, their self times, a ``tracemalloc`` probe of the
parse, and the tracing overhead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A record of
each run, with the environment and the spans, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import checkout
import checks
import numpy
import reference
import workloads
from tracer import Tracer, layer, no_span, self_times

WORK = checkout.BENCH / ".work"
RESULTS = checkout.BENCH / "results"
SETUP_REPEATS = 3
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
LAYERS = ("panel", "transform", "model", "evaluation", "synth", "cli")

END_TO_END = {
    "job_s": "s",
    "job_cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "panel.parse_s": "s",
    "panel.rows": "count",
    "panel.parse_calls": "count",
    "panel.timelines_s": "s",
    "panel.write_s": "s",
    "panel.live_bytes_per_row": "B",
    "panel.parse_peak_mb": "MB",
    "transform.build_s": "s",
    "transform.build_calls": "count",
    "transform.rows_out": "count",
    "transform.dropped": "count",
    "transform.score_features_s": "s",
    "transform.csv_s": "s",
    "model.train_s": "s",
    "model.train_calls": "count",
    "model.train_work": "count",
    "model.predict_s": "s",
    "model.predict_calls": "count",
    "evaluation.sweep_self_s": "s",
    "evaluation.evaluate_s": "s",
    "evaluation.split_s": "s",
    "evaluation.points_ok_ratio": "ratio",
    "synth.generate_s": "s",
    "synth.rows": "count",
    "cli.transform_s": "s",
    "cli.train_s": "s",
    "cli.score_s": "s",
    "cli.sweep_s": "s",
    "cli.synth_s": "s",
    "cli.self_s": "s",
    **{f"self.{name}_s": "s" for name in LAYERS if name != "cli"},
    "setup.generate_s": "s",
    "setup.write_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def environment() -> dict:
    cpu_model = platform.processor() or None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu_model,
            )
    commit = None
    if (checkout.ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=checkout.ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
    }


def run_worker(job: dict) -> dict:
    """Run worker.py on a job in a fresh process and return its result.

    A worker that crashes yields a result whose commands all failed.
    """
    env = {k: v for k, v in os.environ.items() if k != "LEADFRAME_LOG"}
    result_path = Path(job["result"])
    try:
        proc = subprocess.run(
            [sys.executable, str(checkout.BENCH / "worker.py"), json.dumps(job)],
            capture_output=True, text=True, env=env, timeout=PASS_TIMEOUT_S,
        )
        error = f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"
        ok = proc.returncode == 0 and result_path.exists()
    except subprocess.TimeoutExpired:
        error, ok = f"worker exceeded {PASS_TIMEOUT_S} s", False
    if ok:
        return json.loads(result_path.read_text(encoding="utf-8"))
    if job["mode"] != "pass":
        raise RuntimeError(error)
    chain = workloads.WORKLOADS[job["workload"]].outputs
    return {"commands": [{"name": n, "exit": None, "error": error} for n in chain]}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced pass (spans under ``bench.pass``)."""
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for span, own_s in zip(spans, own):
        name = span["name"]
        total[name] = total.get(name, 0.0) + span["end"] - span["start"]
        calls[name] = calls.get(name, 0) + 1
        for key, value in span.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
        if layer(name) in self_by_layer:
            self_by_layer[layer(name)] += own_s
    sweep_self = sum(o for s, o in zip(spans, own) if s["name"] == "evaluation.lead_time_sweep")
    figures = {
        "panel.parse_s": total.get("panel.parse_panel_csv", 0.0),
        "panel.rows": counts.get("rows_parsed", 0),
        "panel.parse_calls": calls.get("panel.parse_panel_csv", 0),
        "panel.timelines_s": total.get("panel.build_timelines", 0.0),
        "panel.write_s": total.get("panel.write_panel_csv", 0.0),
        "transform.build_s": total.get("transform.build_training_set", 0.0),
        "transform.build_calls": calls.get("transform.build_training_set", 0),
        "transform.rows_out": counts.get("rows_out", 0),
        "transform.dropped": counts.get("dropped", 0),
        "transform.score_features_s": total.get("transform.score_features", 0.0),
        "transform.csv_s": total.get("transform.write_training_csv", 0.0)
        + total.get("transform.read_training_csv", 0.0),
        "model.train_s": total.get("model.train_logistic", 0.0),
        "model.train_calls": calls.get("model.train_logistic", 0),
        "model.train_work": counts.get("work", 0),
        "model.predict_s": total.get("model.predict_proba", 0.0),
        "model.predict_calls": calls.get("model.predict_proba", 0),
        "evaluation.sweep_self_s": sweep_self,
        "evaluation.evaluate_s": total.get("evaluation.evaluate", 0.0),
        "evaluation.split_s": total.get("evaluation.split_entities", 0.0),
        "evaluation.points_ok_ratio": (
            counts["points_ok"] / counts["points"] if counts.get("points") else 0.0
        ),
        "synth.generate_s": total.get("synth.generate_panel", 0.0),
        "synth.rows": counts.get("rows_generated", 0),
        **{f"cli.{c}_s": total.get(f"cli.{c}", 0.0)
           for c in ("transform", "train", "score", "sweep", "synth")},
        "cli.self_s": self_by_layer["cli"],
        **{f"self.{name}_s": self_by_layer[name] for name in LAYERS if name != "cli"},
        "trace.spans": len(spans),
    }
    return figures


def _median(values) -> float:
    return statistics.median(values)


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
            tamper=None) -> dict:
    """One benchmark run of one workload; see the module docstring.

    ``tamper(pass_index, out_dir)``, when given, is called after each pass
    and before its outputs are read, so a test can corrupt them.
    """
    workload = workloads.WORKLOADS[name]
    run_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    try:
        return _measure(workload, seed, seconds, trace, smoke, tamper, run_dir, inputs)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(workload, seed, seconds, trace, smoke, tamper, run_dir: Path, inputs: Path) -> dict:
    problems: list[str] = []

    # Set-up: generate the inputs, several times when timed.
    tracer = Tracer() if trace else None
    span = tracer.span if tracer else no_span
    setup_s, setup_speed, input_digests = [], [], set()
    for _ in range(1 if trace else SETUP_REPEATS):
        with reference.Sampler() as sampler:
            start = time.perf_counter()
            with span("bench.setup"):
                input_digests.add(workloads.write_inputs(workload, seed, smoke, inputs, span))
            setup_s.append(time.perf_counter() - start)
        setup_speed.append(sampler.speed())
    if len(input_digests) != 1:
        problems.append("set-up generated different panels from one seed")
    panel_rows = (inputs / "panel.csv").read_bytes().count(b"\n") - 1

    # Passes: a closed loop until the deadline; traced runs alternate
    # untraced and traced passes in pairs, swapping the order each pair.
    passes = []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_PASSES or time.perf_counter() < deadline or (trace and k % 2):
        traced = trace and (k % 2) != (k // 2) % 2
        out = run_dir / f"pass{k}"
        out.mkdir()
        job = {"mode": "pass", "workload": workload.name, "seed": seed, "smoke": smoke,
               "inputs": str(inputs), "out": str(out), "trace": traced,
               "result": str(run_dir / f"pass{k}.json")}
        result = run_worker(job)
        if tamper is not None:
            tamper(k, out)
        result["traced"] = traced
        result["digests"] = {
            f: checks.sha256(out / f)
            for files in workload.outputs.values() for f in files if (out / f).exists()
        }
        passes.append(result)
        k += 1

    memory = None
    if trace and workload.name != "synth-panel":
        memory = run_worker({"mode": "memory", "workload": workload.name, "inputs": str(inputs),
                             "result": str(run_dir / "memory.json")})

    # Checks, then operations: every command of every pass, plus check commands.
    scratch = run_dir / "check"
    scratch.mkdir()
    first = passes[0]
    by_command = checks.check_outputs(
        workload, seed, smoke, inputs, run_dir / "pass0", scratch
    )
    digests = dict(first["digests"], **{"input/panel.csv": input_digests.pop()})
    for mismatch in checks.pinned_mismatches(workload, seed, smoke, digests):
        name = mismatch.split(" ", 1)[0]
        owner = next((c for c, files in workload.outputs.items() if name in files), None)
        if owner is None:
            problems.append(f"set-up: {mismatch}")
        else:
            by_command[owner].append(mismatch)

    attempted = failed = 0
    for index, result in enumerate(passes):
        for command in result["commands"]:
            name = command["name"]
            reasons = list(by_command.get(name, ()))
            if command["exit"] != 0:
                reasons.append(f"exit {command['exit']} {command['error'] or ''}".strip())
            for f in workload.outputs[name]:
                if result["digests"].get(f) != first["digests"].get(f):
                    reasons.append(f"{f} differs from pass 0")
            attempted += 1
            if reasons:
                failed += 1
                problems.extend(f"pass {index} {name}: {r}" for r in reasons)
    for name, reasons in by_command.items():
        if name not in workload.outputs:
            attempted += 1
            failed += bool(reasons)
            problems.extend(f"{name}: {r}" for r in reasons)

    # Pass times in reference seconds; the measured seconds are kept.
    for result in passes:
        if "job_s" in result:
            result["wall_s"], result["cpu_s"] = result["job_s"], result["job_cpu_s"]
            result["job_s"] = result["wall_s"] * result["speed"]
            result["job_cpu_s"] = result["cpu_s"] * result["speed"]
    timed = [p for p in passes if "job_s" in p]
    if not timed:
        raise RuntimeError(f"{workload.name}: no pass completed: {problems[:3]}")
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "sizes": dict(asdict(workloads.synth_config(workload, seed, smoke)), rows=panel_rows),
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": digests,
        "samples": {
            "setup_s": [t * v for t, v in zip(setup_s, setup_speed)],
            **{m: [p[m] for p in timed] for m in ("job_s", "job_cpu_s", "peak_rss_mb")},
        },
        # The same samples in measured seconds, and the host's speed.
        "measured": {
            "setup_wall_s": setup_s,
            "setup_speed": setup_speed,
            "job_wall_s": [p["wall_s"] for p in timed],
            "job_cpu_s": [p["cpu_s"] for p in timed],
            "pass_speed": [p["speed"] for p in timed],
            "pass_probes": [p["probes"] for p in timed],
        },
    }
    if not trace:
        metrics = {m: _median(record["samples"][m]) for m in END_TO_END}
    else:
        traced = [p for p in timed if p["traced"]]
        # The breakdown of one pass, the fastest traced one, so its parts add up.
        metrics = layer_metrics(min(traced, key=lambda p: p["job_s"])["spans"])
        setup_spans = tracer.spans
        metrics["setup.generate_s"] = sum(
            s["end"] - s["start"] for s in setup_spans if s["name"] == "synth.generate_panel")
        metrics["setup.write_s"] = sum(
            s["end"] - s["start"] for s in setup_spans if s["name"] == "panel.write_panel_csv")
        # Each pair ran back to back, so the host's drift mostly cancels in it.
        pairs = [passes[i:i + 2] for i in range(0, len(passes), 2)]
        metrics["trace.overhead_s"] = _median([
            sum(p["job_s"] if p["traced"] else -p["job_s"] for p in pair)
            for pair in pairs if all("job_s" in p for p in pair)
        ])
        metrics["panel.live_bytes_per_row"] = memory["live_bytes_per_row"] if memory else 0.0
        metrics["panel.parse_peak_mb"] = memory["parse_peak_mb"] if memory else 0.0
        metrics = {m: metrics[m] for m in PER_LAYER}
        record["spans"] = {"setup": setup_spans, "passes": [p["spans"] for p in traced]}
        record["largest_self_layer"] = max(
            LAYERS, key=lambda n: metrics["cli.self_s" if n == "cli" else f"self.{n}_s"])
    record["metrics"] = metrics
    record["correct"] = failed == 0 and not problems
    return record


def report(record: dict, units: dict[str, str]) -> None:
    """Print a run's metrics, one per line, for a reader."""
    print(f"workload {record['workload']} seed {record['seed']} trace {int(record['trace'])}: "
          f"{record['passes']} passes, sizes {json.dumps(record['sizes'])}")
    for name, value in record["metrics"].items():
        samples = record["samples"].get(name)
        extra = ""
        if samples and len(samples) > 1:
            quartiles = statistics.quantiles(samples, n=4)
            extra = (f"  (median of {len(samples)}; "
                     f"min {min(samples):.4g}, quartiles {quartiles[0]:.4g} "
                     f"{quartiles[1]:.4g} {quartiles[2]:.4g}, max {max(samples):.4g})")
        print(f"  {name:28s} {value:.6g} {units[name]}{extra}")
    measured = record["measured"]
    print(f"  measured: pass wall median {_median(measured['job_wall_s']):.4g} s, "
          f"set-up wall median {_median(measured['setup_wall_s']):.4g} s, host speed "
          f"median {_median(measured['pass_speed'] + measured['setup_speed']):.4g}")
    rate = record["failed"] / record["attempted"]
    print(f"  {'error_rate':28s} {rate:.6g} ratio  "
          f"({record['failed']} failed of {record['attempted']} operations)")
    if record["trace"]:
        print(f"  largest self-time layer: {record['largest_self_layer']}")
    for problem in record["problems"][:20]:
        print(f"  FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=checks.pinned()["seed"])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    RESULTS.mkdir(exist_ok=True)
    units = PER_LAYER if args.trace else END_TO_END
    records = []
    for name in names:
        record = measure(name, args.seed, args.seconds, bool(args.trace))
        record["env"] = env
        (RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record), encoding="utf-8"
        )
        report(record, units)
        records.append(record)

    def key(record, metric):
        return metric if len(records) == 1 else f"{record['workload']}.{metric}"

    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            key(r, m): {"value": v, "unit": units[m]}
            for r in records for m, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
