"""Self-test of the benchmark at a smoke size.

Usage (from the root of a checkout): ``python3 bench/selftest.py``

Checks that every workload runs cleanly, timed and traced, and reports every
metric; that corrupted outputs count as failed operations, whether one pass
differs from the others or every pass is wrong in the same way; and that the
benchmark exits non-zero without a result when the program is absent.
Exits 0 when all of this holds.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys

import checkout
import run
import workloads

SEED = 5


def _flip_last_byte(path) -> None:
    data = bytearray(path.read_bytes())
    data[-2] = ord("7") if data[-2] != ord("7") else ord("8")
    path.write_bytes(bytes(data))


def _out_of_range_score(k: int, out) -> None:
    """Every pass writes the same scores.csv with one probability of 1.5."""
    path = out / "scores.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = lines[1].split(",")[0] + ",1.5\n"
    path.write_text("".join(lines), encoding="utf-8")


def main() -> int:
    failures = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)
            print(f"FAIL {message}")

    for name in workloads.WORKLOADS:
        for trace in (False, True):
            record = run.measure(name, SEED, 0, trace, smoke=True)
            label = f"{name} trace={int(trace)}"
            expect(record["correct"] and record["failed"] == 0,
                   f"{label}: clean run failed: {record['problems'][:3]}")
            wanted = run.PER_LAYER if trace else run.END_TO_END
            expect(list(record["metrics"]) == list(wanted), f"{label}: metric names")
            expect(all(math.isfinite(v) for v in record["metrics"].values()),
                   f"{label}: non-finite metric")
            if not trace:
                expect(all(v > 0 for v in record["metrics"].values()),
                       f"{label}: an end-to-end metric is not positive")
            print(f"ok {label}: {record['attempted']} operations")

    corruptions = (
        ("churn-monthly", lambda k, out: k == 1 and _flip_last_byte(out / "scores.csv")),
        ("churn-monthly", _out_of_range_score),
        ("device-hourly", lambda k, out: k == 2 and _flip_last_byte(out / "curve.csv")),
        ("synth-panel", lambda k, out: _flip_last_byte(out / "panel.csv")),
    )
    for name, tamper in corruptions:
        record = run.measure(name, SEED, 0, False, smoke=True, tamper=tamper)
        rate = record["failed"] / record["attempted"]
        expect(rate > 0 and not record["correct"], f"{name}: corruption went unnoticed")
        print(f"ok {name} corrupted: error_rate {rate:.3g}")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(checkout.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(checkout.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "churn-monthly", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "without the program the benchmark must fail and print no result")
    print(f"ok without the program: exit {proc.returncode}")

    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
