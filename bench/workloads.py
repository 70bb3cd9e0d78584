"""The three benchmark workloads: inputs, command chains and outputs.

Each workload is a chain of ``leadframe`` CLI commands run one after the
other on files the set-up step generates from the workload seed.  The
workloads differ in the input shape the code's cost depends on:

* ``churn-monthly``: many entities with short histories.  Per-entity and
  per-row work dominates, and the panel is parsed twice (transform, score).
* ``device-hourly``: few entities with long, uneven histories.  One sweep
  parses the panel once, then truncates and folds it 24 times.
* ``synth-panel``: the generator and the CSV writer alone, with no parse,
  transform or model.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import checkout  # noqa: F401  (puts the checkout's src/ on sys.path)
from leadframe.panel import write_panel_csv
from leadframe.synth import SynthConfig, default_schema, generate_panel

FEATURES = default_schema().feature_columns
DEVICE_LEAD_TIMES = (0, 1, 2, 3, 6, 12, 24, 48, 72, 96, 120, 168)
TRAIN = {"epochs": 400, "learning_rate": 0.5, "l2_penalty": 0.001, "seed": 7}


def _spec(name: str, kind: str, column: str, denominator: str | None = None) -> dict:
    if kind == "ratio_of_sums":
        return {"name": name, "kind": kind, "numerator": column, "denominator": denominator}
    return {"name": name, "kind": kind, "column": column}


def _every_kind(suffix: str, a: str, b: str) -> list[dict]:
    """One spec of each of the five aggregation kinds over columns a and b."""
    return [
        _spec(f"{a}_sum{suffix}", "sum", a),
        _spec(f"{b}_nonzero{suffix}", "count_nonzero", b),
        _spec(f"{a}_max{suffix}", "max", a),
        _spec(f"{b}_last{suffix}", "last", b),
        _spec(f"{a}_per_{b}{suffix}", "ratio_of_sums", a, b),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    # SynthConfig fields except the seed, at full and at smoke size.
    panel: dict
    smoke_panel: dict
    plan: tuple[dict, ...]
    # command name -> output files it writes, in chain order
    outputs: dict[str, tuple[str, ...]]


MONTHLY = dict(n_entities=5000, n_periods=24, event_rate=0.3, ramp_length=3,
               signal_strength=3.0, noise_rate=0.5)
HOURLY = dict(MONTHLY, n_entities=150, n_periods=1000, ramp_length=48)
MONTHLY_PLAN = tuple(_every_kind("", "outbound_calls", "interruptions"))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="churn-monthly",
            panel=MONTHLY,
            smoke_panel=dict(MONTHLY, n_entities=120),
            plan=MONTHLY_PLAN,
            outputs={
                "transform": ("train.csv", "train.report.json"),
                "train": ("model.json",),
                "score": ("scores.csv",),
            },
        ),
        Workload(
            name="device-hourly",
            panel=HOURLY,
            smoke_panel=dict(HOURLY, n_entities=24, n_periods=240),
            plan=tuple(
                _every_kind("_a", FEATURES[0], FEATURES[1])
                + _every_kind("_b", FEATURES[2], FEATURES[3])
            ),
            outputs={"sweep": ("curve.csv",)},
        ),
        Workload(
            name="synth-panel",
            panel=MONTHLY,
            smoke_panel=dict(MONTHLY, n_entities=120),
            plan=MONTHLY_PLAN,
            outputs={"synth": ("panel.csv",)},
        ),
    )
}


def synth_config(workload: Workload, seed: int, smoke: bool) -> SynthConfig:
    return SynthConfig(**(workload.smoke_panel if smoke else workload.panel), seed=seed)


def run_config(workload: Workload, seed: int) -> dict:
    schema = default_schema()
    return {
        "schema": {
            "entity_column": schema.entity_column,
            "period_column": schema.period_column,
            "event_column": schema.event_column,
            "feature_columns": list(schema.feature_columns),
        },
        "plan": list(workload.plan),
        "reference_frame": {"lead_time": 1, "empty_window_policy": "drop"},
        "train": TRAIN,
        "eval": {
            "test_fraction": 0.3,
            "threshold": 0.5,
            "lead_times": list(DEVICE_LEAD_TIMES),
            "seed": seed,
        },
    }


def write_inputs(workload: Workload, seed: int, smoke: bool, inputs: Path, span) -> str:
    """Generate the workload's panel CSV and run config; return the panel digest.

    For ``synth-panel`` the panel is the output the ``synth`` command must
    reproduce.  ``span(name)`` is a context manager wrapped around each call
    into the program.
    """
    with span("synth.generate_panel"):
        dataset = generate_panel(synth_config(workload, seed, smoke))
    text = io.StringIO(newline="")
    with span("panel.write_panel_csv"):
        write_panel_csv(dataset, text)
    data = text.getvalue().encode("utf-8")
    (inputs / "panel.csv").write_bytes(data)
    (inputs / "config.json").write_text(
        json.dumps(run_config(workload, seed), indent=2) + "\n", encoding="utf-8"
    )
    return hashlib.sha256(data).hexdigest()


def commands(workload: Workload, seed: int, smoke: bool, inputs: Path, out: Path) -> list:
    """The workload's chain as (command name, argv) pairs."""
    panel, config = str(inputs / "panel.csv"), str(inputs / "config.json")
    if workload.name == "churn-monthly":
        return [
            ("transform", ["transform", "--input", panel, "--config", config,
                           "--output", str(out / "train.csv"), "--lead-time", "1"]),
            ("train", ["train", "--input", str(out / "train.csv"), "--config", config,
                       "--output", str(out / "model.json")]),
            ("score", ["score", "--model", str(out / "model.json"), "--input", panel,
                       "--config", config, "--output", str(out / "scores.csv")]),
        ]
    if workload.name == "device-hourly":
        return [
            ("sweep", ["sweep", "--input", panel, "--config", config,
                       "--output", str(out / "curve.csv"),
                       "--lead-times", ",".join(map(str, DEVICE_LEAD_TIMES))]),
        ]
    cfg = synth_config(workload, seed, smoke)
    return [
        ("synth", ["synth", "--output", str(out / "panel.csv"),
                   "--entities", str(cfg.n_entities), "--periods", str(cfg.n_periods),
                   "--event-rate", repr(cfg.event_rate), "--ramp-length", str(cfg.ramp_length),
                   "--signal", repr(cfg.signal_strength), "--noise", repr(cfg.noise_rate),
                   "--seed", str(seed)]),
    ]
