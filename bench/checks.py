"""Output checks, run after the timed passes and outside any timed region.

Every check reads the files the CLI wrote and compares them with facts the
benchmark derives on its own: the panel it generated, read back with the
``csv`` module, and the brute-force ``oracle`` from ``tests/``.  Each check
belongs to the command whose output it reads; ``check_outputs`` returns the
failure messages per command.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

import checkout  # noqa: F401  (puts the checkout's src/ on sys.path)
import oracle
import workloads
from leadframe import cli
from leadframe.synth import default_schema

ORACLE_SAMPLE_PER_STRATUM = 8


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


class Panel:
    """The generated panel as the oracle's raw rows, plus per-entity facts."""

    def __init__(self, path: Path) -> None:
        schema = default_schema()
        header, *body = _csv_rows(path)
        at = {name: i for i, name in enumerate(header)}
        self.raw = [
            (
                row[at[schema.entity_column]],
                row[at[schema.period_column]],
                {c: float(row[at[c]]) for c in schema.feature_columns},
                int(row[at[schema.event_column]]),
            )
            for row in body
        ]
        self.positions = oracle.period_positions(self.raw)
        first: dict[str, int] = {}
        event: dict[str, int] = {}
        for entity, label, _, flag in self.raw:
            position = self.positions[label]
            first[entity] = min(first.get(entity, position), position)
            if flag == 1:
                event[entity] = min(event.get(entity, position), position)
        self.entities = sorted(first)
        self.first = first
        self.event = event

    def dropped(self, lead_time: int) -> set[str]:
        """Event entities whose window ends before their first observation."""
        return {e for e, t in self.event.items() if t - lead_time < self.first[e]}

    def sample(self, lead_time: int, seed: int) -> list[str]:
        """Seeded sample with non-event, kept-event and dropped-event entities."""
        dropped = self.dropped(lead_time)
        strata = (
            [e for e in self.entities if e not in self.event],
            [e for e in self.entities if e in self.event and e not in dropped],
            [e for e in self.entities if e in dropped],
        )
        rng = random.Random(seed)
        chosen = []
        for stratum in strata:
            chosen += rng.sample(stratum, min(len(stratum), ORACLE_SAMPLE_PER_STRATUM))
        return sorted(chosen)


def _plan_tuples(workload: workloads.Workload) -> list[tuple]:
    return [
        (s["kind"], s["numerator"], s["denominator"]) if s["kind"] == "ratio_of_sums"
        else (s["kind"], s["column"])
        for s in workload.plan
    ]


def _check_training(workload, panel: Panel, lead_time: int, seed: int, out: Path) -> list[str]:
    """Structure of a transform's CSV and report, and a sample against the oracle."""
    problems = []
    names = [s["name"] for s in workload.plan]
    header, *body = _csv_rows(out / "train.csv")
    if header != ["entity_id", *names, "label"]:
        return [f"train.csv header {header!r}"]
    rows = {}
    for row in body:
        values = tuple(float(v) for v in row[1:-1])
        if not all(math.isfinite(v) for v in values) or row[-1] not in ("0", "1"):
            problems.append(f"train.csv row {row!r}")
        rows[row[0]] = (values, int(row[-1]))
    if list(rows) != sorted(set(rows)) or len(rows) != len(body):
        problems.append("train.csv entity ids are not unique and ascending")
    report = json.loads((out / "train.report.json").read_text(encoding="utf-8"))
    dropped = report["dropped_entities"]
    if report["events"] + report["non_events"] != len(rows):
        problems.append("report event counts do not add up to the training rows")
    if len(rows) + len(dropped) != len(panel.entities):
        problems.append(
            f"{len(rows)} training rows + {len(dropped)} dropped != "
            f"{len(panel.entities)} entities"
        )
    if set(dropped) != panel.dropped(lead_time) or set(dropped) & set(rows):
        problems.append("dropped entities differ from the emptied event windows")
    if any(label != (e in panel.event) for e, (_, label) in rows.items()):
        problems.append("a training label disagrees with the panel's event flags")

    sample = set(panel.sample(lead_time, seed))
    sample_raw = [r for r in panel.raw if r[0] in sample]
    if oracle.period_positions(sample_raw) != panel.positions:
        problems.append("oracle sample does not span the panel's period sequence")
    expected, expected_dropped = oracle.brute_force_training_rows(
        sample_raw, lead_time, _plan_tuples(workload)
    )
    for entity in sorted(sample):
        if entity in expected_dropped:
            if entity in rows or entity not in dropped:
                problems.append(f"oracle drops {entity} at lead {lead_time}, transform keeps it")
        elif rows.get(entity) != expected[entity]:
            problems.append(
                f"oracle row for {entity} at lead {lead_time}: {expected[entity]!r}, "
                f"transform wrote {rows.get(entity)!r}"
            )
    return problems


def _check_model(workload, out: Path) -> list[str]:
    model = json.loads((out / "model.json").read_text(encoding="utf-8"))
    numbers = [model["intercept"], *model["weights"], *model["scaling"]["means"],
               *model["scaling"]["stds"]]
    problems = []
    if model["feature_names"] != [s["name"] for s in workload.plan]:
        problems.append("model feature names differ from the plan")
    if not all(isinstance(v, float) and math.isfinite(v) for v in numbers):
        problems.append("model holds a non-finite number")
    return problems


def _check_scores(panel: Panel, out: Path) -> list[str]:
    header, *body = _csv_rows(out / "scores.csv")
    problems = []
    if header != ["entity_id", "probability"]:
        problems.append(f"scores.csv header {header!r}")
    if [row[0] for row in body] != panel.entities:
        problems.append("scores.csv does not hold one row per entity in id order")
    if not all(len(row) == 2 and 0.0 < float(row[1]) < 1.0 for row in body):
        problems.append("scores.csv holds a probability outside (0, 1)")
    return problems


def _check_curve(panel: Panel, out: Path, sizes: dict[int, int]) -> list[str]:
    """Structure of the sweep's curve; fills ``sizes`` with train + test per lead."""
    header, *body = _csv_rows(out / "curve.csv")
    problems = []
    if header != ["lead_time", "accuracy", "precision", "recall", "auc",
                  "train_size", "test_size", "flags"]:
        return [f"curve.csv header {header!r}"]
    leads = [int(row[0]) for row in body]
    if leads != sorted(set(workloads.DEVICE_LEAD_TIMES)):
        problems.append(f"curve lead times {leads!r}")
    for row in body:
        lead, scored = int(row[0]), row[1:5]
        sizes[lead] = int(row[5]) + int(row[6])
        if scored == ["", "", "", ""]:
            if not row[7]:
                problems.append(f"curve point {lead} has no metrics and no flag")
        elif not all(0.0 <= float(v) <= 1.0 for v in scored):
            problems.append(f"curve point {lead} has a metric outside [0, 1]")
        if sizes[lead] + len(panel.dropped(lead)) != len(panel.entities):
            problems.append(
                f"curve point {lead}: train + test + dropped != {len(panel.entities)} entities"
            )
    return problems


def _check_synth(workload, seed: int, smoke: bool, inputs: Path, out: Path) -> list[str]:
    """The CLI's panel equals the library's, and has the generator's shape."""
    problems = []
    if (out / "panel.csv").read_bytes() != (inputs / "panel.csv").read_bytes():
        problems.append("synth output differs from generate_panel + write_panel_csv")
    config = workloads.synth_config(workload, seed, smoke)
    header, *body = _csv_rows(out / "panel.csv")
    if tuple(header) != default_schema().columns:
        return problems + [f"panel.csv header {header!r}"]
    width = len(str(config.n_entities - 1))
    expected_ids = [f"E{i:0{width}d}" for i in range(config.n_entities)]
    histories: dict[str, list[list[str]]] = {}
    for row in body:
        histories.setdefault(row[0], []).append(row)
        if not all(cell.isdigit() for cell in row[2:-1]):
            problems.append(f"panel.csv row {row!r} holds a non-count feature")
            break
    if list(histories) != expected_ids:
        problems.append("panel.csv does not hold every entity once, in id order")
    for entity, rows in histories.items():
        periods = [int(r[1]) for r in rows]
        flags = [r[-1] for r in rows]
        ends_in_event = flags[-1] == "1"
        if (
            periods != list(range(1, len(rows) + 1))
            or "1" in flags[:-1]
            or len(rows) > config.n_periods
            or (not ends_in_event and len(rows) != config.n_periods)
            or (ends_in_event and len(rows) <= config.ramp_length)
        ):
            problems.append(f"panel.csv history of {entity} breaks the generator's shape")
            break
    return problems


def check_outputs(workload, seed: int, smoke: bool, inputs: Path, out: Path,
                  scratch: Path) -> dict[str, list[str]]:
    """Failure messages per command for the outputs in ``out``.

    ``device-hourly`` adds an untimed ``transform`` at its longest lead time,
    written to ``scratch``, to tie the sweep's sizes to the oracle; its
    failures are reported under ``check-transform``.
    """
    if workload.name == "synth-panel":
        return {"synth": _guard(_check_synth, workload, seed, smoke, inputs, out)}
    panel = Panel(inputs / "panel.csv")
    if workload.name == "churn-monthly":
        return {
            "transform": _guard(_check_training, workload, panel, 1, seed, out),
            "train": _guard(_check_model, workload, out),
            "score": _guard(_check_scores, panel, out),
        }
    sizes: dict[int, int] = {}
    sweep = _guard(_check_curve, panel, out, sizes)
    lead = max(workloads.DEVICE_LEAD_TIMES)
    transform = _guard(_check_transform_at, workload, panel, lead, seed, inputs, scratch)
    if not transform:
        trained = len(_csv_rows(scratch / "train.csv")) - 1
        if sizes.get(lead) != trained:
            sweep.append(f"curve point {lead} sizes {sizes.get(lead)} != {trained} training rows")
    return {"sweep": sweep, "check-transform": transform}


def _check_transform_at(workload, panel: Panel, lead: int, seed: int, inputs: Path,
                        scratch: Path) -> list[str]:
    code = cli.main(["transform", "--input", str(inputs / "panel.csv"),
                     "--config", str(inputs / "config.json"),
                     "--output", str(scratch / "train.csv"), "--lead-time", str(lead)])
    if code != 0:
        return [f"transform exited {code}"]
    return _check_training(workload, panel, lead, seed, scratch)


def _guard(check, *args) -> list[str]:
    """Run a check; an output too malformed to read fails it."""
    try:
        return check(*args)
    except Exception as exc:  # any crash while reading an output is a failed check
        return [f"{check.__name__}: unreadable output: {exc!r}"]


def pinned() -> dict:
    """The default seed and the output digests pinned for it."""
    return json.loads((checkout.BENCH / "pinned.json").read_text(encoding="utf-8"))


def pinned_mismatches(workload, seed: int, smoke: bool, digests: dict[str, str]) -> list[str]:
    """Digests that differ from the ones pinned for the default seed."""
    pins = pinned()
    pinned_digests = pins["digests"].get(workload.name)
    if smoke or seed != pins["seed"] or pinned_digests is None:
        return []
    return [f"{name} digest {digests.get(name)} != pinned {want}"
            for name, want in pinned_digests.items() if digests.get(name) != want]
