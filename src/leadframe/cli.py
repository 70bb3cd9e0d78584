"""Command-line front end.

Commands: validate, transform, train, score, sweep, synth.  Every run is a
pure function of its input files, config, and seeds, so re-running a command
overwrites its outputs with identical bytes.  Exit codes: 0 success, 1 domain
or validation error, 2 I/O or parse error.  Set LEADFRAME_LOG=info (or debug)
to see the resolved configuration of each run and the shape of each panel
read (rows, entities, periods) on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import config as config_mod
from .errors import DimensionMismatch, LeadframeError, ParseError
from .evaluation import lead_time_sweep, write_curve_csv
from .model import LogisticModel, predict_proba, train_logistic
from .panel import (
    build_timelines,
    csv_cells,
    csv_line,
    parse_panel_csv,
    validate_timeline,
    write_panel_csv,
)
from .synth import SynthConfig, generate_panel
from .transform import (
    EmptyWindowPolicy,
    build_training_set,
    read_training_csv,
    score_features,
    write_training_csv,
)

logger = logging.getLogger("leadframe")

_POLICIES = sorted(policy.value for policy in EmptyWindowPolicy)


def _setup_logging() -> None:
    level_name = os.environ.get("LEADFRAME_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(message)s")


# (flag, RunConfig section, field): each flag the user gives replaces one field.
_OVERRIDES = (
    ("lead_time", "reference_frame", "lead_time"),
    ("policy", "reference_frame", "empty_window_policy"),
    ("lead_times", "eval_settings", "lead_times"),
    ("seed", "eval_settings", "seed"),
    ("threshold", "eval_settings", "threshold"),
)


def _load_config(args: argparse.Namespace) -> config_mod.RunConfig:
    """Load the run config and apply the flags given, each checked like its field."""
    cfg = config_mod.load_run_config(args.config)
    for flag, section, name in _OVERRIDES:
        value = getattr(args, flag, None)
        if value is not None:
            cfg = replace(cfg, **{section: replace(getattr(cfg, section), **{name: value})})
    logger.info("resolved config: %s", json.dumps(cfg.to_json_dict(), sort_keys=True))
    return cfg


def _read_panel(path: str, cfg: config_mod.RunConfig):
    with open(path, "rb") as handle:
        dataset = parse_panel_csv(handle, cfg.schema)
    columns = dataset.columns
    logger.info(
        "panel %s: %d rows, %d entities, %d periods",
        path,
        len(columns),
        len(columns.entity_ids),
        len(columns.periods),
    )
    return build_timelines(dataset)


def _write_text(path: str, render) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        render(handle)


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    timelines = _read_panel(args.input, cfg)
    dirty = False
    for timeline in timelines:
        report = validate_timeline(timeline)
        print(json.dumps(report.to_json_dict(), sort_keys=True))
        dirty = dirty or report.has_warnings
    return 1 if dirty else 0


def cmd_transform(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    timelines = _read_panel(args.input, cfg)
    training = build_training_set(timelines, cfg.reference_frame, cfg.plan)
    _write_text(args.output, lambda h: write_training_csv(training, h))
    report_path = Path(args.output).with_suffix(".report.json")
    report_path.write_text(
        json.dumps(training.report.to_json_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    logger.info(
        "transform: %d event rows, %d non-event rows, %d dropped -> %s",
        training.report.events,
        training.report.non_events,
        len(training.report.dropped),
        args.output,
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    with open(args.input, "r", encoding="utf-8", newline="") as handle:
        training = read_training_csv(handle, cfg.plan)
    model = train_logistic(training, cfg.train)
    model.save(args.output)
    logger.info("trained on %d rows -> %s", len(training.rows), args.output)
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    model = LogisticModel.load(args.model)
    if model.feature_names != cfg.plan.output_names:
        raise DimensionMismatch(
            f"model features {model.feature_names!r} do not match plan "
            f"columns {cfg.plan.output_names!r}"
        )
    timelines = _read_panel(args.input, cfg)
    # Every score is computed before the output is opened, so a failure leaves no file.
    scores = [repr(predict_proba(model, score_features(t, cfg.plan))) for t in timelines]

    def render(handle) -> None:
        handle.write(csv_line(("entity_id", "probability")))
        ids = csv_cells(t.entity_id for t in timelines)
        handle.writelines(f"{entity},{score}\n" for entity, score in zip(ids, scores))

    _write_text(args.output, render)
    logger.info("scored %d entities -> %s", len(timelines), args.output)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    timelines = _read_panel(args.input, cfg)
    settings = cfg.eval_settings
    curve = lead_time_sweep(
        timelines,
        cfg.plan,
        settings.lead_times,
        cfg.train,
        settings.test_fraction,
        settings.seed,
        threshold=settings.threshold,
        empty_window_policy=cfg.reference_frame.empty_window_policy,
    )
    _write_text(args.output, lambda h: write_curve_csv(curve, h))
    logger.info("sweep over lead times %s -> %s", list(settings.lead_times), args.output)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    synth_config = SynthConfig(
        n_entities=args.entities,
        n_periods=args.periods,
        event_rate=args.event_rate,
        ramp_length=args.ramp_length,
        signal_strength=args.signal,
        noise_rate=args.noise,
        seed=args.seed if args.seed is not None else 0,
    )
    dataset = generate_panel(synth_config)
    _write_text(args.output, lambda h: write_panel_csv(dataset, h))
    logger.info(
        "generated %d records for %d entities -> %s",
        len(dataset.columns),
        synth_config.n_entities,
        args.output,
    )
    return 0


def _lead_times_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {text!r}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leadframe",
        description="Lead-time event labeling, experience aggregation, and scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("validate", cmd_validate, "parse a panel CSV and report per-entity findings")
    p.add_argument("--input", required=True, help="panel CSV path")
    p.add_argument("--config", required=True, help="run config JSON path")

    p = add("transform", cmd_transform, "build a labeled training set from a panel CSV")
    p.add_argument("--input", required=True, help="panel CSV path")
    p.add_argument("--config", required=True, help="run config JSON path")
    p.add_argument("--output", required=True, help="training-set CSV path")
    p.add_argument("--lead-time", type=int, default=None, help="override config lead time")
    p.add_argument("--policy", choices=_POLICIES, default=None,
                   help="override empty-window policy")

    p = add("train", cmd_train, "fit the classifier on a training-set CSV")
    p.add_argument("--input", required=True, help="training-set CSV path")
    p.add_argument("--config", required=True, help="run config JSON path")
    p.add_argument("--output", required=True, help="model JSON path")

    p = add("score", cmd_score, "score each entity's full history with a fitted model")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--input", required=True, help="panel CSV path")
    p.add_argument("--config", required=True, help="run config JSON path")
    p.add_argument("--output", required=True, help="scores CSV path")

    p = add("sweep", cmd_sweep, "measure the lead-time / accuracy tradeoff curve")
    p.add_argument("--input", required=True, help="panel CSV path")
    p.add_argument("--config", required=True, help="run config JSON path")
    p.add_argument("--output", required=True, help="curve CSV path")
    p.add_argument("--lead-times", type=_lead_times_list, default=None,
                   help="override config lead times, e.g. 0,1,2,3")
    p.add_argument("--seed", type=int, default=None, help="override eval split seed")
    p.add_argument("--threshold", type=float, default=None, help="override decision threshold")
    p.add_argument("--policy", choices=_POLICIES, default=None,
                   help="override empty-window policy")

    p = add("synth", cmd_synth, "generate a seeded synthetic panel CSV")
    p.add_argument("--output", required=True, help="panel CSV path")
    p.add_argument("--entities", type=int, default=100, help="number of entities")
    p.add_argument("--periods", type=int, default=24, help="number of periods")
    p.add_argument("--event-rate", type=float, default=0.3, help="per-entity event probability")
    p.add_argument("--ramp-length", type=int, default=3,
                   help="periods of elevated signal before each event")
    p.add_argument("--signal", type=float, default=3.0,
                   help="mean intensity added inside the ramp")
    p.add_argument("--noise", type=float, default=0.5, help="baseline mean intensity")
    p.add_argument("--seed", type=int, default=None, help="generator seed (default 0)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _setup_logging()
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnicodeDecodeError, csv.Error) as exc:
        print(f"error: unreadable input: {exc}", file=sys.stderr)
        return 2
    except LeadframeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
