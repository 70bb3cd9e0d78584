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
from collections.abc import Callable, Collection
from dataclasses import replace
from pathlib import Path

from . import config as config_mod
from .errors import DimensionMismatch, LeadframeError, ParseError
from .evaluation import lead_time_sweep, write_curve_csv
# bench/tracer.py wraps this module's score_features and predict_proba by name
# to time them, so both names stay importable here even though score folds and
# predicts every entity in one call each.
from .model import (  # noqa: F401
    LogisticModel,
    predict_proba,
    predict_proba_matrix,
    train_logistic,
)
# bench/tracer.py wraps this module's write_panel_csv and generate_panel by
# name to time them, so both names stay importable here even though synth
# draws and writes its panel a block at a time.
from .panel import (  # noqa: F401
    EntityBlocks,
    build_timelines,
    csv_cells,
    csv_line,
    parse_panel_csv,
    validation_lines,
    write_panel_csv,
    write_panel_rows,
)
from .synth import SynthConfig, default_schema, generate_blocks, generate_panel  # noqa: F401
from .transform import (  # noqa: F401
    EmptyWindowPolicy,
    build_training_set,
    join_training_sets,
    read_training_csv,
    score_feature_matrix,
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


def _log_panel(path: str, rows: int, entities: int, periods: int) -> None:
    logger.info("panel %s: %d rows, %d entities, %d periods", path, rows, entities, periods)


def _parse(handle, path: str, cfg: config_mod.RunConfig, features: Collection[str]):
    """The whole panel, holding the values of the named feature columns
    only; every feature cell is still checked."""
    dataset = parse_panel_csv(handle, cfg.schema, features)
    columns = dataset.columns
    _log_panel(path, len(columns), len(columns.entity_ids), len(columns.periods))
    return dataset


def _fold_panel(
    path: str, cfg: config_mod.RunConfig, features: Collection[str], fold: Callable
) -> list:
    """``fold`` of the timelines of each block of whole entities of the
    panel, in entity order, each holding the values of the named feature
    columns only; every feature cell is still checked.

    A seekable file is read a block at a time (:class:`EntityBlocks`), so
    only one block's rows are held.  Any other file, and one whose blocks
    turn out not to be its rows entity by entity, or that raises an error
    on the way, is parsed whole, from its start, and folded as one block:
    it then fails, or not, as that parse and fold do.  The folds of the
    blocks read before are dropped, so a command that writes or prints
    only after the last fold never gives a block's output twice.
    """
    with open(path, "rb") as handle:
        if handle.seekable():
            folds = _fold_blocks(handle, path, cfg, features, fold)
            if folds is not None:
                return folds
            handle.seek(0)
        dataset = _parse(handle, path, cfg, features)
    return [fold(build_timelines(dataset))]


def _fold_blocks(handle, path: str, cfg: config_mod.RunConfig, features, fold) -> list | None:
    """The folds of :func:`_fold_panel` from a block-by-block read, or None
    if the file must be parsed whole."""
    blocks = EntityBlocks(handle, cfg.schema, features)
    folds = []
    try:
        for dataset in blocks:
            if dataset is None:
                return None
            folds.append(fold(build_timelines(dataset)))
    except (LeadframeError, csv.Error):
        return None
    if not blocks.rows:
        return None  # the parse of the whole file names what it lacks
    _log_panel(path, blocks.rows, blocks.entities, blocks.periods)
    return folds


def _write_text(path: str, render) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        render(handle)


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    # Every line is rendered before the first is printed, so a block handed to
    # the whole read prints nothing twice.
    parts = _fold_panel(args.input, cfg, (), validation_lines)
    for lines, _ in parts:
        sys.stdout.writelines(f"{line}\n" for line in lines)
    return 1 if any(warns for _, warns in parts) else 0


def cmd_transform(args: argparse.Namespace) -> int:
    cfg = _load_config(args)

    def built(timelines):
        return build_training_set(timelines, cfg.reference_frame, cfg.plan)

    parts = _fold_panel(args.input, cfg, cfg.plan.referenced_columns(), built)
    training = join_training_sets(cfg.plan, parts)
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
    # A binary handle: a plain file is read a block of lines at a time.
    with open(args.input, "rb") as handle:
        training = read_training_csv(handle, cfg.plan)
    model = train_logistic(training, cfg.train)
    model.save(args.output)
    logger.info("trained on %d rows -> %s", len(training), args.output)
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    model = LogisticModel.load(args.model)
    if model.feature_names != cfg.plan.output_names:
        raise DimensionMismatch(
            f"model features {model.feature_names!r} do not match plan "
            f"columns {cfg.plan.output_names!r}"
        )

    def scored(timelines):
        features = score_feature_matrix(timelines, cfg.plan)
        return csv_cells(timelines.entity_ids), predict_proba_matrix(model, features)

    # Every score is computed before the output is opened, so a failure leaves no file.
    parts = _fold_panel(args.input, cfg, cfg.plan.referenced_columns(), scored)

    def render(handle) -> None:
        handle.write(csv_line(("entity_id", "probability")))
        for ids, scores in parts:
            handle.writelines(f"{entity},{score!r}\n" for entity, score in zip(ids, scores))

    _write_text(args.output, render)
    logger.info("scored %d entities -> %s", sum(len(ids) for ids, _ in parts), args.output)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    # The sweep splits every entity at once, so it reads the panel whole: folded
    # block by block, device-hourly's sweep took 63% longer and peaked 1 MB higher.
    with open(args.input, "rb") as handle:
        timelines = build_timelines(_parse(handle, args.input, cfg, cfg.plan.referenced_columns()))
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
    rows = 0
    with open(args.output, "w", encoding="utf-8", newline="") as handle:
        handle.write(csv_line(default_schema().columns))
        # The block written last is let go once the next one is drawn.  The
        # traced peak is the same as letting it go first, but on 5,000 × 24
        # the command then faults about 1,100 fewer pages (4,900 in all): its
        # memory is not handed back to the system only to be faulted in again
        # by the next draw.
        for block in generate_blocks(synth_config):
            write_panel_rows(block, handle)
            rows += len(block.columns)
    logger.info(
        "generated %d records for %d entities -> %s", rows, synth_config.n_entities, args.output
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
