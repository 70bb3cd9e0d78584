"""Panel data ingestion and per-entity timelines.

Input is long-format CSV: one row per entity per period, a header row, UTF-8,
LF or CRLF line endings (RFC 4180 quoting accepted).  A :class:`PanelSchema`
names the entity, period, and event-flag columns plus the numeric feature
columns; any extra columns in the file are ignored.

Period labels come in exactly one of two formats per file:

* integer ordinals, e.g. ``1``, ``2``, ``17``
* ISO year-month, e.g. ``2016-01``

Chronological order is numeric for integers and lexicographic for year-month
labels.  Each distinct label is assigned a global ordinal (its position in
the sorted sequence of distinct labels observed in the dataset); lead times
downstream are measured in these ordinals, so calendar gaps in one entity's
history still count as elapsed periods.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import BinaryIO, Iterable, Sequence, Union

from .errors import (
    BadValue,
    DuplicateObservation,
    EmptyInput,
    InvalidConfig,
    MissingColumn,
    ParseError,
)

_FLAGS = {"0": 0, "1": 1}
_INT_LABEL = re.compile(r"^[+-]?[0-9]+$")
_MONTH_LABEL = re.compile(r"^[0-9]{4}-(0[1-9]|1[0-2])$")


@dataclass(frozen=True)
class PanelSchema:
    """Column roles for a panel CSV."""

    entity_column: str
    period_column: str
    event_column: str
    feature_columns: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "feature_columns", tuple(self.feature_columns))
        names = [self.entity_column, self.period_column, self.event_column]
        names.extend(self.feature_columns)
        if any(not n for n in names):
            raise InvalidConfig("schema column names must be non-empty")
        if len(set(names)) != len(names):
            raise InvalidConfig("schema column names must be distinct")
        if not self.feature_columns:
            raise InvalidConfig("schema must declare at least one feature column")

    @property
    def columns(self) -> tuple[str, ...]:
        """All columns in canonical CSV order."""
        return (
            self.entity_column,
            self.period_column,
            *self.feature_columns,
            self.event_column,
        )


@dataclass(frozen=True, order=True)
class PeriodIndex:
    """A period's position in the global chronological sequence."""

    ordinal: int
    label: str


@dataclass(frozen=True, slots=True)
class PanelRecord:
    """One observation of one entity in one period."""

    entity_id: str
    period: PeriodIndex
    features: dict[str, float]
    event_flag: int


@dataclass(frozen=True)
class PanelDataset:
    """Parsed panel rows plus the schema they were read under."""

    schema: PanelSchema
    records: tuple[PanelRecord, ...]

    def entity_ids(self) -> list[str]:
        return sorted({r.entity_id for r in self.records})


@dataclass(frozen=True)
class EntityTimeline:
    """One entity's records in strictly increasing period order.

    The ordinals, the first event and each feature column are computed on
    first use and kept, so every lead time of a sweep reuses them.
    """

    entity_id: str
    records: tuple[PanelRecord, ...]

    @cached_property
    def ordinals(self) -> list[int]:
        """Period ordinals of the records, oldest first."""
        return [r.period.ordinal for r in self.records]

    @cached_property
    def event_index(self) -> int | None:
        """Position of the first record whose event flag is set, if any."""
        flags = [r.event_flag for r in self.records]
        return flags.index(1) if 1 in flags else None

    @cached_property
    def _columns(self) -> dict[str, list[float]]:
        return {}

    def column(self, name: str) -> list[float]:
        """One feature's values, oldest first; KeyError if a record lacks it."""
        columns = self._columns
        if name not in columns:
            columns[name] = [r.features[name] for r in self.records]
        return columns[name]


@dataclass(frozen=True)
class Finding:
    level: str  # "info" or "warning"
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    entity_id: str
    findings: tuple[Finding, ...] = field(default_factory=tuple)

    @property
    def has_warnings(self) -> bool:
        return any(f.level == "warning" for f in self.findings)

    def to_json_dict(self) -> dict:
        return {
            "entity": self.entity_id,
            "findings": [
                {"level": f.level, "code": f.code, "message": f.message}
                for f in self.findings
            ],
        }


def _label_kind(label: str) -> str | None:
    if _INT_LABEL.match(label):
        return "int"
    if _MONTH_LABEL.match(label):
        return "month"
    return None


def index_periods(labels: Iterable[str], kind: str) -> dict[str, int]:
    """Map each distinct period label to its global chronological ordinal."""
    distinct = sorted(set(labels), key=(int if kind == "int" else str))
    if kind == "int":
        seen: dict[int, str] = {}
        for label in distinct:
            value = int(label)
            if value in seen and seen[value] != label:
                raise BadValue(
                    f"period labels {seen[value]!r} and {label!r} denote the same period"
                )
            seen[value] = label
    return {label: ordinal for ordinal, label in enumerate(distinct)}


# Raw row: (entity_id, period_label, features, event_flag), pre-validated.
RawRow = tuple[str, str, dict[str, float], int]


def build_dataset(schema: PanelSchema, rows: Sequence[RawRow], kind: str) -> PanelDataset:
    """Assemble records from raw rows whose period labels all have the format
    ``kind`` ("int" or "month"), assigning global period ordinals.

    Records sharing a label share one PeriodIndex, and each record keeps the
    row's feature dict itself, so the caller must not reuse it.
    """
    ordinals = index_periods({label for _, label, _, _ in rows}, kind)
    periods = {label: PeriodIndex(ordinal, label) for label, ordinal in ordinals.items()}
    records = tuple(
        PanelRecord(entity_id=entity, period=periods[label], features=features, event_flag=flag)
        for entity, label, features, flag in rows
    )
    return PanelDataset(schema=schema, records=records)


def _check_row(
    row: list[str], line: int, schema: PanelSchema, positions: dict[str, int], file_kind: str | None
) -> None:
    """Raise BadValue for the first fault of a row, checking cells in schema order.

    Only rows the parse loop flags come here.  A flagged row can still be
    clean (finite cells whose sum overflows), and then this returns.
    """

    def cell(column: str) -> str:
        idx = positions[column]
        if idx >= len(row):
            raise BadValue(f"line {line}: row too short for column {column!r}")
        return row[idx].strip()

    if not cell(schema.entity_column):
        raise BadValue(f"line {line}: empty value in column {schema.entity_column!r}")

    label = cell(schema.period_column)
    kind = _label_kind(label)
    if kind is None:
        raise BadValue(
            f"line {line}: unparseable period {label!r} in column "
            f"{schema.period_column!r} (expected an integer or YYYY-MM)"
        )
    if file_kind is not None and kind != file_kind:
        raise BadValue(
            f"line {line}: period {label!r} in column {schema.period_column!r} "
            f"does not match the file's {file_kind} period format"
        )

    for column in schema.feature_columns:
        raw = cell(column)
        try:
            value = float(raw)
        except ValueError:
            raise BadValue(
                f"line {line}: non-numeric value {raw!r} in column {column!r}"
            ) from None
        if not math.isfinite(value) or value < 0.0:
            raise BadValue(
                f"line {line}: value {raw!r} in column {column!r} "
                "must be finite and non-negative"
            )

    raw_flag = cell(schema.event_column)
    if raw_flag not in _FLAGS:
        raise BadValue(
            f"line {line}: event flag {raw_flag!r} in column "
            f"{schema.event_column!r} must be 0 or 1"
        )


def parse_panel_csv(source: Union[bytes, BinaryIO], schema: PanelSchema) -> PanelDataset:
    """Parse a panel CSV into a :class:`PanelDataset`.

    Raises MissingColumn, BadValue, or EmptyInput; error messages name the
    offending line and column.
    """
    data = source if isinstance(source, bytes) else source.read()
    text = data.decode("utf-8-sig")
    reader = csv.reader(io.StringIO(text, newline=""))

    header: list[str] | None = None
    for row in reader:
        header = row
        break
    if header is None:
        raise EmptyInput("input has no header row")

    positions: dict[str, int] = {}
    for i, name in enumerate(header):
        name = name.strip()
        if name in positions and name in schema.columns:
            raise ParseError(f"header names column {name!r} more than once")
        positions.setdefault(name, i)
    missing = [c for c in schema.columns if c not in positions]
    if missing:
        raise MissingColumn(f"columns absent from header: {', '.join(missing)}")

    # One C-level gather, strip and float conversion per row.  Any sign of a
    # fault sends the row to _check_row, which names the first bad cell.
    pick = operator.itemgetter(*(positions[c] for c in schema.columns))
    feature_columns = schema.feature_columns
    kinds: dict[str, str | None] = {}
    entity_ids: dict[str, str] = {}
    file_kind: str | None = None
    rows: list[RawRow] = []
    for row in reader:
        if not row:
            continue
        try:
            entity, label, *cells, raw_flag = map(str.strip, pick(row))
            values = list(map(float, cells))
        except (IndexError, ValueError):
            # A cell is missing or not a number: _check_row names it or an earlier fault.
            _check_row(row, reader.line_num, schema, positions, file_kind)
            raise
        if label not in kinds:
            kinds[label] = _label_kind(label)
        kind = kinds[label]
        if file_kind is None:
            file_kind = kind
        flag = _FLAGS.get(raw_flag)
        if (
            not entity
            or kind is None
            or kind != file_kind
            or flag is None
            or not min(values) >= 0.0
            or not math.isfinite(sum(values))
        ):
            _check_row(row, reader.line_num, schema, positions, file_kind)
        entity = entity_ids.setdefault(entity, entity)
        rows.append((entity, label, dict(zip(feature_columns, values)), flag))

    if not rows:
        raise EmptyInput("input has a header but no data rows")
    return build_dataset(schema, rows, file_kind)


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def write_panel_csv(dataset: PanelDataset, stream: io.TextIOBase) -> None:
    """Write a dataset in canonical order: entity ascending, then period."""
    schema = dataset.schema
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(schema.columns)
    ordered = sorted(dataset.records, key=lambda r: (r.entity_id, r.period.ordinal))
    for record in ordered:
        writer.writerow(
            [record.entity_id, record.period.label]
            + [_format_number(record.features[c]) for c in schema.feature_columns]
            + [str(record.event_flag)]
        )


def build_timelines(dataset: PanelDataset) -> tuple[EntityTimeline, ...]:
    """Group records into per-entity timelines sorted by period.

    Raises DuplicateObservation if an (entity, period) pair repeats; silent
    last-wins would corrupt every downstream aggregate.
    """
    by_entity: dict[str, list[PanelRecord]] = {}
    for record in dataset.records:
        by_entity.setdefault(record.entity_id, []).append(record)

    timelines = []
    for entity_id in sorted(by_entity):
        records = sorted(by_entity[entity_id], key=lambda r: r.period.ordinal)
        for previous, current in zip(records, records[1:]):
            if previous.period.ordinal == current.period.ordinal:
                raise DuplicateObservation(
                    f"entity {entity_id!r} observed twice in period "
                    f"{current.period.label!r}"
                )
        timelines.append(EntityTimeline(entity_id=entity_id, records=tuple(records)))
    return tuple(timelines)


def validate_timeline(timeline: EntityTimeline) -> ValidationReport:
    """Report structural findings on one timeline.

    Never fails: gaps are informational, event-flag oddities are warnings
    (the transform tolerates both, see the truncation rules).
    """
    findings: list[Finding] = []
    records = timeline.records
    ordinals = timeline.ordinals

    if records:
        gaps = (ordinals[-1] - ordinals[0] + 1) - len(ordinals)
        if gaps:
            findings.append(
                Finding(
                    level="info",
                    code="period_gaps",
                    message=(
                        f"{gaps} unobserved period(s) between "
                        f"{records[0].period.label} and {records[-1].period.label}"
                    ),
                )
            )

    event = timeline.event_index
    if event is not None:
        label = records[event].period.label
        n_flagged = sum(r.event_flag for r in records[event:])
        if n_flagged > 1:
            findings.append(
                Finding(
                    level="warning",
                    code="multiple_events",
                    message=(
                        f"{n_flagged} records carry the event flag; only the first "
                        f"({label}) is treated as the event"
                    ),
                )
            )
        # Ordinals strictly increase, so every later record is a later period.
        trailing = len(records) - event - 1
        if trailing:
            findings.append(
                Finding(
                    level="warning",
                    code="records_after_event",
                    message=(
                        f"{trailing} record(s) after the first event flag "
                        f"({label}) are ignored by the transform"
                    ),
                )
            )

    return ValidationReport(entity_id=timeline.entity_id, findings=tuple(findings))
