"""Lead-time reference-frame transform.

Turns per-entity timelines into a labeled cross-sectional training set.  For
an entity whose event flag first fires in period T, the observation window is
cut at T minus the configured lead time (inclusive) and the row is labeled 1:
the features describe the entity's accumulated experience as it looked when a
prediction would still have left time to act.  Entities with no event keep
their whole history and are labeled 0.  The window boundary is inclusive of
T - lead_time, records strictly after T never count, and lead time is
measured in global period ordinals so calendar gaps still shift the cut.

Every window is a prefix of the entity's history, so a cut is one index:
k = bisect_right(ordinals, T - lead_time), or the whole history without an
event.  Each timeline keeps its ordinals and feature columns once computed,
so a sweep over many lead times reslices them instead of rebuilding them.

Aggregations fold a window into one feature vector: sums, nonzero counts,
maxima, the most recent value, and ratio-of-sums (total numerator over total
denominator, 0 when the denominator total is 0).  Sums are left-to-right
float sums (Python 3.11's built-in ``sum``; 3.12 and later compensate its
rounding, so non-integer sums may differ there in the last bit).  An
aggregate that overflows to inf or nan, although every input value is
finite, raises NonFiniteValue and never reaches an output.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import (
    DimensionMismatch,
    InvalidConfig,
    NonFiniteValue,
    ParseError,
    UnknownColumn,
    check_int,
)
from .panel import EntityTimeline, PanelRecord, PeriodIndex


class EmptyWindowPolicy(enum.Enum):
    """What to do when truncation empties an event entity's window."""

    DROP = "drop"
    EMIT_ZEROS = "zeros"


@dataclass(frozen=True)
class ReferenceFrameConfig:
    """Lead time (in periods) and the empty-window policy (a member or its value)."""

    lead_time: int = 1
    empty_window_policy: EmptyWindowPolicy = EmptyWindowPolicy.DROP

    def __post_init__(self) -> None:
        check_int(self.lead_time, "lead_time must be a non-negative integer")
        try:
            policy = EmptyWindowPolicy(self.empty_window_policy)
        except ValueError:
            raise InvalidConfig(
                f"reference_frame.empty_window_policy must be 'drop' or 'zeros', "
                f"got {self.empty_window_policy!r}"
            ) from None
        object.__setattr__(self, "empty_window_policy", policy)


class AggKind(enum.Enum):
    SUM = "sum"
    COUNT_NONZERO = "count_nonzero"
    MAX = "max"
    LAST = "last"
    RATIO_OF_SUMS = "ratio_of_sums"


@dataclass(frozen=True)
class FeatureSpec:
    """One output feature: an aggregation kind bound to source column(s)."""

    output_name: str
    kind: AggKind
    column: str | None = None
    denominator: str | None = None

    def __post_init__(self) -> None:
        if not self.output_name:
            raise InvalidConfig("feature output_name must be non-empty")
        if self.kind is AggKind.RATIO_OF_SUMS:
            if not self.column or not self.denominator:
                raise InvalidConfig(
                    f"feature {self.output_name!r}: ratio_of_sums needs a "
                    "numerator and a denominator column"
                )
        else:
            if not self.column or self.denominator is not None:
                raise InvalidConfig(
                    f"feature {self.output_name!r}: {self.kind.value} takes "
                    "exactly one source column"
                )

    @classmethod
    def sum(cls, name: str, column: str) -> "FeatureSpec":
        return cls(name, AggKind.SUM, column)

    @classmethod
    def count_nonzero(cls, name: str, column: str) -> "FeatureSpec":
        return cls(name, AggKind.COUNT_NONZERO, column)

    @classmethod
    def max(cls, name: str, column: str) -> "FeatureSpec":
        return cls(name, AggKind.MAX, column)

    @classmethod
    def last(cls, name: str, column: str) -> "FeatureSpec":
        return cls(name, AggKind.LAST, column)

    @classmethod
    def ratio_of_sums(cls, name: str, numerator: str, denominator: str) -> "FeatureSpec":
        return cls(name, AggKind.RATIO_OF_SUMS, numerator, denominator)

    def referenced_columns(self) -> tuple[str, ...]:
        if self.kind is AggKind.RATIO_OF_SUMS:
            return (self.column, self.denominator)  # type: ignore[return-value]
        return (self.column,)  # type: ignore[return-value]


@dataclass(frozen=True)
class AggregationPlan:
    """Ordered feature specs; output names must be distinct."""

    specs: tuple[FeatureSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        names = [s.output_name for s in self.specs]
        if len(set(names)) != len(names):
            raise InvalidConfig("aggregation output names must be distinct")
        if not names:
            raise InvalidConfig("aggregation plan must hold at least one feature")

    @property
    def output_names(self) -> tuple[str, ...]:
        return tuple(s.output_name for s in self.specs)

    def referenced_columns(self) -> set[str]:
        return {c for s in self.specs for c in s.referenced_columns()}


@dataclass(frozen=True)
class FeatureVector:
    entity_id: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class TruncatedTimeline:
    """The kept record window and the label it implies."""

    entity_id: str
    records: tuple[PanelRecord, ...]
    label: int


@dataclass(frozen=True)
class TransformReport:
    """Outcome counts of one training-set build."""

    events: int = 0
    non_events: int = 0
    dropped: tuple[str, ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return {
            "events": self.events,
            "non_events": self.non_events,
            "dropped_entities": list(self.dropped),
        }


@dataclass(frozen=True)
class TrainingSet:
    plan: AggregationPlan
    rows: tuple[tuple[FeatureVector, int], ...]
    report: TransformReport

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.plan.output_names


def _training_set(
    plan: AggregationPlan, rows: list[tuple[FeatureVector, int]], dropped: Sequence[str] = ()
) -> TrainingSet:
    """A training set whose report counts the 0/1 labels of its rows."""
    events = sum(label for _, label in rows)
    report = TransformReport(events, len(rows) - events, tuple(dropped))
    return TrainingSet(plan=plan, rows=tuple(rows), report=report)


def detect_event_time(timeline: EntityTimeline) -> PeriodIndex | None:
    """Period of the first record whose event flag is set, if any."""
    index = timeline.event_index
    return None if index is None else timeline.records[index].period


def _cutoff(timeline: EntityTimeline, lead_time: int) -> tuple[int, int]:
    """(k, label): the window is ``timeline.records[:k]``.

    With an event in period T, k counts the records whose ordinal is at most
    ordinal(T) - lead_time; without one, k is the whole history.
    """
    event = timeline.event_index
    if event is None:
        return len(timeline.records), 0
    ordinals = timeline.ordinals
    return bisect_right(ordinals, ordinals[event] - lead_time), 1


def truncate_at_reference(
    timeline: EntityTimeline, config: ReferenceFrameConfig
) -> TruncatedTimeline:
    """Cut an event entity's history at the reference frame.

    With an event in period T, keeps records whose ordinal is at most
    ordinal(T) - lead_time and labels the entity 1; at lead_time 0 the event
    period itself is kept but nothing after it.  Without an event the full
    history is kept under label 0.  An emptied window is returned as-is;
    the caller applies the empty-window policy.
    """
    k, label = _cutoff(timeline, config.lead_time)
    return TruncatedTimeline(timeline.entity_id, timeline.records[:k], label=label)


def _fold(kind: AggKind, xs: list[float], ys: list[float] | None) -> float:
    """One aggregate of the window's values xs (ys: the ratio's denominator)."""
    if kind is AggKind.SUM:
        return float(sum(xs))
    if kind is AggKind.COUNT_NONZERO:
        return float(len(xs) - xs.count(0.0))
    if kind is AggKind.MAX:
        return max(xs, default=0.0)
    if kind is AggKind.LAST:
        return xs[-1] if xs else 0.0
    # RATIO_OF_SUMS
    numerator = float(sum(xs))
    denominator = float(sum(ys))
    return numerator / denominator if denominator != 0.0 else 0.0


def _aggregate(timeline: EntityTimeline, k: int, plan: AggregationPlan) -> FeatureVector:
    """Fold the first k values of each column the plan names into one vector."""
    column = timeline.column
    values = []
    for spec in plan.specs:
        try:
            xs = column(spec.column)[:k]
            ys = None if spec.denominator is None else column(spec.denominator)[:k]
        except KeyError as exc:
            raise UnknownColumn(
                f"feature {spec.output_name!r} references unknown column {exc.args[0]!r}"
            ) from None
        value = _fold(spec.kind, xs, ys)
        if not math.isfinite(value):
            raise NonFiniteValue(
                f"entity {timeline.entity_id!r}: feature {spec.output_name!r} is {value!r}; "
                "the input values overflow a float"
            )
        values.append(value)
    return FeatureVector(entity_id=timeline.entity_id, values=tuple(values))


def aggregate(truncated: TruncatedTimeline, plan: AggregationPlan) -> FeatureVector:
    """Fold a truncated window into one feature vector (zeros when empty)."""
    return score_features(EntityTimeline(truncated.entity_id, truncated.records), plan)


def score_features(timeline: EntityTimeline, plan: AggregationPlan) -> FeatureVector:
    """Aggregate an entity's full history to date (the scoring-time view)."""
    return _aggregate(timeline, len(timeline.records), plan)


def build_training_set(
    timelines: tuple[EntityTimeline, ...] | list[EntityTimeline],
    config: ReferenceFrameConfig,
    plan: AggregationPlan,
) -> TrainingSet:
    """Transform timelines into one labeled row per entity.

    Event entities whose window empties are dropped (and reported) under the
    DROP policy, or kept as all-zero rows under EMIT_ZEROS.  Output rows are
    ordered by entity id regardless of input order.
    """
    rows: list[tuple[FeatureVector, int]] = []
    dropped: list[str] = []
    for timeline in sorted(timelines, key=lambda t: t.entity_id):
        k, label = _cutoff(timeline, config.lead_time)
        if label == 1 and k == 0:
            if config.empty_window_policy is EmptyWindowPolicy.DROP:
                dropped.append(timeline.entity_id)
                continue
        rows.append((_aggregate(timeline, k, plan), label))
    return _training_set(plan, rows, dropped)


def write_training_csv(training: TrainingSet, stream: io.TextIOBase) -> None:
    """CSV layout: entity_id, one column per feature, then the label."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(("entity_id", *training.feature_names, "label"))
    for vector, label in training.rows:
        writer.writerow((vector.entity_id, *[repr(v) for v in vector.values], str(label)))


def read_training_csv(stream: io.TextIOBase, plan: AggregationPlan) -> TrainingSet:
    """Read a training-set CSV back under a plan with matching output names."""
    reader = csv.reader(stream)
    header = next(reader, None)
    expected = ["entity_id", *plan.output_names, "label"]
    if header is None or [h.strip() for h in header] != expected:
        raise DimensionMismatch(
            f"training CSV header {header!r} does not match plan columns {expected!r}"
        )
    rows: list[tuple[FeatureVector, int]] = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(expected):
            raise ParseError(f"training CSV row has {len(row)} cells, expected {len(expected)}")
        try:
            values = tuple(float(v) for v in row[1:-1])
            label = int(row[-1])
        except ValueError as exc:
            raise ParseError(f"training CSV row {row!r}: {exc}") from None
        if label not in (0, 1):
            raise ParseError(f"training CSV label must be 0 or 1, got {row[-1]!r}")
        if not all(math.isfinite(v) for v in values):
            raise ParseError(f"training CSV row {row!r}: feature values must be finite")
        rows.append((FeatureVector(entity_id=row[0], values=values), label))
    return _training_set(plan, rows)
