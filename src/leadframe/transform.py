"""Lead-time reference-frame transform.

Turns per-entity timelines into a labeled cross-sectional training set.  For
an entity whose event flag first fires in period T, the observation window is
cut at T minus the configured lead time (inclusive) and the row is labeled 1:
the features describe the entity's accumulated experience as it looked when a
prediction would still have left time to act.  Entities with no event keep
their whole history and are labeled 0.  The window boundary is inclusive of
T - lead_time, records strictly after T never count, and lead time is
measured in global period ordinals so calendar gaps still shift the cut.

Every window is a prefix of the entity's history, so a cut is one index k
per entity: the number of its rows whose ordinal is at most T - lead_time,
or the whole history without an event.  A fold takes the windows it is
asked for, of one lead time or of every lead time of a sweep
(:func:`build_training_sets`), and folds each entity once, up to its
longest window.  For each column a plan reads it makes a table of running
sums, nonzero counts or maxima (``last`` reads the column itself) one band
of entities of similar window length at a time, by one numpy accumulate
(:func:`_running`), reads the band's windows at their last rows and lets
the band's table go before the next is made.  The block keeps only the
keys that cut windows (``TimelineBlock.period_keys``), never a table or a
result of a plan.

Aggregations fold a window into one feature vector: sums, nonzero counts,
maxima, the most recent value, and ratio-of-sums (total numerator over total
denominator, 0 when the denominator total is 0); an empty window folds to
0.0 for every kind.  The folds follow Python's builtins exactly:

* a sum adds left to right from ``0.0 + x0`` (Python 3.11's built-in
  ``sum``, which turns -0.0 into 0.0; 3.12 and later compensate its
  rounding, so non-integer sums may differ there in the last bit), never by
  differencing global prefix sums;
* a max keeps the first of equal values, so ``max([-0.0, 0.0])`` is -0.0;
* count_nonzero counts -0.0 as zero.

An aggregate that overflows to inf or nan, although every input value is
finite, raises NonFiniteValue and never reaches an output; the error names
the first such entity, in entity order, and feature, in plan order.

A training set is held as columns: the kept entity ids, an (n x m) float64
matrix of their features and an array of their labels.  Its ``rows``, one
(FeatureVector, label) pair per entity, are a view made on first use, for
tests and tools; no command reads them.  The training CSV is written a
column at a time, each distinct value rendered once, and a plain one is
read by the step that tokenizes a plain panel, ``panel._plain_block``
(:func:`read_training_csv`): only its id column and its value rule
differ.  Scoring folds each block's timelines over their whole histories
by the same gather, one call per block (:func:`score_feature_matrix`).
"""

from __future__ import annotations

import csv
import enum
import functools
import io
import math
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import BinaryIO, NoReturn, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidConfig,
    LeadframeError,
    NonFiniteValue,
    ParseError,
    UnknownColumn,
    check_int,
)
from .panel import (
    _WRITE_BYTES,
    EntityTimeline,
    PanelRecord,
    PeriodIndex,
    TimelineBlock,
    Timelines,
    _Cells,
    _is_plain,
    _Lines,
    _plain_block,
    _texts,
    csv_cells,
    csv_line,
    distinct_values,
)


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
    """The window kept at the reference frame, the first ``length`` rows of
    ``timeline``, and the label it implies.

    The window is read from the timeline's block; ``records`` is a read-only
    view of its rows as PanelRecords.
    """

    timeline: EntityTimeline
    length: int
    label: int

    @property
    def entity_id(self) -> str:
        return self.timeline.entity_id

    @property
    def records(self) -> tuple[PanelRecord, ...]:
        return self.timeline.records[: self.length]


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


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """One labeled row per entity, as columns: ``values[i]`` holds entity
    ``entity_ids[i]``'s features in plan order and ``labels[i]`` its 0/1 label.

    ``values`` is a C-ordered float64 (n x m) matrix, whose layout fixes the
    bits of the sums computed over it, and ``labels`` an integer array.  A
    matrix of another shape than (ids x plan features), or labels of
    another length, raise DimensionMismatch.
    """

    plan: AggregationPlan
    entity_ids: tuple[str, ...]
    values: np.ndarray
    labels: np.ndarray
    report: TransformReport

    def __post_init__(self) -> None:
        object.__setattr__(self, "entity_ids", tuple(self.entity_ids))
        object.__setattr__(self, "values", np.ascontiguousarray(self.values, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        n, m = len(self.entity_ids), len(self.plan.specs)
        if self.values.shape != (n, m) or self.labels.shape != (n,):
            raise DimensionMismatch(
                f"training set of {n} ids and {m} features has a {self.values.shape} "
                f"matrix and {self.labels.shape} labels"
            )

    def __len__(self) -> int:
        return len(self.entity_ids)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.plan.output_names

    @functools.cached_property
    def rows(self) -> tuple[tuple[FeatureVector, int], ...]:
        """A read-only view of the rows as (FeatureVector, label) pairs, made
        on first use."""
        return tuple(
            (FeatureVector(entity_id=entity, values=tuple(row)), label)
            for entity, row, label in zip(
                self.entity_ids, self.values.tolist(), self.labels.tolist()
            )
        )


def _training_set(
    plan: AggregationPlan,
    entity_ids: Sequence[str],
    values: np.ndarray,
    labels: np.ndarray,
    dropped: Sequence[str] = (),
) -> TrainingSet:
    """A training set whose report counts its 0/1 labels."""
    events = int(np.count_nonzero(labels))
    report = TransformReport(events, len(labels) - events, tuple(dropped))
    return TrainingSet(plan, entity_ids, values, labels, report)


def detect_event_time(timeline: EntityTimeline) -> PeriodIndex | None:
    """Period of the first record whose event flag is set, if any."""
    row = int(timeline.block.first_event[timeline.index])
    columns = timeline.block.columns
    return None if row < 0 else columns.periods[int(columns.ordinals[row])]


def _cutoffs(
    block: TimelineBlock, entities: np.ndarray, lead_time: int
) -> tuple[np.ndarray, np.ndarray]:
    """(k, label) per entity: each window is the entity's first k rows.

    With an event in period T, k counts the rows whose ordinal is at most
    ordinal(T) - lead_time; without one, k is the whole history.
    """
    offsets = block.offsets
    k = offsets[entities + 1] - offsets[entities]
    event_rows = block.first_event[entities]
    label = (event_rows >= 0).astype(np.intp)
    events = np.flatnonzero(label)
    if len(events):
        # A cut below all of an entity's ordinals is clipped to -1, whose key
        # still sorts after every key of the entities before it, so k is 0.
        # Any shift of span or more cuts below every ordinal, so the lead time
        # is capped at span before it meets int64 arithmetic.
        keys, low, span = block.period_keys
        shift = min(lead_time, span)
        cut = np.maximum(block.columns.ordinals[event_rows[events]] - low - shift, -1)
        owner = entities[events]
        k[events] = np.searchsorted(keys, owner * span + cut, side="right") - offsets[owner]
    return k, label


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
    k, label = _cutoffs(timeline.block, np.array([timeline.index]), config.lead_time)
    return TruncatedTimeline(timeline, int(k[0]), int(label[0]))


def _windows(
    offsets: np.ndarray, entities: np.ndarray, k: np.ndarray
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The fold's layout for windows of the first ``k`` rows of ``entities``.

    Each entity is folded once, up to its longest window.  The entities,
    longest first, are cut into bands of those longer than half the band's
    longest, so padding at most doubles a band's cells.  Returns the
    windows with rows, band by band, and for each band, the block row each
    cell of its (position x entity) table reads (a history is padded by
    repeating its last row) and the cell of the table, read flat, where
    each of its windows' last row lands.
    """
    windows = np.flatnonzero(k > 0)
    owners, lengths = entities[windows], k[windows]
    longest = np.zeros(len(offsets) - 1, dtype=np.intp)
    np.maximum.at(longest, owners, lengths)
    order = np.argsort(-longest, kind="stable")
    negated = -longest[order]  # ascending, as searchsorted needs
    start, stop, members = 0, int(np.searchsorted(negated, 0)), []
    band = np.zeros_like(longest)  # each entity's band,
    first = np.zeros_like(longest)  # its cell at position 0,
    width = np.zeros_like(longest)  # and the width of its band
    while start < stop:
        # The band ends at the first entity of at most half its longest.
        end = int(np.searchsorted(negated, -(-negated[start] // 2)))
        in_band = order[start:end]
        band[in_band] = len(members)
        first[in_band] = np.arange(len(in_band))
        width[in_band] = len(in_band)
        members.append(in_band)
        start = end
    by_band = np.argsort(band[owners], kind="stable")
    cells = (first[owners] + (lengths - 1) * width[owners])[by_band]
    counts = np.bincount(band[owners], minlength=len(members)).tolist()
    bands, start = [], 0
    for in_band, count in zip(members, counts):
        rows = np.add(np.arange(longest[in_band[0]])[:, None], offsets[in_band])
        np.minimum(rows, offsets[in_band] + longest[in_band] - 1, out=rows)
        bands.append((rows, cells[start : start + count]))
        start += count
    return windows[by_band], bands


def _first_zeros(band: np.ndarray) -> np.ndarray:
    """Each cell's first zero down its column up to it, where there is one."""
    positions = np.arange(len(band))[:, None]
    first = np.minimum.accumulate(np.where(band == 0.0, positions, len(band) - 1), axis=0)
    return np.take_along_axis(band, first, axis=0)


# The fold of each kind that a table serves: the row value, made in place in
# the fresh gather of the column, and the ufunc folding it.
_TABLES = {
    AggKind.SUM: (lambda x: x, np.add),
    AggKind.COUNT_NONZERO: (lambda x: np.not_equal(x, 0.0, out=x), np.add),
    AggKind.MAX: (lambda x: x, np.maximum),
}


def _running(
    column: np.ndarray, bands: list[tuple[np.ndarray, np.ndarray]], kind: AggKind
) -> np.ndarray:
    """The running fold of one kind of ``column`` over each window of
    :func:`_windows`' bands, band by band, read at the window's last row.

    Each band's table is gathered from the column through its ``rows``,
    folded in place by one ``fold.accumulate`` down its positions, which
    folds left to right within every entity as the builtins do (padding
    follows every cell read), read at its windows' cells and let go before
    the next band's is gathered.

    A sum starts from ``0.0 + x0``, as Python's sum does.  Python's max
    keeps the first of equal values and numpy's maximum may not; the only
    equal but distinct finite values are -0.0 and 0.0, so a running max of
    zero takes the sign of the first zero up to it, the one Python's max
    keeps: every value before that zero is negative and none after it is
    greater.
    """
    value, fold = _TABLES[kind]
    folded = []
    for rows, cells in bands:
        band = value(column[rows])
        if fold is np.add:
            band[0] += 0.0
        # Without a sign bit in the band, every zero is 0.0 and equal values
        # have equal bits.
        zeros = _first_zeros(band) if fold is np.maximum and np.signbit(band).any() else None
        fold.accumulate(band, axis=0, out=band)
        if zeros is not None:
            np.copysign(band, zeros, out=band, where=band == 0.0)
        folded.append(band.ravel()[cells])
    # A fold of one band is read in order already.
    return folded[0] if len(folded) == 1 else np.concatenate((np.empty(0), *folded))


@np.errstate(over="ignore", invalid="ignore")
def _fold(
    block: TimelineBlock, entities: np.ndarray, k: np.ndarray, plan: AggregationPlan,
    out: np.ndarray, at: np.ndarray,
) -> None:
    """Write into row ``at[i]`` of ``out`` the feature values that fold the
    first ``k[i]`` rows of entity ``entities[i]``.

    An empty window folds to 0.0 for every kind, so its row of ``out``,
    zeros, is left as it is.  A spec naming a column the block lacks writes
    nan, which _check_finite reports as UnknownColumn.  Each table is made
    for these windows alone, one band at a time, read at their cells and
    let go.
    """
    columns = block.columns
    if not len(columns):
        return  # no row: every window is empty and no value is read
    index = columns.feature_index
    kept, bands = _windows(block.offsets, entities, k)  # the windows with rows, band by band
    # Each table is read once; a read is kept until the last spec using it.
    uses = Counter(
        (AggKind.SUM, name) if spec.kind is AggKind.RATIO_OF_SUMS else (spec.kind, name)
        for spec in plan.specs
        for name in spec.referenced_columns()
    )
    reads: dict[tuple[AggKind, str], np.ndarray] = {}

    def read(kind: AggKind, name: str) -> np.ndarray:
        key = (kind, name)
        if key not in reads:
            reads[key] = _running(columns.values[:, index[name]], bands, kind)
        uses[key] -= 1
        return reads[key] if uses[key] else reads.pop(key)

    for s, spec in enumerate(plan.specs):
        if any(name not in index for name in spec.referenced_columns()):
            out[at, s] = math.nan
            continue
        j = index[spec.column]
        if spec.kind in _TABLES:
            folded = read(spec.kind, spec.column)
        elif spec.kind is AggKind.LAST:
            last = block.offsets[entities[kept]] + k[kept] - 1  # each window's last row
            folded = columns.values[last, j]
        else:  # RATIO_OF_SUMS: 0 when the denominator total is 0
            numerator = read(AggKind.SUM, spec.column)
            denominator = read(AggKind.SUM, spec.denominator)
            folded = np.divide(
                numerator, denominator, out=np.zeros_like(numerator), where=denominator != 0.0
            )
        out[at[kept], s] = folded


def _check_finite(
    timeline_at: Callable[[int], EntityTimeline], values: np.ndarray, plan: AggregationPlan
) -> None:
    """Raise for the first row, then spec, whose value is not finite.

    That is UnknownColumn if the row's timeline, ``timeline_at(row)``, lacks a
    column the spec names, else NonFiniteValue.  No timeline is asked for
    while every value is finite.
    """
    bad = np.argwhere(~np.isfinite(values))
    if not len(bad):
        return
    row, s = bad[0]
    spec = plan.specs[s]
    timeline = timeline_at(int(row))
    index = timeline.block.columns.feature_index
    for name in spec.referenced_columns():
        if name not in index:
            raise UnknownColumn(
                f"feature {spec.output_name!r} references unknown column {name!r}"
            )
    raise NonFiniteValue(
        f"entity {timeline.entity_id!r}: feature {spec.output_name!r} is "
        f"{float(values[row, s])!r}; the input values overflow a float"
    )


def aggregate(truncated: TruncatedTimeline, plan: AggregationPlan) -> FeatureVector:
    """Fold a truncated window into one feature vector (zeros when empty)."""
    timeline = truncated.timeline
    values = np.zeros((1, len(plan.specs)))
    entity, length = np.array([timeline.index]), np.array([truncated.length])
    _fold(timeline.block, entity, length, plan, values, np.zeros(1, dtype=np.intp))
    _check_finite(lambda row: timeline, values, plan)
    return FeatureVector(entity_id=timeline.entity_id, values=tuple(values[0].tolist()))


def _by_block(
    timelines: Sequence[EntityTimeline],
) -> list[tuple[TimelineBlock, np.ndarray, np.ndarray]]:
    """The timelines grouped by block: each block, the positions of its
    timelines in ``timelines`` and their entity indexes in the block.

    The timelines of :func:`build_timelines` are every entity of one block
    in order, so they are grouped without reading one.
    """
    if isinstance(timelines, Timelines):
        entities = np.arange(len(timelines))
        return [(timelines.block, entities, entities)]
    by_block: dict[int, tuple[TimelineBlock, list[int]]] = {}
    for position, timeline in enumerate(timelines):
        by_block.setdefault(id(timeline.block), (timeline.block, []))[1].append(position)
    return [
        (block, np.array(positions), np.array([timelines[p].index for p in positions]))
        for block, positions in by_block.values()
    ]


def score_feature_matrix(
    timelines: Sequence[EntityTimeline], plan: AggregationPlan
) -> np.ndarray:
    """Each timeline's full history to date aggregated (the scoring-time
    view), one row per timeline in their order.

    Each block's timelines are folded over their whole lengths in one
    call, as :func:`aggregate` folds one window.  Raises UnknownColumn or
    NonFiniteValue for the first timeline, then spec, whose value is not
    finite.
    """
    values = np.zeros((len(timelines), len(plan.specs)))
    for block, positions, entities in _by_block(timelines):
        lengths = block.offsets[entities + 1] - block.offsets[entities]
        _fold(block, entities, lengths, plan, values, positions)
    _check_finite(timelines.__getitem__, values, plan)
    return values


def score_features(timeline: EntityTimeline, plan: AggregationPlan) -> FeatureVector:
    """One timeline's row of :func:`score_feature_matrix`."""
    values = score_feature_matrix([timeline], plan)
    return FeatureVector(entity_id=timeline.entity_id, values=tuple(values[0].tolist()))


def build_training_sets(
    timelines: Sequence[EntityTimeline],
    configs: Sequence[ReferenceFrameConfig],
    plan: AggregationPlan,
) -> tuple[TrainingSet | LeadframeError, ...]:
    """Transform timelines into one training set per config; each member is
    the set that building under its config alone gives, bit for bit, or the
    error that raises.

    Every config's windows of a block are folded in one call, so each
    history is folded once, up to its longest window.  The members'
    matrices are consecutive rows of one matrix, written in place.
    """
    if isinstance(timelines, Timelines):  # a block's entities, in id order already
        ordered, entity_ids = timelines, timelines.entity_ids
    else:
        ordered = sorted(timelines, key=lambda t: t.entity_id)
        entity_ids = [timeline.entity_id for timeline in ordered]
    groups = _by_block(ordered)
    k = np.zeros((len(configs), len(ordered)), dtype=np.intp)
    labels = np.zeros(len(ordered), dtype=np.intp)
    for block, positions, entities in groups:
        for i, config in enumerate(configs):
            k[i, positions], labels[positions] = _cutoffs(block, entities, config.lead_time)
    drop = np.array([c.empty_window_policy is EmptyWindowPolicy.DROP for c in configs], dtype=bool)
    dropped = drop[:, None] & (labels == 1) & (k == 0)
    # Each kept window's row: config by config, in entity order.
    slots = np.cumsum(~dropped).reshape(dropped.shape) - 1
    values = np.zeros((dropped.size - int(dropped.sum()), len(plan.specs)))
    for block, positions, entities in groups:
        windows = ~dropped[:, positions]
        owners = np.broadcast_to(entities, windows.shape)[windows]
        _fold(block, owners, k[:, positions][windows], plan, values, slots[:, positions][windows])

    outcomes: list[TrainingSet | LeadframeError] = []
    stop = 0
    for i in range(len(configs)):
        kept = np.flatnonzero(~dropped[i])
        start, stop = stop, stop + len(kept)
        try:
            _check_finite(lambda row: ordered[kept[row]], values[start:stop], plan)
        except LeadframeError as exc:
            outcomes.append(exc)
            continue
        ids = [entity_ids[p] for p in kept.tolist()]
        gone = [entity_ids[p] for p in np.flatnonzero(dropped[i]).tolist()]
        outcomes.append(_training_set(plan, ids, values[start:stop], labels[kept], gone))
    return tuple(outcomes)


def build_training_set(
    timelines: Sequence[EntityTimeline],
    config: ReferenceFrameConfig,
    plan: AggregationPlan,
) -> TrainingSet:
    """Transform timelines into one labeled row per entity.

    Event entities whose window empties are dropped (and reported) under the
    DROP policy, or kept as all-zero rows under EMIT_ZEROS.  Output rows are
    ordered by entity id regardless of input order.
    """
    (outcome,) = build_training_sets(timelines, (config,), plan)
    if isinstance(outcome, LeadframeError):
        raise outcome
    return outcome


def join_training_sets(plan: AggregationPlan, parts: Sequence[TrainingSet]) -> TrainingSet:
    """The training set of the union of the parts' entities, each part
    built alone under ``plan`` and one config, from disjoint sets of
    entities whose ids ascend from part to part.

    Each row and each dropped id is one entity's alone, so this is the set
    built from the union of the parts' timelines, bit for bit.
    """
    if len(parts) == 1:
        return parts[0]
    return _training_set(
        plan,
        [entity for part in parts for entity in part.entity_ids],
        np.concatenate([np.empty((0, len(plan.specs))), *(part.values for part in parts)]),
        np.concatenate([np.empty(0, dtype=np.int64), *(part.labels for part in parts)]),
        [entity for part in parts for entity in part.report.dropped],
    )


def _column_cells(column: np.ndarray, render: Callable[[object], str]) -> list[str]:
    """``render`` of each value of a column, called once per distinct value.

    Values are told apart by their bits, not by ``==``: -0.0 equals 0.0, but
    their reprs differ.
    """
    distinct, index = distinct_values(column.view(np.int64))
    texts = list(map(render, distinct.view(column.dtype).tolist()))
    return [texts[i] for i in index.tolist()]


def write_training_csv(training: TrainingSet, stream: io.TextIOBase) -> None:
    """CSV layout: entity_id, one column per feature, then the label.

    Names and ids are quoted by :func:`csv_cells`; a ``repr`` of a float and
    a label never need quoting.  The rows are written a block at a time:
    each column of a block is rendered on its own, each distinct value once,
    and the block's rows are joined from its columns.
    """
    stream.write(csv_line(("entity_id", *training.feature_names, "label")))
    # A block's cells are held as one 8-byte reference each, in a list per
    # column, while its rows are joined: _WRITE_BYTES of them per block, so
    # churn-monthly's 5,000 rows of 7 cells are one block.
    size = max(1, _WRITE_BYTES // (8 * (len(training.feature_names) + 2)))
    for start in range(0, len(training), size):
        rows = slice(start, start + size)
        columns = [csv_cells(training.entity_ids[rows])]
        columns += [_column_cells(column, repr) for column in training.values[rows].T]
        columns.append(_column_cells(training.labels[rows], lambda label: f"{label}\n"))
        stream.write("".join(map(",".join, zip(*columns))))


def _raise_first_fault(rows: list[list[str]], width: int) -> NoReturn:
    """Walk the data rows in file order and raise the first fault."""
    for row in rows:
        if len(row) != width:
            raise ParseError(f"training CSV row has {len(row)} cells, expected {width}")
        try:
            values = [float(v) for v in row[1:-1]]
            label = int(row[-1])
        except ValueError as exc:
            raise ParseError(f"training CSV row {row!r}: {exc}") from None
        if label not in (0, 1):
            raise ParseError(f"training CSV label must be 0 or 1, got {row[-1]!r}")
        if not all(map(math.isfinite, values)):
            raise ParseError(f"training CSV row {row!r}: feature values must be finite")
    raise AssertionError("a column check failed, but no row holds a fault")


def _read_records(stream: io.TextIOBase, plan: AggregationPlan) -> TrainingSet:
    """:func:`read_training_csv` by csv.reader, which also names a fault."""
    reader = csv.reader(stream)
    header = next(reader, None)
    expected = ["entity_id", *plan.output_names, "label"]
    if header is None or [h.strip() for h in header] != expected:
        raise DimensionMismatch(
            f"training CSV header {header!r} does not match plan columns {expected!r}"
        )
    rows = [row for row in reader if row]
    width = len(expected)
    if any(len(row) != width for row in rows):
        _raise_first_fault(rows, width)
    cells = list(zip(*rows)) or [()] * width
    values = np.empty((len(rows), width - 2))
    try:
        for j, column in enumerate(cells[1:-1]):
            values[:, j] = np.fromiter(map(float, column), np.float64, len(rows))
        labels = np.fromiter(map(int, cells[-1]), np.int64, len(rows))
    except (ValueError, OverflowError):
        _raise_first_fault(rows, width)
    if ((labels != 0) & (labels != 1)).any() or not np.isfinite(values).all():
        _raise_first_fault(rows, width)
    return _training_set(plan, cells[0], values, labels)


def _read_plain(handle: BinaryIO, plan: AggregationPlan) -> TrainingSet | None:
    """:func:`read_training_csv` of a plain file by ``panel._plain_block``,
    or None when csv.reader must read the file: the header line is not
    plain or not the plan's names, ``_plain_block`` gives a block up, its
    lines hold more cells than the header, a value is not finite or a
    label is not one byte, 0 or 1.

    The layout reads the plan's features as numbers and the label as the
    flag.  The ids, which it leaves unread, are decoded in file order from
    each block's cell ends, and the panel's value rule (``in_range``) is
    not read: a value here may be negative.
    """
    names = ["entity_id", *plan.output_names, "label"]
    line = handle.readline()
    if not _is_plain(line) or line.rstrip(b"\n").split(b",") != [n.encode() for n in names]:
        return None
    origin = handle.tell()
    lines = _Lines(handle, handle.seek(0, io.SEEK_END) - origin)
    handle.seek(origin)
    m = len(plan.output_names)
    cells = _Cells(m + 2, [], {at: at - 1 for at in range(1, m + 1)}, m + 1, plan.output_names)
    entity_ids: list[str] = []
    while not lines.last:
        block = _plain_block(lines, cells, [])
        if block is None:
            return None
        padded, before, ends = block
        if not len(before):
            continue
        rows = slice(cells.rows - len(before), cells.rows)
        if ends.shape[1] != m + 2 or (cells.flags[rows] < 0).any():
            return None
        if not np.isfinite(cells.values[rows]).all():
            return None
        first = before + 1
        entity_ids += map(bytes.decode, _texts(padded, first, ends[:, 0] - first).tolist())
    n = cells.rows
    return _training_set(plan, entity_ids, cells.values[:n], cells.flags[:n])


def read_training_csv(
    stream: Union[io.TextIOBase, BinaryIO], plan: AggregationPlan
) -> TrainingSet:
    """Read a training-set CSV back under a plan with matching output names.

    A binary handle of a plain file (:func:`panel._is_plain`: printable
    ASCII other than the quote character, and line feeds) whose header line
    is the plan's names is read a block of lines at a time by the step
    that tokenizes a plain panel, into arrays, with no Python object per
    row but its id (:func:`_read_plain`); only the id column and the value
    rule, any finite number, differ from a panel's.  A cell of digits, with
    or without one decimal point, converts by exact arithmetic, any other
    by ``float``, so every value has the bits ``float`` gives it.  At any
    doubt, the file is read again from where it began, decoded as UTF-8, by
    csv.reader; so is every text stream.  A handle that cannot seek is read
    whole first.

    Through csv.reader, blank lines are skipped, and cells are converted a
    whole column at a time by Python's own ``float`` and ``int``, so
    surrounding whitespace, ``+`` and ``1_0`` read as they do there.  On any
    fault the rows are walked in file order and the first row's first fault
    is raised: a wrong cell count, then an unparseable value or label, then
    a label other than 0 or 1, then a non-finite value.
    """
    if not isinstance(stream, (io.RawIOBase, io.BufferedIOBase)):
        return _read_records(stream, plan)
    handle = stream if stream.seekable() else io.BytesIO(stream.read())
    origin = handle.tell()
    training = _read_plain(handle, plan)
    if training is None:
        handle.seek(origin)
        text = io.TextIOWrapper(handle, encoding="utf-8", newline="")
        try:
            training = _read_records(text, plan)
        finally:
            text.detach()  # the caller's handle stays open
    return training
