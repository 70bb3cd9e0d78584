"""Entity-level evaluation and the lead-time / accuracy tradeoff sweep.

Splitting is by entity, never by row, so no entity contributes to both
training and testing.  The sweep reuses one split across every lead time;
the only thing that varies between curve points is where the reference
frame is planted.  It trains every point's model in one batched gradient
descent, and each model is bit-identical to training it alone.
"""

from __future__ import annotations

import io
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidConfig,
    LeadframeError,
    TooFewEntities,
    check_int,
    check_real,
)
# bench/tracer.py wraps this module's train_logistic and predict_proba by name
# to time them, so both names stay importable here even though the sweep trains
# through train_logistic_each and evaluate predicts through predict_proba_matrix.
from .model import (  # noqa: F401
    LogisticModel,
    TrainConfig,
    predict_proba,
    predict_proba_matrix,
    train_logistic,
    train_logistic_each,
)
from .panel import EntityTimeline, csv_line
from .rng import SplitMix64
from .transform import (
    AggregationPlan,
    EmptyWindowPolicy,
    ReferenceFrameConfig,
    TrainingSet,
    build_training_set,
)


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    auc: float
    tp: int
    fp: int
    tn: int
    fn: int
    threshold: float
    flags: tuple[str, ...] = field(default_factory=tuple)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class CurvePoint:
    lead_time: int
    metrics: Metrics | None
    train_size: int
    test_size: int
    flags: tuple[str, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class TradeoffCurve:
    points: tuple[CurvePoint, ...]


def _rank_auc(scores: list[float], labels: list[int]) -> tuple[float, bool]:
    """Pairwise-ranking AUC via midranks; ties between classes count 0.5.

    Returns (auc, degenerate); degenerate means a class was absent and the
    conventional 0.5 was substituted.
    """
    n_pos = sum(labels)
    n_neg = len(scores) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5, True
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # Midrank of a tie group: its last 1-based rank minus half its extra members.
    midranks = np.cumsum(counts) - (counts - 1) / 2.0
    # Midranks are multiples of 0.5, so this sum is exact in any order.
    rank_sum = float(midranks[group][np.asarray(labels) == 1].sum())
    auc = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return auc, False


def evaluate(model: LogisticModel, test: TrainingSet, threshold: float = 0.5) -> Metrics:
    """Confusion counts at the threshold plus ranking AUC on a test set.

    Precision and recall fall back to 0 when undefined; AUC falls back to
    0.5 (flagged) when the test set holds a single class.
    """
    if test.feature_names != model.feature_names:
        raise DimensionMismatch(
            f"test features {test.feature_names!r} do not match model "
            f"features {model.feature_names!r}"
        )
    if not len(test):
        raise DimensionMismatch("cannot evaluate on an empty test set")

    scores = predict_proba_matrix(model, test.values)
    labels = test.labels.tolist()

    confusion = Counter((score >= threshold, label) for score, label in zip(scores, labels))
    tp, fp = confusion[True, 1], confusion[True, 0]
    tn, fn = confusion[False, 0], confusion[False, 1]

    accuracy = (tp + tn) / len(labels)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    auc, degenerate = _rank_auc(scores, labels)
    flags = ("single_class",) if degenerate else ()
    return Metrics(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        auc=auc,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        threshold=threshold,
        flags=flags,
    )


def check_test_fraction(value: object, name: str) -> None:
    """The test-fraction rule: a finite real strictly between 0 and 1."""
    check_real(value, f"{name} must lie strictly between 0 and 1", lambda v: 0.0 < v < 1.0)


def check_lead_times(value: object, name: str) -> tuple[int, ...]:
    """The lead-times rule: a non-empty list or tuple of non-negative integers.

    Returns the lead times as a tuple.
    """
    message = f"{name} must be a non-empty list of non-negative integers"
    if not isinstance(value, (list, tuple)) or not value:
        raise InvalidConfig(message)
    for lead_time in value:
        check_int(lead_time, message)
    return tuple(value)


def split_entities(
    timelines: tuple[EntityTimeline, ...] | list[EntityTimeline],
    test_fraction: float,
    seed: int,
) -> tuple[tuple[EntityTimeline, ...], tuple[EntityTimeline, ...]]:
    """Disjoint seeded train/test split over entity ids.

    Entity ids are shuffled with the portable generator and cut at
    floor(n * test_fraction), clamped so both sides keep at least one
    entity.  Identical inputs always produce the identical split.
    """
    check_test_fraction(test_fraction, "test_fraction")
    ordered = sorted(timelines, key=lambda t: t.entity_id)
    n = len(ordered)
    if n < 2:
        raise TooFewEntities(f"need at least 2 entities to split, have {n}")

    ids = [t.entity_id for t in ordered]
    SplitMix64(seed).shuffle(ids)
    # floor of the real-valued product; the epsilon absorbs binary float
    # error so e.g. 10 * 0.3 lands on 3, not 2.
    n_test = int(math.floor(n * test_fraction + 1e-9))
    n_test = min(max(n_test, 1), n - 1)
    test_ids = set(ids[:n_test])

    train = tuple(t for t in ordered if t.entity_id not in test_ids)
    test = tuple(t for t in ordered if t.entity_id in test_ids)
    return train, test


def lead_time_sweep(
    timelines: tuple[EntityTimeline, ...] | list[EntityTimeline],
    plan: AggregationPlan,
    lead_times: list[int] | tuple[int, ...],
    train_config: TrainConfig,
    test_fraction: float,
    seed: int,
    threshold: float = 0.5,
    empty_window_policy: EmptyWindowPolicy = EmptyWindowPolicy.DROP,
) -> TradeoffCurve:
    """Measure test metrics at each lead time over one shared entity split.

    A lead time that leaves the training side without both classes (or the
    test side empty) yields a point with absent metrics and an explanatory
    flag instead of failing the sweep.  Every other point's model is trained
    in one batch; errors are raised in lead-time order, as if each point were
    built, trained and evaluated before the next.
    """
    check_lead_times(lead_times, "lead_times")
    train_timelines, test_timelines = split_entities(timelines, test_fraction, seed)
    built = []
    failure = None
    for lead_time in sorted(set(lead_times)):
        config = ReferenceFrameConfig(
            lead_time=lead_time, empty_window_policy=empty_window_policy
        )
        try:
            train_set = build_training_set(train_timelines, config, plan)
            test_set = build_training_set(test_timelines, config, plan)
        except LeadframeError as exc:
            failure = exc  # raised once the earlier lead times are evaluated
            break
        flags = []
        if not train_set.report.events:
            flags.append("no_events_retained")
        if not train_set.report.non_events:
            flags.append("no_nonevents_retained")
        if not len(test_set):
            flags.append("empty_test_set")
        built.append((lead_time, train_set, test_set, tuple(flags)))

    fitted = iter(
        train_logistic_each([train for _, train, _, flags in built if not flags], train_config)
    )
    points = []
    for lead_time, train_set, test_set, flags in built:
        metrics = None
        if not flags:
            model = next(fitted)
            if isinstance(model, LeadframeError):
                raise model
            metrics = evaluate(model, test_set, threshold)
        points.append(
            CurvePoint(
                lead_time=lead_time,
                metrics=metrics,
                train_size=len(train_set),
                test_size=len(test_set),
                flags=flags,
            )
        )
    if failure is not None:
        raise failure
    return TradeoffCurve(points=tuple(points))


def write_curve_csv(curve: TradeoffCurve, stream: io.TextIOBase) -> None:
    """One line per point; absent metrics are empty cells, and the point's
    and its metrics' flags are joined by ``|``.  Cells are quoted by
    :func:`csv_line`, as in every other CSV the package writes."""
    stream.write(csv_line(
        ("lead_time", "accuracy", "precision", "recall", "auc", "train_size", "test_size", "flags")
    ))
    for point in curve.points:
        merged = list(point.flags)
        if point.metrics is None:
            cells = ["", "", "", ""]
        else:
            m = point.metrics
            cells = [repr(m.accuracy), repr(m.precision), repr(m.recall), repr(m.auc)]
            merged.extend(m.flags)
        stream.write(csv_line(
            (str(point.lead_time), *cells, str(point.train_size), str(point.test_size), "|".join(merged))
        ))
