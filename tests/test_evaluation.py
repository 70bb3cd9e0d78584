import dataclasses
import io
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import timelines_without_rows, training_set_of
from corpus import FEATURES
from oracle import brute_force_pairwise_auc

from leadframe import evaluation
from leadframe.config import EvalSettings
from leadframe.errors import (
    DimensionMismatch,
    InvalidConfig,
    LeadframeError,
    NonFiniteValue,
    TooFewEntities,
)
from leadframe.evaluation import (
    CurvePoint,
    Metrics,
    TradeoffCurve,
    evaluate,
    lead_time_sweep,
    split_entities,
    write_curve_csv,
)
from leadframe.model import LogisticModel, TrainConfig, train_logistic
from leadframe.panel import PanelSchema, build_timelines, parse_panel_csv
from leadframe.synth import SynthConfig, default_schema, generate_panel
from leadframe.transform import (
    AggregationPlan,
    FeatureSpec,
    FeatureVector,
    ReferenceFrameConfig,
)

IDENTITY_MODEL = LogisticModel(
    feature_names=("score",),
    weights=(1.0,),
    intercept=0.0,
    means=(0.0,),
    stds=(1.0,),
)


def scored_set(scores, labels):
    """Test set whose single feature passes through to the decision value."""
    plan = AggregationPlan((FeatureSpec.sum("score", "score"),))
    rows = tuple(
        (FeatureVector(f"e{i}", (float(score),)), int(label))
        for i, (score, label) in enumerate(zip(scores, labels))
    )
    return training_set_of(plan, rows)


def dummy_timelines(n):
    schema = PanelSchema("entity", "period", "event", ("a",))
    return timelines_without_rows(schema, [f"t{i:03d}" for i in range(n)])


class TestSplit:
    def test_counts_and_disjointness(self):
        train, test = split_entities(dummy_timelines(10), 0.3, seed=11)
        assert len(train) == 7 and len(test) == 3
        assert {t.entity_id for t in train}.isdisjoint({t.entity_id for t in test})

    def test_deterministic(self):
        first = split_entities(dummy_timelines(10), 0.3, seed=11)
        second = split_entities(dummy_timelines(10), 0.3, seed=11)
        assert first == second

    def test_seed_changes_split(self):
        picks = {
            tuple(t.entity_id for t in split_entities(dummy_timelines(10), 0.3, seed=s)[1])
            for s in range(5)
        }
        assert len(picks) > 1

    def test_both_sides_non_empty_at_extremes(self):
        train, test = split_entities(dummy_timelines(2), 0.01, seed=0)
        assert len(train) == 1 and len(test) == 1
        train, test = split_entities(dummy_timelines(2), 0.99, seed=0)
        assert len(train) == 1 and len(test) == 1

    def test_too_few_entities(self):
        with pytest.raises(TooFewEntities):
            split_entities(dummy_timelines(1), 0.3, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(InvalidConfig):
            split_entities(dummy_timelines(4), 1.0, seed=0)


class TestEvaluate:
    def test_perfect_separation(self):
        test = scored_set([10.0, 10.0, -10.0, -10.0], [1, 1, 0, 0])
        metrics = evaluate(IDENTITY_MODEL, test, threshold=0.5)
        assert metrics.accuracy == 1.0
        assert metrics.auc == 1.0
        assert (metrics.tp, metrics.fp, metrics.tn, metrics.fn) == (2, 0, 2, 0)

    def test_even_confusion(self):
        # decision values straddle 0, so sigmoid straddles the 0.5 threshold
        test = scored_set([1.0, -1.0, 1.0, -1.0], [1, 1, 0, 0])
        metrics = evaluate(IDENTITY_MODEL, test, threshold=0.5)
        assert (metrics.tp, metrics.fp, metrics.tn, metrics.fn) == (1, 1, 1, 1)
        assert metrics.accuracy == 0.5
        assert metrics.precision == 0.5
        assert metrics.recall == 0.5

    def test_auc_example_pair_enumeration(self):
        scores = [0.9, 0.4, 0.6]
        labels = [1, 0, 1]
        metrics = evaluate(IDENTITY_MODEL, scored_set(scores, labels))
        assert metrics.auc == 1.0
        assert metrics.auc == brute_force_pairwise_auc(scores, labels)

    def test_auc_ties_count_half(self):
        metrics = evaluate(IDENTITY_MODEL, scored_set([2.0, 2.0], [1, 0]))
        assert metrics.auc == 0.5

    def test_auc_single_class_flagged(self):
        metrics = evaluate(IDENTITY_MODEL, scored_set([1.0, 2.0], [1, 1]))
        assert metrics.auc == 0.5
        assert "single_class" in metrics.flags

    def test_auc_matches_brute_force_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(2, 25)
            scores = [rng.choice([0.1, 0.4, 0.5, 0.9, rng.random()]) for _ in range(n)]
            labels = [rng.randint(0, 1) for _ in range(n)]
            metrics = evaluate(IDENTITY_MODEL, scored_set(scores, labels))
            expected = brute_force_pairwise_auc(
                scores, labels
            )
            assert metrics.auc == pytest.approx(expected, abs=1e-12)

    def test_auc_invariant_under_monotone_transform(self):
        rng = random.Random(7)
        scores = [rng.uniform(-3, 3) for _ in range(20)]
        labels = [rng.randint(0, 1) for _ in range(20)]
        labels[0], labels[1] = 0, 1
        base = evaluate(IDENTITY_MODEL, scored_set(scores, labels)).auc
        warped = [math.exp(0.5 * s) + 2.0 for s in scores]
        assert evaluate(IDENTITY_MODEL, scored_set(warped, labels)).auc == base

    def test_confusion_counts_sum_to_total(self):
        test = scored_set([1.0, -2.0, 0.5, -0.5, 3.0], [1, 0, 0, 1, 1])
        metrics = evaluate(IDENTITY_MODEL, test)
        assert metrics.total == 5
        assert metrics.accuracy == (metrics.tp + metrics.tn) / 5

    def test_feature_mismatch(self):
        other = scored_set([1.0], [1])
        model = LogisticModel(("something",), (1.0,), 0.0, (0.0,), (1.0,))
        with pytest.raises(DimensionMismatch):
            evaluate(model, other)

    def test_empty_test_set_rejected(self):
        empty = training_set_of(AggregationPlan((FeatureSpec.sum("score", "score"),)), ())
        with pytest.raises(DimensionMismatch):
            evaluate(IDENTITY_MODEL, empty)


@pytest.fixture(scope="module")
def synth_timelines():
    config = SynthConfig(
        n_entities=60,
        n_periods=12,
        event_rate=0.4,
        ramp_length=2,
        signal_strength=3.0,
        noise_rate=0.5,
        seed=5,
    )
    return build_timelines(generate_panel(config))


@pytest.fixture(scope="module")
def recency_plan():
    return AggregationPlan(
        tuple(FeatureSpec.last(f"recent_{c}", c) for c in default_schema().feature_columns)
    )


TRAIN_CONFIG = TrainConfig(epochs=150, learning_rate=0.5, l2_penalty=0.001, seed=0)


class TestSweep:
    def test_points_ascend_and_sizes_are_consistent(self, synth_timelines, recency_plan):
        curve = lead_time_sweep(
            synth_timelines, recency_plan, [2, 0, 1], TRAIN_CONFIG, 0.25, seed=3
        )
        assert [p.lead_time for p in curve.points] == [0, 1, 2]
        for point in curve.points:
            assert point.metrics is not None
            assert point.metrics.total == point.test_size

    def test_deterministic(self, synth_timelines, recency_plan):
        run = lambda: lead_time_sweep(
            synth_timelines, recency_plan, [0, 1], TRAIN_CONFIG, 0.25, seed=3
        )
        assert run() == run()

    def test_split_is_shared_and_leak_free(self, synth_timelines, recency_plan):
        train, test = split_entities(synth_timelines, 0.25, seed=3)
        train_ids = {t.entity_id for t in train}
        test_ids = {t.entity_id for t in test}
        assert train_ids.isdisjoint(test_ids)
        curve = lead_time_sweep(
            synth_timelines, recency_plan, [0, 3], TRAIN_CONFIG, 0.25, seed=3
        )
        # same split at every point: sizes equal the transform of each side
        assert len({(p.train_size, p.test_size) for p in curve.points}) >= 1
        for point in curve.points:
            assert point.train_size <= len(train_ids)
            assert point.test_size <= len(test_ids)

    def test_impossible_lead_time_is_flagged_not_fatal(self, synth_timelines, recency_plan):
        curve = lead_time_sweep(
            synth_timelines, recency_plan, [0, 50], TRAIN_CONFIG, 0.25, seed=3
        )
        flagged = curve.points[1]
        assert flagged.metrics is None
        assert "no_events_retained" in flagged.flags
        assert curve.points[0].metrics is not None

    def test_empty_lead_times_rejected(self, synth_timelines, recency_plan):
        with pytest.raises(InvalidConfig):
            lead_time_sweep(synth_timelines, recency_plan, [], TRAIN_CONFIG, 0.25, seed=3)

    @pytest.mark.parametrize("lead_times", [[], [1, -1], [0, True], "0,1"])
    def test_lead_times_rule_shared_with_config(self, synth_timelines, recency_plan, lead_times):
        with pytest.raises(InvalidConfig) as from_config:
            EvalSettings(lead_times=lead_times)
        with pytest.raises(InvalidConfig) as from_sweep:
            lead_time_sweep(synth_timelines, recency_plan, lead_times, TRAIN_CONFIG, 0.25, seed=3)
        assert str(from_config.value) == "eval." + str(from_sweep.value)
        assert str(from_sweep.value) == (
            "lead_times must be a non-empty list of non-negative integers"
        )

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, math.nan, True])
    def test_test_fraction_rule_shared_with_config(self, fraction):
        with pytest.raises(InvalidConfig) as from_config:
            EvalSettings(test_fraction=fraction)
        with pytest.raises(InvalidConfig) as from_split:
            split_entities(dummy_timelines(10), fraction, seed=1)
        assert str(from_config.value) == "eval." + str(from_split.value)
        assert str(from_split.value) == "test_fraction must lie strictly between 0 and 1"

    def test_curve_csv_layout(self, synth_timelines, recency_plan):
        curve = lead_time_sweep(
            synth_timelines, recency_plan, [0, 50], TRAIN_CONFIG, 0.25, seed=3
        )
        buffer = io.StringIO()
        write_curve_csv(curve, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "lead_time,accuracy,precision,recall,auc,train_size,test_size,flags"
        assert len(lines) == 3
        assert lines[2].startswith("50,,,,")
        assert "no_events_retained" in lines[2]

    def test_flags_from_the_sweep_itself(self):
        # Each entity's event falls in its first period.  At lead time 0 every
        # window keeps that period and is labeled 1; at lead time 1 every window
        # empties and is dropped, on both sides of the split.
        schema = PanelSchema("entity", "period", "event", ("a",))
        rows = [f"e{i},{p},{p + i},{int(p == 1)}\n" for i in range(6) for p in (1, 2, 3)]
        data = ("entity,period,a,event\n" + "".join(rows)).encode()
        timelines = build_timelines(parse_panel_csv(data, schema))
        plan = AggregationPlan((FeatureSpec.sum("a_sum", "a"),))
        first, second = lead_time_sweep(timelines, plan, [0, 1], TrainConfig(), 0.5, 0).points
        assert first == CurvePoint(0, None, 3, 3, ("no_nonevents_retained",))
        assert second == CurvePoint(
            1, None, 0, 0, ("no_events_retained", "no_nonevents_retained", "empty_test_set")
        )


EXTREME_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 1e16, 1e-05, 0.1, 1 / 3, math.inf, -math.inf, math.nan,
)
# A carriage return is left out: csv.writer quotes it only from Python 3.13 on,
# and csv_cells always does.
FLAGS = st.lists(
    st.sampled_from(["single_class", "no_events_retained", "empty_test_set"])
    | st.text("ab_|,\"\n ", max_size=4),
    max_size=3,
).map(tuple)


@st.composite
def curves(draw):
    points = []
    for lead_time in draw(st.lists(st.integers(0, 10**20), max_size=5)):
        metrics = None
        if draw(st.booleans()):
            scores = [draw(st.sampled_from(EXTREME_FLOATS) | st.floats()) for _ in range(4)]
            counts = [draw(st.integers(0, 10**6)) for _ in range(4)]
            metrics = Metrics(*scores, *counts, threshold=0.5, flags=draw(FLAGS))
        sizes = [draw(st.integers(0, 10**6)) for _ in range(2)]
        points.append(CurvePoint(lead_time, metrics, *sizes, flags=draw(FLAGS)))
    return TradeoffCurve(tuple(points))


class TestCurveWriterMatchesCsvWriter:
    """write_curve_csv gives the bytes of the csv.writer loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(curve=curves())
    def test_bytes(self, curve):
        mine, theirs = io.StringIO(newline=""), io.StringIO(newline="")
        write_curve_csv(curve, mine)
        oracle.write_curve_csv(curve, theirs)
        assert mine.getvalue() == theirs.getvalue()

    def test_absent_metrics_and_merged_flags(self):
        metrics = Metrics(-0.0, 5e-324, 1.7976931348623157e308, math.nan, 1, 2, 3, 4, 0.5,
                          ("single_class",))
        curve = TradeoffCurve((
            CurvePoint(0, metrics, 10, 4, ("a,b",)),
            CurvePoint(6, None, 10, 0, ("no_events_retained", "empty_test_set")),
        ))
        buffer = io.StringIO(newline="")
        write_curve_csv(curve, buffer)
        assert buffer.getvalue().splitlines()[1:] == [
            '0,-0.0,5e-324,1.7976931348623157e+308,nan,10,4,"a,b|single_class"',
            "6,,,,,10,0,no_events_retained|empty_test_set",
        ]


def sequential_sweep(timelines, plan, lead_times, train_config, test_fraction, seed):
    """The sweep as it ran before its models were batched: each point is
    built, trained alone and evaluated before the next."""
    train, test = split_entities(timelines, test_fraction, seed)
    points = []
    for lead_time in sorted(set(lead_times)):
        frame = ReferenceFrameConfig(lead_time=lead_time)
        train_set = evaluation.build_training_set(train, frame, plan)
        test_set = evaluation.build_training_set(test, frame, plan)
        flags = tuple(
            flag
            for flag, raised in (
                ("no_events_retained", not train_set.report.events),
                ("no_nonevents_retained", not train_set.report.non_events),
                ("empty_test_set", not test_set.rows),
            )
            if raised
        )
        metrics = None
        if not flags:
            metrics = evaluation.evaluate(train_logistic(train_set, train_config), test_set)
        points.append(
            CurvePoint(lead_time, metrics, len(train_set.rows), len(test_set.rows), flags)
        )
    return TradeoffCurve(tuple(points))


def outcome(sweep, *args):
    try:
        return sweep(*args)
    except LeadframeError as exc:
        return type(exc), str(exc)


class TestSweepMatchesSequentialSweep:
    """Batching the training changes no point of the curve and no error,
    nor which of several errors is raised."""

    LEAD_TIMES = [0, 1, 2, 50]

    def test_every_point_equal(self, synth_timelines, recency_plan):
        args = (synth_timelines, recency_plan, self.LEAD_TIMES, TRAIN_CONFIG, 0.25, 3)
        curve = lead_time_sweep(*args)
        assert curve == sequential_sweep(*args)
        assert curve.points[-1].metrics is None
        assert all(point.metrics is not None for point in curve.points[:-1])

    @pytest.mark.parametrize("build_fault, train_fault, evaluate_fault", [
        faults for faults in itertools.product([None, 0, 1, 2], repeat=3)
        if sum(fault is not None for fault in faults) >= 2
    ])
    def test_first_error_in_lead_time_order(
        self, monkeypatch, synth_timelines, recency_plan, build_fault, train_fault, evaluate_fault
    ):
        train_ids = {t.entity_id for t in split_entities(synth_timelines, 0.25, 3)[0]}
        build, builds = evaluation.build_training_set, evaluation.build_training_sets
        score = evaluation.evaluate

        lead_of = {}

        def inject(timelines, frame, built):
            """The built set with this test's faults: an error in its place
            at the build fault's lead, a set that cannot be trained at the
            train fault's."""
            if frame.lead_time == build_fault:
                return NonFiniteValue(f"build fault at lead {build_fault}")
            if frame.lead_time == train_fault and {t.entity_id for t in timelines} == train_ids:
                # Two rows at the largest finite value overflow the column mean.
                values = built.values.copy()
                values[:2] = 1.7e308
                built = dataclasses.replace(built, values=values)
            lead_of[id(built)] = frame.lead_time
            return built

        def faulty_build(timelines, frame, plan):
            built = inject(timelines, frame, build(timelines, frame, plan))
            if isinstance(built, LeadframeError):
                raise built
            return built

        def faulty_builds(timelines, frames, plan):
            return tuple(
                inject(timelines, frame, built)
                for frame, built in zip(frames, builds(timelines, frames, plan))
            )

        def faulty_evaluate(model, test, threshold=0.5):
            if lead_of[id(test)] == evaluate_fault:
                raise NonFiniteValue(f"evaluate fault at lead {evaluate_fault}")
            return score(model, test, threshold)

        monkeypatch.setattr(evaluation, "build_training_set", faulty_build)
        monkeypatch.setattr(evaluation, "build_training_sets", faulty_builds)
        monkeypatch.setattr(evaluation, "evaluate", faulty_evaluate)
        config = TrainConfig(epochs=20, learning_rate=0.5)
        args = (synth_timelines, recency_plan, self.LEAD_TIMES, config, 0.25, 3)
        expected = outcome(sequential_sweep, *args)
        assert isinstance(expected, tuple)
        assert outcome(lead_time_sweep, *args) == expected
