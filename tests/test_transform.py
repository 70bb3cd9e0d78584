import dataclasses
import io
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import dataset_of, timelines_without_rows
from corpus import (
    FEATURES,
    PLAN_TUPLES,
    random_float_panel_rows,
    random_panel_rows,
    rows_to_csv_bytes,
)
from oracle import brute_force_full_history, brute_force_training_rows

from leadframe.errors import (
    DimensionMismatch,
    InvalidConfig,
    LeadframeError,
    NonFiniteValue,
    ParseError,
    UnknownColumn,
)
from leadframe import transform
from leadframe.evaluation import split_entities
from leadframe.panel import (
    PanelColumns,
    PanelDataset,
    PanelSchema,
    PeriodIndex,
    Timelines,
    build_timelines,
    parse_panel_csv,
)
from leadframe.synth import SynthConfig, default_schema, generate_panel
from leadframe.transform import (
    AggKind,
    AggregationPlan,
    EmptyWindowPolicy,
    FeatureSpec,
    ReferenceFrameConfig,
    TrainingSet,
    TransformReport,
    TruncatedTimeline,
    aggregate,
    build_training_set,
    build_training_sets,
    detect_event_time,
    read_training_csv,
    score_feature_matrix,
    score_features,
    truncate_at_reference,
    write_training_csv,
)

LEAD_1 = ReferenceFrameConfig(lead_time=1)
LEAD_0 = ReferenceFrameConfig(lead_time=0)


def rows_by_entity(training):
    return {vector.entity_id: (vector.values, label) for vector, label in training.rows}


def timelines_from_rows(raw_rows, corpus_schema):
    dataset = parse_panel_csv(rows_to_csv_bytes(raw_rows), corpus_schema)
    return build_timelines(dataset)


def assert_cut_keys_between_entities(block):
    """The row keys that cut windows strictly increase along the rows, and
    the clipped cut key of entity e, ``e * span - 1``, sorts after every key
    of the entities before e and before every key of e itself."""
    keys, _, span = block.period_keys
    codes = block.columns.codes
    assert (keys[1:] > keys[:-1]).all()
    assert (keys < (codes + 1) * span - 1).all()
    assert (keys > codes * span - 1).all()


class TestDetect:
    def test_event_entities(self, timeline_of):
        assert detect_event_time(timeline_of("Kumarjit")).label == "2016-10"
        assert detect_event_time(timeline_of("Jitin")).label == "2017-03"

    def test_non_event_entities(self, timeline_of):
        assert detect_event_time(timeline_of("Prabhu")) is None
        assert detect_event_time(timeline_of("Aasheesh")) is None

    def test_first_flag_wins(self, corpus_schema):
        raw = [
            ("x", "1", {"a": 1.0, "b": 0.0, "c": 0.0}, 0),
            ("x", "2", {"a": 1.0, "b": 0.0, "c": 0.0}, 1),
            ("x", "3", {"a": 1.0, "b": 0.0, "c": 0.0}, 1),
        ]
        (timeline,) = timelines_from_rows(raw, corpus_schema)
        assert detect_event_time(timeline).label == "2"


class TestTruncate:
    def test_event_entity_one_period_lead(self, timeline_of):
        window = truncate_at_reference(timeline_of("Kumarjit"), LEAD_1)
        assert window.label == 1
        assert len(window.records) == 9
        assert window.records[-1].period.label == "2016-09"

    def test_non_event_entity_keeps_everything(self, timeline_of):
        for lead_time in (0, 1, 5):
            window = truncate_at_reference(
                timeline_of("Aasheesh"), ReferenceFrameConfig(lead_time=lead_time)
            )
            assert window.label == 0
            assert len(window.records) == 24

    def test_zero_lead_keeps_event_period(self, timeline_of):
        window = truncate_at_reference(timeline_of("Kumarjit"), LEAD_0)
        assert window.label == 1
        assert len(window.records) == 10
        assert window.records[-1].period.label == "2016-10"

    @pytest.mark.parametrize("lead_time", [24, 25, 2**63, 2**70])
    def test_lead_time_beyond_history_empties_window(self, timeline_of, lead_time):
        window = truncate_at_reference(
            timeline_of("Kumarjit"), ReferenceFrameConfig(lead_time=lead_time)
        )
        assert window.label == 1
        assert len(window.records) == 0

    def test_records_after_event_always_excluded(self, corpus_schema):
        raw = [
            ("x", "1", {"a": 2.0, "b": 1.0, "c": 0.0}, 0),
            ("x", "2", {"a": 3.0, "b": 1.0, "c": 0.0}, 1),
            ("x", "3", {"a": 9.0, "b": 9.0, "c": 9.0}, 0),
        ]
        (timeline,) = timelines_from_rows(raw, corpus_schema)
        window = truncate_at_reference(timeline, LEAD_0)
        assert [r.period.label for r in window.records] == ["1", "2"]

    @pytest.mark.parametrize("rows", ["synth", "fixture", "shuffled", "late-subset"])
    def test_cut_keys_fall_between_entities(self, fixture_dataset, rows):
        if rows == "synth":
            dataset = generate_panel(SynthConfig(
                n_entities=300, n_periods=24, event_rate=0.3, ramp_length=3,
                signal_strength=3.0, noise_rate=0.5, seed=0,
            ))
        else:
            dataset = fixture_dataset
        columns = dataset.columns
        if rows == "shuffled":
            columns = columns.take(np.random.default_rng(0).permutation(len(columns)))
        elif rows == "late-subset":
            # Entities whose rows all lie before the subset keep no row.
            columns = columns.take(np.flatnonzero(columns.ordinals >= 10))
            assert columns.ordinals.min() == 10
        (block,) = {t.block for t in build_timelines(PanelDataset(dataset.schema, columns))}
        assert_cut_keys_between_entities(block)

    def test_window_can_empty(self, corpus_schema):
        raw = [("x", "1", {"a": 1.0, "b": 1.0, "c": 1.0}, 1)]
        (timeline,) = timelines_from_rows(raw, corpus_schema)
        window = truncate_at_reference(timeline, LEAD_1)
        assert window.label == 1
        assert window.records == ()

    def test_lead_counts_global_periods_not_records(self, corpus_schema):
        # x skips periods 2-3; the cut at lead 2 lands on period 2, which x
        # never observed, so only period 1 survives.
        raw = [
            ("x", "1", {"a": 1.0, "b": 0.0, "c": 0.0}, 0),
            ("x", "4", {"a": 5.0, "b": 0.0, "c": 0.0}, 1),
            ("y", "2", {"a": 0.0, "b": 0.0, "c": 0.0}, 0),
            ("y", "3", {"a": 0.0, "b": 0.0, "c": 0.0}, 0),
        ]
        timeline = timelines_from_rows(raw, corpus_schema)[0]
        window = truncate_at_reference(timeline, ReferenceFrameConfig(lead_time=2))
        assert [r.period.label for r in window.records] == ["1"]


class TestAggregate:
    def test_golden_event_rows_one_period_lead(self, timeline_of, plan):
        kumarjit = aggregate(truncate_at_reference(timeline_of("Kumarjit"), LEAD_1), plan)
        assert kumarjit.values == (10.0, 3.0, 4.0, 5.5, 3.0)
        jitin = aggregate(truncate_at_reference(timeline_of("Jitin"), LEAD_1), plan)
        assert jitin.values[:3] == (1.0, 3.0, 3.0)
        assert jitin.values[3] == pytest.approx(26.0 / 3.0, abs=1e-12)
        assert jitin.values[4] == 1.0

    def test_zero_denominator_ratio_is_zero(self, timeline_of, plan):
        prabhu = aggregate(truncate_at_reference(timeline_of("Prabhu"), LEAD_1), plan)
        assert prabhu.values == (2.0, 1.0, 0.0, 0.0, 0.0)

    def test_empty_window_gives_zeros(self, schema, plan):
        (ghost,) = timelines_without_rows(schema, ["ghost"])
        window = TruncatedTimeline(ghost, 0, label=1)
        assert window.entity_id == "ghost"
        assert aggregate(window, plan).values == (0.0,) * 5

    def test_each_kind(self, corpus_schema, corpus_plan):
        raw = [
            ("x", "1", {"a": 2.0, "b": 0.0, "c": 5.0}, 0),
            ("x", "2", {"a": 3.0, "b": 4.0, "c": 1.0}, 0),
            ("x", "3", {"a": 1.0, "b": 2.0, "c": 2.0}, 0),
        ]
        (timeline,) = timelines_from_rows(raw, corpus_schema)
        vector = score_features(timeline, corpus_plan)
        # sum_a, nonzero_b, max_c, last_a, ratio_ab
        assert vector.values == (6.0, 2.0, 5.0, 1.0, 1.0)

    def test_unknown_column(self, timeline_of):
        plan = AggregationPlan((FeatureSpec.sum("bad", "no_such_column"),))
        with pytest.raises(UnknownColumn, match="no_such_column"):
            score_features(timeline_of("Prabhu"), plan)


class TestBuildTrainingSet:
    def test_golden_table_one_period_lead(self, fixture_timelines, plan):
        training = build_training_set(fixture_timelines, LEAD_1, plan)
        rows = rows_by_entity(training)
        assert set(rows) == {"Aasheesh", "Jitin", "Kumarjit", "Prabhu"}
        assert rows["Aasheesh"] == ((8.0, 5.0, 2.0, 6.0, 4.0), 0)
        assert rows["Prabhu"] == ((2.0, 1.0, 0.0, 0.0, 0.0), 0)
        assert rows["Kumarjit"] == ((10.0, 3.0, 4.0, 5.5, 3.0), 1)
        values, label = rows["Jitin"]
        assert label == 1
        assert values[:3] == (1.0, 3.0, 3.0)
        assert values[3] == pytest.approx(26.0 / 3.0, abs=1e-12)
        assert values[4] == 1.0
        assert training.report.events == 2
        assert training.report.non_events == 2
        assert training.report.dropped == ()

    def test_golden_table_zero_lead(self, fixture_timelines, plan):
        training = build_training_set(fixture_timelines, LEAD_0, plan)
        rows = rows_by_entity(training)
        assert rows["Jitin"] == ((2.0, 4.0, 4.0, 8.25, 1.0), 1)
        assert rows["Kumarjit"] == ((10.0, 3.0, 4.0, 5.5, 3.0), 1)

    def test_empty_collection(self, plan):
        training = build_training_set((), LEAD_1, plan)
        assert training.rows == ()
        assert training.report.events == 0
        assert training.report.non_events == 0
        assert training.report.dropped == ()

    def test_drop_policy_records_entity(self, corpus_schema, corpus_plan):
        raw = [
            ("gone", "1", {"a": 1.0, "b": 1.0, "c": 1.0}, 1),
            ("kept", "1", {"a": 2.0, "b": 0.0, "c": 0.0}, 0),
        ]
        timelines = timelines_from_rows(raw, corpus_schema)
        training = build_training_set(timelines, LEAD_1, corpus_plan)
        assert [v.entity_id for v, _ in training.rows] == ["kept"]
        assert training.report.dropped == ("gone",)
        assert training.report.events == 0
        assert training.report.non_events == 1

    def test_zeros_policy_keeps_entity(self, corpus_schema, corpus_plan):
        raw = [
            ("gone", "1", {"a": 1.0, "b": 1.0, "c": 1.0}, 1),
            ("kept", "1", {"a": 2.0, "b": 0.0, "c": 0.0}, 0),
        ]
        timelines = timelines_from_rows(raw, corpus_schema)
        config = ReferenceFrameConfig(lead_time=1, empty_window_policy=EmptyWindowPolicy.EMIT_ZEROS)
        training = build_training_set(timelines, config, corpus_plan)
        rows = rows_by_entity(training)
        assert rows["gone"] == ((0.0,) * 5, 1)
        assert training.report.events == 1
        assert training.report.dropped == ()

    def test_output_sorted_by_entity(self, fixture_timelines, plan):
        shuffled = list(fixture_timelines)
        random.Random(5).shuffle(shuffled)
        training = build_training_set(shuffled, LEAD_1, plan)
        ids = [vector.entity_id for vector, _ in training.rows]
        assert ids == sorted(ids)

    def test_negative_lead_time_rejected(self):
        with pytest.raises(InvalidConfig):
            ReferenceFrameConfig(lead_time=-1)


class TestScoreFeatures:
    def test_golden_full_history(self, timeline_of, plan):
        assert score_features(timeline_of("Aasheesh"), plan).values == (8.0, 5.0, 2.0, 6.0, 4.0)
        assert score_features(timeline_of("Prabhu"), plan).values == (2.0, 1.0, 0.0, 0.0, 0.0)

    def test_hand_summed_event_rows(self, timeline_of, plan):
        assert score_features(timeline_of("Kumarjit"), plan).values == (10.0, 3.0, 4.0, 5.5, 3.0)
        assert score_features(timeline_of("Jitin"), plan).values == (2.0, 4.0, 4.0, 8.25, 1.0)

    def test_all_zero_record(self, corpus_schema, corpus_plan):
        raw = [("z", "1", {"a": 0.0, "b": 0.0, "c": 0.0}, 0)]
        (timeline,) = timelines_from_rows(raw, corpus_schema)
        assert score_features(timeline, corpus_plan).values == (0.0,) * 5


class TestScoreFeatureMatrix:
    """Scoring folds exactly the timelines asked for, in their order, from
    however many blocks they come."""

    @staticmethod
    def renamed(raw, prefix):
        return [(prefix + entity, *rest) for entity, *rest in raw]

    def test_shuffled_subsets_of_two_builds(self, corpus_schema, corpus_plan):
        rng = random.Random(35)
        for _ in range(30):
            raws = [
                self.renamed(random_float_panel_rows(rng), prefix) for prefix in ("p", "q")
            ]
            expected = {}
            for raw in raws:
                expected.update(brute_force_full_history(raw, PLAN_TUPLES))
            # Two build_timelines calls: two blocks, each with its own tables.
            timelines = [t for raw in raws for t in timelines_from_rows(raw, corpus_schema)]
            chosen = rng.sample(timelines, rng.randint(1, len(timelines)))
            matrix = score_feature_matrix(chosen, corpus_plan)
            assert matrix.shape == (len(chosen), len(PLAN_TUPLES))
            assert [tuple(row) for row in matrix.tolist()] == [
                expected[t.entity_id] for t in chosen
            ]


class TestTrainingSetShape:
    """A training set refuses a matrix that does not hold one column per
    plan feature and one row per id."""

    PLAN = AggregationPlan((FeatureSpec.sum("x", "a"), FeatureSpec.max("y", "a")))

    @pytest.mark.parametrize("shape", [(2, 1), (2, 3), (0, 3), (2,), (3, 2)])
    def test_wrong_shape_refused(self, shape):
        with pytest.raises(DimensionMismatch, match=r"2 ids and 2 features"):
            TrainingSet(
                self.PLAN, ("p", "q"), np.zeros(shape), np.array([0, 1]), TransformReport()
            )


class TestPlanShape:
    """A feature spec refuses a shape its kind cannot fold, and a plan one
    whose names clash or that holds no feature."""

    @pytest.mark.parametrize("make, message", [
        (lambda: FeatureSpec("", AggKind.SUM, "a"), "feature output_name must be non-empty"),
        (
            lambda: FeatureSpec("r", AggKind.RATIO_OF_SUMS, "a"),
            "feature 'r': ratio_of_sums needs a numerator and a denominator column",
        ),
        (
            lambda: FeatureSpec("s", AggKind.SUM, "a", "b"),
            "feature 's': sum takes exactly one source column",
        ),
        (
            lambda: AggregationPlan((FeatureSpec.sum("x", "a"), FeatureSpec.max("x", "b"))),
            "aggregation output names must be distinct",
        ),
        (lambda: AggregationPlan(()), "aggregation plan must hold at least one feature"),
    ], ids=["empty-name", "ratio-one-column", "sum-two-columns", "names-clash", "empty-plan"])
    def test_refused(self, make, message):
        with pytest.raises(InvalidConfig) as refused:
            make()
        assert str(refused.value) == message


class TestSerialization:
    def test_training_csv_layout_and_determinism(self, fixture_timelines, plan):
        training = build_training_set(fixture_timelines, LEAD_1, plan)
        first, second = io.StringIO(), io.StringIO()
        write_training_csv(training, first)
        write_training_csv(training, second)
        assert first.getvalue() == second.getvalue()
        header = first.getvalue().splitlines()[0]
        assert header == "entity_id," + ",".join(plan.output_names) + ",label"

    def test_training_csv_round_trip(self, fixture_timelines, plan):
        training = build_training_set(fixture_timelines, LEAD_1, plan)
        buffer = io.StringIO()
        write_training_csv(training, buffer)
        buffer.seek(0)
        reread = read_training_csv(buffer, plan)
        assert reread.rows == training.rows


READ_PLAN = AggregationPlan((FeatureSpec.sum("a", "a"), FeatureSpec.sum("b", "b")))
READ_HEADER = "entity_id,a,b,label\n"


def conversion_error(convert, text):
    """The message of the ValueError that ``convert(text)`` raises."""
    with pytest.raises(ValueError) as info:
        convert(text)
    return str(info.value)


def cells_fault(n):
    return ParseError, f"training CSV row has {n} cells, expected 4"


def conversion_fault(row, convert, cell):
    return ParseError, f"training CSV row {row!r}: {conversion_error(convert, cell)}"


def label_fault(cell):
    return ParseError, f"training CSV label must be 0 or 1, got {cell!r}"


def finite_fault(row):
    return ParseError, f"training CSV row {row!r}: feature values must be finite"


LONG_LABEL = "1" + "0" * 4400

# (name, file text, the error's type and message); each row a reader must refuse.
READ_FAULTS = [
    ("header-mismatch", "entity_id,a,label\nx,1,0\n", (
        DimensionMismatch,
        "training CSV header ['entity_id', 'a', 'label'] does not match plan "
        "columns ['entity_id', 'a', 'b', 'label']",
    )),
    ("no-header", "", (
        DimensionMismatch,
        "training CSV header None does not match plan columns ['entity_id', 'a', 'b', 'label']",
    )),
    ("too-few-cells", READ_HEADER + "x,1,0\n", cells_fault(3)),
    ("too-many-cells", READ_HEADER + "x,1,2,0,5\n", cells_fault(5)),
    ("unparseable-float", READ_HEADER + "x,1,abc,0\n",
     conversion_fault(["x", "1", "abc", "0"], float, "abc")),
    ("empty-float", READ_HEADER + "x,,2,0\n", conversion_fault(["x", "", "2", "0"], float, "")),
    ("non-integer-label", READ_HEADER + "x,1,2,0.5\n",
     conversion_fault(["x", "1", "2", "0.5"], int, "0.5")),
    ("label-2", READ_HEADER + "x,1,2,2\n", label_fault("2")),
    ("label-underscored-10", READ_HEADER + "x,1,2,1_0\n", label_fault("1_0")),
    ("label-beyond-int64", READ_HEADER + "x,1,2,99999999999999999999\n",
     label_fault("99999999999999999999")),
    ("label-beyond-digit-limit", READ_HEADER + f"x,1,2,{LONG_LABEL}\n",
     conversion_fault(["x", "1", "2", LONG_LABEL], int, LONG_LABEL)),
    ("inf", READ_HEADER + "x,inf,2,0\n", finite_fault(["x", "inf", "2", "0"])),
    ("minus-inf", READ_HEADER + "x,1,-inf,1\n", finite_fault(["x", "1", "-inf", "1"])),
    ("nan", READ_HEADER + "x,1,nan,0\n", finite_fault(["x", "1", "nan", "0"])),
    ("overflow-to-inf", READ_HEADER + "x,1e999,2,0\n", finite_fault(["x", "1e999", "2", "0"])),
    ("earlier-label-before-later-float", READ_HEADER + "x,1,2,2\ny,abc,2,0\n", label_fault("2")),
    ("earlier-nan-before-later-cells", READ_HEADER + "x,nan,2,0\ny,1\n",
     finite_fault(["x", "nan", "2", "0"])),
    ("earlier-cells-before-later-label", READ_HEADER + "x,1\ny,1,2,5\n", cells_fault(2)),
    ("later-row-after-good-rows", READ_HEADER + "x,1,2,0\ny,3,4,1\nz,5,inf,0\n",
     finite_fault(["z", "5", "inf", "0"])),
    ("label-before-non-finite-in-one-row", READ_HEADER + "x,nan,2,7\n", label_fault("7")),
    ("float-before-label-in-one-row", READ_HEADER + "x,abc,2,7\n",
     conversion_fault(["x", "abc", "2", "7"], float, "abc")),
]

# (name, file text, rows as (id, value reprs, label), events, non-events).
READ_ACCEPTED = [
    ("blank-lines-skipped", READ_HEADER + "\nx,1,2,0\n\n\ny,3,4,1\n\n",
     [("x", ["1.0", "2.0"], 0), ("y", ["3.0", "4.0"], 1)], 1, 1),
    ("whitespace-and-underscores", READ_HEADER + "x, 1 ,1_0, 1 \n",
     [("x", ["1.0", "10.0"], 1)], 1, 0),
    ("signs", READ_HEADER + "x,+1,-0.0,+1\ny,-2.5,+0,-0\n",
     [("x", ["1.0", "-0.0"], 1), ("y", ["-2.5", "0.0"], 0)], 1, 1),
    ("quoted-ids", READ_HEADER + '"a,b",1,2,0\n"q""r",5e-324,1e308,1\n',
     [("a,b", ["1.0", "2.0"], 0), ('q"r', ["5e-324", "1e+308"], 1)], 1, 1),
    ("header-whitespace", " entity_id , a,b ,label\nx,1,2,0\n", [("x", ["1.0", "2.0"], 0)], 0, 1),
    ("no-rows", READ_HEADER, [], 0, 0),
]


def read_outcome(text):
    """The rows and report counts a training CSV reads as, or the type and
    message of the error it raises."""
    try:
        training = read_training_csv(io.StringIO(text), READ_PLAN)
    except LeadframeError as exc:
        return type(exc), str(exc)
    rows = [(v.entity_id, [repr(x) for x in v.values], label) for v, label in training.rows]
    return rows, training.report.events, training.report.non_events


class TestReadTrainingCsv:
    """The reader's every fault, with its message, and what it accepts."""

    @pytest.mark.parametrize(
        "text, expected", [case[1:] for case in READ_FAULTS], ids=[case[0] for case in READ_FAULTS]
    )
    def test_fault(self, text, expected):
        assert read_outcome(text) == expected

    @pytest.mark.parametrize(
        "text, rows, events, non_events",
        [case[1:] for case in READ_ACCEPTED],
        ids=[case[0] for case in READ_ACCEPTED],
    )
    def test_accepted(self, text, rows, events, non_events):
        assert read_outcome(text) == (rows, events, non_events)


EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3, 1e16, 1e-7, 123456789.0,
]


@st.composite
def training_sets(draw):
    """A training set whose ids need quoting and whose columns repeat a few
    values, among them floats at the edges and -0.0 beside 0.0."""
    m = draw(st.integers(1, 4))
    names = draw(st.permutations(["f0", "a,b", 'q"r', "f\u00e9", "x\ry"]))[:m]
    plan = AggregationPlan(tuple(FeatureSpec.sum(name, "a") for name in names))
    pool = draw(st.lists(
        st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False),
        min_size=1, max_size=6,
    ))
    n = draw(st.integers(0, 25))
    values = draw(st.lists(st.sampled_from(pool), min_size=n * m, max_size=n * m))
    ids = draw(st.lists(
        st.text(st.sampled_from(list('ab ,"\r\n\u00e9\u20ac\U0001f600')) | st.characters(),
                max_size=6),
        min_size=n, max_size=n,
    ))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    matrix = np.array(values, dtype=np.float64).reshape(n, m)
    return TrainingSet(plan, tuple(ids), matrix, np.array(labels), TransformReport())


class TestWriterMatchesRowWriter:
    """The column writer gives the row writer's bytes, and its output reads
    back bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(training=training_sets())
    def test_bytes_and_round_trip(self, training):
        mine, theirs = io.StringIO(newline=""), io.StringIO(newline="")
        write_training_csv(training, mine)
        oracle.write_training_csv(training, theirs)
        assert mine.getvalue() == theirs.getvalue()

        mine.seek(0)
        reread = read_training_csv(mine, training.plan)
        assert reread.entity_ids == training.entity_ids
        assert reread.values.shape == training.values.shape
        assert np.array_equal(reread.values.view(np.uint64), training.values.view(np.uint64))
        assert reread.labels.tolist() == training.labels.tolist()

    @settings(max_examples=100, deadline=None)
    @given(training=training_sets())
    def test_bytes_in_blocks_of_a_few_rows(self, training):
        # 64 bytes of 8-byte cell references: blocks of 1 to 2 rows here.
        mine, theirs = io.StringIO(newline=""), io.StringIO(newline="")
        with mock.patch.object(transform, "_WRITE_BYTES", 64):
            write_training_csv(training, mine)
        oracle.write_training_csv(training, theirs)
        assert mine.getvalue() == theirs.getvalue()

    def test_write_holds_one_block_of_rows(self):
        # 200,000 rows of 5 features: joining every row before writing, as
        # the writer did, this write peaked at 74.1 MB traced; a block of
        # rows at a time, it peaks at 3.5 MB.
        n = 200_000
        rng = np.random.default_rng(0)
        values = np.column_stack([
            rng.integers(0, 500, n), rng.integers(0, 24, n), rng.random(n) * 100,
            rng.integers(0, 9, n), rng.random(n) * 7,
        ]).astype(np.float64)
        plan = AggregationPlan(tuple(FeatureSpec.sum(f"f{j}", "a") for j in range(5)))
        training = TrainingSet(plan, tuple(f"c{i:07d}" for i in range(n)), values,
                               rng.integers(0, 2, n), TransformReport())

        class Counted(io.TextIOBase):
            size = 0

            def write(self, text):
                self.size += len(text)
                return len(text)

        sink = Counted()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_training_csv(training, sink)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sink.size > 60 * n
        assert peak < 10e6, peak

    def test_negative_zero_keeps_its_sign(self):
        plan = AggregationPlan((FeatureSpec.sum("x", "a"),))
        training = TrainingSet(
            plan, ("p", "m", "p2"), np.array([[0.0], [-0.0], [0.0]]), np.array([0, 1, 0]),
            TransformReport(),
        )
        buffer = io.StringIO()
        write_training_csv(training, buffer)
        assert buffer.getvalue() == "entity_id,x,label\np,0.0,0\nm,-0.0,1\np2,0.0,0\n"


class TestProperties:
    """Window-algebra invariants over a seeded random corpus."""

    def corpus(self, corpus_schema, n=40, seed=20240229):
        rng = random.Random(seed)
        for _ in range(n):
            raw = random_panel_rows(rng)
            yield raw, timelines_from_rows(raw, corpus_schema)

    def test_matches_brute_force(self, corpus_schema, corpus_plan):
        for raw, timelines in self.corpus(corpus_schema):
            for lead_time in range(4):
                config = ReferenceFrameConfig(lead_time=lead_time)
                training = build_training_set(timelines, config, corpus_plan)
                expected, dropped = brute_force_training_rows(raw, lead_time, PLAN_TUPLES)
                assert rows_by_entity(training) == expected
                assert list(training.report.dropped) == dropped

    def test_score_matches_brute_force(self, corpus_schema, corpus_plan):
        for raw, timelines in self.corpus(corpus_schema, n=20):
            expected = brute_force_full_history(raw, PLAN_TUPLES)
            for timeline in timelines:
                assert score_features(timeline, corpus_plan).values == expected[timeline.entity_id]

    def test_lead_time_nesting(self, corpus_schema, corpus_plan):
        # Longer lead keeps a subset of records, so sums and counts shrink.
        for _, timelines in self.corpus(corpus_schema, n=20, seed=77):
            for timeline in timelines:
                previous_keys = None
                previous = None
                for lead_time in (0, 1, 2, 4):
                    window = truncate_at_reference(
                        timeline, ReferenceFrameConfig(lead_time=lead_time)
                    )
                    keys = {r.period.ordinal for r in window.records}
                    vector = aggregate(window, corpus_plan)
                    if previous is not None:
                        assert keys <= previous_keys
                        assert vector.values[0] <= previous.values[0]  # sum_a
                        assert vector.values[1] <= previous.values[1]  # nonzero_b
                    previous_keys, previous = keys, vector

    def test_non_event_rows_invariant_in_lead_time(self, corpus_schema, corpus_plan):
        for raw, timelines in self.corpus(corpus_schema, n=20, seed=99):
            non_events = {
                e for e in {r[0] for r in raw}
                if not any(r[3] == 1 for r in raw if r[0] == e)
            }
            baseline = None
            for lead_time in (0, 2, 5):
                training = build_training_set(
                    timelines, ReferenceFrameConfig(lead_time=lead_time), corpus_plan
                )
                rows = {
                    e: row for e, row in rows_by_entity(training).items() if e in non_events
                }
                if baseline is None:
                    baseline = rows
                else:
                    assert rows == baseline

    def test_sum_additive_over_window_partitions(self, timeline_of, fixture_dataset):
        plan = AggregationPlan((FeatureSpec.sum("total", "outbound_calls"),))
        timeline = timeline_of("Aasheesh")
        n = len(timeline.records)
        whole = aggregate(TruncatedTimeline(timeline, n, 0), plan).values[0]
        for cut in range(n + 1):
            left = aggregate(TruncatedTimeline(timeline, cut, 0), plan).values[0]
            # The rows after the cut, as the whole timeline of a dataset of their own.
            start = int(timeline.block.offsets[timeline.index]) + cut
            rows = np.arange(start, start + n - cut)
            suffix = PanelDataset(fixture_dataset.schema, timeline.block.columns.take(rows))
            (rest,) = [t for t in build_timelines(suffix) if t.entity_id == "Aasheesh"]
            right = aggregate(TruncatedTimeline(rest, n - cut, 0), plan).values[0]
            assert left + right == whole


# A second plan over other columns, as package specs and as oracle tuples.
OTHER_PLAN_TUPLES = (
    ("ratio_of_sums", "c", "a"),
    ("last", "b"),
    ("sum", "c"),
    ("max", "a"),
    ("count_nonzero", "c"),
)
OTHER_PLAN = AggregationPlan(
    (
        FeatureSpec.ratio_of_sums("ratio_ca", "c", "a"),
        FeatureSpec.last("last_b", "b"),
        FeatureSpec.sum("sum_c", "c"),
        FeatureSpec.max("max_a", "a"),
        FeatureSpec.count_nonzero("nonzero_c", "c"),
    )
)


class TestFloatCorpus:
    """The oracle gates over values in tenths, which most floats cannot hold
    exactly: any change to the order sums are added in (math.fsum, pairwise
    or blocked numpy sums) changes some cell, and these gates catch it."""

    def corpus(self, corpus_schema, n, seed):
        rng = random.Random(seed)
        for _ in range(n):
            raw = random_float_panel_rows(rng)
            yield raw, timelines_from_rows(raw, corpus_schema)

    def test_training_rows_match_brute_force(self, corpus_schema, corpus_plan):
        for raw, timelines in self.corpus(corpus_schema, n=40, seed=31):
            for lead_time in range(13):
                config = ReferenceFrameConfig(lead_time=lead_time)
                training = build_training_set(timelines, config, corpus_plan)
                expected, dropped = brute_force_training_rows(raw, lead_time, PLAN_TUPLES)
                assert rows_by_entity(training) == expected
                assert list(training.report.dropped) == dropped

    def test_score_matches_brute_force(self, corpus_schema, corpus_plan):
        for raw, timelines in self.corpus(corpus_schema, n=40, seed=32):
            expected = brute_force_full_history(raw, PLAN_TUPLES)
            for timeline in timelines:
                assert score_features(timeline, corpus_plan).values == expected[timeline.entity_id]

    def test_repeated_builds_on_one_timelines_tuple(self, corpus_schema, corpus_plan):
        # The sweep's access pattern: one tuple of timelines, many lead times,
        # here also two plans, so a cache keyed too coarsely shows as a wrong cell.
        plans = ((corpus_plan, PLAN_TUPLES), (OTHER_PLAN, OTHER_PLAN_TUPLES))
        for raw, timelines in self.corpus(corpus_schema, n=15, seed=33):
            for lead_time in (3, 0, 12, 1, 0, 5):
                for plan, tuples in plans:
                    training = build_training_set(
                        timelines, ReferenceFrameConfig(lead_time=lead_time), plan
                    )
                    expected, dropped = brute_force_training_rows(raw, lead_time, tuples)
                    assert rows_by_entity(training) == expected
                    assert list(training.report.dropped) == dropped
                for plan, tuples in plans:
                    expected = brute_force_full_history(raw, tuples)
                    for timeline in timelines:
                        assert score_features(timeline, plan).values == expected[timeline.entity_id]

    def test_negative_zero_cells(self, corpus_schema):
        data = b"entity,period,a,b,c,event\nx,1,-0,0,0,0\nx,2,-0.0,0,0,0\n"
        (timeline,) = build_timelines(parse_panel_csv(data, corpus_schema))
        plan = AggregationPlan(
            (
                FeatureSpec.sum("sum_a", "a"),
                FeatureSpec.last("last_a", "a"),
                FeatureSpec.count_nonzero("nonzero_a", "a"),
            )
        )
        total, last, nonzero = score_features(timeline, plan).values
        assert (total, math.copysign(1.0, total)) == (0.0, 1.0)
        assert (last, math.copysign(1.0, last)) == (0.0, -1.0)
        assert nonzero == 0.0


class TestOneFoldPath:
    """Timelines rebuilt from their own records fold exactly like the parsed
    ones, on the whole panel and on both sides of an entity split."""

    @staticmethod
    def exact(training):
        # repr keeps the sign of zero, which == would not.
        return (
            [(v.entity_id, [repr(x) for x in v.values], label) for v, label in training.rows],
            training.report,
        )

    @staticmethod
    def with_negative_zeros(raw):
        # rows_to_csv_bytes writes -0.0 as "0"; spell it out so the sign survives.
        lines = ["entity,period," + ",".join(FEATURES) + ",event"]
        for entity, label, features, flag in raw:
            cells = [repr(features[c]) for c in FEATURES]
            lines.append(",".join([entity, label, *cells, str(flag)]))
        return ("\n".join(lines) + "\n").encode("utf-8")

    @staticmethod
    def alone(timeline, schema):
        """The timeline rebuilt as the only entity of a dataset of its own rows."""
        offsets = timeline.block.offsets
        rows = np.arange(offsets[timeline.index], offsets[timeline.index + 1])
        columns = dataclasses.replace(
            timeline.block.columns.take(rows),
            entity_ids=(timeline.entity_id,),
            codes=np.zeros(len(rows), dtype=np.intp),
        )
        (rebuilt,) = build_timelines(PanelDataset(schema, columns))
        return rebuilt

    def test_rebuilt_timelines_fold_alike(self, corpus_schema, corpus_plan):
        rng = random.Random(2026)
        checked = 0
        for _ in range(25):
            raw = random_float_panel_rows(rng)
            for row in raw[::3]:
                row[2]["a"] = -0.0
            parsed = build_timelines(parse_panel_csv(self.with_negative_zeros(raw), corpus_schema))
            rebuilt = tuple(self.alone(t, corpus_schema) for t in parsed)
            subsets = [(parsed, rebuilt)]
            if len(parsed) >= 2:
                subsets += zip(
                    split_entities(parsed, 0.3, seed=5), split_entities(rebuilt, 0.3, seed=5)
                )
            for mine, theirs in subsets:
                assert [t.entity_id for t in mine] == [t.entity_id for t in theirs]
                for lead_time in range(13):
                    config = ReferenceFrameConfig(lead_time=lead_time)
                    assert self.exact(build_training_set(mine, config, corpus_plan)) == (
                        self.exact(build_training_set(theirs, config, corpus_plan))
                    )
                for a, b in zip(mine, theirs):
                    assert [repr(x) for x in score_features(a, corpus_plan).values] == [
                        repr(x) for x in score_features(b, corpus_plan).values
                    ]
                checked += 1
        assert checked > 25


class TestLongHistories:
    """Two histories of 20,000 periods beside 18 of 40: the two long ones
    fold in one band of their own, padded to nothing, and the short ones in
    another.  The cells match the oracle, and their bits, signs of zero
    included, match Python's builtins."""

    @staticmethod
    def builtin_folds(kept):
        a, b, c = ([row[2][name] for row in kept] for name in FEATURES)
        total_a, total_b = sum(a), sum(b)
        return (total_a, float(sum(x != 0.0 for x in b)), max(c), a[-1],
                total_a / total_b if total_b != 0.0 else 0.0)

    def test_long_tails_match_oracle_and_builtins(self, corpus_schema, corpus_plan):
        rng = random.Random(20000)
        histories = [("long0", 20_000, 19_990), ("long1", 20_000, None)]
        histories += [(f"short{i:02d}", 40, 30 if i % 3 == 0 else None) for i in range(18)]
        raw = []
        for entity, length, event_at in histories:
            for period in range(1, length + 1):
                features = {
                    name: float(rng.randint(0, 3)) or rng.choice((0.0, -0.0)) for name in FEATURES
                }
                if length > 40:  # a max over zeros alone keeps the first one's sign
                    features["c"] = -0.0 if period == 1 else rng.choice((0.0, -0.0))
                raw.append((entity, str(period), features, int(period == event_at)))
        data = TestOneFoldPath.with_negative_zeros(raw)
        timelines = build_timelines(parse_panel_csv(data, corpus_schema))
        events = {entity: event_at for entity, _, event_at in histories}
        for lead_time in (0, 1, 7):
            training = build_training_set(
                timelines, ReferenceFrameConfig(lead_time=lead_time), corpus_plan
            )
            expected, dropped = brute_force_training_rows(raw, lead_time, PLAN_TUPLES)
            assert rows_by_entity(training) == expected
            assert dropped == []
            for vector, label in training.rows:
                event_at = events[vector.entity_id]
                cut = 20_000 if event_at is None else event_at - lead_time
                kept = [r for r in raw if r[0] == vector.entity_id and int(r[1]) <= cut]
                assert [repr(x) for x in vector.values] == [
                    repr(x) for x in self.builtin_folds(kept)
                ]


class TestBandEdges:
    """Histories whose lengths sit at the cuts between the fold's bands, one
    long history beside many one-row ones, and entities with no rows, built
    from columns.  The cells match the oracle, and their bits, signs of zero
    included, match Python's builtins; an entity with no rows gets zeros."""

    # A band holds the histories longer than half its longest.
    CUTS = (1, 2, 3, 4, 5, 8, 9, 16, 17)

    @staticmethod
    def history(rng, entity, length, event_at):
        """Raw rows of periods 1..length, with zeros of either sign."""
        return [
            (entity, str(period),
             {name: float(rng.randint(0, 3)) or rng.choice((0.0, -0.0)) for name in FEATURES},
             int(period == event_at))
            for period in range(1, length + 1)
        ]

    @staticmethod
    def timelines(schema, raw, rowless):
        """Timelines of the raw rows, whose labels are the periods 1..n, and
        of the ``rowless`` entities, which have none."""
        dataset = dataset_of(schema, [
            (entity, label, int(label) - 1, tuple(features[c] for c in FEATURES), flag)
            for entity, label, features, flag in raw
        ])
        ids = sorted({*dataset.columns.entity_ids, *rowless})
        code = {entity: i for i, entity in enumerate(ids)}
        recode = np.array([code[entity] for entity in dataset.columns.entity_ids], dtype=np.intp)
        dataset.columns = dataclasses.replace(
            dataset.columns, entity_ids=tuple(ids), codes=recode[dataset.columns.codes]
        )
        return build_timelines(dataset)

    def check(self, schema, plan, raw, rowless, lead_times, expected_of):
        timelines = self.timelines(schema, raw, rowless)
        histories = {}
        for row in raw:
            histories.setdefault(row[0], []).append(row)
        for lead_time in lead_times:
            training = build_training_set(timelines, ReferenceFrameConfig(lead_time=lead_time), plan)
            rows = rows_by_entity(training)
            assert {entity: rows.pop(entity) for entity in rowless} == {
                entity: ((0.0,) * len(plan.specs), 0) for entity in rowless
            }
            expected, dropped = expected_of(raw, lead_time)
            assert rows == expected
            assert list(training.report.dropped) == dropped
            for vector, _ in training.rows:
                if vector.entity_id in rowless:
                    continue
                history = histories[vector.entity_id]
                event_at = next((int(r[1]) for r in history if r[3]), None)
                cut = math.inf if event_at is None else event_at - lead_time
                kept = [r for r in history if int(r[1]) <= cut]
                assert [repr(x) for x in vector.values] == [
                    repr(x) for x in TestLongHistories.builtin_folds(kept)
                ]

    def test_lengths_at_band_cuts(self, corpus_schema, corpus_plan):
        rng = random.Random(1717)
        rowless = ("a-none", "h08-none", "z-none")
        # Each cut length is the longest of some panel, so each starts a band.
        for top in range(len(self.CUTS)):
            raw = []
            for length in self.CUTS[: top + 1]:
                for i, event_at in enumerate((None, length, (length + 1) // 2)):
                    raw += self.history(rng, f"h{length:02d}-{i}", length, event_at)
            self.check(
                corpus_schema, corpus_plan, raw, rowless, (0, 1, 3),
                lambda raw, lead_time: brute_force_training_rows(raw, lead_time, PLAN_TUPLES),
            )

    def test_one_long_history_beside_one_row_ones(self, corpus_schema, corpus_plan):
        rng = random.Random(100_000)
        raw = self.history(rng, "long", 100_000, 99_990)
        for i in range(10_000):
            period = rng.randint(1, 100_000)
            raw += [(f"one{i:05d}", str(period), row[2], int(i % 7 == 0))
                    for row in self.history(rng, "", 1, None)]

        def expected_of(raw, lead_time):
            # The brute force is quadratic in entities x rows, so it runs on
            # each entity alone.  That is exact here: a one-row window does
            # not depend on the other periods, and the long history holds
            # every period.
            expected, dropped = {}, []
            by_entity = {}
            for row in raw:
                by_entity.setdefault(row[0], []).append(row)
            for rows in by_entity.values():
                alone, alone_dropped = brute_force_training_rows(rows, lead_time, PLAN_TUPLES)
                expected.update(alone)
                dropped += alone_dropped
            return expected, sorted(dropped)

        self.check(corpus_schema, corpus_plan, raw, ("empty",), (0, 1, 7), expected_of)

    @pytest.mark.parametrize(
        "column, folded",
        [((-1.0, -0.0, 0.0), "-0.0"), ((-0.0, -1.0, 0.0), "-0.0"),
         ((-1.0, 0.0, -0.0), "0.0"), ((-2.0, -1.0, -3.0), "-1.0")],
    )
    def test_max_of_negatives_and_zeros(self, corpus_schema, column, folded):
        # Each entity holds a prefix of the column: every running max.
        rows = [
            (f"p{k}", str(period), period - 1, (0.0, 0.0, value), 0)
            for k in range(1, len(column) + 1)
            for period, value in enumerate(column[:k], start=1)
        ]
        plan = AggregationPlan((FeatureSpec.max("max_c", "c"),))
        timelines = build_timelines(dataset_of(corpus_schema, rows))
        assert [repr(score_features(t, plan).values[0]) for t in timelines] == [
            repr(max(column[:k])) for k in range(1, len(column) + 1)
        ]
        assert repr(score_features(timelines[-1], plan).values[0]) == folded


def exact_outcome(outcome):
    """A build's outcome, bit for bit: the set's columns and report, or the
    type and message of its error."""
    if isinstance(outcome, LeadframeError):
        return type(outcome), str(outcome)
    return (
        outcome.entity_ids, outcome.values.shape, outcome.values.view(np.int64).tolist(),
        outcome.labels.tolist(), outcome.report,
    )


def build_outcome(timelines, config, plan):
    try:
        return build_training_set(timelines, config, plan)
    except LeadframeError as exc:
        return exc


FEATURE_SCHEMA = PanelSchema(
    entity_column="entity", period_column="period", event_column="event", feature_columns=FEATURES
)


@st.composite
def batch_cases(draw):
    """Timelines of one or two blocks built from columns, in shuffled
    order, and configs in any order, repeats included.

    Values hold zeros of both signs, negatives, and 1e308, which overflows
    a sum of two; some entities have no rows, and some lead times pass the
    12-period span.
    """
    values = st.sampled_from((0.0, -0.0, 1.0, -2.5, 0.1, -0.3, 7.0, 1e308))
    raw = {}
    for entity in range(draw(st.integers(1, 6))):
        periods = sorted(draw(st.sets(st.integers(1, 12), min_size=1, max_size=8)))
        raw[f"e{entity}"] = [
            (f"e{entity}", str(period), {name: draw(values) for name in FEATURES},
             draw(st.sampled_from((0, 0, 0, 1))))
            for period in periods
        ]
    rowless = draw(st.sets(st.sampled_from(("a-none", "f-none", "z-none"))))
    entities, rowless = sorted(raw), sorted(rowless)
    cut = draw(st.integers(0, len(entities)))
    timelines = ()
    for part, empty in ((entities[:cut], rowless[:1]), (entities[cut:], rowless[1:])):
        if part:
            rows = [row for entity in part for row in raw[entity]]
            timelines += tuple(TestBandEdges.timelines(FEATURE_SCHEMA, rows, empty))
        elif empty:
            timelines += timelines_without_rows(FEATURE_SCHEMA, empty)
    configs = draw(st.lists(
        st.builds(ReferenceFrameConfig, st.integers(0, 15) | st.just(2**70),
                  st.sampled_from(EmptyWindowPolicy)),
        min_size=1, max_size=6,
    ))
    return draw(st.permutations(timelines)), configs



class TestBuildTrainingSets:
    """Every member of a batch is the set that building under its config
    alone gives, bit for bit, or the error that raises."""

    @settings(max_examples=300, deadline=None)
    @given(case=batch_cases())
    def test_each_member_is_its_build_alone(self, corpus_plan, case):
        timelines, configs = case
        batch = build_training_sets(timelines, configs, corpus_plan)
        assert [exact_outcome(outcome) for outcome in batch] == [
            exact_outcome(build_outcome(timelines, config, corpus_plan)) for config in configs
        ]
        for block in {t.block for t in timelines if len(t.block.columns)}:
            assert_cut_keys_between_entities(block)

    @settings(max_examples=100, deadline=None)
    @given(case=batch_cases())
    def test_whole_block_folds_as_its_timelines(self, corpus_plan, case):
        # A block's view takes the whole-block route, with no timeline read;
        # a tuple of the same timelines is grouped and sorted one by one.
        timelines, configs = case

        def scored(timelines):
            try:
                return score_feature_matrix(timelines, corpus_plan).view(np.int64).tolist()
            except LeadframeError as exc:
                return type(exc), str(exc)

        for block in {id(t.block): t.block for t in timelines}.values():
            view = Timelines(block)
            assert [exact_outcome(o) for o in build_training_sets(view, configs, corpus_plan)] == [
                exact_outcome(o) for o in build_training_sets(tuple(view), configs, corpus_plan)
            ]
            assert scored(view) == scored(tuple(view))

    def test_overflow_only_in_the_longer_windows(self, corpus_schema, corpus_plan):
        # x's window holds 4 - lead rows of 1e308: a sum of two overflows.
        raw = [("x", str(p), {"a": 1e308, "b": 1.0, "c": 0.0}, int(p == 4)) for p in range(1, 5)]
        raw += [("y", str(p), {"a": 2.0, "b": 0.0, "c": -0.0}, 0) for p in range(1, 5)]
        timelines = timelines_from_rows(raw, corpus_schema)
        configs = [ReferenceFrameConfig(lead_time=t) for t in (3, 0, 2, 1, 3)]
        batch = build_training_sets(timelines, configs, corpus_plan)
        assert [isinstance(outcome, LeadframeError) for outcome in batch] == [
            False, True, True, True, False
        ]
        assert exact_outcome(batch[1]) == (
            NonFiniteValue, "entity 'x': feature 'sum_a' is inf; the input values overflow a float"
        )
        assert exact_outcome(batch[0]) == exact_outcome(batch[4])
        assert rows_by_entity(batch[0]) == {
            "x": ((1e308, 1.0, 0.0, 1e308, 1e308), 1), "y": ((8.0, 0.0, -0.0, 2.0, 0.0), 0)
        }

    def test_no_config(self, fixture_timelines, plan):
        assert build_training_sets(fixture_timelines, [], plan) == ()


def every_kind(suffix, a, b):
    """One spec of each aggregation kind over columns a and b."""
    return [
        FeatureSpec.sum(f"{a}_sum{suffix}", a),
        FeatureSpec.count_nonzero(f"{b}_nonzero{suffix}", b),
        FeatureSpec.max(f"{a}_max{suffix}", a),
        FeatureSpec.last(f"{b}_last{suffix}", b),
        FeatureSpec.ratio_of_sums(f"{a}_per_{b}{suffix}", a, b),
    ]


class TestSweepBuildMemory:
    """A sweep's builds hold little memory: the 12 lead times of the
    device-hourly benchmark, train and test sides, from fresh timelines of
    a seed-0 synth panel.  Each fold's tables live only for its call, and
    the block keeps no table, only its first events and search keys.
    Holding every table for the block's rows peaks at 11.2 MB on
    150 x 1,000 and 7.4 MB on 5,000 x 24."""

    LEAD_TIMES = (0, 1, 2, 3, 6, 12, 24, 48, 72, 96, 120, 168)
    FEATURES = default_schema().feature_columns

    @pytest.mark.parametrize("n_entities, n_periods, ramp_length, plan, limit_mb", [
        (150, 1000, 48, every_kind("_a", *FEATURES[:2]) + every_kind("_b", *FEATURES[2:4]), 5.0),
        (5000, 24, 3, every_kind("", "outbound_calls", "interruptions"), 7.4),
    ])
    def test_peak(self, n_entities, n_periods, ramp_length, plan, limit_mb):
        config = SynthConfig(n_entities=n_entities, n_periods=n_periods, event_rate=0.3,
                             ramp_length=ramp_length, signal_strength=3.0, noise_rate=0.5, seed=0)
        timelines = build_timelines(generate_panel(config))
        sides = split_entities(timelines, 0.3, seed=0)
        configs = [ReferenceFrameConfig(lead_time=t) for t in self.LEAD_TIMES]
        plan = AggregationPlan(tuple(plan))
        tracemalloc.start()
        try:
            built = [build_training_sets(side, configs, plan) for side in sides]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(isinstance(outcome, TrainingSet) for side in built for outcome in side)
        assert peak < limit_mb * 1e6
        assert set(vars(timelines[0].block)) == {
            "columns", "offsets", "first_event", "period_keys"
        }


def test_count_nonzero_fold_holds_no_more_than_a_sum():
    # A count_nonzero table is made in place in the gather of its column, as
    # a sum's is the gather itself: on the 5,000 x 24 panel the two folds
    # peak alike, where a fresh 0/1 table would add about 1 MB.
    config = SynthConfig(n_entities=5000, n_periods=24, event_rate=0.3, ramp_length=3,
                         signal_strength=3.0, noise_rate=0.5, seed=0)
    timelines = build_timelines(generate_panel(config))
    peaks = {}
    for kind in ("sum", "count_nonzero"):
        plan = AggregationPlan((getattr(FeatureSpec, kind)("x", "interruptions"),))
        tracemalloc.start()
        try:
            score_feature_matrix(timelines, plan)
            peaks[kind] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["count_nonzero"] <= peaks["sum"] + 64 * 1024


@pytest.mark.parametrize("kind", ["sum", "count_nonzero", "max"])
def test_fold_holds_one_band_table_at_a_time(kind):
    # Histories of 800, 400, 200 and 100 rows fall in four bands of 20,000
    # cells each.  A fold holds the row index of every band, 640 KB, but
    # the table of one band at a time, 160 KB; holding every band's table
    # at once peaks at twice the row index.
    lengths = np.repeat([800, 400, 200, 100], [25, 50, 100, 200])
    n = int(lengths.sum())
    codes = np.repeat(np.arange(len(lengths)), lengths)
    ordinals = np.arange(n) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    values = np.random.default_rng(3).integers(0, 9, (n, 1)).astype(float)
    columns = PanelColumns(
        entity_ids=tuple(f"e{i:03d}" for i in range(len(lengths))),
        codes=codes,
        periods={o: PeriodIndex(o, str(o)) for o in range(800)},
        ordinals=ordinals,
        features=("x",),
        values=values,
        flags=np.zeros(n, dtype=np.int8),
    )
    timelines = build_timelines(PanelDataset(PanelSchema("e", "p", "f", ("x",)), columns))
    plan = AggregationPlan((getattr(FeatureSpec, kind)("y", "x"),))
    tracemalloc.start()
    try:
        folded = score_feature_matrix(timelines, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fold = {"sum": sum, "count_nonzero": lambda xs: float(sum(x != 0 for x in xs)), "max": max}
    histories = np.split(values[:, 0], np.cumsum(lengths)[:-1])
    assert folded[:, 0].tolist() == [fold[kind](h.tolist()) for h in histories]
    assert peak < 1.75 * 8 * n
