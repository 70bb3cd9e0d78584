import io
import statistics
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parse_both_ways
from oracle import period_positions, scalar_synth_rows

from leadframe.cli import main
from leadframe.errors import InvalidConfig
from leadframe.panel import PeriodIndex, build_timelines, parse_panel_csv, write_panel_csv
from leadframe.synth import _CHUNK, FEATURE_COLUMNS, SynthConfig, default_schema, generate_panel
from leadframe.transform import (
    AggregationPlan,
    FeatureSpec,
    ReferenceFrameConfig,
    build_training_set,
)


def config(**overrides):
    base = dict(
        n_entities=120,
        n_periods=24,
        event_rate=0.3,
        ramp_length=3,
        signal_strength=3.0,
        noise_rate=0.5,
        seed=0,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestDeterminism:
    def test_same_config_same_dataset(self):
        assert generate_panel(config()) == generate_panel(config())

    def test_same_config_same_csv_bytes(self):
        first, second = io.StringIO(), io.StringIO()
        write_panel_csv(generate_panel(config()), first)
        write_panel_csv(generate_panel(config()), second)
        assert first.getvalue() == second.getvalue()

    def test_different_seed_different_dataset(self):
        assert generate_panel(config(seed=1)) != generate_panel(config(seed=2))


class TestStructure:
    def test_event_entities_end_at_their_event(self):
        timelines = build_timelines(generate_panel(config(seed=3)))
        saw_event_entity = False
        for timeline in timelines:
            flags = [r for r in timeline.records if r.event_flag == 1]
            if flags:
                saw_event_entity = True
                assert len(flags) == 1
                assert timeline.records[-1] is flags[0]
            else:
                assert len(timeline.records) == 24
        assert saw_event_entity

    def test_event_period_leaves_room_for_the_ramp(self):
        timelines = build_timelines(generate_panel(config(seed=4, n_entities=300)))
        for timeline in timelines:
            for record in timeline.records:
                if record.event_flag == 1:
                    assert int(record.period.label) >= 4  # ramp_length + 1

    def test_values_are_non_negative_integers(self):
        dataset = generate_panel(config(seed=5))
        for record in dataset.records:
            for value in record.features.values():
                assert value >= 0.0
                assert value == int(value)

    def test_schema_round_trip(self):
        dataset = generate_panel(config(seed=6))
        buffer = io.StringIO()
        write_panel_csv(dataset, buffer)
        reparsed = parse_panel_csv(buffer.getvalue().encode("utf-8"), default_schema())
        key = lambda r: (r.entity_id, r.period.ordinal)
        assert sorted(reparsed.records, key=key) == sorted(dataset.records, key=key)


class TestStatistics:
    def test_event_fraction_near_rate(self):
        for seed in (0, 1, 2):
            dataset = generate_panel(config(n_entities=500, seed=seed))
            timelines = build_timelines(dataset)
            fraction = sum(
                any(r.event_flag == 1 for r in t.records) for t in timelines
            ) / len(timelines)
            assert abs(fraction - 0.3) <= 0.06

    def test_event_entities_accumulate_more_complaints(self):
        # Mean total complaints one period before the event, against the
        # never-event baseline, averaged over 20 seeds.
        plan = AggregationPlan((FeatureSpec.sum("complaints_total", "complaints"),))
        frame = ReferenceFrameConfig(lead_time=1)
        event_means, quiet_means = [], []
        for seed in range(20):
            timelines = build_timelines(generate_panel(config(n_entities=200, seed=seed)))
            training = build_training_set(timelines, frame, plan)
            by_label = {0: [], 1: []}
            for vector, label in training.rows:
                by_label[label].append(vector.values[0])
            event_means.append(statistics.mean(by_label[1]))
            quiet_means.append(statistics.mean(by_label[0]))
        assert statistics.mean(event_means) > statistics.mean(quiet_means)

    def test_zero_signal_erases_the_ramp(self):
        # With signal_strength 0 the draws inside the nominal ramp follow the
        # baseline distribution; compare cell means over many entities.
        timelines = build_timelines(
            generate_panel(config(n_entities=500, signal_strength=0.0, seed=8))
        )
        in_ramp, outside = [], []
        for timeline in timelines:
            flags = [r for r in timeline.records if r.event_flag == 1]
            if not flags:
                continue
            event_ordinal = flags[0].period.ordinal
            for record in timeline.records:
                cells = [record.features[c] for c in FEATURE_COLUMNS]
                if event_ordinal - 3 <= record.period.ordinal <= event_ordinal - 1:
                    in_ramp.extend(cells)
                else:
                    outside.extend(cells)
        assert abs(statistics.mean(in_ramp) - statistics.mean(outside)) < 0.06


class TestConfigValidation:
    def test_ramp_must_fit(self):
        with pytest.raises(InvalidConfig):
            config(ramp_length=24)

    def test_event_rate_bounds(self):
        with pytest.raises(InvalidConfig):
            config(event_rate=0.0)
        with pytest.raises(InvalidConfig):
            config(event_rate=1.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(InvalidConfig):
            config(noise_rate=-0.1)


class TestLockstepMatchesScalar:
    """The lockstep generator draws the same stream as one scalar SplitMix64
    per entity (tests/oracle.py), on configs at the edges of each draw."""

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"noise_rate": 0.0},
            {"signal_strength": 0.0},
            {"noise_rate": 0.0, "signal_strength": 0.0},
            {"n_entities": 1},
            {"n_entities": 10},
            {"n_entities": 101},
            {"ramp_length": 23},
            {"event_rate": 0.01},
            {"event_rate": 0.99},
            {"n_entities": 7, "n_periods": 2, "ramp_length": 1, "noise_rate": 40.0},
        ],
        ids=lambda overrides: ",".join(f"{k}={v}" for k, v in overrides.items()) or "base",
    )
    def test_records_and_bytes(self, overrides, seed):
        cfg = config(**overrides, seed=seed)
        rows = scalar_synth_rows(cfg, FEATURE_COLUMNS)
        generated = generate_panel(cfg)
        positions = period_positions(rows)
        assert generated.schema == default_schema()
        assert generated.columns.entity_ids == tuple(sorted({row[0] for row in rows}))
        assert generated.columns.features == default_schema().feature_columns
        assert generated.columns.periods == {
            ordinal: PeriodIndex(ordinal, label) for label, ordinal in positions.items()
        }
        assert len(generated.records) == len(rows)
        for record, (entity, label, features, flag) in zip(generated.records, rows):
            assert record.entity_id == entity
            assert record.period == PeriodIndex(positions[label], label)
            assert record.features == features
            assert record.event_flag == flag
        lines = [",".join(default_schema().columns)] + [
            ",".join([entity, label, *(str(int(features[c])) for c in FEATURE_COLUMNS), str(flag)])
            for entity, label, features, flag in rows
        ]
        buffer = io.StringIO()
        write_panel_csv(generated, buffer)
        assert buffer.getvalue() == "\n".join(lines) + "\n"


def assert_draws_scalar_stream(cfg):
    """generate_panel gives the scalar generator's records and CSV bytes."""
    rows = scalar_synth_rows(cfg, FEATURE_COLUMNS)
    generated = generate_panel(cfg)
    positions = period_positions(rows)
    assert len(generated.records) == len(rows)
    for record, (entity, label, features, flag) in zip(generated.records, rows):
        assert (record.entity_id, record.period, record.features, record.event_flag) == (
            entity, PeriodIndex(positions[label], label), features, flag
        )
    lines = [",".join(default_schema().columns)] + [
        ",".join([entity, label, *(str(int(features[c])) for c in FEATURE_COLUMNS), str(flag)])
        for entity, label, features, flag in rows
    ]
    buffer = io.StringIO()
    write_panel_csv(generated, buffer)
    assert buffer.getvalue() == "\n".join(lines) + "\n"
    return rows


def poisson_steps(rows):
    """Uniforms each entity spends on its Poisson counts, when every cell is drawn."""
    steps = Counter()
    for entity, _, features, _ in rows:
        steps[entity] += sum(int(count) + 1 for count in features.values())
    return sorted(steps.values())


@st.composite
def synth_configs(draw):
    def mean(*fixed):
        value = draw(st.sampled_from([*fixed, None]))
        return draw(st.floats(0.0, 20.0)) if value is None else value

    n_periods = draw(st.integers(2, 80))
    return SynthConfig(
        n_entities=draw(st.integers(1, 40)),
        n_periods=n_periods,
        event_rate=draw(st.floats(0.01, 0.99)),
        ramp_length=draw(st.integers(1, n_periods - 1)),
        signal_strength=mean(0.0, 3.0),
        noise_rate=mean(0.0, 0.5, 40.0),
        # Eight drawn bytes spread over all 64 bits; drawn integers would
        # stay small.
        seed=draw(st.binary(min_size=8, max_size=8).map(lambda b: int.from_bytes(b, "big"))),
    )


class TestChunkedDrawMatchesScalar:
    """The draw advances every entity a chunk of steps at a time; each still
    consumes its own stream exactly, wherever its cells end in a chunk."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(synth_configs())
    def test_any_config(self, cfg):
        assert_draws_scalar_stream(cfg)

    def test_last_draws_end_chunks(self):
        cfg = config(n_entities=6, n_periods=10, seed=10)
        steps = poisson_steps(assert_draws_scalar_stream(cfg))
        # One entity that finishes before the last, and the last, both draw
        # their last uniform on the last step of a chunk.
        assert steps[-1] % _CHUNK == 0
        assert any(n % _CHUNK == 0 for n in steps[:-1])

    def test_one_entity_outlives_the_others_by_chunks(self):
        cfg = config(n_entities=8, n_periods=40, event_rate=0.9, seed=15)
        steps = poisson_steps(assert_draws_scalar_stream(cfg))
        assert steps[-1] - steps[-2] >= 4 * _CHUNK

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_few_entities_with_long_histories(self, seed):
        cfg = config(n_entities=3, n_periods=400, ramp_length=48, seed=seed)
        assert len(assert_draws_scalar_stream(cfg)) > 400


def test_synth_at_largest_seed_writes_nothing_to_stderr(tmp_path, capsys):
    # Scalar numpy uint64 arithmetic warns on overflow; array arithmetic wraps
    # silently, so any warning here means a stray scalar operation.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([
            "synth", "--output", str(tmp_path / "panel.csv"),
            "--entities", "300", "--seed", str(2**64 - 1),
        ])
    assert code == 0
    assert capsys.readouterr().err == ""


class TestWrittenPanelsTakeTheNumpyTokenizer:
    """Every panel `synth` writes is plain, so the parse reads it with the
    numpy tokenizer; a silent fall back to csv.reader would give the same
    columns, only slower, and no other test would fail."""

    @pytest.mark.parametrize(
        "args",
        [
            # churn-monthly and synth-panel at smoke size
            ["--entities", "120", "--periods", "24", "--ramp-length", "3"],
            # device-hourly at smoke size
            ["--entities", "24", "--periods", "240", "--ramp-length", "48"],
            ["--entities", "1", "--periods", "24"],
            # churn-monthly at full size: nine blocks
            ["--entities", "5000", "--periods", "24", "--ramp-length", "3"],
        ],
        ids=["120x24", "24x240", "1x24", "5000x24"],
    )
    def test_synth_panels(self, tmp_path, args):
        path = tmp_path / "panel.csv"
        assert main(["synth", "--output", str(path), "--seed", "3", *args]) == 0
        outcome, through_reader, tokenized = parse_both_ways(path.read_bytes(), default_schema())
        assert tokenized
        assert outcome == through_reader
