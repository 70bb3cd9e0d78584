import io
import statistics
import warnings

import pytest

from oracle import scalar_synth_rows

from leadframe.cli import main
from leadframe.errors import InvalidConfig
from leadframe.panel import build_dataset, build_timelines, parse_panel_csv, write_panel_csv
from leadframe.synth import FEATURE_COLUMNS, SynthConfig, default_schema, generate_panel
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
        assert generated == build_dataset(default_schema(), rows, "int")
        lines = [",".join(default_schema().columns)] + [
            ",".join([entity, label, *(str(int(features[c])) for c in FEATURE_COLUMNS), str(flag)])
            for entity, label, features, flag in rows
        ]
        buffer = io.StringIO()
        write_panel_csv(generated, buffer)
        assert buffer.getvalue() == "\n".join(lines) + "\n"


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
