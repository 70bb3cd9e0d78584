"""Acceptance suite: one test per release gate, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-gate lines.
"""

import csv
import json
import math
import random
import statistics
import time
from contextlib import contextmanager

import pytest

from conftest import CONFIG_JSON, PANEL_CSV, training_set_of
from corpus import PLAN_TUPLES, random_panel_rows, rows_to_csv_bytes
from oracle import brute_force_training_rows

from leadframe.cli import main as cli_main
from leadframe.evaluation import lead_time_sweep
from leadframe.model import (
    LogisticModel,
    TrainConfig,
    loss_and_gradient,
    predict_proba,
    train_logistic,
)
from leadframe.panel import build_timelines, parse_panel_csv
from leadframe.synth import SynthConfig, default_schema, generate_panel
from leadframe.transform import (
    AggregationPlan,
    FeatureSpec,
    FeatureVector,
    ReferenceFrameConfig,
    build_training_set,
    score_features,
    truncate_at_reference,
)


@contextmanager
def gate(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def run_cli(*argv):
    return cli_main([str(a) for a in argv])


# --- shared corpus ---------------------------------------------------------

from leadframe.panel import PanelSchema

CORPUS_SCHEMA = PanelSchema("entity", "period", "event", ("a", "b", "c"))
CORPUS_PLAN = AggregationPlan(
    (
        FeatureSpec.sum("sum_a", "a"),
        FeatureSpec.count_nonzero("nonzero_b", "b"),
        FeatureSpec.max("max_c", "c"),
        FeatureSpec.last("last_a", "a"),
        FeatureSpec.ratio_of_sums("ratio_ab", "a", "b"),
    )
)


def corpus(n_panels, seed):
    rng = random.Random(seed)
    for _ in range(n_panels):
        raw = random_panel_rows(rng)
        timelines = build_timelines(parse_panel_csv(rows_to_csv_bytes(raw), CORPUS_SCHEMA))
        yield raw, timelines


def rows_by_entity(training):
    return {vector.entity_id: (vector.values, label) for vector, label in training.rows}


# --- gates -----------------------------------------------------------------


def test_gate_1_golden_training_table_one_period_lead(tmp_path):
    with gate("1: one-period-lead training table matches the reference totals (< 1 s)"):
        out = tmp_path / "training.csv"
        started = time.perf_counter()
        code = run_cli(
            "transform", "--input", PANEL_CSV, "--config", CONFIG_JSON,
            "--lead-time", 1, "--output", out,
        )
        elapsed = time.perf_counter() - started
        assert code == 0
        with open(out, newline="") as handle:
            rows = {r["entity_id"]: r for r in csv.DictReader(handle)}
        assert set(rows) == {"Aasheesh", "Jitin", "Kumarjit", "Prabhu"}

        sums = ("calls_total", "complaints_total", "interruptions_total", "promotions_total")
        expected_sums = {
            "Aasheesh": (8.0, 5.0, 2.0, 4.0),
            "Jitin": (1.0, 3.0, 3.0, 1.0),  # promotions computed from the raw rows
            "Kumarjit": (10.0, 3.0, 4.0, 3.0),
            "Prabhu": (2.0, 1.0, 0.0, 0.0),
        }
        expected_ratio = {
            "Aasheesh": 6.0,
            "Jitin": 26.0 / 3.0,
            "Kumarjit": 5.5,
            "Prabhu": 0.0,
        }
        expected_label = {"Aasheesh": "0", "Jitin": "1", "Kumarjit": "1", "Prabhu": "0"}
        for entity, row in rows.items():
            assert tuple(float(row[c]) for c in sums) == expected_sums[entity], entity
            assert abs(float(row["avg_resolution_time"]) - expected_ratio[entity]) <= 0.05
            assert row["label"] == expected_label[entity]
        # the two exactly representable ratios must be exact
        assert float(rows["Kumarjit"]["avg_resolution_time"]) == 5.5
        assert float(rows["Aasheesh"]["avg_resolution_time"]) == 6.0
        assert elapsed < 1.0, f"transform took {elapsed:.3f}s"


def test_gate_2_full_history_feature_table(run_config, fixture_timelines):
    with gate("2: full-history feature table matches hand-derived totals"):
        expected = {
            "Aasheesh": (8.0, 5.0, 2.0, 6.0, 4.0),
            "Prabhu": (2.0, 1.0, 0.0, 0.0, 0.0),
            "Kumarjit": (10.0, 3.0, 4.0, 5.5, 3.0),
            "Jitin": (2.0, 4.0, 4.0, 8.25, 1.0),
        }
        for timeline in fixture_timelines:
            vector = score_features(timeline, run_config.plan)
            assert vector.values == expected[timeline.entity_id], timeline.entity_id


def test_gate_3_brute_force_equivalence():
    with gate("3: 200 random panels x lead 0..3 equal the brute-force oracle cell-for-cell"):
        checked = 0
        for raw, timelines in corpus(200, seed=1234):
            for lead_time in range(4):
                config = ReferenceFrameConfig(lead_time=lead_time)
                training = build_training_set(timelines, config, CORPUS_PLAN)
                expected, dropped = brute_force_training_rows(raw, lead_time, PLAN_TUPLES)
                assert rows_by_entity(training) == expected
                assert list(training.report.dropped) == dropped
                checked += 1
        assert checked == 800


def test_gate_4_transform_properties():
    with gate("4: window properties hold over the random corpus"):
        lead_grid = (0, 1, 2, 3, 5)
        for raw, timelines in corpus(120, seed=987):
            event_entities = set()
            first_flag = {}
            for timeline in timelines:
                flagged = [r.period.ordinal for r in timeline.records if r.event_flag == 1]
                if flagged:
                    event_entities.add(timeline.entity_id)
                    first_flag[timeline.entity_id] = min(flagged)

            by_lead = {
                t: rows_by_entity(
                    build_training_set(timelines, ReferenceFrameConfig(lead_time=t), CORPUS_PLAN)
                )
                for t in lead_grid
            }

            # non-event rows identical at every lead time
            for timeline in timelines:
                if timeline.entity_id in event_entities:
                    continue
                reference = by_lead[0][timeline.entity_id]
                assert all(by_lead[t][timeline.entity_id] == reference for t in lead_grid)

            # sum-like features non-increasing in lead time where the row survives
            for entity in event_entities:
                previous = None
                for t in lead_grid:
                    row = by_lead[t].get(entity)
                    if row is None:
                        continue
                    if previous is not None:
                        assert row[0][0] <= previous[0]  # sum_a
                        assert row[0][1] <= previous[1]  # nonzero_b
                    previous = row[0]

            for timeline in timelines:
                if timeline.entity_id not in event_entities:
                    continue
                # lead 0 keeps exactly the records up to and including the event
                window = truncate_at_reference(timeline, ReferenceFrameConfig(lead_time=0))
                cut = first_flag[timeline.entity_id]
                assert [r.period.ordinal for r in window.records] == [
                    r.period.ordinal for r in timeline.records if r.period.ordinal <= cut
                ]

            # post-event rows never counted: scrambling their feature values
            # (rows stay in place, so the global period sequence is intact)
            # must not change any output row at any lead time
            positions = {}
            for timeline in timelines:
                for record in timeline.records:
                    positions[(timeline.entity_id, record.period.label)] = record.period.ordinal
            mutated_raw = []
            for entity, label, features, flag in raw:
                cut = first_flag.get(entity)
                if cut is not None and positions[(entity, label)] > cut:
                    features = {column: 9.0 for column in features}
                mutated_raw.append((entity, label, features, flag))
            mutated_timelines = build_timelines(
                parse_panel_csv(rows_to_csv_bytes(mutated_raw), CORPUS_SCHEMA)
            )
            for t in lead_grid:
                mutated = rows_by_entity(
                    build_training_set(
                        mutated_timelines, ReferenceFrameConfig(lead_time=t), CORPUS_PLAN
                    )
                )
                assert mutated == by_lead[t]


def test_gate_5_numerics(run_config, fixture_timelines):
    with gate("5: gradients match finite differences; descent is monotone; zero model is 0.5"):
        # 50 random model/data instances, central differences at h = 1e-5
        rng = random.Random(20240515)
        for _ in range(50):
            n, m = rng.randint(2, 10), rng.randint(1, 5)
            names = tuple(f"f{j}" for j in range(m))
            plan = AggregationPlan(tuple(FeatureSpec.sum(n_, n_) for n_ in names))
            rows = tuple(
                (
                    FeatureVector(f"e{i}", tuple(rng.uniform(-2, 2) for _ in range(m))),
                    rng.randint(0, 1),
                )
                for i in range(n)
            )
            data = training_set_of(plan, rows)
            config = TrainConfig(
                epochs=1, learning_rate=0.1, l2_penalty=rng.choice([0.0, 0.05, 0.5])
            )
            model = LogisticModel(
                feature_names=names,
                weights=tuple(rng.uniform(-2, 2) for _ in range(m)),
                intercept=rng.uniform(-2, 2),
                means=tuple(rng.uniform(-1, 1) for _ in range(m)),
                stds=tuple(rng.uniform(0.5, 2.0) for _ in range(m)),
                train_config=config,
            )
            _assert_gradient_matches(model, data, h=1e-5, tol=1e-5)

        # full-batch loss non-increasing across the bundled training run
        training = build_training_set(
            fixture_timelines, run_config.reference_frame, run_config.plan
        )
        losses = []
        for epochs in range(0, run_config.train.epochs + 1, 4):
            partial = TrainConfig(
                epochs=epochs,
                learning_rate=run_config.train.learning_rate,
                l2_penalty=run_config.train.l2_penalty,
                seed=run_config.train.seed,
            )
            losses.append(loss_and_gradient(train_logistic(training, partial), training)[0])
        assert losses[0] == pytest.approx(math.log(2.0), abs=1e-12)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

        zero = train_logistic(training, TrainConfig(epochs=0, learning_rate=0.1))
        for vector, _ in training.rows:
            assert predict_proba(zero, vector) == 0.5


def _assert_gradient_matches(model, data, h, tol):
    _, analytic = loss_and_gradient(model, data)

    def loss_at(intercept, weights):
        shifted = LogisticModel(
            feature_names=model.feature_names,
            weights=tuple(weights),
            intercept=intercept,
            means=model.means,
            stds=model.stds,
            train_config=model.train_config,
        )
        return loss_and_gradient(shifted, data)[0]

    numeric = [
        (loss_at(model.intercept + h, model.weights) - loss_at(model.intercept - h, model.weights))
        / (2 * h)
    ]
    for j in range(len(model.weights)):
        up, down = list(model.weights), list(model.weights)
        up[j] += h
        down[j] -= h
        numeric.append((loss_at(model.intercept, up) - loss_at(model.intercept, down)) / (2 * h))
    for a, n in zip(analytic, numeric):
        assert abs(a - n) <= tol * max(1.0, abs(a), abs(n))


def test_gate_6_lead_time_accuracy_tradeoff():
    with gate(
        "6: mean AUC over 20 seeds drops by >= 0.05 from lead 1 to lead 6, "
        "and lead 6 sits within 0.1 of 0.5 (< 2 min)"
    ):
        started = time.perf_counter()
        plan = AggregationPlan(
            tuple(
                FeatureSpec.last(f"recent_{c}", c)
                for c in default_schema().feature_columns
            )
        )
        train_config = TrainConfig(epochs=300, learning_rate=0.5, l2_penalty=0.001, seed=0)
        auc_near, auc_far = [], []
        for seed in range(20):
            synth = SynthConfig(
                n_entities=500,
                n_periods=24,
                event_rate=0.3,
                ramp_length=3,
                signal_strength=3.0,
                noise_rate=0.5,
                seed=9000 + seed,
            )
            timelines = build_timelines(generate_panel(synth))
            curve = lead_time_sweep(
                timelines, plan, [1, 6], train_config, test_fraction=0.3, seed=seed
            )
            near, far = curve.points
            assert near.metrics is not None and far.metrics is not None
            auc_near.append(near.metrics.auc)
            auc_far.append(far.metrics.auc)
        elapsed = time.perf_counter() - started
        mean_near = statistics.mean(auc_near)
        mean_far = statistics.mean(auc_far)
        print(
            f"  mean AUC lead 1: {mean_near:.4f}, lead 6: {mean_far:.4f}, "
            f"runtime {elapsed:.1f}s"
        )
        assert mean_near - mean_far >= 0.05
        assert abs(mean_far - 0.5) <= 0.1
        assert elapsed < 120.0


def test_gate_7_byte_identical_reruns(tmp_path, capsys):
    with gate("7: every command re-run with identical inputs is byte-identical"):
        outputs = {}
        for run in ("one", "two"):
            base = tmp_path / run
            base.mkdir()
            panel = base / "panel.csv"
            assert run_cli(
                "synth", "--output", panel, "--entities", 60, "--periods", 12, "--seed", 21
            ) == 0
            assert run_cli(
                "transform", "--input", PANEL_CSV, "--config", CONFIG_JSON,
                "--output", base / "training.csv",
            ) == 0
            assert run_cli(
                "train", "--input", base / "training.csv", "--config", CONFIG_JSON,
                "--output", base / "model.json",
            ) == 0
            assert run_cli(
                "score", "--model", base / "model.json", "--input", PANEL_CSV,
                "--config", CONFIG_JSON, "--output", base / "scores.csv",
            ) == 0
            assert run_cli(
                "sweep", "--input", panel, "--config", CONFIG_JSON,
                "--lead-times", "0,1,2", "--seed", 3, "--output", base / "curve.csv",
            ) == 0
            assert run_cli("validate", "--input", PANEL_CSV, "--config", CONFIG_JSON) == 0
            outputs[run] = capsys.readouterr().out
        for name in (
            "panel.csv",
            "training.csv",
            "training.report.json",
            "model.json",
            "scores.csv",
            "curve.csv",
        ):
            first = (tmp_path / "one" / name).read_bytes()
            second = (tmp_path / "two" / name).read_bytes()
            assert first == second, name
        assert outputs["one"] == outputs["two"]
