import math
import random

import pytest

from leadframe.errors import (
    DegenerateLabels,
    DimensionMismatch,
    InvalidConfig,
    NonFiniteValue,
    ParseError,
)
from leadframe.model import (
    LogisticModel,
    TrainConfig,
    loss_and_gradient,
    predict_proba,
    train_logistic,
)
from leadframe.panel import build_timelines, parse_panel_csv
from leadframe.transform import (
    AggregationPlan,
    FeatureSpec,
    FeatureVector,
    ReferenceFrameConfig,
    TrainingSet,
    TransformReport,
    build_training_set,
)


def make_training_set(names, rows):
    plan = AggregationPlan(tuple(FeatureSpec.sum(n, n) for n in names))
    packed = tuple(
        (FeatureVector(f"e{i}", tuple(values)), label)
        for i, (values, label) in enumerate(rows)
    )
    return TrainingSet(plan=plan, rows=packed, report=TransformReport())


def make_model(names, weights, intercept, means=None, stds=None, config=None):
    m = len(names)
    return LogisticModel(
        feature_names=tuple(names),
        weights=tuple(weights),
        intercept=intercept,
        means=tuple(means if means is not None else [0.0] * m),
        stds=tuple(stds if stds is not None else [1.0] * m),
        train_config=config,
    )


@pytest.fixture()
def fixture_training(run_config):
    from conftest import PANEL_CSV

    timelines = build_timelines(parse_panel_csv(PANEL_CSV.read_bytes(), run_config.schema))
    return build_training_set(timelines, run_config.reference_frame, run_config.plan)


class TestTrain:
    def test_separable_one_dimensional(self):
        data = make_training_set(["x"], [((0.0,), 0), ((1.0,), 1)])
        model = train_logistic(data, TrainConfig(epochs=500, learning_rate=0.5))
        assert predict_proba(model, (0.0,)) < 0.1
        assert predict_proba(model, (1.0,)) > 0.9

    def test_zero_epochs_keeps_zero_parameters(self):
        data = make_training_set(["x", "y"], [((2.0, 3.0), 0), ((4.0, 7.0), 1)])
        model = train_logistic(data, TrainConfig(epochs=0, learning_rate=0.5))
        assert model.weights == (0.0, 0.0)
        assert model.intercept == 0.0
        assert model.means == (3.0, 5.0)
        assert model.stds == (1.0, 2.0)

    def test_single_class_rejected(self):
        data = make_training_set(["x"], [((0.0,), 1), ((1.0,), 1)])
        with pytest.raises(DegenerateLabels):
            train_logistic(data, TrainConfig(epochs=5, learning_rate=0.1))

    def test_constant_feature_scales_to_zero(self):
        data = make_training_set(["x", "const"], [((0.0, 5.0), 0), ((1.0, 5.0), 1)])
        model = train_logistic(data, TrainConfig(epochs=200, learning_rate=0.5))
        assert model.stds[1] == 1.0
        assert math.isfinite(predict_proba(model, (0.5, 5.0)))

    def test_deterministic(self, fixture_training, run_config):
        first = train_logistic(fixture_training, run_config.train)
        second = train_logistic(fixture_training, run_config.train)
        assert first == second

    def test_bad_config_values(self):
        with pytest.raises(InvalidConfig):
            TrainConfig(epochs=-1, learning_rate=0.1)
        with pytest.raises(InvalidConfig):
            TrainConfig(epochs=1, learning_rate=0.0)
        with pytest.raises(InvalidConfig):
            TrainConfig(epochs=1, learning_rate=0.1, l2_penalty=-0.5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_training_refuses_non_finite_weights(self):
        data = make_training_set(["x"], [((0.0,), 0), ((1.0,), 1), ((2.0,), 1)])
        with pytest.raises(InvalidConfig, match="non-finite"):
            train_logistic(data, TrainConfig(epochs=50, learning_rate=1e300, l2_penalty=10.0))


class TestPredict:
    def test_zero_model_is_exactly_half(self):
        model = make_model(["x"], [0.0], 0.0)
        assert predict_proba(model, (123.0,)) == 0.5

    def test_zero_scaled_feature_is_half(self):
        model = make_model(["x"], [1.0], 0.0, means=[4.0], stds=[2.0])
        assert predict_proba(model, (4.0,)) == 0.5

    def test_log_three_intercept(self):
        model = make_model(["x"], [0.0], math.log(3.0))
        assert predict_proba(model, (0.0,)) == pytest.approx(0.75, abs=1e-12)

    def test_open_interval_for_extreme_inputs(self):
        model = make_model(["x"], [1000.0], 0.0)
        high = predict_proba(model, (1e6,))
        low = predict_proba(model, (-1e6,))
        assert 0.0 < low < high < 1.0

    def test_dimension_mismatch(self):
        model = make_model(["x", "y"], [1.0, 1.0], 0.0)
        with pytest.raises(DimensionMismatch):
            predict_proba(model, (1.0,))

    def test_opposite_infinite_terms_are_refused(self):
        # Each scaled term overflows, one to +inf and one to -inf: z is nan.
        model = make_model(["x", "y"], [1.0, -1.0], 0.0, stds=[1e-300, 1e-300])
        with pytest.raises(NonFiniteValue, match="nan"):
            predict_proba(model, (1e308, 1e308))


class TestLossAndGradient:
    def test_zero_model_balanced_loss_is_log_two(self):
        data = make_training_set(["x"], [((0.0,), 0), ((1.0,), 1)])
        model = make_model(["x"], [0.0], 0.0, means=[0.5], stds=[0.5])
        loss, _ = loss_and_gradient(model, data)
        assert loss == pytest.approx(math.log(2.0), abs=1e-15)

    def test_intercept_gradient_single_positive_row(self):
        # One row scales to zero, so the zero model predicts 0.5 and the
        # intercept gradient is the residual 0.5 - 1.
        data = make_training_set(["x"], [((3.0,), 1)])
        model = make_model(["x"], [0.0], 0.0, means=[3.0], stds=[1.0])
        _, gradient = loss_and_gradient(model, data)
        assert gradient[0] == pytest.approx(-0.5, abs=1e-15)

    def test_matches_central_finite_differences(self):
        rng = random.Random(424242)
        for _ in range(10):
            n, m = rng.randint(2, 8), rng.randint(1, 4)
            names = [f"f{j}" for j in range(m)]
            rows = [
                (
                    tuple(rng.uniform(-2.0, 2.0) for _ in range(m)),
                    rng.randint(0, 1),
                )
                for _ in range(n)
            ]
            data = make_training_set(names, rows)
            config = TrainConfig(epochs=1, learning_rate=0.1, l2_penalty=rng.choice([0.0, 0.1]))
            model = make_model(
                names,
                [rng.uniform(-2.0, 2.0) for _ in range(m)],
                rng.uniform(-2.0, 2.0),
                config=config,
            )
            assert_gradient_matches(model, data)

    def test_feature_name_mismatch(self):
        data = make_training_set(["x"], [((0.0,), 0), ((1.0,), 1)])
        model = make_model(["other"], [0.0], 0.0)
        with pytest.raises(DimensionMismatch):
            loss_and_gradient(model, data)


def assert_gradient_matches(model, data, h=1e-5, tol=1e-5):
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
        up = list(model.weights)
        down = list(model.weights)
        up[j] += h
        down[j] -= h
        numeric.append((loss_at(model.intercept, up) - loss_at(model.intercept, down)) / (2 * h))

    for a, n in zip(analytic, numeric):
        assert abs(a - n) <= tol * max(1.0, abs(a), abs(n))


class TestDescent:
    def test_fixture_loss_never_increases(self, fixture_training, run_config):
        config = run_config.train
        losses = []
        for epochs in range(0, config.epochs + 1, 8):
            partial = TrainConfig(
                epochs=epochs,
                learning_rate=config.learning_rate,
                l2_penalty=config.l2_penalty,
                seed=config.seed,
            )
            model = train_logistic(fixture_training, partial)
            losses.append(loss_and_gradient(model, fixture_training)[0])
        assert losses[0] == pytest.approx(math.log(2.0), abs=1e-12)
        assert all(later <= earlier + 1e-12 for earlier, later in zip(losses, losses[1:]))


class TestScalingEquivariance:
    def train_and_score(self, column_scale, probe_scale):
        rng = random.Random(9)
        rows = [
            (
                (rng.uniform(0.0, 5.0) * column_scale, rng.uniform(0.0, 5.0)),
                rng.randint(0, 1),
            )
            for _ in range(12)
        ]
        labels = [label for _, label in rows]
        if len(set(labels)) == 1:  # keep the fixture trainable
            rows[0] = (rows[0][0], 1 - labels[0])
        data = make_training_set(["scaled", "plain"], rows)
        model = train_logistic(data, TrainConfig(epochs=150, learning_rate=0.3))
        probes = [(1.0 * probe_scale, 2.0), (4.0 * probe_scale, 0.5)]
        return [predict_proba(model, p) for p in probes]

    def test_power_of_two_scale_is_exact(self):
        assert self.train_and_score(1.0, 1.0) == self.train_and_score(4.0, 4.0)

    def test_general_scale_is_close(self):
        baseline = self.train_and_score(1.0, 1.0)
        scaled = self.train_and_score(3.0, 3.0)
        for a, b in zip(baseline, scaled):
            assert a == pytest.approx(b, rel=1e-9)


class TestPersistence:
    def test_round_trip_predictions_identical(self, tmp_path, fixture_training, run_config):
        model = train_logistic(fixture_training, run_config.train)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = LogisticModel.load(path)
        assert loaded == model
        for vector, _ in fixture_training.rows:
            assert predict_proba(loaded, vector) == predict_proba(model, vector)

    def test_save_is_deterministic(self, tmp_path, fixture_training, run_config):
        model = train_logistic(fixture_training, run_config.train)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        model.save(a)
        model.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_invariant_checked_on_load(self):
        with pytest.raises(DimensionMismatch):
            make_model(["x", "y"], [1.0], 0.0)


class TestLoadRejectsWrongTypes:
    """A string where a list belongs, a list of the wrong items, or an intercept
    that is not a number, is a ParseError."""

    @pytest.mark.parametrize(
        "path, value",
        [
            (("weights",), "123"),
            (("weights",), ["1", "2", "3"]),
            (("weights",), [True, 2.0, 3.0]),
            (("feature_names",), "abc"),
            (("feature_names",), [1, 2, 3]),
            (("scaling", "means"), "000"),
            (("scaling", "stds"), "111"),
            (("intercept",), "1.5"),
            (("intercept",), True),
        ],
    )
    def test_wrong_type_is_parse_error(self, path, value):
        doc = make_model(["a", "b", "c"], [1.0, 2.0, 3.0], 0.5).to_json_dict()
        *parents, key = path
        section = doc
        for name in parents:
            section = section[name]
        section[key] = value
        with pytest.raises(ParseError, match=key):
            LogisticModel.from_json_dict(doc)
