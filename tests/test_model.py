import json
import math
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import training_set_of

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
    _sigmoid,
    loss_and_gradient,
    predict_proba,
    train_logistic,
    train_logistic_each,
)
from leadframe.panel import build_timelines, parse_panel_csv
from leadframe.transform import (
    AggregationPlan,
    FeatureSpec,
    FeatureVector,
    ReferenceFrameConfig,
    build_training_set,
)


def make_training_set(names, rows):
    plan = AggregationPlan(tuple(FeatureSpec.sum(n, n) for n in names))
    packed = tuple(
        (FeatureVector(f"e{i}", tuple(values)), label)
        for i, (values, label) in enumerate(rows)
    )
    return training_set_of(plan, packed)


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


def test_training_sigmoid_keeps_the_bits_of_the_gather_scatter_form():
    def reference(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    edges = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 745.0, -745.0,
             745.2, -745.2, 709.8, -709.8, 36.8, -36.8, 5e-324, -5e-324]
    z = np.concatenate([np.linspace(-800.0, 800.0, 160_001), edges,
                        np.random.default_rng(0).normal(0.0, 20.0, 40_000)])
    with np.errstate(over="ignore", invalid="ignore"):
        expected, actual = reference(z), _sigmoid(z)
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


def random_training_set(rng, n, m):
    """n >= 2 rows of m features at scales from 1e-3 to 1e3, with both labels."""
    scales = 10.0 ** rng.uniform(-3.0, 3.0, m)
    X = (rng.normal(size=(n, m)) + rng.normal(size=m)) * scales
    if m > 1 and rng.random() < 0.3:
        X[:, 0] = X[0, 0]  # a constant column
    labels = rng.integers(0, 2, n)
    labels[:2] = (0, 1)
    return make_training_set(
        [f"f{j}" for j in range(m)],
        [(tuple(row), label) for row, label in zip(X.tolist(), labels.tolist())],
    )


def model_bits(weights, intercept, means, stds):
    return [float(v).hex() for v in (*weights, intercept, *means, *stds)]


def fitted_bits(model):
    return model_bits(model.weights, model.intercept, model.means, model.stds)


class TestBatch:
    """A batch trains every set in one descent, and each member keeps the
    bits of the one-model loop in oracle.py."""

    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.integers(2, 400), min_size=1, max_size=6),
        widths=st.lists(st.integers(1, 6), min_size=1, max_size=2),
        seed=st.integers(0, 2**32 - 1),
        epochs=st.integers(0, 40),
        learning_rate=st.sampled_from([0.05, 0.5, 2.0]),
        l2_penalty=st.sampled_from([0.0, 0.001, 0.1]),
    )
    def test_members_equal_the_one_model_loop(
        self, sizes, widths, seed, epochs, learning_rate, l2_penalty
    ):
        rng = np.random.default_rng(seed)
        sets = [
            random_training_set(rng, n, widths[i % len(widths)]) for i, n in enumerate(sizes)
        ]
        config = TrainConfig(epochs=epochs, learning_rate=learning_rate, l2_penalty=l2_penalty)
        batch = train_logistic_each(sets, config)
        assert len(batch) == len(sets)
        for data, model in zip(sets, batch):
            assert fitted_bits(model) == model_bits(*oracle.train_logistic_loop(data, config))
            assert model.feature_names == data.feature_names
            assert model.train_config == config

    def test_fixture_equals_the_one_model_loop(self, fixture_training, run_config):
        model = train_logistic(fixture_training, run_config.train)
        expected = oracle.train_logistic_loop(fixture_training, run_config.train)
        assert fitted_bits(model) == model_bits(*expected)

    def test_empty_batch(self):
        assert train_logistic_each((), TrainConfig()) == ()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_one_diverging_member(self):
        # The first and last sets start at a zero gradient (balanced labels,
        # feature uncorrelated with them) and stay at zero; the middle one
        # overflows.
        still = make_training_set(["x"], [((-1.0,), 0), ((1.0,), 0), ((-1.0,), 1), ((1.0,), 1)])
        diverging = make_training_set(["x"], [((0.0,), 0), ((1.0,), 1), ((2.0,), 1)])
        config = TrainConfig(epochs=50, learning_rate=1e308, l2_penalty=10.0)
        with pytest.raises(InvalidConfig) as alone:
            train_logistic(diverging, config)
        assert "non-finite" in str(alone.value)

        first, error, last = train_logistic_each((still, diverging, still), config)
        assert first == last == train_logistic(still, config)
        assert first.weights == (0.0,) and first.intercept == 0.0
        assert type(error) is InvalidConfig and str(error) == str(alone.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_first_failing_member_raises(self):
        diverging = make_training_set(["x"], [((0.0,), 0), ((1.0,), 1), ((2.0,), 1)])
        one_class = make_training_set(["x"], [((0.0,), 1), ((1.0,), 1)])
        config = TrainConfig(epochs=50, learning_rate=1e308, l2_penalty=10.0)
        with pytest.raises(DegenerateLabels) as degenerate_alone:
            train_logistic(one_class, config)
        with pytest.raises(InvalidConfig, match="non-finite") as diverging_alone:
            train_logistic(diverging, config)
        degenerate, error = train_logistic_each((one_class, diverging), config)
        assert type(degenerate) is DegenerateLabels
        assert str(degenerate) == str(degenerate_alone.value)
        assert type(error) is InvalidConfig and "non-finite" in str(error)
        assert str(error) == str(diverging_alone.value)

    def test_members_of_other_widths(self):
        rng = np.random.default_rng(11)
        sets = [random_training_set(rng, n, m) for n, m in [(30, 3), (7, 1), (50, 3), (9, 1)]]
        config = TrainConfig(epochs=25, learning_rate=0.5, l2_penalty=0.001)
        alone = [train_logistic(data, config) for data in sets]
        assert train_logistic_each(sets, config) == tuple(alone)


def batch_equals_members():
    """Whether a batch of varied sets trains each member to the bits it gets alone."""
    rng = np.random.default_rng(20261018)
    sets = [random_training_set(rng, n, 10) for n in (105, 101, 99, 2, 333, 128, 129)]
    sets += [random_training_set(rng, n, 5) for n in (17, 250)]
    config = TrainConfig(epochs=100, learning_rate=0.5, l2_penalty=0.001)
    batch = train_logistic_each(sets, config)
    return all(
        fitted_bits(model) == fitted_bits(train_logistic(data, config))
        for data, model in zip(sets, batch)
    )


_CPU_SETTING_CHILD = """
import json, sys, warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import numpy
rejected = [str(w.message) for w in caught if issubclass(w.category, ImportWarning)]
if rejected:
    print(json.dumps({"rejected": rejected}))
    raise SystemExit
sys.path.insert(0, sys.argv[1])
import test_model
print(json.dumps({"equal": test_model.batch_equals_members()}))
"""


@pytest.mark.parametrize(
    "setting",
    [
        {"OPENBLAS_CORETYPE": "Haswell"},
        {"NPY_DISABLE_CPU_FEATURES": "X86_V4"},
        {"NPY_DISABLE_CPU_FEATURES": "X86_V4,X86_V3", "OPENBLAS_CORETYPE": "Prescott"},
    ],
)
def test_batch_equals_members_under_other_cpu_kernels(setting):
    """OpenBLAS and numpy pick their kernels per CPU; on each kernel a
    batch must still equal its members trained alone."""
    result = subprocess.run(
        [sys.executable, "-c", _CPU_SETTING_CHILD, str(Path(__file__).resolve().parent)],
        capture_output=True, text=True, env={**os.environ, **setting},
    )
    if result.returncode == -signal.SIGILL:
        pytest.skip(f"this CPU cannot run the kernels {setting} selects")
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout.splitlines()[-1])
    if "rejected" in outcome:
        pytest.skip(f"numpy rejects {setting} on this CPU: {outcome['rejected']}")
    assert outcome == {"equal": True}
