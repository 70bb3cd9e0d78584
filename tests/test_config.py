import json
import math

import pytest

from conftest import CONFIG_JSON

from leadframe.config import EvalSettings, run_config_from_json_dict
from leadframe.errors import InvalidConfig
from leadframe.model import TrainConfig
from leadframe.synth import SynthConfig
from leadframe.transform import EmptyWindowPolicy, ReferenceFrameConfig

SYNTH = dict(
    n_entities=10,
    n_periods=6,
    event_rate=0.3,
    ramp_length=2,
    signal_strength=3.0,
    noise_rate=0.5,
    seed=0,
)


def fixture_doc() -> dict:
    return json.loads(CONFIG_JSON.read_text())


def synth(**overrides):
    return SynthConfig(**{**SYNTH, **overrides})


BOOL_AS_INT = [
    (ReferenceFrameConfig, "lead_time"),
    (TrainConfig, "epochs"),
    (TrainConfig, "seed"),
    (EvalSettings, "seed"),
    (synth, "n_entities"),
    (synth, "seed"),
]

NON_FINITE_REAL = [
    (TrainConfig, "learning_rate"),
    (TrainConfig, "l2_penalty"),
    (synth, "noise_rate"),
    (synth, "signal_strength"),
    (EvalSettings, "threshold"),
    (EvalSettings, "test_fraction"),
]


@pytest.mark.parametrize("make, name", BOOL_AS_INT)
def test_bool_is_not_an_integer(make, name):
    with pytest.raises(InvalidConfig):
        make(**{name: True})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make, name", NON_FINITE_REAL)
def test_non_finite_real_rejected(make, name, value):
    with pytest.raises(InvalidConfig):
        make(**{name: value})


def test_omitted_sections_take_dataclass_defaults():
    doc = {key: value for key, value in fixture_doc().items() if key in ("schema", "plan")}
    cfg = run_config_from_json_dict(doc)
    assert cfg.reference_frame == ReferenceFrameConfig()
    assert cfg.train == TrainConfig() == TrainConfig(epochs=500, learning_rate=0.1)
    assert cfg.eval_settings == EvalSettings()


def test_partial_section_keeps_other_defaults_and_ignores_unknown_keys():
    doc = fixture_doc()
    doc["train"] = {"epochs": 7, "not_a_field": 1}
    doc["reference_frame"] = {"empty_window_policy": "zeros"}
    cfg = run_config_from_json_dict(doc)
    assert cfg.train == TrainConfig(epochs=7)
    assert cfg.reference_frame == ReferenceFrameConfig(
        lead_time=1, empty_window_policy=EmptyWindowPolicy.EMIT_ZEROS
    )


@pytest.mark.parametrize("section", ["reference_frame", "train", "eval"])
def test_section_must_be_an_object(section):
    doc = fixture_doc()
    doc[section] = [1, 2]
    with pytest.raises(InvalidConfig, match=section):
        run_config_from_json_dict(doc)


def test_unknown_policy_rejected():
    with pytest.raises(InvalidConfig, match="'drop' or 'zeros'"):
        ReferenceFrameConfig(empty_window_policy="sometimes")


def test_to_json_dict_round_trips(run_config):
    assert run_config_from_json_dict(run_config.to_json_dict()) == run_config
