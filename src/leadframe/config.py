"""Run configuration: one JSON document driving every command.

Sections: ``schema`` (column roles), ``plan`` (aggregation features),
``reference_frame`` (lead time + empty-window policy), ``train`` (optimizer
settings), ``eval`` (split fraction, threshold, sweep lead times, seed).
``schema`` and ``plan`` are required; the rest fall back to the defaults of
their dataclasses.  Command-line flags override individual fields after
loading and are checked by the same dataclass as the field they replace.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Union

from .errors import InvalidConfig, check_int, check_real, load_json
from .evaluation import check_lead_times, check_test_fraction
from .model import TrainConfig
from .panel import PanelSchema
from .transform import AggKind, AggregationPlan, FeatureSpec, ReferenceFrameConfig


@dataclass(frozen=True)
class EvalSettings:
    test_fraction: float = 0.25
    threshold: float = 0.5
    lead_times: tuple[int, ...] = (0, 1, 2, 3)
    seed: int = 0

    def __post_init__(self) -> None:
        check_test_fraction(self.test_fraction, "eval.test_fraction")
        check_real(self.threshold, "eval.threshold must lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)
        object.__setattr__(self, "lead_times", check_lead_times(self.lead_times, "eval.lead_times"))
        check_int(self.seed, "eval.seed must fit in an unsigned 64-bit integer", high=2**64)


@dataclass(frozen=True)
class RunConfig:
    schema: PanelSchema
    plan: AggregationPlan
    reference_frame: ReferenceFrameConfig = field(default_factory=ReferenceFrameConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval_settings: EvalSettings = field(default_factory=EvalSettings)

    def __post_init__(self) -> None:
        unknown = self.plan.referenced_columns() - set(self.schema.feature_columns)
        if unknown:
            raise InvalidConfig(
                "plan references columns missing from the schema: "
                + ", ".join(sorted(unknown))
            )

    def to_json_dict(self) -> dict:
        return {
            "schema": {
                "entity_column": self.schema.entity_column,
                "period_column": self.schema.period_column,
                "event_column": self.schema.event_column,
                "feature_columns": list(self.schema.feature_columns),
            },
            "plan": [_spec_to_json(s) for s in self.plan.specs],
            "reference_frame": {
                "lead_time": self.reference_frame.lead_time,
                "empty_window_policy": self.reference_frame.empty_window_policy.value,
            },
            "train": self.train.to_json_dict(),
            "eval": asdict(self.eval_settings),
        }


def _spec_to_json(spec: FeatureSpec) -> dict:
    if spec.kind is AggKind.RATIO_OF_SUMS:
        return {
            "name": spec.output_name,
            "kind": spec.kind.value,
            "numerator": spec.column,
            "denominator": spec.denominator,
        }
    return {"name": spec.output_name, "kind": spec.kind.value, "column": spec.column}


def _require(section: dict, key: str, where: str):
    if not isinstance(section, dict):
        raise InvalidConfig(f"{where} must be an object")
    if key not in section:
        raise InvalidConfig(f"{where} is missing required key {key!r}")
    return section[key]


def _require_str(section: dict, key: str, where: str) -> str:
    value = _require(section, key, where)
    if not isinstance(value, str):
        raise InvalidConfig(f"{where}.{key} must be a string, got {value!r}")
    return value


def _spec_from_json(obj: dict, position: int) -> FeatureSpec:
    where = f"plan[{position}]"
    name = _require_str(obj, "name", where)
    kind_value = _require(obj, "kind", where)
    try:
        kind = AggKind(kind_value)
    except ValueError:
        valid = ", ".join(k.value for k in AggKind)
        raise InvalidConfig(f"{where}: unknown kind {kind_value!r} (expected {valid})") from None
    if kind is AggKind.RATIO_OF_SUMS:
        return FeatureSpec.ratio_of_sums(
            name, _require_str(obj, "numerator", where), _require_str(obj, "denominator", where)
        )
    return FeatureSpec(name, kind, _require_str(obj, "column", where))


def _section(doc: dict, key: str, cls: type):
    """Build an optional section from the keys ``cls`` declares; the dataclass
    supplies the defaults and the checks, and unknown keys are ignored."""
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise InvalidConfig(f"{key} must be an object")
    names = {f.name for f in fields(cls)}
    return cls(**{name: value for name, value in section.items() if name in names})


def run_config_from_json_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise InvalidConfig("config document must be a JSON object")

    schema_doc = _require(doc, "schema", "config")
    columns = _require(schema_doc, "feature_columns", "schema")
    if not (isinstance(columns, list) and all(isinstance(c, str) for c in columns)):
        raise InvalidConfig(f"schema.feature_columns must be a list of strings, got {columns!r}")
    schema = PanelSchema(
        entity_column=_require_str(schema_doc, "entity_column", "schema"),
        period_column=_require_str(schema_doc, "period_column", "schema"),
        event_column=_require_str(schema_doc, "event_column", "schema"),
        feature_columns=tuple(columns),
    )

    plan_doc = _require(doc, "plan", "config")
    if not isinstance(plan_doc, list):
        raise InvalidConfig("plan must be a list of feature objects")
    plan = AggregationPlan(
        specs=tuple(_spec_from_json(obj, i) for i, obj in enumerate(plan_doc))
    )

    return RunConfig(
        schema=schema,
        plan=plan,
        reference_frame=_section(doc, "reference_frame", ReferenceFrameConfig),
        train=_section(doc, "train", TrainConfig),
        eval_settings=_section(doc, "eval", EvalSettings),
    )


def load_run_config(path: Union[str, Path]) -> RunConfig:
    """Load and validate a run config; see the module docstring for layout."""
    return run_config_from_json_dict(load_json(path))
