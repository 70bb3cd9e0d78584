"""Regularized logistic regression over aggregated feature vectors.

Deliberately minimal: full-batch gradient descent on the mean negative
log-likelihood with an L2 penalty on the weights (never the intercept),
starting from all zeros.  Training is deterministic given the data and
config, per-feature standardization is fitted on the training rows and
persisted with the model, and the analytic gradient is exposed so it can be
checked against finite differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .errors import (
    DegenerateLabels,
    DimensionMismatch,
    InvalidConfig,
    NonFiniteValue,
    ParseError,
    check_int,
    check_real,
    load_json,
)
from .transform import FeatureVector, TrainingSet


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 500
    learning_rate: float = 0.1
    l2_penalty: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_int(self.epochs, "epochs must be a non-negative integer")
        check_real(self.learning_rate, "learning_rate must be positive", lambda v: v > 0.0)
        check_real(self.l2_penalty, "l2_penalty must be non-negative", lambda v: v >= 0.0)
        check_int(self.seed, "seed must fit in an unsigned 64-bit integer", high=2**64)

    def to_json_dict(self) -> dict:
        return asdict(self)


_NUMBER = (int, float)


def _is_kind(value: object, kinds: tuple[type, ...]) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def _json_list(doc: dict, key: str, kinds: tuple[type, ...]) -> tuple:
    """``doc[key]`` as a tuple; TypeError unless it is a list of ``kinds`` (never bool)."""
    value = doc[key]
    if not isinstance(value, list) or not all(_is_kind(v, kinds) for v in value):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise TypeError(f"{key} must be a list of {names}")
    return tuple(value)


def _json_number(doc: dict, key: str) -> float:
    """``doc[key]`` as a float; TypeError unless it is an int or a float (never bool)."""
    value = doc[key]
    if not _is_kind(value, _NUMBER):
        raise TypeError(f"{key} must be an int or float")
    return float(value)


@dataclass(frozen=True)
class LogisticModel:
    """Fitted weights plus the feature scaling they were trained under."""

    feature_names: tuple[str, ...]
    weights: tuple[float, ...]
    intercept: float
    means: tuple[float, ...]
    stds: tuple[float, ...]
    train_config: TrainConfig | None = None

    def __post_init__(self) -> None:
        m = len(self.feature_names)
        if not (len(self.weights) == len(self.means) == len(self.stds) == m):
            raise DimensionMismatch("model weight/scaling lengths disagree")
        if any(s <= 0.0 for s in self.stds):
            raise DimensionMismatch("stored standard deviations must be positive")

    def to_json_dict(self) -> dict:
        return {
            "feature_names": list(self.feature_names),
            "weights": list(self.weights),
            "intercept": self.intercept,
            "scaling": {"means": list(self.means), "stds": list(self.stds)},
            "train_config": None if self.train_config is None else self.train_config.to_json_dict(),
        }

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LogisticModel":
        """Rebuild a saved model; a missing key, a wrong type, an invalid value
        or a non-finite number is a ParseError."""
        try:
            config = doc.get("train_config")
            scaling = doc["scaling"]
            model = cls(
                feature_names=_json_list(doc, "feature_names", (str,)),
                weights=tuple(map(float, _json_list(doc, "weights", _NUMBER))),
                intercept=_json_number(doc, "intercept"),
                means=tuple(map(float, _json_list(scaling, "means", _NUMBER))),
                stds=tuple(map(float, _json_list(scaling, "stds", _NUMBER))),
                train_config=None if config is None else TrainConfig(**config),
            )
        except KeyError as exc:
            raise ParseError(f"model is missing key {exc}") from None
        except (
            AttributeError, TypeError, ValueError, OverflowError, InvalidConfig, DimensionMismatch
        ) as exc:
            raise ParseError(f"model has a malformed field: {exc}") from None
        numbers = (model.intercept, *model.weights, *model.means, *model.stds)
        if not all(map(math.isfinite, numbers)):
            raise ParseError("model holds a non-finite number")
        return model

    @classmethod
    def load(cls, path: Union[str, Path]) -> "LogisticModel":
        return cls.from_json_dict(load_json(path))


def _design_matrix(data: TrainingSet) -> tuple[np.ndarray, np.ndarray]:
    if not data.feature_names:
        raise DimensionMismatch("training data declares no features")
    m = len(data.feature_names)
    for vector, _ in data.rows:
        if len(vector.values) != m:
            raise DimensionMismatch(
                f"row for entity {vector.entity_id!r} has {len(vector.values)} "
                f"features, expected {m}"
            )
    X = np.array([v.values for v, _ in data.rows], dtype=np.float64).reshape(len(data.rows), m)
    y = np.array([label for _, label in data.rows], dtype=np.float64)
    return X, y


def _fit_scaling(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    if not (np.isfinite(means).all() and np.isfinite(stds).all()):
        raise InvalidConfig(
            "feature means or standard deviations overflow; rescale the features"
        )
    stds = np.where(stds == 0.0, 1.0, stds)  # constant columns scale to 0
    return means, stds


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Not merged with predict_proba: np.exp and math.exp differ in the last bit on some inputs.
    # e = exp(-|z|) never overflows: exp(-z) where z >= 0, else exp(z).
    # np.minimum returns z itself when z is nan, so a nan keeps its sign bit.
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _gradient(
    Xs: np.ndarray, y: np.ndarray, z: np.ndarray, w: np.ndarray, l2: float
) -> tuple[float, np.ndarray]:
    """Gradient of the penalized mean NLL at decision values z = Xs @ w + b,
    as (d/d intercept, d/d weights)."""
    residual = _sigmoid(z) - y
    return residual.mean(), Xs.T @ residual / Xs.shape[0] + l2 * w


# Overflow is detected by the finiteness checks on the results, so numpy's
# own warnings would only repeat the error on stderr.
@np.errstate(over="ignore", invalid="ignore")
def train_logistic(data: TrainingSet, config: TrainConfig) -> LogisticModel:
    """Fit scaling plus weights by full-batch gradient descent.

    Each of the ``epochs`` steps updates (intercept, weights) with the exact
    gradient of the penalized mean negative log-likelihood at learning_rate.
    Zero initialization makes the starting loss ln 2 and the run reproducible;
    the seed is carried along for provenance only.
    """
    X, y = _design_matrix(data)
    if X.shape[0] == 0 or set(y.tolist()) != {0.0, 1.0}:
        raise DegenerateLabels("training data must contain both labels")

    means, stds = _fit_scaling(X)
    Xs = (X - means) / stds

    w = np.zeros(Xs.shape[1])
    b = 0.0
    for _ in range(config.epochs):
        grad_b, grad_w = _gradient(Xs, y, Xs @ w + b, w, config.l2_penalty)
        w = w - config.learning_rate * grad_w
        b = b - config.learning_rate * grad_b
    if not (np.isfinite(w).all() and math.isfinite(b)):
        raise InvalidConfig(
            "training produced non-finite weights; lower learning_rate or rescale features"
        )

    return LogisticModel(
        feature_names=data.feature_names,
        weights=tuple(float(v) for v in w),
        intercept=float(b),
        means=tuple(float(v) for v in means),
        stds=tuple(float(v) for v in stds),
        train_config=config,
    )


_P_MIN = 1e-15
_P_MAX = math.nextafter(1.0, 0.0)


def predict_proba(model: LogisticModel, x: Union[FeatureVector, Sequence[float]]) -> float:
    """Event probability for one feature vector, strictly inside (0, 1)."""
    values = x.values if isinstance(x, FeatureVector) else tuple(x)
    if len(values) != len(model.weights):
        raise DimensionMismatch(
            f"feature vector has {len(values)} values, model expects {len(model.weights)}"
        )
    z = model.intercept
    for value, weight, mean, std in zip(values, model.weights, model.means, model.stds):
        z += weight * (value - mean) / std
    if math.isnan(z):
        raise NonFiniteValue(
            "decision value is nan: the feature values overflow the model's scaling"
        )
    # Not merged with _sigmoid: math.exp and np.exp differ in the last bit on some inputs.
    if z >= 0:
        p = 1.0 / (1.0 + math.exp(-z))
    else:
        ez = math.exp(z)
        p = ez / (1.0 + ez)
    return min(max(p, _P_MIN), _P_MAX)


@np.errstate(over="ignore", invalid="ignore")
def loss_and_gradient(model: LogisticModel, data: TrainingSet) -> tuple[float, list[float]]:
    """Penalized mean NLL and its exact gradient as [d/d intercept, d/d w...].

    The log-likelihood term is evaluated via logaddexp so the loss stays
    finite even for saturated decision values.
    """
    if data.feature_names != model.feature_names:
        raise DimensionMismatch(
            f"data features {data.feature_names!r} do not match model "
            f"features {model.feature_names!r}"
        )
    X, y = _design_matrix(data)
    if X.shape[0] == 0:
        raise DimensionMismatch("loss is undefined on an empty training set")
    w = np.array(model.weights)
    Xs = (X - np.array(model.means)) / np.array(model.stds)
    z = Xs @ w + model.intercept
    l2 = model.train_config.l2_penalty if model.train_config is not None else 0.0
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * np.dot(w, w))
    grad_b, grad_w = _gradient(Xs, y, z, w, l2)
    return loss, [float(grad_b)] + [float(g) for g in grad_w]
