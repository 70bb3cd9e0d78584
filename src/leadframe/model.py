"""Regularized logistic regression over aggregated feature vectors.

Deliberately minimal: full-batch gradient descent on the mean negative
log-likelihood with an L2 penalty on the weights (never the intercept),
starting from all zeros.  Training is deterministic given the data and
config, per-feature standardization is fitted on the training rows and
persisted with the model, and the analytic gradient is exposed so it can be
checked against finite differences.  Several models train in one batched
descent, each bit-identical to training it alone; training one model is
the batch of one.  Prediction runs on a feature matrix, one column at a
time, in the bits of adding up each row alone; predicting one vector is the
matrix of one row.
"""

from __future__ import annotations

import itertools
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
    LeadframeError,
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
    # Then sigmoid(z) is 1 / (1 + e) where z >= 0, else e / (1 + e): one division either way.
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


class _Stack:
    """The standardized rows of one or more models, stacked into one matrix.

    Consecutive models of equal size form a run, viewed as one (models, rows,
    features) array, and one stacked ``np.matmul`` or axis-1 ``np.add.reduce``
    serves the run with each model's own bits: matmul makes the one-model BLAS
    call per model, and the reduce sums each model's rows pairwise.  Zero
    padding would move the pairwise splits and lengthen the BLAS call, and
    ``np.add.reduceat`` adds a slice's first value to the sum of the rest.
    """

    def __init__(self, parts: Sequence[tuple[np.ndarray, np.ndarray]]) -> None:
        sizes = [len(y) for _, y in parts]
        self.Xs = np.concatenate([Xs for Xs, _ in parts])
        self.y = np.concatenate([y for _, y in parts])
        self.n = np.array(sizes, dtype=np.float64)
        self.z, self.r = np.empty(len(self.y)), np.empty(len(self.y))
        self.G = np.empty((len(parts), self.Xs.shape[1]))
        self.sums = np.empty(len(parts))
        self.runs, first, start = [], 0, 0
        for n, run in itertools.groupby(sizes):
            g = len(list(run))
            ks, rows = slice(first, first + g), slice(start, start + g * n)
            X3, z3, r3 = (a[rows].reshape(g, n, -1) for a in (self.Xs, self.z, self.r))
            self.runs.append((ks, X3, X3.transpose(0, 2, 1), z3, r3, self.G[ks, :, None]))
            first, start = ks.stop, rows.stop

    def gradient(self, W: np.ndarray, b: np.ndarray, l2: float) -> tuple[np.ndarray, np.ndarray]:
        """Gradient of each model's penalized mean NLL at its decision values
        z = Xs @ W[k] + b[k], as (d/d intercepts, d/d weights).  The decision
        values are left in ``z``."""
        for ks, X3, _, z3, _, _ in self.runs:
            np.matmul(X3, W[ks, :, None], out=z3)
            z3 += b[ks, None, None]
        np.subtract(_sigmoid(self.z), self.y, out=self.r)
        for ks, _, X3T, _, r3, G3 in self.runs:
            np.add.reduce(r3, axis=1, out=self.sums[ks, None])
            np.matmul(X3T, r3, out=G3)
        return self.sums / self.n, self.G / self.n[:, None] + l2 * W


def _descend(stack: _Stack, config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Weights and intercepts of every stacked model after ``epochs`` steps
    from all zeros."""
    W, b = np.zeros(stack.G.shape), np.zeros(stack.n.shape)
    for _ in range(config.epochs):
        grad_b, grad_W = stack.gradient(W, b, config.l2_penalty)
        W -= config.learning_rate * grad_W
        b -= config.learning_rate * grad_b
    return W, b


# Overflow is detected by the finiteness checks on the results, so numpy's
# own warnings would only repeat the error on stderr.
@np.errstate(over="ignore", invalid="ignore")
def train_logistic_each(
    sets: Sequence[TrainingSet], config: TrainConfig
) -> tuple[Union[LogisticModel, LeadframeError], ...]:
    """Train every set in one gradient descent; each member is the model
    that training the set alone gives, bit for bit, or the error it raises.

    Sets are stacked by feature count, and a set that fails its checks
    before the descent is left out of it.
    """
    outcomes: list[Union[LogisticModel, LeadframeError, None]] = [None] * len(sets)
    groups: dict[int, list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]] = {}
    for i, data in enumerate(sets):
        try:
            X, y = data.values, data.labels.astype(np.float64)
            if X.shape[0] == 0 or set(y.tolist()) != {0.0, 1.0}:
                raise DegenerateLabels("training data must contain both labels")
            means, stds = _fit_scaling(X)
        except LeadframeError as exc:
            outcomes[i] = exc
            continue
        groups.setdefault(X.shape[1], []).append((i, (X - means) / stds, y, means, stds))

    for members in groups.values():
        W, b = _descend(_Stack([(Xs, y) for _, Xs, y, _, _ in members]), config)
        for (i, _, _, means, stds), w, intercept in zip(members, W, b.tolist()):
            if not (np.isfinite(w).all() and math.isfinite(intercept)):
                outcomes[i] = InvalidConfig(
                    "training produced non-finite weights; lower learning_rate or rescale features"
                )
                continue
            outcomes[i] = LogisticModel(
                feature_names=sets[i].feature_names,
                weights=tuple(w.tolist()),
                intercept=intercept,
                means=tuple(means.tolist()),
                stds=tuple(stds.tolist()),
                train_config=config,
            )
    return tuple(outcomes)


def train_logistic(data: TrainingSet, config: TrainConfig) -> LogisticModel:
    """Fit scaling plus weights by full-batch gradient descent.

    Each of the ``epochs`` steps updates (intercept, weights) with the exact
    gradient of the penalized mean negative log-likelihood at learning_rate.
    Zero initialization makes the starting loss ln 2 and the run reproducible;
    the seed is carried along for provenance only.
    """
    (outcome,) = train_logistic_each((data,), config)
    if isinstance(outcome, LeadframeError):
        raise outcome
    return outcome


_P_MIN = 1e-15
_P_MAX = math.nextafter(1.0, 0.0)


# A nan decision value is refused below, so numpy's own warnings would only
# repeat the error on stderr.
@np.errstate(over="ignore", invalid="ignore")
def predict_proba_matrix(model: LogisticModel, X: np.ndarray) -> list[float]:
    """Event probability for each row of a feature matrix, strictly inside (0, 1).

    The decision value adds one scaled feature at a time to the intercept,
    left to right, one column of the matrix at a time, so each row's value
    has the bits of adding up that row alone.  The sigmoid takes
    e = ``math.exp(-|z|)``, which never overflows, and is 1 / (1 + e) where
    z >= 0, else e / (1 + e), clamped to [``_P_MIN``, ``_P_MAX``].
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != len(model.weights):
        raise DimensionMismatch(
            f"feature vector has {X.shape[1]} values, model expects {len(model.weights)}"
        )
    z = np.full(len(X), model.intercept)
    for j, (weight, mean, std) in enumerate(zip(model.weights, model.means, model.stds)):
        z += weight * (X[:, j] - mean) / std
    if np.isnan(z).any():
        raise NonFiniteValue(
            "decision value is nan: the feature values overflow the model's scaling"
        )
    # Not np.exp, as in _sigmoid: the two differ in the last bit on some inputs.
    e = np.fromiter(map(math.exp, (-np.abs(z)).tolist()), np.float64, len(z))
    p = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return np.clip(p, _P_MIN, _P_MAX).tolist()


def predict_proba(model: LogisticModel, x: Union[FeatureVector, Sequence[float]]) -> float:
    """Event probability for one feature vector: the matrix of one row."""
    values = x.values if isinstance(x, FeatureVector) else tuple(x)
    return predict_proba_matrix(model, np.array([values], dtype=np.float64))[0]


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
    X, y = data.values, data.labels.astype(np.float64)
    if X.shape[0] == 0:
        raise DimensionMismatch("loss is undefined on an empty training set")
    w = np.array(model.weights)
    Xs = (X - np.array(model.means)) / np.array(model.stds)
    l2 = model.train_config.l2_penalty if model.train_config is not None else 0.0
    stack = _Stack([(Xs, y)])
    grad_b, grad_W = stack.gradient(w[None], np.array([model.intercept]), l2)
    loss = float(np.mean(np.logaddexp(0.0, stack.z) - y * stack.z) + 0.5 * l2 * np.dot(w, w))
    return loss, [float(grad_b[0])] + grad_W[0].tolist()
