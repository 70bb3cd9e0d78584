"""Brute-force reference aggregator used to cross-check the pipeline.

Deliberately shares no code with the package: it works on raw row tuples
(entity, period_label, {column: value}, flag) with plain nested loops, its
own period ordering, and plan entries described as bare tuples:

    ("sum", col) | ("count_nonzero", col) | ("max", col) | ("last", col)
    | ("ratio_of_sums", numerator, denominator)

``scalar_synth_rows`` is the reference for the lockstep synthetic generator.
It draws each entity from its own scalar ``SplitMix64``, the package's
definition of the stream, one call per value.

``write_panel_csv`` is the reference for the block panel writer: the
row-by-row ``csv.writer`` it replaced, with its own number format.

``train_logistic_loop`` is the reference for the batched trainer: the
one-model gradient-descent loop it replaced, with its own scaling and
sigmoid.

``write_training_csv`` is the reference for the column training-set writer:
the row-by-row loop it replaced, with its own cell quoting.

``write_curve_csv`` is the reference for the curve writer: the
``csv.writer`` loop it replaced.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from leadframe.rng import SplitMix64

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def period_positions(raw_rows):
    """Map each distinct period label to its chronological position."""
    labels = {row[1] for row in raw_rows}
    if all(_is_int(label) for label in labels):
        ordered = sorted(labels, key=int)
    else:
        ordered = sorted(labels)
    return {label: i for i, label in enumerate(ordered)}


def _is_int(label):
    if label and label[0] in "+-":
        return label[1:].isdigit()
    return label.isdigit()


def _aggregate(kept, plan):
    values = []
    for spec in plan:
        kind = spec[0]
        if kind == "sum":
            total = 0.0
            for row in kept:
                total += row[2][spec[1]]
            values.append(total)
        elif kind == "count_nonzero":
            count = 0
            for row in kept:
                if row[2][spec[1]] != 0.0:
                    count += 1
            values.append(float(count))
        elif kind == "max":
            best = 0.0
            for row in kept:
                if row[2][spec[1]] > best:
                    best = row[2][spec[1]]
            values.append(best)
        elif kind == "last":
            values.append(kept[-1][2][spec[1]] if kept else 0.0)
        elif kind == "ratio_of_sums":
            numerator = 0.0
            denominator = 0.0
            for row in kept:
                numerator += row[2][spec[1]]
                denominator += row[2][spec[2]]
            values.append(numerator / denominator if denominator != 0.0 else 0.0)
        else:
            raise ValueError(f"unknown plan kind {kind!r}")
    return tuple(values)


def brute_force_training_rows(raw_rows, lead_time, plan, policy="drop"):
    """Expected training rows: {entity: (values, label)} plus dropped ids."""
    positions = period_positions(raw_rows)
    result = {}
    dropped = []
    for entity in sorted({row[0] for row in raw_rows}):
        rows = sorted(
            (row for row in raw_rows if row[0] == entity),
            key=lambda row: positions[row[1]],
        )
        event_position = None
        for row in rows:
            if row[3] == 1:
                event_position = positions[row[1]]
                break
        if event_position is None:
            kept = rows
            label = 0
        else:
            kept = [row for row in rows if positions[row[1]] <= event_position - lead_time]
            label = 1
        if label == 1 and not kept and policy == "drop":
            dropped.append(entity)
            continue
        result[entity] = (_aggregate(kept, plan), label)
    return result, dropped


def brute_force_full_history(raw_rows, plan):
    """Expected scoring-time vectors: {entity: values} over full histories."""
    positions = period_positions(raw_rows)
    result = {}
    for entity in sorted({row[0] for row in raw_rows}):
        rows = sorted(
            (row for row in raw_rows if row[0] == entity),
            key=lambda row: positions[row[1]],
        )
        result[entity] = _aggregate(rows, plan)
    return result


def brute_force_pairwise_auc(scores, labels):
    """AUC by direct enumeration of positive/negative pairs (ties 0.5)."""
    positives = [s for s, y in zip(scores, labels) if y == 1]
    negatives = [s for s, y in zip(scores, labels) if y == 0]
    if not positives or not negatives:
        return 0.5
    total = 0.0
    for p in positives:
        for n in negatives:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(positives) * len(negatives))


def _poisson(rng, lam):
    """Knuth's product-of-uniforms Poisson draw; a mean <= 0 draws nothing."""
    if lam <= 0.0:
        return 0
    threshold = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.uniform()
        if p <= threshold:
            return k
        k += 1


def scalar_synth_rows(config, columns):
    """Raw rows of a synthetic panel, one entity and one draw at a time."""
    width = max(len(str(config.n_entities - 1)), 1)
    rows = []
    for index in range(config.n_entities):
        child_seed = SplitMix64(config.seed ^ (((index + 1) * _GOLDEN) & _MASK64)).next_uint64()
        rng = SplitMix64(child_seed)
        entity = f"E{index:0{width}d}"
        event_period = None
        last_observed = config.n_periods
        if rng.uniform() < config.event_rate:
            span = config.n_periods - config.ramp_length
            event_period = config.ramp_length + 1 + rng.randrange(span)
            last_observed = event_period
        for period in range(1, last_observed + 1):
            in_ramp = (
                event_period is not None
                and event_period - config.ramp_length <= period <= event_period - 1
            )
            mean = config.noise_rate + (config.signal_strength if in_ramp else 0.0)
            features = {column: float(_poisson(rng, mean)) for column in columns}
            rows.append((entity, str(period), features, 1 if period == event_period else 0))
    return rows


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Formatted(dict):
    """``_format_number`` of each value, computed on first lookup.

    Values that compare equal print the same (``-0.0`` and ``0.0`` both
    print ``0``), so one entry serves every equal value.
    """

    def __missing__(self, value: float) -> str:
        text = self[value] = _format_number(value)
        return text


def write_panel_csv(dataset, stream: io.TextIOBase) -> None:
    """Write a dataset in canonical order: entity ascending, then period."""
    columns = dataset.columns
    ordered = columns.take(np.lexsort((columns.ordinals, columns.codes)))
    labels = {ordinal: period.label for ordinal, period in columns.periods.items()}
    formatted = _Formatted()
    cells = [
        list(map(columns.entity_ids.__getitem__, ordered.codes.tolist())),
        list(map(labels.__getitem__, ordered.ordinals.tolist())),
    ]
    # One column at a time, so only one column of float objects is alive.
    cells += [list(map(formatted.__getitem__, ordered.values[:, j].tolist()))
              for j in range(len(columns.features))]
    cells.append(list(map(str, ordered.flags.tolist())))
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(dataset.schema.columns)
    writer.writerows(zip(*cells))


def _loop_sigmoid(z):
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@np.errstate(over="ignore", invalid="ignore")
def train_logistic_loop(data, config):
    """Train one model alone, epoch by epoch, as ``train_logistic`` did before
    models were batched; returns (weights, intercept, means, stds) as floats.

    Only valid sets are expected: both labels present, finite scaling.
    """
    m = len(data.feature_names)
    X = np.array([v.values for v, _ in data.rows], dtype=np.float64).reshape(len(data.rows), m)
    y = np.array([label for _, label in data.rows], dtype=np.float64)
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    stds = np.where(stds == 0.0, 1.0, stds)
    Xs = (X - means) / stds

    w = np.zeros(Xs.shape[1])
    b = 0.0
    for _ in range(config.epochs):
        residual = _loop_sigmoid(Xs @ w + b) - y
        grad_b = residual.mean()
        grad_w = Xs.T @ residual / Xs.shape[0] + config.l2_penalty * w
        w = w - config.learning_rate * grad_w
        b = b - config.learning_rate * grad_b
    return (
        tuple(float(v) for v in w),
        float(b),
        tuple(float(v) for v in means),
        tuple(float(v) for v in stds),
    )


def _training_cell(text):
    """One CSV cell as csv.writer renders it, with a carriage return always
    quoted (csv.writer leaves it bare before Python 3.13)."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow((text, ""))
    cell = line.getvalue()[:-2]
    if "\r" in cell and not cell.startswith('"'):
        cell = f'"{cell}"'
    return cell


def write_training_csv(training, stream: io.TextIOBase) -> None:
    """Write a training set one row at a time, as ``write_training_csv`` did
    before it wrote columns."""
    header = ("entity_id", *training.feature_names, "label")
    stream.write(",".join(map(_training_cell, header)) + "\n")
    for vector, label in training.rows:
        cells = (_training_cell(vector.entity_id), *map(repr, vector.values), str(label))
        stream.write(",".join(cells) + "\n")


def write_curve_csv(curve, stream: io.TextIOBase) -> None:
    """Write a tradeoff curve through ``csv.writer``, as ``write_curve_csv``
    did before it quoted through ``csv_cells``."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(
        ("lead_time", "accuracy", "precision", "recall", "auc", "train_size", "test_size", "flags")
    )
    for point in curve.points:
        merged = list(point.flags)
        if point.metrics is None:
            cells = ["", "", "", ""]
        else:
            m = point.metrics
            cells = [repr(m.accuracy), repr(m.precision), repr(m.recall), repr(m.auc)]
            merged.extend(m.flags)
        writer.writerow(
            (str(point.lead_time), *cells, str(point.train_size), str(point.test_size), "|".join(merged))
        )
