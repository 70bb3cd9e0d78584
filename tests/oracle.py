"""Brute-force reference aggregator used to cross-check the pipeline.

Deliberately shares no code with the package: it works on raw row tuples
(entity, period_label, {column: value}, flag) with plain nested loops, its
own period ordering, and plan entries described as bare tuples:

    ("sum", col) | ("count_nonzero", col) | ("max", col) | ("last", col)
    | ("ratio_of_sums", numerator, denominator)

``scalar_synth_rows`` is the reference for the lockstep synthetic generator.
It draws each entity from its own scalar ``SplitMix64``, the package's
definition of the stream, one call per value.
"""

from __future__ import annotations

import math

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
