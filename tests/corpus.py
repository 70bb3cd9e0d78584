"""Seeded random-panel corpus shared by the property and acceptance tests."""

from __future__ import annotations

import random

FEATURES = ("a", "b", "c")

# Exercises every aggregation kind, as package specs and as oracle tuples.
PLAN_TUPLES = (
    ("sum", "a"),
    ("count_nonzero", "b"),
    ("max", "c"),
    ("last", "a"),
    ("ratio_of_sums", "a", "b"),
)


def random_panel_rows(rng: random.Random, value=lambda rng: float(rng.randint(0, 9))):
    """Raw rows for a small random panel: <= 10 entities, <= 12 periods,
    feature values from ``value(rng)`` (integers 0..9 by default), sparse
    observation, random event flags."""
    n_entities = rng.randint(1, 10)
    n_periods = rng.randint(1, 12)
    if rng.random() < 0.3:
        labels = [f"2021-{month:02d}" for month in range(1, n_periods + 1)]
    else:
        labels = [str(period) for period in range(1, n_periods + 1)]
    rows = []
    for index in range(n_entities):
        entity = f"N{index:02d}"
        observed = sorted(rng.sample(range(n_periods), rng.randint(1, n_periods)))
        for position in observed:
            features = {column: value(rng) for column in FEATURES}
            flag = 1 if rng.random() < 0.15 else 0
            rows.append((entity, labels[position], features, flag))
    return rows


def random_float_panel_rows(rng: random.Random):
    """Like random_panel_rows, with values in tenths 0.0..9.9: most are not
    exactly representable, so sums depend on the order they are added in."""
    return random_panel_rows(rng, lambda rng: rng.randint(0, 99) / 10)


def _cell(value: float) -> str:
    return str(int(value)) if value.is_integer() else repr(value)


def rows_to_csv_bytes(rows) -> bytes:
    lines = ["entity,period," + ",".join(FEATURES) + ",event"]
    for entity, label, features, flag in rows:
        cells = [entity, label] + [_cell(features[c]) for c in FEATURES] + [str(flag)]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")
