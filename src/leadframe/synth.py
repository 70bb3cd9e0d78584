"""Seeded synthetic churn/fault panels with a pre-event precursor ramp.

Each entity flips an event coin; event entities pick an event period T and
are observed only through T (flag 1 at T, nothing after), non-event entities
are observed for every period.  All five count features are drawn around the
baseline intensity except inside the ramp, the ``ramp_length`` periods
immediately before T, where the mean is elevated by ``signal_strength``.
Pushing the reference frame past the ramp therefore removes every signal the
generator planted, which is exactly the degradation the sweep measures.

Generation is reproducible cell-for-cell: entity k consumes only its own
substream of ``seed`` (see :mod:`leadframe.rng`), drawing one uniform for the
event coin, one bounded integer for T (event entities only), then one
Poisson count per feature column per observed period, in schema column
order.  A Poisson count is Knuth's: multiply uniforms into a product that
starts at 1 until it is <= ``exp(-mean)``, and count the uniforms before the
last; a mean <= 0 gives 0 and draws nothing.

All entities are drawn in lockstep on numpy ``uint64`` states, one uniform
per still-drawing entity per step, and each consumes exactly the stream
defined above.  ``tests/oracle.py`` keeps the scalar reference generator,
one ``SplitMix64`` per entity and one call per value, and the tests require
both to give the same records and bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, check_int, check_real
from .panel import PanelColumns, PanelDataset, PanelSchema, PeriodIndex
from .rng import GOLDEN, outputs, substream_seeds, uniforms

FEATURE_COLUMNS = (
    "outbound_calls",
    "complaints",
    "interruptions",
    "resolution_time",
    "promotions",
)


def default_schema() -> PanelSchema:
    """Schema shared by generated panels and the bundled telecom fixture."""
    return PanelSchema(
        entity_column="customer",
        period_column="month",
        event_column="churn",
        feature_columns=FEATURE_COLUMNS,
    )


@dataclass(frozen=True)
class SynthConfig:
    n_entities: int
    n_periods: int
    event_rate: float
    ramp_length: int
    signal_strength: float
    noise_rate: float
    seed: int

    def __post_init__(self) -> None:
        check_int(self.n_entities, "n_entities must be a positive integer", low=1)
        check_int(self.n_periods, "n_periods must be a positive integer", low=1)
        check_real(
            self.event_rate, "event_rate must lie strictly between 0 and 1", lambda v: 0.0 < v < 1.0
        )
        check_int(self.ramp_length, "ramp_length must be a positive integer", low=1)
        if self.ramp_length >= self.n_periods:
            raise InvalidConfig("ramp_length must be smaller than n_periods")
        check_real(self.signal_strength, "signal_strength must be non-negative", lambda v: v >= 0.0)
        check_real(self.noise_rate, "noise_rate must be non-negative", lambda v: v >= 0.0)
        check_int(self.seed, "seed must fit in an unsigned 64-bit integer", high=2**64)


def _draw_counts(
    states: np.ndarray, kinds: np.ndarray, offsets: np.ndarray, means: tuple[float, float]
) -> np.ndarray:
    """Knuth Poisson counts for every cell of every entity, drawn in lockstep.

    ``kinds`` holds each cell's index into ``means``, entity by entity, and
    entity ``e`` owns the cells ``offsets[e]:offsets[e + 1]`` and draws them
    in order from the stream whose current state is ``states[e]``.  A cell
    with a mean <= 0 is 0 and consumes nothing.  Every step, each entity
    that still has cells to draw multiplies one uniform into its current
    product and finishes its current cell once the product reaches
    ``exp(-mean)``.
    """
    counts = np.zeros(len(kinds), dtype=np.int64)
    drawn = np.flatnonzero(np.array([mean > 0.0 for mean in means])[kinds])
    thresholds = np.array([math.exp(-mean) for mean in means])[kinds[drawn]]
    # Each entity's drawn cells, as positions in `drawn`.
    cell = np.searchsorted(drawn, offsets[:-1])
    stop = np.searchsorted(drawn, offsets[1:])
    running = cell < stop
    states, cell, stop = states[running], cell[running], stop[running]
    product = np.ones(len(cell))
    started = np.zeros(len(cell), dtype=np.int64)  # step at which `cell` began
    step = 0
    while len(cell):
        states += GOLDEN
        product *= uniforms(states)
        done = product <= thresholds[cell]
        if done.any():
            counts[drawn[cell[done]]] = step - started[done]
            started[done] = step + 1
            product[done] = 1.0
            cell += done
            running = cell < stop
            if not running.all():
                states, cell, stop = states[running], cell[running], stop[running]
                product, started = product[running], started[running]
        step += 1
    return counts


def generate_panel(config: SynthConfig) -> PanelDataset:
    """Generate a panel dataset under the fixture-compatible schema.

    Every entity draws in lockstep on numpy ``uint64`` states; the stream
    each one consumes is the one the module docstring defines.
    """
    schema = default_schema()
    columns = schema.feature_columns
    n, ramp = config.n_entities, config.ramp_length

    states = substream_seeds(config.seed, n)
    states += GOLDEN
    is_event = uniforms(states) < config.event_rate
    event_period = np.zeros(n, dtype=np.int64)  # 0: no event
    if is_event.any():
        # randrange needs the high half of a 128-bit product: Python ints.
        states[is_event] += GOLDEN
        span = config.n_periods - ramp
        event_period[is_event] = [
            ramp + 1 + ((out * span) >> 64) for out in outputs(states[is_event]).tolist()
        ]
    observed = np.where(is_event, event_period, config.n_periods)

    # One row per observed (entity, period), entity by entity; each row's
    # cells are baseline (kind 0) or inside the ramp (kind 1).  Every period
    # up to the longest history is observed, so period p has ordinal p - 1.
    first_row = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(observed, out=first_row[1:])
    row_entity = np.repeat(np.arange(n), observed)
    ordinals = np.arange(len(row_entity)) - first_row[row_entity]
    until_event = event_period[row_entity] - (ordinals + 1)
    kinds = np.repeat((until_event >= 1) & (until_event <= ramp), len(columns)).astype(np.uint8)
    del until_event
    means = (config.noise_rate, config.noise_rate + config.signal_strength)
    counts = _draw_counts(states, kinds, first_row * len(columns), means).reshape(-1, len(columns))
    del states, kinds

    # Entity ids are zero-padded, so code order is id order.
    width = max(len(str(n - 1)), 1)
    panel = PanelColumns(
        entity_ids=tuple(f"E{index:0{width}d}" for index in range(n)),
        codes=row_entity,
        periods={p: PeriodIndex(p, str(p + 1)) for p in range(int(observed.max()))},
        ordinals=ordinals,
        features=columns,
        values=counts.astype(np.float64),
        flags=(ordinals + 1 == event_period[row_entity]).astype(np.int8),
    )
    return PanelDataset(schema, panel)
