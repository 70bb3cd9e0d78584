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

All entities are drawn together on numpy ``uint64`` states, a chunk of
steps at a time.  A stream's ``j``-th state is its seed plus ``j`` times the
SplitMix64 increment, so one array operation gives every entity the
uniforms of a whole chunk, and the Poisson counts then walk through the
chunk one step at a time, each entity multiplying in only its own next
uniform.  An entity that finishes inside a chunk ignores the rest of it, so
each entity consumes exactly the stream defined above, uniform for uniform.
``tests/oracle.py`` keeps the scalar reference generator, one ``SplitMix64``
per entity and one call per value, and the tests require both to give the
same records and bytes.
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


# Steps drawn per chunk.  A longer chunk spreads each chunk's own numpy calls
# over more steps, but an entity that finishes inside one still steps to its
# end.  On 5,000 entities × 24 periods 16 was as fast as 24 and faster than
# 32; on 150 entities × 1,000 periods 24 and 32 were 5-20% faster.
_CHUNK = 16
# The state offsets of one chunk's steps, 1 .. _CHUNK times GOLDEN.  Every
# uint64 product and sum here is array arithmetic: numpy wraps that silently
# but warns when a scalar uint64 operation overflows, and the tests turn
# warnings into errors.
_CHUNK_STEPS = np.arange(1, _CHUNK + 1, dtype=np.uint64)[:, None] * GOLDEN


def _draw_counts(
    states: np.ndarray, kinds: np.ndarray, offsets: np.ndarray, means: tuple[float, float]
) -> np.ndarray:
    """Knuth Poisson counts for every cell of every entity, a chunk of steps at a time.

    ``kinds`` holds each cell's index into ``means``, entity by entity, and
    entity ``e`` owns the cells ``offsets[e]:offsets[e + 1]`` and draws them
    in order from the stream whose current state is ``states[e]``.  A cell
    with a mean <= 0 is 0 and consumes nothing.

    Entity ``e``'s ``j``-th uniform comes from state ``states[e] + j * GOLDEN``,
    so each chunk computes ``_CHUNK`` uniforms per entity in one array.
    Every step of the chunk, each entity multiplies its next uniform into
    its product and, once the product reaches its cell's threshold
    ``exp(-mean)``, marks the step done, resets the product and moves on to
    its next cell.  After an entity's last cell sits a sentinel threshold of
    -1, which no product reaches, so an entity that runs out of cells
    mid-chunk stays put and never uses the rest of the chunk's uniforms;
    finished entities leave once per chunk.  Every entity starts at step 0,
    so a cell's count is the step at which it was done less the step its
    entity's previous cell was done, minus 1.
    """
    table = np.array([math.exp(-mean) for mean in means])
    positive = np.array([mean > 0.0 for mean in means])
    if positive.all():
        # Every cell is drawn.
        drawn, thresholds = None, table[kinds]
        cell, stop = offsets[:-1], offsets[1:]
    else:
        drawn = np.flatnonzero(positive[kinds])
        thresholds = table[kinds[drawn]]
        # Each entity's drawn cells, as positions in `drawn`.
        cell = np.searchsorted(drawn, offsets[:-1])
        stop = np.searchsorted(drawn, offsets[1:])
    running = cell < stop
    states, cell, stop = states[running], cell[running], stop[running]
    # One sentinel after each drawing entity's cells: the r-th entity's
    # cells shift right by r.
    thresholds = np.insert(thresholds, stop, -1.0)
    cell = cell + np.arange(len(cell))
    threshold = thresholds[cell]
    product = np.ones(len(cell))
    # ends[1 + i]: the step at which cell i of `thresholds` was done; -1
    # before the first cell and at each sentinel, where an entity starts.
    ends = np.full(len(thresholds) + 1, -1, dtype=np.int64)
    step = 0
    while len(cell):
        chunk = states + _CHUNK_STEPS
        states = chunk[-1]
        first = cell.copy()
        done = np.empty(chunk.shape, dtype=bool)
        for u, flags in zip(uniforms(chunk), done):
            product *= u
            np.less_equal(product, threshold, out=flags)
            # Where done, the product (<= its threshold <= 1) restarts at 1;
            # elsewhere it is >= 0 and stays.  Unlike a masked copy, this
            # does not branch on the flags.
            np.maximum(product, flags, out=product)
            cell += flags
            # The sentinel keeps `cell` in bounds; "clip" spares take a buffer.
            np.take(thresholds, cell, out=threshold, mode="clip")
        # The done steps, entity by entity and so cell by cell: entity r
        # finished its cells first[r] .. cell[r] - 1, in that order.
        finished = cell - first
        steps = np.flatnonzero(done.T.ravel()) % _CHUNK
        slots = np.repeat(cell + 1 - np.cumsum(finished), finished) + np.arange(len(steps))
        ends[slots] = steps + step
        step += _CHUNK
        running = threshold >= 0.0
        if not running.all():
            states, cell, product, threshold = (
                states[running], cell[running], product[running], threshold[running]
            )
    cells = thresholds >= 0.0  # not the sentinels
    del thresholds
    counts = np.diff(ends)[cells]
    counts -= 1
    if drawn is None:
        return counts
    all_counts = np.zeros(len(kinds), dtype=np.int64)
    all_counts[drawn] = counts
    return all_counts


def generate_panel(config: SynthConfig) -> PanelDataset:
    """Generate a panel dataset under the fixture-compatible schema.

    Every entity draws on numpy ``uint64`` states, all of them together;
    the stream each one consumes is the one the module docstring defines.
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
