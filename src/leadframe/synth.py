"""Seeded synthetic churn/fault panels with a pre-event precursor ramp.

Each entity flips an event coin; event entities pick an event period T and
are observed only through T (flag 1 at T, nothing after), non-event entities
are observed for every period.  All five count features are drawn around the
baseline intensity except inside the ramp, the ``ramp_length`` periods
immediately before T, where the mean is elevated by ``signal_strength``.
Pushing the reference frame past the ramp therefore removes every signal the
generator planted, which is exactly the degradation the sweep measures.

Generation is reproducible cell-for-cell: entity k consumes only its own
``substream(seed, k)``, drawing one uniform for the event coin, one bounded
integer for T (event entities only), then one Poisson count per feature
column per observed period, in schema column order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidConfig, check_int, check_real
from .panel import PanelDataset, PanelSchema, RawRow, build_dataset
from .rng import substream

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


def generate_panel(config: SynthConfig) -> PanelDataset:
    """Generate a panel dataset under the fixture-compatible schema."""
    schema = default_schema()
    width = max(len(str(config.n_entities - 1)), 1)
    rows: list[RawRow] = []

    for index in range(config.n_entities):
        rng = substream(config.seed, index)
        entity_id = f"E{index:0{width}d}"

        is_event = rng.uniform() < config.event_rate
        if is_event:
            event_period = config.ramp_length + 1 + rng.randrange(
                config.n_periods - config.ramp_length
            )
            last_observed = event_period
        else:
            event_period = None
            last_observed = config.n_periods

        for period in range(1, last_observed + 1):
            in_ramp = (
                event_period is not None
                and event_period - config.ramp_length <= period <= event_period - 1
            )
            mean = config.noise_rate + (config.signal_strength if in_ramp else 0.0)
            features = {
                column: float(rng.poisson(mean)) for column in schema.feature_columns
            }
            flag = 1 if period == event_period else 0
            rows.append((entity_id, str(period), features, flag))

    return build_dataset(schema, rows)
