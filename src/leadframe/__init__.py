"""Lead-time event labeling and scoring for entity/period panel data.

The pipeline: parse a panel CSV into per-entity timelines, plant a reference
frame ``lead_time`` periods before each entity's first event, aggregate the
kept history into per-entity experience features, train a logistic
classifier on the labeled rows, and sweep the lead time to measure how much
accuracy a longer warning window costs.
"""

from .config import EvalSettings, RunConfig, load_run_config
from .errors import (
    BadValue,
    DegenerateLabels,
    DimensionMismatch,
    DuplicateObservation,
    EmptyInput,
    InvalidConfig,
    LeadframeError,
    MissingColumn,
    NonFiniteValue,
    ParseError,
    TooFewEntities,
    UnknownColumn,
    ValidationError,
)
from .evaluation import (
    CurvePoint,
    Metrics,
    TradeoffCurve,
    evaluate,
    lead_time_sweep,
    split_entities,
    write_curve_csv,
)
from .model import (
    LogisticModel,
    TrainConfig,
    loss_and_gradient,
    predict_proba,
    predict_proba_matrix,
    train_logistic,
)
from .panel import (
    EntityTimeline,
    PanelDataset,
    PanelRecord,
    PanelSchema,
    PeriodIndex,
    ValidationReport,
    build_timelines,
    parse_panel_csv,
    validate_timeline,
    write_panel_csv,
    write_panel_rows,
)
from .synth import SynthConfig, default_schema, generate_blocks, generate_panel
from .transform import (
    AggKind,
    AggregationPlan,
    EmptyWindowPolicy,
    FeatureSpec,
    FeatureVector,
    ReferenceFrameConfig,
    TrainingSet,
    TransformReport,
    TruncatedTimeline,
    aggregate,
    build_training_set,
    detect_event_time,
    read_training_csv,
    score_feature_matrix,
    score_features,
    truncate_at_reference,
    write_training_csv,
)

__version__ = "0.1.0"
