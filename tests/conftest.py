import csv
import dataclasses
import io
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle

from leadframe import panel
from leadframe.config import load_run_config
from leadframe.errors import LeadframeError
from leadframe.panel import (
    PanelColumns,
    PanelDataset,
    PanelSchema,
    PeriodIndex,
    build_timelines,
    parse_panel_csv,
    write_panel_csv,
)
from leadframe.transform import AggregationPlan, FeatureSpec

REPO_ROOT = Path(__file__).resolve().parent.parent
# The CLI and hash-seed tests start Python subprocesses; they import the
# package from this checkout too.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
)
DATA_DIR = REPO_ROOT / "data"
PANEL_CSV = DATA_DIR / "telecom_panel.csv"
CONFIG_JSON = DATA_DIR / "telecom_config.json"


def parse_outcome(data: bytes, schema: PanelSchema):
    """The parsed columns, bit for bit, or the type and message of the
    error; any error the command line does not report escapes."""
    try:
        columns = parse_panel_csv(data, schema).columns
    except (LeadframeError, UnicodeDecodeError, csv.Error) as exc:
        return type(exc), str(exc)
    return (
        columns.entity_ids, columns.periods, columns.features,
        *((a.dtype.str, a.shape, a.tobytes())
          for a in (columns.codes, columns.ordinals, columns.values, columns.flags)),
    )


def parse_both_ways(data: bytes, schema: PanelSchema):
    """(outcome, outcome through csv.reader alone, whether the numpy
    tokenizer read the rows) for one panel file."""
    tokenized = []
    plain_cells = panel._plain_cells

    def spy(*args):
        cells = plain_cells(*args)
        tokenized.append(cells is not None)
        return cells

    with mock.patch.object(panel, "_plain_cells", spy):
        outcome = parse_outcome(data, schema)
    with mock.patch.object(panel, "_is_plain", lambda data: False):
        through_reader = parse_outcome(data, schema)
    return outcome, through_reader, any(tokenized)


def dataset_of(schema: PanelSchema, rows) -> PanelDataset:
    """A dataset of (entity, period label, ordinal, feature values, flag)
    rows, in their order."""
    entity_ids = sorted({row[0] for row in rows})
    code = {entity: i for i, entity in enumerate(entity_ids)}
    return PanelDataset(schema, PanelColumns(
        entity_ids=tuple(entity_ids),
        codes=np.array([code[row[0]] for row in rows], dtype=np.intp),
        periods={ordinal: PeriodIndex(ordinal, label) for _, label, ordinal, _, _ in rows},
        ordinals=np.array([row[2] for row in rows], dtype=np.intp),
        features=schema.feature_columns,
        values=np.array([row[3] for row in rows], dtype=np.float64).reshape(
            len(rows), len(schema.feature_columns)
        ),
        flags=np.array([row[4] for row in rows], dtype=np.int8),
    ))


def timelines_without_rows(schema: PanelSchema, entity_ids) -> tuple:
    """One timeline with no rows for each of the sorted entity ids."""
    dataset = dataset_of(schema, [])
    dataset.columns = dataclasses.replace(dataset.columns, entity_ids=tuple(entity_ids))
    return build_timelines(dataset)


# csv.writer quotes a carriage return from Python 3.13 on; before, only the
# package's writers do, so there the row writer's bytes differ on such a cell.
CSV_WRITER_QUOTES_CR = csv.writer(io.StringIO(), lineterminator="\n").writerow(["\r"]) == 4


def write_both_ways(dataset) -> tuple[str, str]:
    """The dataset as written by write_panel_csv and by the row-by-row
    reference writer in oracle.py."""
    texts = []
    for write in (write_panel_csv, oracle.write_panel_csv):
        buffer = io.StringIO(newline="")
        write(dataset, buffer)
        texts.append(buffer.getvalue())
    return texts[0], texts[1]


@pytest.fixture(scope="session")
def run_config():
    return load_run_config(CONFIG_JSON)


@pytest.fixture(scope="session")
def schema(run_config) -> PanelSchema:
    return run_config.schema


@pytest.fixture(scope="session")
def plan(run_config) -> AggregationPlan:
    return run_config.plan


@pytest.fixture(scope="session")
def fixture_dataset(schema):
    return parse_panel_csv(PANEL_CSV.read_bytes(), schema)


@pytest.fixture(scope="session")
def fixture_timelines(fixture_dataset):
    return build_timelines(fixture_dataset)


@pytest.fixture(scope="session")
def timeline_of(fixture_timelines):
    by_id = {t.entity_id: t for t in fixture_timelines}
    return by_id.__getitem__


@pytest.fixture(scope="session")
def corpus_schema() -> PanelSchema:
    return PanelSchema(
        entity_column="entity",
        period_column="period",
        event_column="event",
        feature_columns=("a", "b", "c"),
    )


@pytest.fixture(scope="session")
def corpus_plan() -> AggregationPlan:
    return AggregationPlan(
        (
            FeatureSpec.sum("sum_a", "a"),
            FeatureSpec.count_nonzero("nonzero_b", "b"),
            FeatureSpec.max("max_c", "c"),
            FeatureSpec.last("last_a", "a"),
            FeatureSpec.ratio_of_sums("ratio_ab", "a", "b"),
        )
    )
