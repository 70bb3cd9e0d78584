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
from leadframe.transform import AggregationPlan, FeatureSpec, TrainingSet, TransformReport

REPO_ROOT = Path(__file__).resolve().parent.parent
# The CLI and hash-seed tests start Python subprocesses; they import the
# package from this checkout too.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
)
DATA_DIR = REPO_ROOT / "data"
PANEL_CSV = DATA_DIR / "telecom_panel.csv"
CONFIG_JSON = DATA_DIR / "telecom_config.json"


def parse_outcome(source, schema: PanelSchema):
    """The parsed columns, bit for bit, or the type and message of the
    error; any error the command line does not report escapes."""
    try:
        columns = parse_panel_csv(source, schema).columns
    except (LeadframeError, UnicodeDecodeError, csv.Error) as exc:
        return type(exc), str(exc)
    return (
        columns.entity_ids, columns.periods, columns.features,
        *((a.dtype.str, a.shape, a.tobytes())
          for a in (columns.codes, columns.ordinals, columns.values, columns.flags)),
    )


def parse_both_ways(data: bytes, schema: PanelSchema):
    """(outcome, outcome through csv.reader alone, whether the numpy
    tokenizer read the rows) for one panel file.

    Through csv.reader alone, csv.reader's tokenizer, and no other, reads
    the rows of every file whose rows the first parse reached.
    """
    calls = []

    def spy(name):
        tokenize = getattr(panel, name)

        def spied(*args):
            cells = tokenize(*args)
            calls.append((name, cells is not None))
            return cells

        return mock.patch.object(panel, name, spied)

    with spy("_plain_cells"), spy("_reader_cells"):
        outcome = parse_outcome(data, schema)
    # The rows were read by numpy or reached csv.reader.  The numpy tokenizer
    # may give up on a block that is not plain and hand over a file that is
    # not UTF-8, whose decoding then fails before csv.reader sees a row.
    tokenized = ("_plain_cells", True) in calls
    reached = tokenized or any(name == "_reader_cells" for name, _ in calls)
    calls.clear()
    with spy("_plain_cells"), spy("_reader_cells"), mock.patch.object(
        panel, "_is_plain", lambda data: False
    ):
        through_reader = parse_outcome(data, schema)
    assert [name for name, _ in calls] == ["_reader_cells"] * reached
    return outcome, through_reader, tokenized


class Unseekable(io.RawIOBase):
    """A stream of the bytes that cannot seek, as a pipe is."""

    def __init__(self, data: bytes) -> None:
        self._data = io.BytesIO(data)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        return self._data.readinto(buffer)


class ChangingFile(io.FileIO):
    """A file that holds ``scanned`` until the parse first seeks, to query
    its size before it reads a byte, and ``data`` from then on."""

    def __init__(self, path: Path, scanned: bytes, data: bytes) -> None:
        path.write_bytes(scanned)
        super().__init__(path, "rb")
        self.path, self.data, self.changed = path, data, False

    def seek(self, *args) -> int:
        if not self.changed:
            self.path.write_bytes(self.data)
            self.changed = True
        return super().seek(*args)


# Each byte that is not plain, as panel._is_plain judges plainness, made a
# plain one: the same length and the same line feeds.
_MADE_PLAIN = bytes(
    byte if byte in panel._PLAIN_BYTES else ord("x") for byte in range(256)
)


def parse_every_way(data: bytes, schema: PanelSchema, directory: Path) -> list:
    """The outcome of parsing the file from bytes, from an io.BytesIO, from
    a file in ``directory``, from a stream that cannot seek, and from files
    that change at the parse's first seek, its size query: one that grows,
    one that shrinks, one that holds fewer lines but as many bytes before
    that seek as after it, and one that is plain before it, with as many
    bytes and lines, and holds the file's bytes after it."""
    path = directory / "panel.csv"
    path.write_bytes(data)
    body = data.find(b"\n") + 1
    handles = (
        lambda: io.BytesIO(data),
        lambda: open(path, "rb"),
        lambda: io.BufferedReader(Unseekable(data)),
        lambda: ChangingFile(directory / "grows.csv", data[: len(data) // 2], data),
        lambda: ChangingFile(directory / "shrinks.csv", data + data[body:], data),
        lambda: ChangingFile(directory / "joins.csv", data.replace(b"\n", b","), data),
        lambda: ChangingFile(directory / "was-plain.csv", data.translate(_MADE_PLAIN), data),
    )
    outcomes = [parse_outcome(data, schema)]
    for handle in handles:
        with handle() as source:
            outcomes.append(parse_outcome(source, schema))
            assert getattr(source, "changed", True)
    return outcomes


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


def training_set_of(plan: AggregationPlan, rows) -> TrainingSet:
    """A training set of (FeatureVector, label) rows, in their order."""
    values = np.array([vector.values for vector, _ in rows], dtype=np.float64)
    return TrainingSet(
        plan=plan,
        entity_ids=tuple(vector.entity_id for vector, _ in rows),
        values=values.reshape(len(rows), len(plan.specs)),
        labels=np.array([label for _, label in rows], dtype=np.int64),
        report=TransformReport(),
    )


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
