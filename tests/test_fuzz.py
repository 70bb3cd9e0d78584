"""Fuzz of the command line: mutated panel, config and model files must end in
a documented exit code (0, 1 or 2) and never in an escaping exception.  A
mutated panel also parses to the same columns, or the same error, through
the numpy tokenizer as through csv.reader alone, and a mutated panel that
parses is written in the bytes of the row-by-row reference writer and reads
back to the same columns."""

import contextlib
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG_JSON, CSV_WRITER_QUOTES_CR, PANEL_CSV, parse_both_ways, write_both_ways

from leadframe.cli import main
from leadframe.errors import LeadframeError
from leadframe.panel import parse_panel_csv

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=60)

# (offset, bytes removed, bytes inserted): covers replacing, inserting and deleting.
byte_edits = st.lists(
    st.tuples(st.integers(0, 2**16), st.integers(0, 8), st.binary(max_size=6)),
    min_size=1,
    max_size=4,
)

# Small edits that insert only bytes a plain panel holds, mostly digits, so
# many mutants stay plain and regular and take the numpy tokenizer.
plain_edits = st.lists(
    st.tuples(
        st.integers(0, 2**16),
        st.integers(0, 2),
        st.lists(
            st.sampled_from(["0", "7", "12", "-0", "+3", "007", "1_0", "0.5", "1e3", "9" * 16,
                             "nan", "x", ",", "\n", "\n\n"]),
            max_size=2,
        ).map(lambda pieces: "".join(pieces).encode()),
    ),
    min_size=1,
    max_size=4,
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["", "sum", "drop", "customer", "complaints", "month"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)

# (path choices, new value, delete instead of replace)
json_edits = st.lists(
    st.tuples(st.lists(st.integers(0, 50), min_size=1, max_size=4), json_values, st.booleans()),
    min_size=1,
    max_size=3,
)


def apply_byte_edits(data: bytes, edits) -> bytes:
    for offset, removed, inserted in edits:
        i = offset % (len(data) + 1)
        data = data[:i] + inserted + data[i + removed:]
    return data


def apply_json_edits(doc, edits):
    """Replace or delete one node per edit; each choice picks a child by position."""
    for choices, value, delete in edits:
        parent, key, node = None, None, doc
        for choice in choices:
            if not isinstance(node, (dict, list)) or not node:
                break
            key = list(node)[choice % len(node)] if isinstance(node, dict) else choice % len(node)
            parent, node = node, node[key]
        if parent is None:
            doc = value
        elif delete:
            del parent[key]
        else:
            parent[key] = value
    return doc


def run(*argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    return code


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A clean panel, config, training set and model, plus a scratch directory."""
    root = tmp_path_factory.mktemp("fuzz")
    training, model = root / "training.csv", root / "model.json"
    assert run("transform", "--input", PANEL_CSV, "--config", CONFIG_JSON, "--output", training) == 0
    assert run("train", "--input", training, "--config", CONFIG_JSON, "--output", model) == 0
    config = json.loads(CONFIG_JSON.read_text())
    # Run time grows with epochs alone; without the key, no edit can make it huge.
    del config["train"]["epochs"]
    return {
        "root": root,
        "panel": PANEL_CSV.read_bytes(),
        "config": config,
        "training": training,
        "model": json.loads(model.read_text()),
    }


def write_json(path, doc, edits):
    """Write doc as JSON, then apply the byte edits unless they are None."""
    data = json.dumps(doc).encode("utf-8")
    path.write_bytes(data if edits is None else apply_byte_edits(data, edits))
    return path


def run_command(command, files, panel=PANEL_CSV, config=CONFIG_JSON):
    """Run one command on the given panel and config, and the clean training
    set and model; outputs go to the scratch directory."""
    root = files["root"]
    model = write_json(root / "model.json", files["model"], None)
    argv = {
        "validate": ("--input", panel, "--config", config),
        "transform": ("--input", panel, "--config", config, "--output", root / "t.csv"),
        "train": ("--input", files["training"], "--config", config, "--output", root / "m.json"),
        "score": ("--model", model, "--input", panel, "--config", config,
                  "--output", root / "s.csv"),
        "sweep": ("--input", panel, "--config", config, "--output", root / "c.csv"),
    }[command]
    run(command, *argv)


@FUZZ
@given(edits=byte_edits, command=st.sampled_from(["validate", "transform", "score", "sweep"]))
def test_mutated_panel(files, edits, command):
    panel = files["root"] / "panel.csv"
    panel.write_bytes(apply_byte_edits(files["panel"], edits))
    run_command(command, files, panel=panel)


@FUZZ
@given(edits=plain_edits | byte_edits)
def test_tokenizers_agree_on_mutated_panel(files, schema, edits):
    data = apply_byte_edits(files["panel"], edits)
    outcome, through_reader, _ = parse_both_ways(data, schema)
    assert outcome == through_reader


@FUZZ
@given(edits=plain_edits | byte_edits)
def test_mutated_panel_written_like_row_writer(files, schema, edits):
    try:
        dataset = parse_panel_csv(apply_byte_edits(files["panel"], edits), schema)
    except (LeadframeError, UnicodeDecodeError, csv.Error):
        return
    written, reference = write_both_ways(dataset)
    if CSV_WRITER_QUOTES_CR or not any("\r" in e for e in dataset.columns.entity_ids):
        assert written == reference
    columns = dataset.columns
    canonical = columns.take(np.lexsort((columns.ordinals, columns.codes)))
    assert parse_panel_csv(written.encode(), schema).columns == canonical


@FUZZ
@given(
    edits=json_edits,
    raw=st.none() | byte_edits,
    command=st.sampled_from(["validate", "transform", "train", "score", "sweep"]),
)
def test_mutated_config(files, edits, raw, command):
    doc = apply_json_edits(json.loads(json.dumps(files["config"])), edits)
    run_command(command, files, config=write_json(files["root"] / "config.json", doc, raw))


@FUZZ
@given(edits=json_edits, raw=st.none() | byte_edits)
def test_mutated_model(files, edits, raw):
    root = files["root"]
    doc = apply_json_edits(json.loads(json.dumps(files["model"])), edits)
    model = write_json(root / "model.json", doc, raw)
    run("score", "--model", model, "--input", PANEL_CSV, "--config", CONFIG_JSON,
        "--output", root / "s.csv")
