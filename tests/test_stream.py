"""``validate``, ``transform`` and ``score`` read a seekable plain panel
file as blocks of whole entities, and every other file as a whole;
``sweep`` always reads the file whole.

Every output byte, error message and exit code is that of reading the file
whole.  These tests make blocks of a few lines (``panel._BLOCK_BYTES``), so
small files span many blocks, and compare each command's outcome with its
outcome when the stream hands every file to the whole read at once.
"""

import contextlib
import csv
import io
import json
import logging
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import CONFIG_JSON
from corpus import random_float_panel_rows, random_panel_rows, rows_to_csv_bytes
from test_panel import EDGE_FILES, FIRST_FAULT, csv_bytes, small_schema

from leadframe import cli, panel
from leadframe.model import LogisticModel
from leadframe.panel import EntityBlocks, write_panel_csv
from leadframe.synth import SynthConfig, default_schema, generate_panel

# Bytes of lines per block in these tests: two or three lines of the small files.
BLOCK = 40
HEADER = "entity,period,a,b,event"
PLAN = [
    {"name": "sum_a", "kind": "sum", "column": "a"},
    {"name": "nonzero_b", "kind": "count_nonzero", "column": "b"},
    {"name": "max_a", "kind": "max", "column": "a"},
    {"name": "last_b", "kind": "last", "column": "b"},
    {"name": "a_per_b", "kind": "ratio_of_sums", "numerator": "a", "denominator": "b"},
]


def write_inputs(directory, schema):
    """A config of the five-kind plan over a and b, and a model for it."""
    config = directory / "config.json"
    config.write_text(json.dumps({
        "schema": {
            "entity_column": schema.entity_column,
            "period_column": schema.period_column,
            "event_column": schema.event_column,
            "feature_columns": list(schema.feature_columns),
        },
        "plan": PLAN,
        "reference_frame": {"lead_time": 1, "empty_window_policy": "zeros"},
    }))
    model = directory / "model.json"
    LogisticModel(
        feature_names=tuple(spec["name"] for spec in PLAN),
        weights=(0.3, -0.2, 0.1, 0.05, -0.4),
        intercept=-0.5,
        means=(1.0, 0.5, 2.0, 1.0, 0.7),
        stds=(2.0, 1.0, 3.0, 1.5, 0.9),
    ).save(model)
    return config, model


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("small"), small_schema())


@pytest.fixture(scope="module")
def corpus_inputs(tmp_path_factory, corpus_schema):
    return write_inputs(tmp_path_factory.mktemp("corpus"), corpus_schema)


class Spy:
    """Counts the items the streamed reads give, each block and the None
    that hands the file to the whole read, and the whole reads the
    commands make."""

    def __init__(self):
        self.blocks = self.wholes = 0
        stream, whole = EntityBlocks.__iter__, cli._parse

        def counted_stream(blocks):
            for block in stream(blocks):
                self.blocks += 1
                yield block

        def counted_whole(*args):
            self.wholes += 1
            return whole(*args)

        self.patches = [
            mock.patch.object(EntityBlocks, "__iter__", counted_stream),
            mock.patch.object(cli, "_parse", counted_whole),
        ]

    def __enter__(self):
        for patch in self.patches:
            patch.__enter__()
        return self

    def __exit__(self, *exc):
        for patch in reversed(self.patches):
            patch.__exit__(*exc)


def never_streamed(self):
    yield None


def run(command, data, inputs, directory, capsys, *, whole=False, block=BLOCK):
    """(exit code, stderr, outputs) of one command on the panel bytes, read
    as blocks of ``block`` bytes of lines or, with ``whole``, whole.  The
    outputs are the files written and, under ``stdout``, what is printed."""
    config, model = inputs
    directory.mkdir()
    source, out = directory / "panel.csv", directory / "out.csv"
    source.write_bytes(data)
    argv = {
        "validate": ["validate"],
        "transform": ["transform", "--output", out],
        "score": ["score", "--model", model, "--output", out],
        "sweep": ["sweep", "--output", out],
    }[command] + ["--input", source, "--config", config]
    capsys.readouterr()
    with mock.patch.object(panel, "_BLOCK_BYTES", block), mock.patch.object(
        EntityBlocks, "__iter__", never_streamed if whole else EntityBlocks.__iter__
    ):
        code = cli.main([str(a) for a in argv])
    files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())
             if path.name.startswith("out")}
    printed = capsys.readouterr()
    if printed.out:
        files["stdout"] = printed.out
    return code, printed.err, files


class Compare:
    """Runs validate, transform and score on a panel, streamed and whole,
    asserts that each command's outcomes are equal, and returns the spy of
    the streamed transform and score runs."""

    def __init__(self, tmp_path, capsys):
        self.tmp_path, self.capsys, self.runs = tmp_path, capsys, 0

    def run(self, command, data, inputs, **kwargs):
        self.runs += 1
        return run(command, data, inputs, self.tmp_path / f"run{self.runs}", self.capsys, **kwargs)

    def __call__(self, data, inputs, block=BLOCK):
        spy = Spy()
        for command in ("validate", "transform", "score"):
            with Spy() if command == "validate" else spy:
                streamed = self.run(command, data, inputs, block=block)
            assert streamed == self.run(command, data, inputs, block=block, whole=True), command
        return spy


@pytest.fixture()
def compare(tmp_path, capsys):
    return Compare(tmp_path, capsys)


def corpus_panels(seed, count=60):
    """Seeded corpus panels, entity by entity, each of two blocks or more."""
    rng = random.Random(seed)
    panels = []
    while len(panels) < count:
        rows = (random_panel_rows if len(panels) % 2 else random_float_panel_rows)(rng)
        data = rows_to_csv_bytes(rows)
        if len(data) - data.index(b"\n") > 2 * BLOCK and len({row[0] for row in rows}) > 2:
            panels.append(data)
    return panels


def grouped(count, periods=4, prefix="e"):
    """Lines of ``count`` entities of ``periods`` rows each, entity by entity."""
    return [
        f"{prefix}{i:02d},{t},{(i * 7 + t) % 5},{(i + t) % 3},{int(t == periods and i % 3 == 0)}"
        for i in range(count) for t in range(1, periods + 1)
    ]


class Seeks(io.BytesIO):
    """A file that keeps the position each seek moves it to."""

    def __init__(self, data):
        super().__init__(data)
        self.targets = []

    def seek(self, *args):
        position = super().seek(*args)
        self.targets.append(position)
        return position


def blocks_of(data, block=BLOCK):
    """(text, given) of each item of a streamed read of the panel: the
    header line and a block's lines, given as a dataset, or the header line
    and the lines read since the last block before the stream gave None."""
    handle = Seeks(data)
    header = data[: data.index(b"\n") + 1]
    items = []
    with mock.patch.object(panel, "_BLOCK_BYTES", block):
        for dataset in EntityBlocks(handle, small_schema()):
            items.append((handle.tell(), dataset is not None))
    # Each read after the first starts where a block ends; the last item
    # ends where the stream stopped reading.
    starts = [len(header), *handle.targets]
    return [
        (header + data[starts[k] : starts[k + 1] if k + 1 < len(starts) else read], given)
        for k, (read, given) in enumerate(items)
    ]


class TestEquivalence:
    @pytest.mark.parametrize("name", list(EDGE_FILES))
    def test_edge_files(self, compare, inputs, name):
        compare(EDGE_FILES[name][0], inputs)

    @pytest.mark.parametrize("row", [row for row, _ in FIRST_FAULT])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_first_faults_in_each_block(self, compare, inputs, row, where):
        lines = grouped(9)
        at = {"first": 1, "middle": len(lines) // 2, "last": len(lines)}[where]
        lines.insert(at, row)
        data = csv_bytes(HEADER, *lines)
        blocks = blocks_of(data)
        (block,) = [k for k, (text, _) in enumerate(blocks) if row.encode() in text.split(b"\n")]
        # The stream gives None at the read that holds the fault.
        assert block == len(blocks) - 1 and not blocks[block][1]
        ends_file = data.endswith(blocks[block][0][len(HEADER) + 1 :])
        assert {"first": block == 0, "middle": 0 < block and not ends_file,
                "last": ends_file}[where]
        spy = compare(data, inputs)
        # Every block up to the fault's is read, and the file is then read whole.
        assert spy.wholes == 2
        assert spy.blocks >= 2 * (block + 1)

    def test_corpus_panels_of_several_blocks(self, compare, corpus_inputs):
        # A panel streams to its end unless a later entity is the first
        # to be seen in some period, which the corpus draws often: 14 of
        # these 60 stream to their end.
        streamed = 0
        for data in corpus_panels(20261020):
            spy = compare(data, corpus_inputs)
            assert spy.blocks >= 2
            streamed += spy.wholes == 0
        assert streamed >= 10

    def test_corpus_panels_with_a_fault(self, compare, corpus_inputs):
        # A -1 planted in the first, a middle or the last line below the header.
        rng = random.Random(7)
        for k, data in enumerate(corpus_panels(20261021, count=30)):
            lines = data.decode().splitlines()
            line = [1, len(lines) // 2, len(lines) - 1][k % 3]
            cells = lines[line].split(",")
            cells[2 + rng.randrange(3)] = "-1"
            lines[line] = ",".join(cells)
            spy = compare(("\n".join(lines) + "\n").encode(), corpus_inputs)
            assert spy.wholes == 2


class TestHandoff:
    """A file whose blocks are not its rows entity by entity, or that fails
    on the way, is read whole from its start, with the outcome of that read."""

    def test_entity_shuffled_copy(self, compare, inputs):
        lines = grouped(12)
        random.Random(3).shuffle(lines)
        spy = compare(csv_bytes(HEADER, *lines), inputs)
        assert spy.wholes == 2

    def test_grouped_but_unsorted_copy(self, compare, inputs):
        lines = grouped(12)
        by_entity = [lines[i : i + 4] for i in range(0, len(lines), 4)]
        by_entity[3], by_entity[8] = by_entity[8], by_entity[3]
        spy = compare(csv_bytes(HEADER, *(line for rows in by_entity for line in rows)), inputs)
        assert spy.wholes == 2

    def test_id_of_the_block_before_recurs(self, compare, inputs):
        # A row of e00 among e05's rows: e00 is in a block after e04's, so
        # that block's smallest id is not above the largest before it.
        lines = grouped(12)
        lines.insert(20, lines[3].replace(",4,", ",9,"))
        spy = compare(csv_bytes(HEADER, *lines), inputs)
        assert spy.wholes == 2

    def test_last_id_of_a_block_recurs_at_the_start_of_the_next(self, compare, inputs):
        # The first read ends with e05's second row, where the next read
        # starts: the first block's largest id, e05, is the next block's
        # smallest.
        lines = ["e00,1,1,1,0", "e05,1,2,1,0", "e01,1,3,1,0", "e05,2,4,2,0", *grouped(12)[24:]]
        data = csv_bytes(HEADER, *lines)
        (first, _), (second, _) = blocks_of(data)[:2]
        assert first.splitlines()[1:] == [line.encode() for line in lines[:3]]
        assert second.splitlines()[1] == lines[3].encode()
        spy = compare(data, inputs)
        assert spy.wholes == 2

    @pytest.mark.parametrize("late", ["0", "02"])
    def test_late_label_not_after_earlier_ones(self, compare, inputs, late):
        # Period 0 sorts before every period of the blocks before it, and
        # "02" is period 2 again: the whole read orders the first and
        # refuses the second.
        lines = grouped(12)
        lines[-1] = lines[-1].split(",", 1)[0] + f",{late},1,1,0"
        spy = compare(csv_bytes(HEADER, *lines), inputs)
        assert spy.wholes == 2

    def test_month_labels_in_order_stream(self, compare, inputs):
        lines = [
            f"m{i:02d},2016-{t:02d},{i % 4},{t % 3},0" for i in range(12) for t in range(1, 13)
        ]
        spy = compare(csv_bytes(HEADER, *lines), inputs)
        assert spy.wholes == 0 and spy.blocks >= 8

    def test_period_kind_changes_in_a_later_block(self, compare, inputs):
        lines = grouped(12)
        lines[-4:] = [f"e11,2016-0{t},1,1,0" for t in range(1, 5)]
        spy = compare(csv_bytes(HEADER, *lines), inputs)
        assert spy.wholes == 2

    def test_crlf_block_mid_file(self, compare, inputs):
        lines = [line + "\r" if 20 <= k < 24 else line for k, line in enumerate(grouped(12))]
        assert not blocks_of(csv_bytes(HEADER, *lines))[-1][1]
        spy = compare(csv_bytes(HEADER, *lines), inputs)
        assert spy.wholes == 2

    def test_overflow_in_block_one_and_parse_fault_in_block_five(self, compare, inputs):
        lines = grouped(12)
        lines[0] = "e00,1,1e308,1,0"
        lines[1] = "e00,2,1e308,1,0"
        clean = blocks_of(csv_bytes(HEADER, *lines))
        # The fault's line, e04's third, is in the fifth block of the file.
        (block,) = [k for k, (text, _) in enumerate(clean) if lines[18].encode() in text]
        assert block >= 4
        lines[18] = "e04,3,2,-1,0"
        data = csv_bytes(HEADER, *lines)
        spy = compare(data, inputs)
        assert spy.wholes == 2
        code, err, files = run("transform", data, inputs, compare.tmp_path / "alone",
                               compare.capsys)
        assert (code, files) == (2, {})
        assert err == "error: line 20: value '-1' in column 'b' must be finite and non-negative\n"

    def test_overflow_alone_is_named_by_the_whole_read(self, compare, inputs):
        lines = grouped(12)
        lines[40:42] = ["e10,1,1e308,1,0", "e10,2,1e308,1,0"]
        spy = compare(csv_bytes(HEADER, *lines), inputs)
        assert spy.wholes == 2

    def test_unseekable_input_is_read_whole(self, inputs):
        # As /dev/stdin is, piped from a process.
        data = csv_bytes(HEADER, *grouped(12))
        config = cli.config_mod.load_run_config(inputs[0])
        with Spy() as spy, mock.patch.object(panel, "_BLOCK_BYTES", BLOCK), mock.patch.object(
            cli, "open", lambda *args: io.BufferedReader(Unseekable(data)), create=True
        ):
            timelines_read = cli._fold_panel("-", config, (), len)
        assert (spy.blocks, spy.wholes) == (0, 1)
        assert timelines_read == [12]


class Unseekable(io.RawIOBase):
    def __init__(self, data):
        self._data = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, buffer):
        return self._data.readinto(buffer)


class TestBlocks:
    def test_blocks_hold_whole_entities(self):
        data = csv_bytes(HEADER, *grouped(12))
        blocks = [text for text, given in blocks_of(data) if given]
        assert len(blocks) == len(blocks_of(data)) >= 8
        header = HEADER.encode() + b"\n"
        assert all(block.startswith(header) for block in blocks)
        assert b"".join(block[len(header):] for block in blocks) == data[len(header):]
        ids = [{line.split(b",")[0] for line in block.splitlines()[1:]} for block in blocks]
        assert all(not (a & b) for k, a in enumerate(ids) for b in ids[k + 1:])

    def test_entity_longer_than_a_block(self, compare, inputs):
        long = [f"long,{t},{t % 4},{t % 3},0" for t in range(1, 40)]
        lines = grouped(3) + long + grouped(3, prefix="z")
        data = csv_bytes(HEADER, *lines)
        blocks = blocks_of(data)
        (longest,) = [text for text, _ in blocks if b"long," in text]
        assert longest.count(b"long,") == 39
        assert len(longest) > 10 * BLOCK
        spy = compare(data, inputs)
        assert spy.wholes == 0
        assert spy.blocks == 2 * len(blocks)

    def test_blank_lines_stay_in_their_blocks(self, compare, inputs):
        lines = grouped(12)
        for at in (0, 9, 30):
            lines.insert(at, "")
        spy = compare(csv_bytes(HEADER, *lines, ""), inputs)
        assert spy.wholes == 0

    def test_last_line_without_line_feed(self, compare, inputs):
        spy = compare(csv_bytes(HEADER, *grouped(12))[:-1], inputs)
        assert spy.wholes == 0

    def test_one_read_is_one_block(self):
        # A file read in one read is one block, however its rows are ordered.
        lines = grouped(12)
        random.Random(5).shuffle(lines)
        assert len(blocks_of(csv_bytes(HEADER, *lines), block=1 << 16)) == 1



class TestValidate:
    """validate reads a panel as the other per-entity commands do, and prints
    its reports only once the last block is read."""

    def test_grouped_file_streams(self, compare, inputs):
        # Gaps and events both before the last period give every kind of finding.
        lines = [line for k, line in enumerate(grouped(12)) if k % 7 != 3]
        lines = [line[:-1] + "1" if k % 5 == 2 else line for k, line in enumerate(lines)]
        data = csv_bytes(HEADER, *lines)
        compare(data, inputs)
        with Spy() as spy:
            code, err, files = run("validate", data, inputs, compare.tmp_path / "alone",
                                   compare.capsys)
        assert spy.wholes == 0 and spy.blocks >= 4
        assert (code, err) == (1, "")
        reports = [json.loads(line) for line in files["stdout"].splitlines()]
        assert [report["entity"] for report in reports] == [f"e{i:02d}" for i in range(12)]
        codes = {finding["code"] for report in reports for finding in report["findings"]}
        assert codes == {"period_gaps", "multiple_events", "records_after_event"}

    def test_fault_in_the_last_block_prints_no_report(self, compare, inputs):
        lines = grouped(9) + ["e09,1,1,-1,0"]
        data = csv_bytes(HEADER, *lines)
        assert b"e09," in blocks_of(data)[-1][0]
        with Spy() as spy:
            code, err, files = run("validate", data, inputs, compare.tmp_path / "alone",
                                   compare.capsys)
        assert spy.blocks >= 3 and spy.wholes == 1
        assert (code, files) == (2, {})
        assert err == "error: line 38: value '-1' in column 'b' must be finite and non-negative\n"


def test_sweep_reads_the_panel_whole_once(tmp_path, capsys, inputs):
    # Split by entity at every lead time, the sweep reads the whole panel once.
    data = csv_bytes(HEADER, *grouped(40))
    with Spy() as spy:
        code, err, files = run("sweep", data, inputs, tmp_path / "sweep", capsys)
    assert (code, err) == (0, "")
    assert (spy.blocks, spy.wholes) == (0, 1)
    assert files["out.csv"].startswith(b"lead_time,")


class Counted(io.BytesIO):
    """A file that keeps the bytes each read and each readline return."""

    def __init__(self, data):
        super().__init__(data)
        self.reads, self.lines = [], []

    def read(self, size=-1):
        data = super().read(size)
        self.reads.append(len(data))
        return data

    def readinto(self, buffer):
        size = super().readinto(buffer)
        self.reads.append(size)
        return size

    def readline(self, size=-1):
        data = super().readline(size)
        self.lines.append(len(data))
        return data


class TestReads:
    """The blocks of a file read each of its bytes about once: a read ends
    where the next begins, but for the lines of the last entity it holds."""

    def test_synth_panel_is_read_about_once(self):
        config = SynthConfig(n_entities=5000, n_periods=24, event_rate=0.3, ramp_length=3,
                             signal_strength=3.0, noise_rate=0.5, seed=0)
        text = io.StringIO(newline="")
        write_panel_csv(generate_panel(config), text)
        data = text.getvalue().encode()
        handle = Counted(data)
        blocks = list(EntityBlocks(handle, default_schema()))
        assert len(blocks) >= 8 and None not in blocks
        assert sum(handle.reads) + sum(handle.lines) <= 1.05 * len(data)

    @pytest.mark.parametrize("periods", [200, 257, 300, 511, 2805])
    def test_entity_many_reads_long_is_read_once(self, periods):
        # The reads of the one entity are gathered into one block, each
        # read after the one before, so each byte is read once, and each
        # readline reads the rest of one line.
        data = csv_bytes(HEADER, *grouped(1, periods))
        assert len(data) > 50 * BLOCK
        handle = Counted(data)
        with mock.patch.object(panel, "_BLOCK_BYTES", BLOCK):
            (block,) = EntityBlocks(handle, small_schema())
        assert block.columns == panel.parse_panel_csv(data, small_schema()).columns
        assert sum(handle.reads) + sum(handle.lines) == len(data)
        assert max(handle.lines) <= max(map(len, data.splitlines(keepends=True)))

class TestOneSetUpPerFile:
    """A streamed read parses the header line, lays out its columns and
    makes its padded buffer once for the file, and judges each byte plain
    about once."""

    def test_streamed_transform_of_the_synth_panel(self, tmp_path):
        config = SynthConfig(n_entities=5000, n_periods=24, event_rate=0.3, ramp_length=3,
                             signal_strength=3.0, noise_rate=0.5, seed=0)
        text = io.StringIO(newline="")
        write_panel_csv(generate_panel(config), text)
        data = text.getvalue().encode()
        source, handle = tmp_path / "p.csv", Counted(data)
        source.write_bytes(data)
        headers, judged, buffers = [], [], []
        header_positions, is_plain, make_lines = (
            panel._header_positions, panel._is_plain, panel._Lines.__init__
        )

        def counted_header(*args):
            headers.append(args)
            return header_positions(*args)

        def counted_plain(data):
            judged.append(len(data))
            return is_plain(data)

        def counted_lines(lines, *args):
            make_lines(lines, *args)
            buffers.append((lines, lines._buffer))

        def opened(path, mode="r", **kwargs):
            return handle if mode == "rb" else open(path, mode, **kwargs)

        with Spy() as spy, mock.patch.object(panel, "_header_positions", counted_header), \
                mock.patch.object(panel, "_is_plain", counted_plain), \
                mock.patch.object(panel._Lines, "__init__", counted_lines), \
                mock.patch.object(cli, "open", opened, create=True):
            assert cli.main(["transform", "--input", str(source), "--config", str(CONFIG_JSON),
                             "--output", str(tmp_path / "t.csv")]) == 0
        assert spy.wholes == 0 and spy.blocks >= 8
        assert len(headers) == 1
        ((lines, made),) = buffers
        assert lines._buffer is made
        assert sum(judged) <= 1.05 * len(data)
        assert sum(handle.reads) + sum(handle.lines) <= 1.05 * len(data)

    def test_each_byte_judged_about_once_in_place(self):
        # A read's body is judged in the buffer, the rest of its last line
        # and the header line as bytes.
        config = SynthConfig(n_entities=2000, n_periods=24, event_rate=0.3, ramp_length=3,
                             signal_strength=3.0, noise_rate=0.5, seed=0)
        text = io.StringIO(newline="")
        write_panel_csv(generate_panel(config), text)
        data = text.getvalue().encode()
        judged = {"_is_plain": [], "_is_plain_array": []}

        def counted(name):
            judge = getattr(panel, name)

            def counted_judge(data):
                judged[name].append(len(data))
                return judge(data)

            return mock.patch.object(panel, name, counted_judge)

        with counted("_is_plain"), counted("_is_plain_array"):
            blocks = list(EntityBlocks(Counted(data), default_schema()))
        assert len(blocks) >= 3 and None not in blocks
        assert len(judged["_is_plain_array"]) >= 3
        assert sum(judged["_is_plain"]) < 0.01 * len(data)
        assert len(data) <= sum(map(sum, judged.values())) <= 1.05 * len(data)


def test_folds_keep_nothing_of_a_block(compare, inputs, corpus_inputs):
    # Each block's rows fill the arrays of the block before it: poisoned
    # once the block's fold returns, they change no output.
    stream = EntityBlocks.__iter__

    def poisoned(blocks):
        for dataset in stream(blocks):
            yield dataset
            if dataset is not None:
                columns = dataset.columns
                columns.codes.fill(10**9)
                columns.ordinals.fill(-1)
                columns.values.fill(float("nan"))
                columns.flags.fill(7)

    with mock.patch.object(EntityBlocks, "__iter__", poisoned):
        spy = compare(csv_bytes(HEADER, *grouped(12)), inputs)
        assert spy.wholes == 0 and spy.blocks >= 8
        long = [f"long,{t},{t % 4},{t % 3},0" for t in range(1, 40)]
        spy = compare(csv_bytes(HEADER, *grouped(3), *long, *grouped(3, prefix="z")), inputs)
        assert spy.wholes == 0
        for data in corpus_panels(20261022, count=10):
            compare(data, corpus_inputs)


def test_panel_line_logged_once_with_the_file_totals(tmp_path, capsys, caplog, inputs):
    data = csv_bytes(HEADER, *grouped(12))
    caplog.set_level(logging.INFO, logger="leadframe")
    with Spy() as spy:
        run("transform", data, inputs, tmp_path / "streamed", capsys)
    assert spy.blocks >= 4 and spy.wholes == 0
    streamed = [r.getMessage() for r in caplog.records if r.getMessage().startswith("panel ")]
    caplog.clear()
    run("transform", data, inputs, tmp_path / "whole", capsys, whole=True)
    whole = [r.getMessage() for r in caplog.records if r.getMessage().startswith("panel ")]
    assert len(streamed) == 1
    shape = "48 rows, 12 entities, 4 periods"
    assert streamed[0].split(": ")[1] == whole[0].split(": ")[1] == shape


class TestNoTimelineObjects:
    """transform and score fold each block of build_timelines with no
    EntityTimeline: the only ones made are those an error names."""

    @staticmethod
    def made():
        """A patch of EntityTimeline.__init__ and the list of the ids of
        the timelines it makes."""
        made, init = [], panel.EntityTimeline.__init__

        def counted(timeline, block, index):
            init(timeline, block, index)
            made.append(timeline.entity_id)

        return mock.patch.object(panel.EntityTimeline, "__init__", counted), made

    def test_streamed_synth_panel(self, tmp_path):
        config = SynthConfig(n_entities=300, n_periods=12, event_rate=0.3, ramp_length=3,
                             signal_strength=3.0, noise_rate=0.5, seed=2)
        text = io.StringIO(newline="")
        write_panel_csv(generate_panel(config), text)
        source, training, model = tmp_path / "p.csv", tmp_path / "t.csv", tmp_path / "m.json"
        source.write_text(text.getvalue(), encoding="utf-8")
        patch, made = self.made()
        with Spy() as spy, patch, mock.patch.object(panel, "_BLOCK_BYTES", 2000):
            assert cli.main(["transform", "--input", str(source), "--config", str(CONFIG_JSON),
                             "--output", str(training)]) == 0
            assert cli.main(["train", "--input", str(training), "--config", str(CONFIG_JSON),
                             "--output", str(model)]) == 0
            assert cli.main(["score", "--model", str(model), "--input", str(source),
                             "--config", str(CONFIG_JSON),
                             "--output", str(tmp_path / "s.csv")]) == 0
        assert spy.wholes == 0 and spy.blocks >= 2 * 10
        assert made == []

    @pytest.mark.parametrize("whole", [False, True], ids=["streamed", "whole"])
    @pytest.mark.parametrize("command", ["transform", "score"])
    def test_overflow_makes_only_the_timeline_it_names(self, tmp_path, capsys, inputs,
                                                       command, whole):
        lines = grouped(12)
        lines[-2:] = ["e11,3,1e308,1,0", "e11,4,1e308,1,0"]
        patch, made = self.made()
        with Spy() as spy, patch:
            code, err, files = run(command, csv_bytes(HEADER, *lines), inputs, tmp_path / "run",
                                   capsys, whole=whole)
        assert (code, files) == (1, {})
        assert err == ("error: entity 'e11': feature 'sum_a' is inf; "
                       "the input values overflow a float\n")
        # A streamed fold that fails hands the file to the whole read, whose
        # fold fails the same way.
        assert spy.wholes == 1 and made == ["e11"] * (1 + (spy.blocks > 0))
        assert spy.blocks > 0 or whole

    @staticmethod
    def synth_panel(tmp_path):
        config = SynthConfig(n_entities=300, n_periods=12, event_rate=0.3, ramp_length=3,
                             signal_strength=3.0, noise_rate=0.5, seed=2)
        text = io.StringIO(newline="")
        write_panel_csv(generate_panel(config), text)
        source = tmp_path / "p.csv"
        source.write_text(text.getvalue(), encoding="utf-8")
        return source

    def test_streamed_validate_of_a_clean_panel(self, tmp_path, capsys):
        source = self.synth_panel(tmp_path)
        patch, made = self.made()
        with Spy() as spy, patch, mock.patch.object(panel, "_BLOCK_BYTES", 2000):
            code = cli.main(["validate", "--input", str(source), "--config", str(CONFIG_JSON)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0 and len(lines) == 300
        assert all(line.endswith('"findings": []}') for line in lines)
        assert spy.wholes == 0 and spy.blocks >= 2 * 10
        assert made == []

    @pytest.mark.parametrize("whole", [False, True], ids=["streamed", "whole"])
    def test_validate_with_findings(self, tmp_path, capsys, inputs, whole):
        # Gaps and events both before the last period give every kind of finding.
        lines = [line for k, line in enumerate(grouped(12)) if k % 7 != 3]
        lines = [line[:-1] + "1" if k % 5 == 2 else line for k, line in enumerate(lines)]
        patch, made = self.made()
        with Spy() as spy, patch:
            code, err, files = run("validate", csv_bytes(HEADER, *lines), inputs, tmp_path / "run",
                                   capsys, whole=whole)
        assert (code, err) == (1, "") and files["stdout"].count("records_after_event") > 1
        assert spy.wholes == whole and (spy.blocks > 0) != whole
        assert made == []

    def test_sweep(self, tmp_path):
        source = self.synth_panel(tmp_path)
        patch, made = self.made()
        with patch:
            assert cli.main(["sweep", "--input", str(source), "--config", str(CONFIG_JSON),
                             "--output", str(tmp_path / "c.csv")]) == 0
        assert made == []


# Ids with quotes, backslashes, commas and non-ASCII text go through
# csv.reader; the others are plain, and stream when they come sorted.
VALIDATE_IDS = st.text(st.sampled_from('ab0"\\,é漢'), min_size=1, max_size=3)


@st.composite
def validate_panels(draw):
    """Raw rows of one to six entities, each in one to six of periods 1-9
    with a flag in about a third of its rows, sorted by id, as drawn or
    shuffled."""
    rows = [
        (entity, str(period), {"a": 1.0, "b": 0.0}, draw(st.sampled_from([0, 0, 1])))
        for entity in draw(st.lists(VALIDATE_IDS, min_size=1, max_size=6, unique=True))
        for period in sorted(draw(st.lists(st.integers(1, 9), min_size=1, max_size=6,
                                           unique=True)))
    ]
    order = draw(st.sampled_from(["by id", "as drawn", "shuffled"]))
    if order == "by id":
        rows.sort(key=lambda row: row[0])
    elif order == "shuffled":
        rows = draw(st.permutations(rows))
    return rows


class TestValidateMatchesOracle:
    """Every line validate prints is the reference's report of its entity,
    counted row by row (``oracle.validate_reports``) and rendered by
    ``json.dumps(..., sort_keys=True)``, in id order, with its exit code."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(rows=validate_panels())
    def test_lines_match_the_reference(self, inputs, rows):
        config, _ = inputs
        source = config.parent / "oracle-panel.csv"
        text = io.StringIO(newline="")
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(HEADER.split(","))
        writer.writerows((e, p, f["a"], f["b"], flag) for e, p, f, flag in rows)
        source.write_text(text.getvalue(), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.object(panel, "_BLOCK_BYTES", BLOCK):
            code = cli.main(["validate", "--input", str(source), "--config", str(config)])
        reports, expected_code = oracle.validate_reports(rows)
        assert out.getvalue() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in reports)
        assert (code, err.getvalue()) == (expected_code, "")


def test_streamed_commands_hold_a_block(tmp_path, capsys):
    # On the 5,000 x 24 panel, transform and score each peak below half
    # their peak when reading the file whole.
    config = SynthConfig(n_entities=5000, n_periods=24, event_rate=0.3, ramp_length=3,
                         signal_strength=3.0, noise_rate=0.5, seed=0)
    dataset, text = generate_panel(config), io.StringIO(newline="")
    write_panel_csv(dataset, text)
    data = text.getvalue().encode()
    del dataset, text
    source, training, model = tmp_path / "p.csv", tmp_path / "t.csv", tmp_path / "m.json"
    source.write_bytes(data)
    assert cli.main(["transform", "--input", str(source), "--config", str(CONFIG_JSON),
                     "--output", str(training)]) == 0
    assert cli.main(["train", "--input", str(training), "--config", str(CONFIG_JSON),
                     "--output", str(model)]) == 0
    commands = {
        "transform": ["transform"],
        "score": ["score", "--model", str(model)],
    }
    for name, argv in commands.items():
        peaks, outputs = [], []
        for stream in (EntityBlocks.__iter__, never_streamed):
            out = tmp_path / f"{name}-{stream.__name__}.csv"
            with mock.patch.object(EntityBlocks, "__iter__", stream):
                tracemalloc.start()
                try:
                    assert cli.main([*argv, "--input", str(source), "--config", str(CONFIG_JSON),
                                     "--output", str(out)]) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert peaks[0] < peaks[1] / 2, (name, peaks)
