"""The training-CSV reader's two paths: a plain file through a binary
handle is read by the panel's numpy tokenizer, and every other input by
csv.reader.  Both give the same training set, bit for bit, or the same
error."""

import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_transform import EDGE_FLOATS, READ_ACCEPTED, READ_FAULTS, READ_HEADER, READ_PLAN

from leadframe import panel, transform
from leadframe.errors import LeadframeError, ParseError
from leadframe.transform import (
    AggregationPlan,
    FeatureSpec,
    TrainingSet,
    TransformReport,
    read_training_csv,
    write_training_csv,
)

# (name, file text): files the plain path reads or hands to csv.reader,
# beyond the reader's own cases.
MORE_CASES = [
    ("decimals", READ_HEADER + "x,.5,5.,1\ny,0.25,123456789.012345,0\n"),
    ("sixteen-digits", READ_HEADER + "x,.9007199254740993,9007199254740993,1\n"
                       "y,9.065583532520021,988084914218.9019,0\n"),
    ("signs-and-exponents", READ_HEADER + "x,-0.0,+1,0\ny,1e-05,-2.5E+3,1\n"),
    ("lone-point", READ_HEADER + "x,.,1,0\n"),
    ("two-points", READ_HEADER + "x,1.2.3,1,0\n"),
    ("label-zero-one", READ_HEADER + "x,1,2,01\ny,1,2,00\n"),
    ("label-signed", READ_HEADER + "x,1,2,+1\ny,1,2,-0\n"),
    ("label-decimal", READ_HEADER + "x,1,2,1.0\n"),
    ("no-final-line-feed", READ_HEADER + "x,1,2,0\ny,3,4,1"),
    ("header-only-no-line-feed", READ_HEADER.rstrip("\n")),
    ("crlf", READ_HEADER.replace("\n", "\r\n") + "x,1.5,2,0\r\n"),
    ("bom", "\ufeff" + READ_HEADER + "x,1,2,0\n"),
    ("non-ascii-id", READ_HEADER + "\u00e9,1,2,0\n"),
    ("space-in-id", READ_HEADER + "a b,1,2,0\n"),
    ("long-id", READ_HEADER + "i" * 300 + ",1,2,0\n"),
    ("header-reordered", "entity_id,b,a,label\nx,1,2,0\n"),
    ("header-short", "entity_id,a,b\nx,1,2\n"),
    ("empty-id", READ_HEADER + ",1,2,0\n"),
    ("blank-first-line", "\n" + READ_HEADER + "x,1,2,0\n"),
]

CASES = [(name, text) for name, text, *_ in READ_FAULTS + READ_ACCEPTED] + MORE_CASES


def outcome(stream, plan=READ_PLAN):
    """The training set read, bit for bit, or the type and message of the
    error; any error the command line does not report escapes."""
    try:
        training = read_training_csv(stream, plan)
    except (LeadframeError, UnicodeDecodeError) as exc:
        return type(exc), str(exc)
    return (
        training.entity_ids, training.values.shape, training.values.tobytes(),
        training.labels.tolist(), training.report,
    )


class Unseekable(io.BytesIO):
    """A binary stream that cannot seek, as a pipe cannot."""

    def seekable(self):
        return False


def refuse_csv_reader():
    """Patch csv.reader out of the training reader, so that a read it is
    handed fails."""
    return mock.patch.object(
        transform, "_read_records", side_effect=AssertionError("read by csv.reader")
    )


class TestBinaryMatchesText:
    """Through a binary handle, seekable or not, every case reads as its
    decoded text does through a text stream, which csv.reader reads."""

    @pytest.mark.parametrize("text", [text for _, text in CASES], ids=[name for name, _ in CASES])
    def test_same_outcome(self, text):
        expected = outcome(io.StringIO(text, newline=""))
        data = text.encode()
        assert outcome(io.BytesIO(data)) == expected
        assert outcome(Unseekable(data)) == expected

    @pytest.mark.parametrize("name", [
        "blank-lines-skipped", "no-rows", "decimals", "sixteen-digits", "signs-and-exponents",
        "no-final-line-feed", "header-only-no-line-feed", "empty-id",
    ])
    def test_plain_files_take_the_numpy_path(self, name):
        text = dict(CASES)[name]
        expected = outcome(io.StringIO(text, newline=""))
        with refuse_csv_reader():
            assert outcome(io.BytesIO(text.encode())) == expected

    def test_read_from_the_handle_position(self):
        text = READ_HEADER + "x,1.5,2,0\n"
        for data in (text.encode(), text.replace("\n", "\r\n").encode()):
            handle = io.BytesIO(b"skipped" + data)
            handle.seek(len(b"skipped"))
            assert outcome(handle) == outcome(io.BytesIO(data))

    def test_handle_left_open_after_csv_reader(self):
        handle = io.BytesIO((READ_HEADER + "x,1,2,0\r\n").encode())
        read_training_csv(handle, READ_PLAN)
        assert not handle.closed

    def test_rows_across_blocks(self):
        # Lines of growing length across reads of 64 bytes: the arrays are
        # remade as later blocks find them short.
        lines = [f"e{i},{i / 8},{'9' * (i % 13 + 1)}.5,{i % 2}\n" for i in range(300)]
        text = READ_HEADER + "".join(lines)
        expected = outcome(io.StringIO(text, newline=""))
        with mock.patch.object(panel, "_BLOCK_BYTES", 64), refuse_csv_reader():
            assert outcome(io.BytesIO(text.encode())) == expected

    def test_fault_in_a_late_block(self):
        lines = [f"e{i},{i},1.25,0\n" for i in range(300)] + ["z,1,nan,0\n"]
        text = READ_HEADER + "".join(lines)
        expected = outcome(io.StringIO(text, newline=""))
        with mock.patch.object(panel, "_BLOCK_BYTES", 64):
            assert outcome(io.BytesIO(text.encode())) == expected


class TestPlainRules:
    """What the training reader asks of a block beyond what the panel's
    tokenizing step does, over reads of 64 bytes: exactly the header's
    cells on each line, and any finite value, negative ones too."""

    def test_later_block_with_a_cell_too_many(self):
        # Lines of 16 bytes: each read takes four lines and the next whole
        # one, so the lines of five cells fill blocks of their own, which
        # the tokenizing step takes.
        lines = [f"e{i:06d},1.5,2,0\n" for i in range(300)]
        lines += [f"z{i:06d},1,2,0,9\n" for i in range(30)]
        assert {len(line) for line in lines} == {16}
        data = (READ_HEADER + "".join(lines)).encode()
        with mock.patch.object(panel, "_BLOCK_BYTES", 64):
            assert outcome(io.BytesIO(data)) == (
                ParseError, "training CSV row has 5 cells, expected 4"
            )

    def test_negative_values_across_blocks(self):
        lines = [f"e{i:03d},{-i / 8},{'-0.0' if i % 3 else -i},{i % 2}\n" for i in range(300)]
        text = READ_HEADER + "".join(lines)
        expected = outcome(io.StringIO(text, newline=""))
        with mock.patch.object(panel, "_BLOCK_BYTES", 64), refuse_csv_reader():
            assert outcome(io.BytesIO(text.encode())) == expected


PLAIN_CHARACTERS = [chr(c) for c in range(0x21, 0x7F) if chr(c) not in ',"']


@st.composite
def plain_training_sets(draw):
    """A training set whose ids and names are plain and need no quoting,
    and whose columns repeat a few values: floats at the edges, -0.0
    beside 0.0, and decimals of up to 15 digits."""
    m = draw(st.integers(1, 4))
    names = draw(st.lists(
        st.text(st.sampled_from(PLAIN_CHARACTERS), min_size=1, max_size=5),
        min_size=m, max_size=m, unique=True,
    ))
    plan = AggregationPlan(tuple(FeatureSpec.sum(name, "a") for name in names))
    decimals = st.builds(
        lambda mantissa, k: mantissa / 10**k, st.integers(0, 10**15 - 1), st.integers(0, 15)
    )
    pool = draw(st.lists(
        st.sampled_from(EDGE_FLOATS) | decimals | st.floats(allow_nan=False, allow_infinity=False),
        min_size=1, max_size=6,
    ))
    n = draw(st.integers(0, 25))
    values = draw(st.lists(st.sampled_from(pool), min_size=n * m, max_size=n * m))
    ids = draw(st.lists(st.text(st.sampled_from(PLAIN_CHARACTERS), max_size=6),
                        min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    matrix = np.array(values, dtype=np.float64).reshape(n, m)
    return TrainingSet(plan, tuple(ids), matrix, np.array(labels), TransformReport())


class TestPlainRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(training=plain_training_sets())
    def test_numpy_path_reads_back_bit_for_bit(self, training):
        text = io.StringIO(newline="")
        write_training_csv(training, text)
        with refuse_csv_reader():
            reread = read_training_csv(io.BytesIO(text.getvalue().encode()), training.plan)
        assert reread.entity_ids == training.entity_ids
        assert reread.values.shape == training.values.shape
        assert np.array_equal(reread.values.view(np.uint64), training.values.view(np.uint64))
        assert reread.labels.tolist() == training.labels.tolist()


def column_values(cells):
    """``panel._numbers`` of one column of cells, one per line, read as the
    tokenizer reads a block."""
    lines = panel._Lines(io.BytesIO("".join(f"{cell}\n" for cell in cells).encode()))
    padded = lines.read()
    before, ends = panel._cell_ends(padded, panel._LONGEST_CELL)
    ((_, first, length),) = panel._spans(before, ends, 1)
    return panel._numbers(padded, first, length)


NUMBER_TEXT = st.from_regex(r"[+-]?[0-9]{0,17}\.?[0-9]{0,17}([eE][+-]?[0-9]{1,3})?", fullmatch=True)


def is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


class TestDecimalCells:
    """Every cell of a column converts to ``float(cell)``, bit for bit,
    whether it takes the digit path, the decimal path or ``float``."""

    @settings(max_examples=300, deadline=None)
    @given(cells=st.lists(NUMBER_TEXT.filter(is_number), min_size=1, max_size=40))
    @example(cells=[".5", "5.", "-0.0", "+1", "1e-05", "0.0", "00.50", "5"])
    @example(cells=["123456789012345", "1234567890123456", "12345678901234.5",
                    "1.23456789012345", ".123456789012345", "123456789012345."])
    # 16 digits, one more than the digit path takes: here the 16-digit
    # integer does not convert exactly, and a division of it is off.
    @example(cells=[".9007199254740993", "9.065583532520021", "90.39856167596325",
                    "988084914218.9019", "9007199254740993", "0.12345678901234567"])
    def test_matches_float(self, cells):
        values = column_values(cells)
        expected = np.array([float(cell) for cell in cells])
        assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("cell", [".", "1.2.3", "1..", "..5", "abc", "1x", "-", "e5"])
    def test_non_number_refused(self, cell):
        assert column_values(["1.5", cell]) is None


class TestMemory:
    def test_read_holds_a_block_of_rows(self):
        # 200,000 rows of 5 features, 9.7 MB.  Read by csv.reader, the rows
        # as lists of str, this read peaked at 116.5 MB traced; read a block
        # of lines at a time, it peaks at 25.0 MB, of which 22.6 MB is the
        # training set itself, its ids most of it.
        n = 200_000
        rng = np.random.default_rng(0)
        values = np.column_stack([
            rng.integers(0, 500, n), rng.integers(0, 24, n), rng.random(n) * 100,
            rng.integers(0, 9, n), (rng.integers(0, 700, n) / 100),
        ]).astype(np.float64)
        plan = AggregationPlan(tuple(FeatureSpec.sum(f"f{j}", "a") for j in range(5)))
        training = TrainingSet(plan, tuple(f"c{i:07d}" for i in range(n)), values,
                               rng.integers(0, 2, n), TransformReport())
        text = io.StringIO(newline="")
        write_training_csv(training, text)
        handle = io.BytesIO(text.getvalue().encode())
        del text
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with refuse_csv_reader():
                reread = read_training_csv(handle, plan)
            live, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert np.array_equal(reread.values.view(np.uint64), values.view(np.uint64))
        assert peak < 40e6, peak
        assert peak - live < 8e6, (peak, live)
