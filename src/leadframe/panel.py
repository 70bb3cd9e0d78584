"""Panel data ingestion and per-entity timelines.

Input is long-format CSV: one row per entity per period, a header row, UTF-8,
LF or CRLF line endings (RFC 4180 quoting accepted).  A :class:`PanelSchema`
names the entity, period, and event-flag columns plus the numeric feature
columns; any extra columns in the file are ignored.

Period labels come in exactly one of two formats per file:

* integer ordinals, e.g. ``1``, ``2``, ``17``
* ISO year-month, e.g. ``2016-01``

Chronological order is numeric for integers and lexicographic for year-month
labels.  Each distinct label is assigned a global ordinal (its position in
the sorted sequence of distinct labels observed in the dataset); lead times
downstream are measured in these ordinals, so calendar gaps in one entity's
history still count as elapsed periods.

Rows enter only as columns (:class:`PanelColumns`): entity codes, period
ordinals, a float64 feature matrix and event flags, built by the parse or by
the generator.  The parse converts each column in blocks of rows and checks
whole columns at once; only when a check fails does it walk the rows again,
in file order, to name the first fault and its line.
:func:`build_timelines` sorts the rows once by entity and period, and each
:class:`EntityTimeline` is a view of one entity's rows; validation,
truncation and aggregation read the columns.  ``PanelRecord`` is a
read-only view of a row, made only when ``records`` is read.

Two tokenizers cut the rows into cells.  Each fills one code array for
each of the entity, period and flag columns and one feature matrix, all
made once for as many rows as the file has line breaks and filled block by
block in place, and leaves each code the position of its stripped text
among the column's distinct texts, sorted; the entity codes and period
ordinals are these arrays, with no second copy.  A plain file holds, after
an optional BOM, only printable ASCII other than the quote character, and
line feeds.  csv.reader would split it at every comma and line feed and
nowhere else, so numpy does that directly, and the file is never held
whole: a scan reads it a chunk at a time to check that it is plain and
count its lines, then each block of whole lines is read straight into one
padded buffer and split once into cell ends, from which every column reads
its cells.  A feature cell of 1 to 15 digits is converted by digit
arithmetic, any other by ``float``; a text is keyed by its bytes, runs of
equal keys count once, and each block codes its texts by its own distinct
keys.  Once the file is read, each text column's keys are ranked once, in
byte order, which is str order here, its codes are remapped in place, and
only its distinct texts are decoded.  Every other file (quotes, carriage
returns, spaces, tabs, non-ASCII bytes, NUL) is read whole and goes through
csv.reader, and so does a plain file whose rows differ in length or are
short, that has a cell longer than 256 bytes or ``csv.field_size_limit()``
or a feature cell that is not a number, or that grows, shrinks or gains
lines between the scan and the read of its rows.  Both tokenizers feed the
same column checks and the same fault walk, so they give the same columns
and the same error messages.

:func:`write_panel_csv` renders each distinct cell once: each entity id,
each period label, each distinct value of each feature column and each
flag, through csv.writer's quoting (:func:`csv_cells`) and the one number
format.  It stores each column's rendered cells with their separators as
fixed-width byte records, gathers the records of a block of rows in
canonical order into a byte matrix, drops the padding by a length mask and
writes the block, so no Python code runs per cell and the matrix of a block
stays small.  The bytes equal those of csv.writer writing row by row.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import math
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from typing import BinaryIO, NoReturn, Union

import numpy as np

from .errors import (
    BadValue,
    DuplicateObservation,
    EmptyInput,
    InvalidConfig,
    MissingColumn,
    ParseError,
)

_FLAGS = {"0": 0, "1": 1}
_INT_LABEL = re.compile(r"^[+-]?[0-9]+$")
_MONTH_LABEL = re.compile(r"^[0-9]{4}-(0[1-9]|1[0-2])$")
# Rows converted per block by the csv.reader tokenizer: small enough to keep
# the cell strings of one block only, large enough that numpy calls are few.
_BLOCK_ROWS = 4096
# Bytes a plain file holds after its optional BOM: printable ASCII except the
# quote character, and the line feed.
_PLAIN_BYTES = bytes(b for b in range(0x21, 0x7F) if b != ord('"')) + b"\n"
_BOM = codecs.BOM_UTF8
_COMMA, _NEWLINE, _ZERO = ord(","), ord("\n"), ord("0")
# Bytes of body per numpy block: whole lines of about this size, so the
# position arrays of one block stay small.
_BLOCK_BYTES = 1 << 18
# The numpy tokenizer pads each text cell to the longest of its column, so a
# block costs up to rows x longest cell bytes: a longer cell goes to csv.reader.
_LONGEST_CELL = 256
# Digit cells of up to this length convert exactly: 10**15 < 2**53.
_MAX_DIGITS = 15
# Zero bytes before each numpy block, so that the k-th byte before a cell's
# end exists for Horner's rule, and after it, so that a window of a cell's
# bytes from its start does: 8 for a uint64 key, up to _LONGEST_CELL for a
# longer text.
_FRONT, _BACK = _MAX_DIGITS, _LONGEST_CELL
# Entry n keeps the first n bytes of a uint64 read from memory.
_PREFIX_MASKS = np.frombuffer(
    b"".join(b"\xff" * n + b"\0" * (8 - n) for n in range(9)), dtype=np.uint64
)
# A cell holding one of these is quoted; csv.writer quotes no other character
# (and, before Python 3.13, not the carriage return).
_QUOTED_CHARACTERS = re.compile('[,"\r\n]')
# Bytes of padded cells the panel writer gathers per block: about 16k rows of
# a synth panel with five feature columns, so the block's byte matrix and its
# mask stay small whatever the number of rows.
_WRITE_BYTES = 1 << 19


@dataclass(frozen=True)
class PanelSchema:
    """Column roles for a panel CSV."""

    entity_column: str
    period_column: str
    event_column: str
    feature_columns: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "feature_columns", tuple(self.feature_columns))
        names = [self.entity_column, self.period_column, self.event_column]
        names.extend(self.feature_columns)
        if any(not n for n in names):
            raise InvalidConfig("schema column names must be non-empty")
        if len(set(names)) != len(names):
            raise InvalidConfig("schema column names must be distinct")
        if not self.feature_columns:
            raise InvalidConfig("schema must declare at least one feature column")

    @property
    def columns(self) -> tuple[str, ...]:
        """All columns in canonical CSV order."""
        return (
            self.entity_column,
            self.period_column,
            *self.feature_columns,
            self.event_column,
        )


@dataclass(frozen=True, order=True)
class PeriodIndex:
    """A period's position in the global chronological sequence."""

    ordinal: int
    label: str


@dataclass(frozen=True, slots=True)
class PanelRecord:
    """One observation of one entity in one period."""

    entity_id: str
    period: PeriodIndex
    features: dict[str, float]
    event_flag: int


@dataclass(frozen=True, eq=False)
class PanelColumns:
    """Panel rows as columns.

    Row ``i`` is entity ``entity_ids[codes[i]]`` in period
    ``periods[ordinals[i]]``, with one value per name in ``features`` in
    ``values[i]`` and event flag ``flags[i]``.  ``entity_ids`` is sorted, so
    ordering rows by code orders them by entity id.
    """

    entity_ids: tuple[str, ...]
    codes: np.ndarray
    periods: dict[int, PeriodIndex]
    ordinals: np.ndarray
    features: tuple[str, ...]
    values: np.ndarray
    flags: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PanelColumns):
            return NotImplemented
        return (
            self.entity_ids == other.entity_ids
            and self.periods == other.periods
            and self.features == other.features
            and all(
                np.array_equal(mine, theirs)
                for mine, theirs in (
                    (self.codes, other.codes),
                    (self.ordinals, other.ordinals),
                    (self.values, other.values),
                    (self.flags, other.flags),
                )
            )
        )

    __hash__ = None  # type: ignore[assignment]

    @cached_property
    def feature_index(self) -> dict[str, int]:
        """Each feature name's column in ``values``."""
        return {name: j for j, name in enumerate(self.features)}

    def take(self, rows: np.ndarray) -> "PanelColumns":
        """The given rows, in the given order."""
        return replace(
            self,
            codes=self.codes[rows],
            ordinals=self.ordinals[rows],
            values=self.values[rows],
            flags=self.flags[rows],
        )

    def records(self, start: int, stop: int) -> tuple[PanelRecord, ...]:
        """A new PanelRecord for each row in ``start:stop``."""
        ids, periods, features = self.entity_ids, self.periods, self.features
        return tuple(
            PanelRecord(ids[code], periods[ordinal], dict(zip(features, values)), flag)
            for code, ordinal, values, flag in zip(
                self.codes[start:stop].tolist(),
                self.ordinals[start:stop].tolist(),
                self.values[start:stop].tolist(),
                self.flags[start:stop].tolist(),
            )
        )


class _RecordView(Sequence):
    """Read-only sequence of a dataset's records, each made on access."""

    def __init__(self, columns: PanelColumns) -> None:
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            rows = range(len(self))[index]
            if rows.step != 1:
                raise ValueError("records supports only slices with step 1")
            return self._columns.records(rows.start, rows.stop)
        row = range(len(self))[index]
        return self._columns.records(row, row + 1)[0]

    def __iter__(self):
        return iter(self._columns.records(0, len(self)))


@dataclass
class PanelDataset:
    """Panel rows, as :class:`PanelColumns` in file order, plus the schema
    they were read under.

    Columns are the only way rows enter: the parse and the generator build
    them.  ``records`` is a read-only sequence with an O(1) ``len`` that
    makes each :class:`PanelRecord` when it is read.
    """

    schema: PanelSchema
    columns: PanelColumns

    @property
    def records(self) -> Sequence[PanelRecord]:
        return _RecordView(self.columns)

    def entity_ids(self) -> list[str]:
        return list(self.columns.entity_ids)


class TimelineBlock:
    """Panel rows sorted by entity, then period, with each entity's rows.

    Entity ``e`` owns rows ``offsets[e]:offsets[e + 1]`` of ``columns``.
    Facts derived from the rows alone are made on first read and kept, so
    every timeline of the block and every lead time of a sweep shares one
    copy.
    """

    def __init__(self, columns: PanelColumns, offsets: np.ndarray) -> None:
        self.columns = columns
        self.offsets = offsets

    @cached_property
    def first_event(self) -> np.ndarray:
        """Row of each entity's first flagged record, or -1 if it has none."""
        rows = np.flatnonzero(self.columns.flags == 1)
        entities = self.columns.codes[rows]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = entities[1:] != entities[:-1]
        result = np.full(len(self.offsets) - 1, -1, dtype=np.intp)
        result[entities[first]] = rows[first]
        return result

    @cached_property
    def period_keys(self) -> tuple[np.ndarray, int, int]:
        """(keys, low, span): row keys ``code * span + ordinal - low``, which
        strictly increase along the rows; the transform cuts windows by
        searching them."""
        low = int(self.columns.ordinals.min())
        span = int(self.columns.ordinals.max()) - low + 2
        return self.columns.codes * span + (self.columns.ordinals - low), low, span


class EntityTimeline:
    """One entity's rows in strictly increasing period order.

    A timeline is a view of the rows of entity ``index`` in ``block``; the
    timelines from :func:`build_timelines` share one block, and every fact
    about a timeline is read from the block's columns.  ``records``, a
    read-only view of the rows as :class:`PanelRecord`, is made on first
    read and kept.
    """

    __slots__ = ("entity_id", "block", "index", "_records")

    def __init__(self, block: TimelineBlock, index: int) -> None:
        self.entity_id = block.columns.entity_ids[index]
        self.block = block
        self.index = index
        self._records: tuple[PanelRecord, ...] | None = None

    @property
    def _rows(self) -> tuple[int, int]:
        offsets = self.block.offsets
        return int(offsets[self.index]), int(offsets[self.index + 1])

    @property
    def records(self) -> tuple[PanelRecord, ...]:
        if self._records is None:
            self._records = self.block.columns.records(*self._rows)
        return self._records

    @property
    def ordinals(self) -> list[int]:
        """Period ordinals of the records, oldest first."""
        start, stop = self._rows
        return self.block.columns.ordinals[start:stop].tolist()

    @property
    def event_index(self) -> int | None:
        """Position of the first record whose event flag is set, if any."""
        row = int(self.block.first_event[self.index])
        return None if row < 0 else row - self._rows[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EntityTimeline):
            return NotImplemented
        return self.entity_id == other.entity_id and self.records == other.records

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Finding:
    level: str  # "info" or "warning"
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    entity_id: str
    findings: tuple[Finding, ...] = field(default_factory=tuple)

    @property
    def has_warnings(self) -> bool:
        return any(f.level == "warning" for f in self.findings)

    def to_json_dict(self) -> dict:
        return {
            "entity": self.entity_id,
            "findings": [
                {"level": f.level, "code": f.code, "message": f.message}
                for f in self.findings
            ],
        }


def _label_kind(label: str) -> str | None:
    if _INT_LABEL.match(label):
        return "int"
    if _MONTH_LABEL.match(label):
        return "month"
    return None


_NINES_COMPLEMENT = str.maketrans("0123456789", "9876543210")


def _int_value(label: str) -> tuple[int, int, str]:
    """A key by which integer labels compare as their values do, exact for
    any number of digits (``int`` refuses more than 4,300)."""
    digits = label.lstrip("+-").lstrip("0")
    if label.startswith("-") and digits:
        return -1, -len(digits), digits.translate(_NINES_COMPLEMENT)
    return int(bool(digits)), len(digits), digits


def index_periods(labels: Iterable[str], kind: str) -> dict[str, int]:
    """Map each distinct period label to its global chronological ordinal."""
    if kind != "int":
        return {label: ordinal for ordinal, label in enumerate(sorted(set(labels)))}
    # Labels of one integer ("2", "+2", "02") are ordered by text, so the
    # error below names the same pair whatever order the set holds them in.
    pairs = sorted((_int_value(label), label) for label in set(labels))
    for (value, label), (next_value, next_label) in itertools.pairwise(pairs):
        if value == next_value:
            raise BadValue(f"period labels {label!r} and {next_label!r} denote the same period")
    return {label: ordinal for ordinal, (_, label) in enumerate(pairs)}


def _check_row(
    row: list[str], line: int, schema: PanelSchema, positions: dict[str, int], file_kind: str | None
) -> None:
    """Raise BadValue for the first fault of a row, checking cells in schema order.

    Returns for a clean row.
    """

    def cell(column: str) -> str:
        idx = positions[column]
        if idx >= len(row):
            raise BadValue(f"line {line}: row too short for column {column!r}")
        return row[idx].strip()

    if not cell(schema.entity_column):
        raise BadValue(f"line {line}: empty value in column {schema.entity_column!r}")

    label = cell(schema.period_column)
    kind = _label_kind(label)
    if kind is None:
        raise BadValue(
            f"line {line}: unparseable period {label!r} in column "
            f"{schema.period_column!r} (expected an integer or YYYY-MM)"
        )
    if file_kind is not None and kind != file_kind:
        raise BadValue(
            f"line {line}: period {label!r} in column {schema.period_column!r} "
            f"does not match the file's {file_kind} period format"
        )

    for column in schema.feature_columns:
        raw = cell(column)
        try:
            value = float(raw)
        except ValueError:
            raise BadValue(
                f"line {line}: non-numeric value {raw!r} in column {column!r}"
            ) from None
        if not math.isfinite(value) or value < 0.0:
            raise BadValue(
                f"line {line}: value {raw!r} in column {column!r} "
                "must be finite and non-negative"
            )

    raw_flag = cell(schema.event_column)
    if raw_flag not in _FLAGS:
        raise BadValue(
            f"line {line}: event flag {raw_flag!r} in column "
            f"{schema.event_column!r} must be 0 or 1"
        )


def _records(text: str) -> Iterator[list[str]]:
    """csv.reader's records of the text."""
    return csv.reader(io.StringIO(text, newline=""))


def _raise_first_fault(text: str, schema: PanelSchema, positions: dict[str, int]) -> NoReturn:
    """Walk the data rows in file order and raise the first fault, with the
    line its record ends on (or the reader's own csv.Error)."""
    reader = _records(text)
    next(reader)
    file_kind = None
    for row in reader:
        if not row:
            continue
        _check_row(row, reader.line_num, schema, positions, file_kind)
        if file_kind is None:
            file_kind = _label_kind(row[positions[schema.period_column]].strip())
    raise AssertionError("a column check failed, but no row holds a fault")


class _Codes(dict):
    """Numbers each distinct key 0, 1, 2, ... in order of first lookup."""

    def __missing__(self, key: str) -> int:
        code = self[key] = len(self)
        return code


class _Cells:
    """A file's data rows, tokenized one block of rows at a time, in file
    order, and the column layout both tokenizers read them by.

    ``width`` is the fewest cells a row needs to hold every schema column,
    ``features`` the position of each feature column and ``texts`` the
    position of the entity, period and flag columns.  Row i of the first
    ``rows`` holds the feature values ``values[i]`` and, in each text
    column's array of ``codes``, the position of its stripped text in that
    column's ``distinct`` texts, which are sorted and which the tokenizer
    sets once every row is read.  The arrays are made once, for as many
    rows as the file has lines, and each block fills its own rows; the
    entity and period codes become the parsed columns themselves.
    """

    def __init__(self, lines: int, schema: PanelSchema, positions: dict[str, int]) -> None:
        self.width = max(positions[c] for c in schema.columns) + 1
        self.features = [positions[c] for c in schema.feature_columns]
        self.texts = [
            positions[c] for c in (schema.entity_column, schema.period_column, schema.event_column)
        ]
        self.codes = tuple(np.empty(lines, dtype=np.intp) for _ in self.texts)
        self.values = np.empty((lines, len(self.features)))
        self.distinct: list[list[str]] = []
        self.rows = 0

    def block(self, n: int) -> tuple[list[np.ndarray], np.ndarray]:
        """The codes and values of the next n rows, to be filled."""
        start = self.rows
        self.rows += n
        return [codes[start : self.rows] for codes in self.codes], self.values[start : self.rows]


def _rank_texts(codes: np.ndarray, numbering: _Codes) -> list[str]:
    """The distinct stripped texts of a numbering, sorted; each code, a
    number of ``numbering``, is replaced in place by its text's position
    among them."""
    stripped = [raw.strip() for raw in numbering]
    texts = sorted(set(stripped))
    rank = {text: i for i, text in enumerate(texts)}
    ranks = np.fromiter(map(rank.__getitem__, stripped), np.intp, len(stripped))
    np.take(ranks, codes, out=codes, mode="clip")
    return texts


def _reader_cells(text: str, schema: PanelSchema, positions: dict[str, int]) -> _Cells | None:
    """Tokenize the data rows of the text with csv.reader, or None if any
    row may hold a fault.

    Cells are gathered and converted one block of rows at a time; each
    text column's raw texts are numbered for the whole file and ranked
    once every row is read.  The reader ends a record at a line feed, a
    carriage return or the two together, so the text holds no more rows
    than such line breaks, plus one.
    """
    lines = text.count("\n") + text.count("\r") - text.count("\r\n") + 1
    cells = _Cells(lines, schema, positions)
    numberings = [_Codes() for _ in cells.texts]
    reader = _records(text)
    next(reader)
    rows = filter(None, reader)
    try:
        while block := list(itertools.islice(rows, _BLOCK_ROWS)):
            n = len(block)
            if min(map(len, block)) < cells.width:
                return None
            columns = list(zip(*block))
            codes, values = cells.block(n)
            for j, at in enumerate(cells.features):
                values[:, j] = np.fromiter(map(float, columns[at]), np.float64, n)
            for row, at, numbering in zip(codes, cells.texts, numberings):
                row[:] = np.fromiter(map(numbering.__getitem__, columns[at]), np.intp, n)
    except (ValueError, csv.Error):
        # A cell is not a number, or the reader failed on a later row: an
        # earlier row may still hold the first fault.
        return None
    cells.distinct = [
        _rank_texts(codes[: cells.rows], numbering)
        for codes, numbering in zip(cells.codes, numberings)
    ]
    return cells


def _blocks(handle: BinaryIO, size: int) -> Iterator[np.ndarray | None]:
    """The next ``size`` bytes of a plain file, in blocks of whole lines,
    each read straight into one reused buffer with ``_FRONT`` zero bytes
    before the block and ``_BACK`` after it; or a last None if the file
    ends sooner.

    A block ends at the first line feed ``_BLOCK_BYTES`` or more bytes past
    its start: its first ``_BLOCK_BYTES`` bytes are read in one call and
    the rest of that line by ``readline``.  The buffer has room for a rest
    of ``_BACK`` bytes, and grows for a longer one.  Every column of the
    block reads its cells from this buffer.
    """
    buffer = np.zeros(_FRONT + _BLOCK_BYTES + _BACK + 1 + _BACK, dtype=np.uint8)
    while size > 0:
        first = min(size, _BLOCK_BYTES)
        if handle.readinto(buffer[_FRONT : _FRONT + first]) != first:
            yield None
            return
        rest = np.frombuffer(handle.readline(size - first), dtype=np.uint8)
        size -= first + len(rest)
        start, end = _FRONT + first, _FRONT + first + len(rest)
        if len(buffer) < end + 1 + _BACK:
            buffer = np.concatenate((buffer[:start], np.empty(len(rest) + 1 + _BACK, np.uint8)))
        buffer[start:end] = rest
        buffer[end : end + 1 + _BACK] = 0
        if buffer[end - 1] != _NEWLINE:  # the file's last line has no line feed
            buffer[end] = _NEWLINE
        yield buffer[: end + 1 + _BACK]


def _cell_ends(padded: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(before, ends) for the lines of a padded block, with blank lines
    dropped, or None if its lines hold different numbers of cells.

    ``before[i]`` is the position before line i's first byte and
    ``ends[i, j]`` that of the comma or line feed that ends its cell j, so
    cell j spans ``ends[i, j - 1] + 1`` (``before[i] + 1`` for j = 0) to
    ``ends[i, j]``.  ``ends`` is a lines × cells view of one array.
    """
    newline = padded == _NEWLINE
    delimiter = padded == _COMMA
    delimiter |= newline
    ends = np.flatnonzero(delimiter)
    feeds = np.flatnonzero(newline)
    before = np.empty_like(feeds)
    before[0] = _FRONT - 1
    before[1:] = feeds[:-1]
    blank = before + 1 == feeds
    if blank.any():
        ends = np.delete(ends, np.searchsorted(ends, feeds[blank]))
        before, feeds = before[~blank], feeds[~blank]
        if not len(feeds):
            return before, ends.reshape(0, 0)
    cells = len(ends) // len(feeds)
    # Uniform lines end at every cells-th end, and there only.
    if len(ends) != cells * len(feeds) or (ends[cells - 1 :: cells] != feeds).any():
        return None
    return before, ends.reshape(-1, cells)


def _spans(
    before: np.ndarray, ends: np.ndarray, width: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(j, first byte, length) of each line's cell j, for j = 0 to
    ``width`` - 1, from :func:`_cell_ends`: each column of ``ends`` is read
    once, and only one column's spans are made at a time."""
    first = before + 1
    for at in range(width):
        after = ends[:, at] + 1
        length = after - first
        length -= 1
        yield at, first, length
        first = after


def _texts(padded: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each cell's bytes as a zero-padded byte string (a plain file holds no NUL)."""
    size = max(int(lengths.max()), 1)
    windows = np.ndarray(len(padded) - size + 1, dtype=f"S{size}", buffer=padded, strides=(1,))
    texts = windows[starts]
    texts.view(np.uint8).reshape(-1, size)[np.arange(size) >= lengths[:, None]] = 0
    return texts


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, ascending: sorted and made distinct without
    np.unique, which imports numpy.ma on its first call without
    return_inverse."""
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def _block_codes(
    padded: np.ndarray, starts: np.ndarray, lengths: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """The distinct keys, ascending, of one text column's cells in a padded
    block; each cell's position among them goes into ``out``.

    A cell's key is its zero-padded bytes: one uint64 if no cell of the
    column in this block is longer than 8 bytes, else a byte string from
    :func:`_texts` (a plain file holds no NUL, so no two texts share a
    key).  Each run of equal keys, as the ids of a file sorted by entity
    make, counts once.
    """
    if lengths.max() > 8:
        keys = _texts(padded, starts, lengths)
    else:
        windows = np.ndarray(len(padded) - 7, dtype=np.uint64, buffer=padded, strides=(1,))
        keys = windows[starts] & _PREFIX_MASKS[lengths]
    heads = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    runs = keys[heads]
    distinct = _sorted_distinct(runs)
    out[:] = np.repeat(np.searchsorted(distinct, runs), np.diff(heads, append=len(keys)))
    return distinct


def _rank_keys(codes: np.ndarray, blocks: list[tuple[int, int, np.ndarray]]) -> list[str]:
    """The distinct texts of one text column of a plain file, sorted.

    ``blocks`` holds the rows ``start:stop`` of each block and the block's
    distinct keys, which its codes index.  The keys of every block are
    ranked once, in byte order, which is str order for a plain file; each
    block's codes are replaced in place by their keys' ranks, and only the
    distinct texts are decoded.  A plain file holds nothing that ``strip``
    removes.
    """
    keys = [distinct for _, _, distinct in blocks]
    if all(distinct.dtype == np.uint64 for distinct in keys):
        # Read as big-endian numbers, keys of up to 8 bytes order as their
        # bytes do, and they sort faster than byte strings.
        keys = [distinct.view(">u8").astype(np.uint64) for distinct in keys]
        ranked = _sorted_distinct(np.concatenate(keys))
        texts = ranked.astype(">u8").view("S8")
    else:
        keys = [k.view("S8") if k.dtype == np.uint64 else k for k in keys]
        ranked = texts = _sorted_distinct(np.concatenate(keys))
    for (start, stop, _), distinct in zip(blocks, keys):
        rows = codes[start:stop]
        np.take(np.searchsorted(ranked, distinct), rows, out=rows, mode="clip")
    return [text.decode("ascii") for text in texts.tolist()]


def _numbers(padded: np.ndarray, first: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """The float value of each cell, or None if a cell is not a number.

    A cell of 1 to 15 ASCII digits is read by Horner's rule, one digit
    position at a time across all cells: every partial value is an integer
    below 10**15 < 2**53, so the float is exact and equals ``float(text)``.
    Every other cell goes through ``float``.
    """
    size = max(int(min(lengths.max(), _MAX_DIGITS)), 1)
    values = np.zeros(len(first))
    decimal = (lengths > 0) & (lengths <= _MAX_DIGITS)
    at = first - size  # the k-th byte before each cell's end, for k = size, ..., 1
    at += lengths
    for k in range(size, 0, -1):
        digit = padded[at]
        digit -= np.uint8(_ZERO)
        digit *= lengths >= k  # a byte before the cell's start is a leading 0
        decimal &= digit <= 9
        values *= 10.0
        values += digit
        at += 1
    rest = np.flatnonzero(~decimal)
    if len(rest):
        texts = _texts(padded, first[rest], lengths[rest]).tolist()
        try:
            values[rest] = np.fromiter(map(float, texts), np.float64, len(rest))
        except ValueError:
            return None
    return values


def _is_plain(data: bytes) -> bool:
    """Whether the bytes are only printable ASCII other than the quote
    character, and line feeds.

    csv.reader splits a file of such bytes, after an optional BOM, at every
    comma and line feed and nowhere else, so its header record is its first
    line.
    """
    return not data.translate(None, _PLAIN_BYTES)


def _scan(handle: BinaryIO) -> tuple[bool, int, int]:
    """(plain, line feeds, bytes) of the file from the handle's position:
    whether it is plain, after an optional BOM at that position, and if so
    how many line feeds and bytes it holds.  It is read one chunk of
    ``_BLOCK_BYTES`` at a time, and reading stops at the first chunk that is
    not plain."""
    chunk = handle.read(_BLOCK_BYTES)
    plain = _is_plain(chunk[len(_BOM) :] if chunk.startswith(_BOM) else chunk)
    feeds = size = 0
    while plain and chunk:
        feeds += chunk.count(b"\n")
        size += len(chunk)
        chunk = handle.read(_BLOCK_BYTES)
        plain = _is_plain(chunk)
    return plain, feeds, size


def _plain_cells(
    handle: BinaryIO, size: int, lines: int, schema: PanelSchema, positions: dict[str, int]
) -> _Cells | None:
    """Tokenize the next ``size`` bytes of a plain file, its data rows, in
    at most ``lines`` lines, with numpy; or None when csv.reader must
    tokenize them: the lines of a block differ in length or are short, a
    cell is longer than ``csv.field_size_limit()`` or ``_LONGEST_CELL``, a
    feature cell is not a number (the csv.reader tokenizer then meets the
    same cell and the fault walk names it), or the file is not as long as
    ``size`` or holds more lines, as when it changed since it was scanned.

    The rows are split at every comma and line feed, as csv.reader splits
    a plain file, in blocks of whole lines of about ``_BLOCK_BYTES`` each.
    Each block is read once into a padded buffer (:func:`_blocks`) and split
    once into cell ends (:func:`_cell_ends`), from which every column reads
    its cells.  Each block codes its entity, period and flag texts by its
    own distinct keys (:func:`_block_codes`), and once the file is read
    each column's keys are ranked once (:func:`_rank_keys`).
    """
    limit = min(csv.field_size_limit(), _LONGEST_CELL)
    cells = _Cells(lines, schema, positions)
    # Per text column: the rows of each block and the block's distinct keys.
    column_keys: list[list[tuple[int, int, np.ndarray]]] = [[] for _ in cells.texts]
    for padded in _blocks(handle, size):
        if padded is None:
            return None
        split = _cell_ends(padded)
        if split is None:
            return None
        before, ends = split
        n = len(before)
        if not n:
            continue
        if ends.shape[1] < cells.width or cells.rows + n > len(cells.values):
            return None
        # No cell is longer than its line, and few lines are longer than the limit.
        if (ends[:, -1] - before).max() > limit + 1 and (
            np.diff(ends, axis=1, prepend=before[:, None]).max() > limit + 1
        ):
            return None
        start = cells.rows
        codes, values = cells.block(n)
        features = dict(zip(cells.features, values.T))
        texts = dict(zip(cells.texts, zip(codes, column_keys)))
        for at, first, length in _spans(before, ends, cells.width):
            if at in features:
                column = _numbers(padded, first, length)
                if column is None:
                    return None
                features[at][:] = column
            elif at in texts:
                row, keys = texts[at]
                keys.append((start, cells.rows, _block_codes(padded, first, length, row)))
    if handle.read(1):  # the file grew since the scan
        return None
    cells.distinct = [
        _rank_keys(codes, keys) if keys else [] for codes, keys in zip(cells.codes, column_keys)
    ]
    return cells


def _columns(cells: _Cells, schema: PanelSchema) -> PanelColumns | None:
    """Check the tokenized cells as whole columns and convert them to
    PanelColumns, or None if any row may hold a fault.

    Each distinct entity, period and flag text is checked once.  The
    entity codes are the codes of the sorted ids; period codes are
    ordinals once integer labels, sorted as text, are ranked by value in
    place.
    """
    if not cells.rows:
        raise EmptyInput("input has a header but no data rows")
    entity_ids, label_texts, flag_texts = cells.distinct
    entity_codes, label_codes, flag_codes = (codes[: cells.rows] for codes in cells.codes)
    values = cells.values[: cells.rows]
    kinds = {_label_kind(label) for label in label_texts}
    file_kind = kinds.pop() if len(kinds) == 1 else None
    flag_values = [_FLAGS.get(text) for text in flag_texts]
    # An empty id sorts first; a NaN makes min and max NaN, and neither
    # makes a temporary the size of the matrix.
    if (
        not entity_ids[0]
        or file_kind is None
        or None in flag_values
        or not (values.min() >= 0.0 and values.max() < np.inf)
    ):
        return None

    ordinal = index_periods(label_texts, file_kind)
    if file_kind == "int":
        ranks = np.fromiter(map(ordinal.__getitem__, label_texts), np.intp, len(label_texts))
        np.take(ranks, label_codes, out=label_codes, mode="clip")
    return PanelColumns(
        entity_ids=tuple(entity_ids),
        codes=entity_codes,
        periods={o: PeriodIndex(o, label) for label, o in ordinal.items()},
        ordinals=label_codes,
        features=schema.feature_columns,
        values=values,
        flags=np.array(flag_values, dtype=np.int8)[flag_codes],
    )


def parse_panel_csv(source: Union[bytes, BinaryIO], schema: PanelSchema) -> PanelDataset:
    """Parse a panel CSV into a :class:`PanelDataset`.

    A file handle is read from its position, in two passes: a scan, then
    the rows, each a block at a time; a handle that cannot seek is read
    whole first.  Raises MissingColumn, BadValue, or EmptyInput; error
    messages name the offending line and column.
    """
    handle = io.BytesIO(source) if isinstance(source, bytes) else source
    if not handle.seekable():
        handle = io.BytesIO(handle.read())
    origin = handle.tell()
    plain, feeds, size = _scan(handle)
    handle.seek(origin)

    @cache
    def text() -> str:
        """The whole text, read and decoded at most once: the rows of a
        plain file may never need csv.reader or a decoded copy of them."""
        handle.seek(origin)
        return handle.read().decode("utf-8-sig")

    if plain:
        line = handle.readline()
        header = next(_records(line.decode("utf-8-sig")), None)
    else:
        header = next(_records(text()), None)
    if header is None:
        raise EmptyInput("input has no header row")

    positions: dict[str, int] = {}
    for i, name in enumerate(header):
        name = name.strip()
        if name in positions and name in schema.columns:
            raise ParseError(f"header names column {name!r} more than once")
        positions.setdefault(name, i)
    missing = [c for c in schema.columns if c not in positions]
    if missing:
        raise MissingColumn(f"columns absent from header: {', '.join(missing)}")

    cells = None
    if plain:
        # A row is a line, and every line but a last one ends in a line feed.
        lines = feeds - line.endswith(b"\n") + 1
        cells = _plain_cells(handle, size - len(line), lines, schema, positions)
    if cells is None:
        cells = _reader_cells(text(), schema, positions)
    columns = None if cells is None else _columns(cells, schema)
    if columns is None:
        _raise_first_fault(text(), schema, positions)
    return PanelDataset(schema, columns)


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def csv_cells(texts: Iterable[str]) -> list[str]:
    """Each text as one CSV cell, quoted as csv.writer quotes it.

    A text holding a comma, quote character, carriage return or line feed
    is quoted, with each quote character doubled; every other text, the
    empty text included, is its own cell.  csv.writer quotes the same
    texts in the same way, on Python 3.11 to 3.13, but for a carriage
    return, which it leaves bare before Python 3.13 (it quotes only the
    line terminator "\n"), and csv.reader would end the row there.  Every
    CSV writer of the package renders its free-text cells here, so one rule
    gives the same bytes on every Python.
    """
    return [
        '"' + text.replace('"', '""') + '"' if _QUOTED_CHARACTERS.search(text) else text
        for text in texts
    ]


def csv_line(texts: Iterable[str]) -> str:
    """One CSV line of the texts, each rendered by :func:`csv_cells`."""
    return ",".join(csv_cells(texts)) + "\n"


def _encode(cells: Iterable[str], separator: str) -> tuple[np.ndarray, np.ndarray]:
    """(data, lengths): each rendered cell and the separator, as UTF-8, one
    after another in ``data``, and the byte length of each."""
    encoded = [(cell + separator).encode("utf-8", "surrogatepass") for cell in cells]
    lengths = np.fromiter(map(len, encoded), np.intp, len(encoded))
    return np.frombuffer(b"".join(encoded), np.uint8), lengths


def _record_widths(lengths: np.ndarray) -> np.ndarray:
    """The record width for cells of these byte lengths: each rounded up to a
    power of two, the widths numpy gathers fastest."""
    return np.left_shift(1, np.frexp(lengths - 1)[1].astype(np.intp))


def _cell_table(data: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(texts, used) for the encoded cells of a column, as :func:`_encode`
    gives them.

    Record ``k`` of ``texts`` holds cell ``k``, and record ``k`` of ``used``
    is True on its bytes and False on the padding after them: padding is
    told by this mask, never by its byte value, since a cell may hold NUL.
    Records are as wide as the longest cell's record width.
    """
    width = int(_record_widths(lengths).max())
    used = np.arange(width) < lengths[:, None]
    texts = np.zeros(used.shape, np.uint8)
    texts[used] = data
    return texts.view(f"V{width}").ravel(), used.view(f"V{width}").ravel()


def _check_writable(
    schema: PanelSchema,
    columns: PanelColumns,
    periods: dict[int, str],
    ordinals: list[int],
    order: np.ndarray,
) -> None:
    """Raise BadValue for the first row, in write order, holding a cell that
    the parser would refuse or change, naming its first such cell in column
    order: an empty entity id or one with surrounding whitespace (the parser
    strips it), a period label that is neither an integer nor YYYY-MM, or is
    not of the first row's format, a negative, infinite or NaN value, or an
    event flag other than 0 or 1.

    Then raise it if the labels of the written ``ordinals`` (distinct,
    ascending) would not read back in that order: two integer labels of one
    period, in the parser's words, or two periods whose labels are alike or
    in the other order."""
    if not len(order):
        return
    ids = columns.entity_ids
    bad_id = np.array([not e or e != e.strip() for e in ids], dtype=bool)
    kinds = {o: _label_kind(label) if label == label.strip() else None
             for o, label in periods.items()}
    file_kind = kinds[int(columns.ordinals[order[0]])]
    bad_ordinals = [o for o, kind in kinds.items() if kind is None or kind != file_kind]
    bad = (
        bad_id[columns.codes]
        | np.isin(columns.ordinals, bad_ordinals)
        | ((columns.flags != 0) & (columns.flags != 1))
    )
    bad_value = ~((columns.values >= 0.0) & (columns.values < np.inf))
    if bad_value.any():  # a flat any is far cheaper than one per row
        bad |= bad_value.any(axis=1)
    if not bad.any():
        labels = [periods[o] for o in ordinals]
        read_back = index_periods(labels, file_kind)
        for before, after in itertools.pairwise(labels):
            if read_back[after] <= read_back[before]:
                raise BadValue(
                    f"period labels {before!r} then {after!r} in column "
                    f"{schema.period_column!r} do not read back in that order"
                )
        return
    row = order[np.argmax(bad[order])]
    code, ordinal = int(columns.codes[row]), int(columns.ordinals[row])
    entity, label, kind = ids[code], periods[ordinal], kinds[ordinal]
    j = int(np.argmax(bad_value[row]))
    fault = next(message for failed, message in (
        (not entity, f"empty value in column {schema.entity_column!r}"),
        (bad_id[code], f"entity id in column {schema.entity_column!r} has surrounding whitespace"),
        (kind is None, f"unparseable period {label!r} in column {schema.period_column!r} "
                       "(expected an integer or YYYY-MM)"),
        (kind != file_kind, f"period {label!r} in column {schema.period_column!r} "
                            f"does not match the dataset's {file_kind} period format"),
        (bad_value[row, j], f"value {repr(float(columns.values[row, j]))!r} in column "
                            f"{columns.features[j]!r} must be finite and non-negative"),
        (True, f"event flag {str(columns.flags[row])!r} in column {schema.event_column!r} "
               "must be 0 or 1"),
    ) if failed)
    raise BadValue(f"entity {entity!r}, period {label!r}: {fault}")


def distinct_values(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column's distinct values, ascending, and each row's position
    among them, as ``np.unique(column, return_inverse=True)`` gives them.

    Small whole numbers, as counts, ordinals, flags and labels are, are
    looked up in a table of the values present, which is cheaper than a sort.
    """
    if len(column) and 0 <= column.min() and column.max() < len(column):
        keys = column.astype(np.intp)
        if (keys == column).all():
            present = np.bincount(keys) > 0
            lookup = np.cumsum(present) - 1
            return np.flatnonzero(present).astype(column.dtype), lookup[keys]
    return np.unique(column, return_inverse=True)


def write_panel_csv(dataset: PanelDataset, stream: io.TextIOBase) -> None:
    """Write a dataset in canonical order: entity ascending, then period.

    Raises BadValue, before anything is written, if a cell would not read
    back as it is: an empty id or one with surrounding whitespace, a period
    label that is not an integer or YYYY-MM or mixes the two formats, a
    negative, infinite or NaN feature value, or a flag other than 0 or 1; or
    if the period labels would read back as other periods or in another
    order than the dataset's ordinals.

    Each distinct cell of each column is rendered once, by :func:`csv_cells`
    and :func:`_format_number`, into a :func:`_cell_table`; the entity table
    is made per block from the block's own ids.  The rows are then gathered
    from the tables one block at a time into a byte matrix, whose padding is
    dropped by the tables' masks.
    """
    columns = dataset.columns
    periods = {ordinal: period.label for ordinal, period in columns.periods.items()}
    distinct_ordinals, period_index = distinct_values(columns.ordinals)
    ordinals = distinct_ordinals.tolist()
    # Stable, so repeated (entity, period) rows keep their order; the sort
    # runs through rows already in order, as synth's and most files' are.
    order = np.argsort(columns.codes * len(ordinals) + period_index, kind="stable")
    _check_writable(dataset.schema, columns, periods, ordinals, order)
    stream.write(csv_line(dataset.schema.columns))
    if not len(order):
        return

    # The ids of the entities with rows, each encoded once; an entity's
    # position among them is its record in the id tables.
    has_rows = np.zeros(len(columns.entity_ids), np.bool_)
    has_rows[columns.codes] = True
    ids = itertools.compress(csv_cells(columns.entity_ids), has_rows.tolist())
    id_data, id_lengths = _encode(ids, ",")
    id_starts = np.concatenate(([0], np.cumsum(id_lengths)))
    id_widths = _record_widths(id_lengths)
    id_position = np.cumsum(has_rows) - 1
    cells = [(map(periods.__getitem__, ordinals), period_index)]
    for j in range(len(columns.features)):
        # Values that compare equal print the same: -0.0 and 0.0 both print 0.
        values, index = distinct_values(columns.values[:, j])
        cells.append((map(_format_number, values.tolist()), index))
    flags, flag_index = distinct_values(columns.flags)
    cells.append((map(str, flags.tolist()), flag_index))
    tables = [
        _cell_table(*_encode(csv_cells(texts), "\n" if j == len(cells) - 1 else ","))
        for j, (texts, _) in enumerate(cells)
    ]
    rest = sum(texts.itemsize for texts, _ in tables)
    start = 0
    while start < len(order):
        # Rows are sorted by entity, so a long id widens only the blocks of
        # its own rows.  A block takes the most rows, and at least one, that
        # fit with their ids padded to the widest among them: no more than
        # fit at its first id's width.  Its id table holds only their ids.
        first = id_position[columns.codes[order[start]]]
        rows = order[start : start + max(1, _WRITE_BYTES // (rest + id_widths[first]))]
        entity = id_position[columns.codes[rows]] - first
        widest = np.maximum.accumulate(id_widths[first : first + entity[-1] + 1])[entity]
        fits = (widest + rest) * np.arange(1, len(rows) + 1) <= _WRITE_BYTES
        size = max(1, int(np.count_nonzero(fits)))
        rows, entity = rows[:size], entity[:size]
        start += size
        last = first + entity[-1] + 1
        block_tables = [
            _cell_table(id_data[id_starts[first] : id_starts[last]], id_lengths[first:last]),
            *tables,
        ]
        # Made one at a time, so only one column's row indexes are held.
        indexes = itertools.chain([entity], (index[rows] for _, index in cells))
        layout = np.dtype([(f"c{j}", texts.dtype) for j, (texts, _) in enumerate(block_tables)])
        texts, used = np.empty(size, layout), np.empty(size, layout)
        for name, (cell_texts, cell_used), at in zip(layout.names, block_tables, indexes):
            texts[name], used[name] = cell_texts[at], cell_used[at]
        text = np.compress(used.view(np.bool_), texts.view(np.uint8)).tobytes()
        stream.write(text.decode("utf-8", "surrogatepass"))


def build_timelines(dataset: PanelDataset) -> tuple[EntityTimeline, ...]:
    """Group records into per-entity timelines sorted by period.

    One stable sort by (entity, period) orders every row, unless the rows
    already come strictly in that order, as every written panel's do; each
    timeline is a view of its entity's rows.  Raises DuplicateObservation if
    an (entity, period) pair repeats; silent last-wins would corrupt every
    downstream aggregate.
    """
    columns = dataset.columns
    codes, ordinals = columns.codes, columns.ordinals
    same_entity = codes[1:] == codes[:-1]
    if not ((codes[1:] > codes[:-1]) | (same_entity & (ordinals[1:] > ordinals[:-1]))).all():
        columns = columns.take(np.lexsort((ordinals, codes)))
        codes, ordinals = columns.codes, columns.ordinals
        repeats = np.flatnonzero((codes[1:] == codes[:-1]) & (ordinals[1:] == ordinals[:-1]))
        if len(repeats):
            row = int(repeats[0]) + 1
            raise DuplicateObservation(
                f"entity {columns.entity_ids[codes[row]]!r} observed twice in period "
                f"{columns.periods[int(ordinals[row])].label!r}"
            )
    n_entities = len(columns.entity_ids)
    offsets = np.zeros(n_entities + 1, dtype=np.intp)
    np.cumsum(np.bincount(codes, minlength=n_entities), out=offsets[1:])
    block = TimelineBlock(columns, offsets)
    return tuple(EntityTimeline(block, index) for index in range(n_entities))


def validate_timeline(timeline: EntityTimeline) -> ValidationReport:
    """Report structural findings on one timeline.

    Never fails: gaps are informational, event-flag oddities are warnings
    (the transform tolerates both, see the truncation rules).
    """
    findings: list[Finding] = []
    columns = timeline.block.columns
    ordinals = timeline.ordinals

    def label(position: int) -> str:
        return columns.periods[ordinals[position]].label

    if ordinals:
        gaps = (ordinals[-1] - ordinals[0] + 1) - len(ordinals)
        if gaps:
            findings.append(
                Finding(
                    level="info",
                    code="period_gaps",
                    message=(
                        f"{gaps} unobserved period(s) between {label(0)} and {label(-1)}"
                    ),
                )
            )

    event = timeline.event_index
    if event is not None:
        start = timeline._rows[0]
        n_flagged = int(columns.flags[start + event : start + len(ordinals)].sum())
        if n_flagged > 1:
            findings.append(
                Finding(
                    level="warning",
                    code="multiple_events",
                    message=(
                        f"{n_flagged} records carry the event flag; only the first "
                        f"({label(event)}) is treated as the event"
                    ),
                )
            )
        # Ordinals strictly increase, so every later row is a later period.
        trailing = len(ordinals) - event - 1
        if trailing:
            findings.append(
                Finding(
                    level="warning",
                    code="records_after_event",
                    message=(
                        f"{trailing} record(s) after the first event flag "
                        f"({label(event)}) are ignored by the transform"
                    ),
                )
            )

    return ValidationReport(entity_id=timeline.entity_id, findings=tuple(findings))
