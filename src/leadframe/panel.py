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
:class:`EntityTimeline` is a view of one entity's rows, made when it is
first read; validation, truncation and aggregation read the columns.
``PanelRecord`` is a read-only view of a row, made only when ``records``
is read.

Two tokenizers cut the rows into cells.  Each fills one code array for
each of the entity and period columns, one int8 flag array and one
feature matrix, made at the first block for the rows the file is
estimated to hold, remade only if a later block finds them short, and
filled block by block in place.  Each code is left the position of its
stripped text among the column's distinct texts, sorted, and each flag the
value of its text, or -1 for a text other than 0 or 1; the entity codes,
period ordinals and flags are these arrays, with no second copy.  A plain
file holds, after an optional BOM, only printable ASCII other than the
quote character, and line feeds.
csv.reader would split it at every comma and line feed and nowhere else,
so numpy does that directly, and the file is read once and never held
whole: the header line and each block of whole lines are checked to be
plain as they are read, each block into one padded buffer, where it is
split once into cell ends, from which every column reads its cells
(:func:`_plain_block`).  Its column layout is data (:class:`_Cells`), so
the training-CSV reader drives the same step: only its ids, decoded in
file order, and its values, any finite number, differ.  A
feature cell of 1 to 15 digits, or of digits and one decimal point, is
converted by exact arithmetic, any other by ``float``; a text is keyed by
its bytes, runs of equal keys count once,
and each block codes its texts by its own distinct keys.  Once the file is
read, each text column's keys are ranked once, in byte order, which is str
order here, its codes are remapped in place, and only its distinct texts
are decoded.  Every other file (quotes, carriage returns, spaces, tabs,
non-ASCII bytes, NUL) is read whole, from its start, header and rows
alike, and goes through csv.reader, a piece of the text at a time, once
its header line or a block of its rows is found not plain, and so does a
plain file whose rows differ in length or are short, that has a cell
longer than 256 bytes or ``csv.field_size_limit()`` or a feature cell
that is not a number.  Both tokenizers feed the same column checks and
the same fault walk, so they give the same columns and the same error
messages.  The feature matrix holds only the columns the parse is asked
to keep; each block converts and range-checks every feature cell, kept or
dropped, so what it keeps never changes whether or how the parse fails.

:class:`EntityBlocks` reads a file as blocks of whole entities with the
same tokenizer, its header line parsed and its columns laid out once for
the file, and gives each block the period ordinals of the whole file; a
block ends where the last entity of its last read begins, by the entity
keys that read's tokenizing made, and the next read starts there.  It
tells when a file's blocks are not its rows entity by entity, and the file
must then be parsed whole.

:func:`write_panel_csv` renders each distinct cell once: each entity id,
each period label, each distinct value of each feature column and each
flag, through csv.writer's quoting (:func:`csv_cells`) and the one number
format.  It stores each column's rendered cells with their separators as
fixed-width byte records, gathers the records of a block of rows in
canonical order into a byte matrix, drops the padding by a length mask and
writes the block, so no Python code runs per cell and the matrix of a block
stays small.  The bytes equal those of csv.writer writing row by row.
:func:`write_panel_rows` writes the same rows without the header line;
since each cell is rendered on its own, ``synth`` writes a panel one block
of entities at a time below one header, in the bytes of the whole panel.
"""

from __future__ import annotations

import codecs
import copy
import csv
import io
import itertools
import math
import re
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from typing import BinaryIO, NoReturn, Union

import numpy as np

from .errors import (
    BadValue,
    DimensionMismatch,
    DuplicateObservation,
    EmptyInput,
    InvalidConfig,
    MissingColumn,
    ParseError,
)

_FLAGS = {"0": 0, "1": 1}
# Where io.StringIO with newline="" ends a line (str.splitlines also ends one
# at "\x1c", "\u2028" and others), and the characters of text handed to
# csv.reader per StringIO.
_LINE_BREAK = re.compile(r"\r\n?|\n")
_PIECE = 1 << 16
_INT_LABEL = re.compile(r"^[+-]?[0-9]+$")
_MONTH_LABEL = re.compile(r"^[0-9]{4}-(0[1-9]|1[0-2])$")
# Rows converted per block by the csv.reader tokenizer: small enough to keep
# the cell strings of one block only, large enough that numpy calls are few.
_BLOCK_ROWS = 4096
# Bytes a plain file holds after its optional BOM: printable ASCII except the
# quote character, and the line feed.
_PLAIN_BYTES = bytes(b for b in range(0x21, 0x7F) if b != ord('"')) + b"\n"
_BOM = codecs.BOM_UTF8
_COMMA, _NEWLINE, _POINT, _QUOTE, _ZERO = ord(","), ord("\n"), ord("."), ord('"'), ord("0")
# Bytes of body per numpy block: whole lines of about this size, so the
# position arrays of one block stay small.  A streamed read (EntityBlocks)
# reads and tokenizes this much at a time, and each of its blocks of whole
# entities gathers one such read or more.  On the churn-monthly benchmark
# (2 CPUs, Python 3.11, numpy 2.4), against reading the panel whole, reads
# of 1x, 2x and 4x this size cost 11% of job_s at each size and move peak
# RSS by -3.4, +0.2 and +5.1 MB: the tokenizer's arrays grow with the read.
_BLOCK_BYTES = 1 << 18
# The numpy tokenizer pads each text cell to the longest of its column, so a
# block costs up to rows x longest cell bytes: a longer cell goes to csv.reader.
_LONGEST_CELL = 256
# Cells of up to this many digits convert exactly: 10**15 < 2**53.
_MAX_DIGITS = 15
# 10**k for k = 0 to _MAX_DIGITS, each an exact double.
_POWERS_OF_TEN = np.array([float(10**k) for k in range(_MAX_DIGITS + 1)])
# Zero bytes before each numpy block, so that the k-th byte before a cell's
# end exists for Horner's rule, over the digits and a decimal point, and
# after it, so that a window of a cell's bytes from its start does: 8 for a
# uint64 key, up to _LONGEST_CELL for a longer text.
_FRONT, _BACK = _MAX_DIGITS + 1, _LONGEST_CELL
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
# Bytes of a block's byte matrix the writer compacts per np.compress call,
# which makes an 8-byte index per byte kept: 64 KiB keeps that index under
# 512 KiB, where a whole block's would be about 2.6 MB, fresh for each block.
_COMPRESS_BYTES = 1 << 16


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

    def keeping(self, features: Collection[str]) -> "PanelSchema":
        """The schema with only the named feature columns, in schema order:
        the schema of a parse that keeps only those columns' values.

        It may keep none, as ``validate``'s parse does, so the check that a
        declared schema names a feature column is not made here.  Raises
        InvalidConfig for a name the schema lacks.
        """
        names = set(features)
        unknown = names - set(self.feature_columns)
        if unknown:
            raise InvalidConfig(
                "kept columns missing from the schema: " + ", ".join(sorted(unknown))
            )
        kept = copy.copy(self)
        object.__setattr__(
            kept, "feature_columns", tuple(c for c in self.feature_columns if c in names)
        )
        return kept


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
    makes each :class:`PanelRecord` when it is read.  The schema's feature
    columns are the columns' features, or DimensionMismatch is raised, so
    a written header always names the values below it.
    """

    schema: PanelSchema
    columns: PanelColumns

    def __post_init__(self) -> None:
        if self.schema.feature_columns != self.columns.features:
            raise DimensionMismatch(
                f"schema feature columns {self.schema.feature_columns!r} do not match "
                f"the dataset's features {self.columns.features!r}"
            )

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
        # Built in the one array it returns.
        keys = self.columns.codes * span
        keys += self.columns.ordinals
        keys -= low
        return keys, low, span


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


class Timelines(Sequence):
    """Read-only sequence of a block's timelines, one per entity in entity
    id order, each made on first read and kept.

    Slices and ``+`` with a tuple give tuples; ``==`` compares with any
    sequence element by element.  ``entity_ids`` are the block's, so a
    fold of the whole block needs no timeline at all.
    """

    __slots__ = ("block", "_made")

    def __init__(self, block: TimelineBlock) -> None:
        self.block = block
        self._made: list[EntityTimeline | None] = [None] * (len(block.offsets) - 1)

    @property
    def entity_ids(self) -> tuple[str, ...]:
        return self.block.columns.entity_ids

    def __len__(self) -> int:
        return len(self._made)

    def _timeline(self, index: int) -> EntityTimeline:
        timeline = self._made[index]
        if timeline is None:
            timeline = self._made[index] = EntityTimeline(self.block, index)
        return timeline

    def __getitem__(self, index):
        positions = range(len(self._made))[index]
        if isinstance(positions, range):
            return tuple(map(self._timeline, positions))
        return self._timeline(positions)

    def __iter__(self) -> Iterator[EntityTimeline]:
        return map(self._timeline, range(len(self._made)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return tuple(self) == tuple(other)

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: object) -> tuple[EntityTimeline, ...]:
        return tuple(self) + other if isinstance(other, tuple) else NotImplemented

    def __radd__(self, other: object) -> tuple[EntityTimeline, ...]:
        return other + tuple(self) if isinstance(other, tuple) else NotImplemented


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
    """csv.reader's records of the text, as read from one ``io.StringIO``
    of it with ``newline=""``.

    A StringIO holds its text at up to 4 bytes per character, so the text
    goes to the reader in pieces of about ``_PIECE`` characters, each in a
    StringIO of its own.  Each piece ends at a line break, where StringIO
    ends a line, so the reader is fed the same lines and numbers them alike.
    """
    return csv.reader(itertools.chain.from_iterable(
        io.StringIO(piece, newline="") for piece in _pieces(text)
    ))


def _pieces(text: str) -> Iterator[str]:
    """The text in consecutive pieces, each ending at the first line break
    ``_PIECE`` or more characters past its start, or at the text's end."""
    start = 0
    while start < len(text):
        line_break = _LINE_BREAK.search(text, start + _PIECE)
        end = line_break.end() if line_break else len(text)
        yield text[start:end]
        start = end


def _raise_first_fault(text: str, schema: PanelSchema) -> NoReturn:
    """Walk the data rows in file order, by the text's own header, and
    raise the first fault, with the line its record ends on (or the
    reader's own csv.Error)."""
    reader = _records(text)
    positions = _header_positions(next(reader, None), schema)
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


class _FlagValues(dict):
    """The ``_FLAGS`` value of each raw flag text, stripped, or -1 for any
    other text."""

    def __missing__(self, raw: str) -> int:
        value = self[raw] = _FLAGS.get(raw.strip(), -1)
        return value


@dataclass(eq=False)
class _Cells:
    """A file's data rows, tokenized one block of rows at a time, in file
    order, and the column layout the tokenizers read them by.

    The layout is data: ``width`` is the fewest cells a row must hold,
    ``texts`` the positions of the columns coded as texts, ``features``
    maps the position of each number column to the column of ``values`` it
    fills, or None for one checked and dropped, ``flag`` is the position
    of the flag column and ``kept`` names the columns of ``values``; no
    other cell is read.  :func:`_panel_cells` makes a panel's from its
    header, and the training reader makes its own.  Row i of the first
    ``rows`` holds the kept values ``values[i]``, its flag ``flags[i]``,
    the ``_FLAGS`` value of its flag text or -1 for any other text, and,
    in each text column's array of ``codes``, the position of its stripped
    text in that column's sorted ``distinct`` texts, which the tokenizer
    sets once every row is read.  ``in_range`` holds while every number
    cell read, kept or dropped, is finite and non-negative.  The arrays
    are made at the first block, for the rows the tokenizer estimates the
    file holds, and each block fills its own rows; the entity and period
    codes and the flags become the parsed columns themselves.
    """

    width: int
    texts: list[int]
    features: dict[int, int | None]
    flag: int
    kept: tuple[str, ...]

    def __post_init__(self) -> None:
        self.codes = tuple(np.empty(0, dtype=np.intp) for _ in self.texts)
        self.values = np.empty((0, len(self.kept)))
        self.flags = np.empty(0, dtype=np.int8)
        self.distinct: list[list[str]] = []
        self.rows = 0
        self.in_range = True

    def block(self, n: int, lines: int) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """The codes, values and flags of the next n rows, to be filled.
        Arrays short of them are made anew for the ``lines`` the file is
        estimated to hold, the rows needed or more, and the filled rows
        copied: ``ndarray.resize`` would refuse them, referenced as they
        are, or, told not to check, leave their views dangling."""
        start = self.rows
        self.rows += n
        if self.rows > len(self.values):
            self.codes = tuple(_remade(codes, start, lines) for codes in self.codes)
            self.values = _remade(self.values, start, lines)
            self.flags = _remade(self.flags, start, lines)
        rows = slice(start, self.rows)
        return [codes[rows] for codes in self.codes], self.values[rows], self.flags[rows]

    def fill(self, values: np.ndarray, slot: int | None, column: np.ndarray) -> None:
        """Check one block's converted feature column, and keep it in column
        ``slot`` of the block's ``values`` unless it is dropped (None)."""
        # A NaN makes min and max NaN, and neither makes a temporary the size
        # of the column.
        self.in_range &= bool(column.min() >= 0.0 and column.max() < np.inf)
        if slot is not None:
            values[:, slot] = column


def _panel_cells(header: list[str] | None, schema: PanelSchema, kept: tuple[str, ...]) -> _Cells:
    """The layout of a panel's rows by the positions of its header's names
    (:func:`_header_positions`): a row holds every schema column, the
    entity and period columns are texts, the event column is the flag, and
    the ``kept`` feature columns fill ``values`` in schema order while the
    others are checked and dropped."""
    positions = _header_positions(header, schema)
    slot = {name: j for j, name in enumerate(kept)}
    return _Cells(
        max(positions[c] for c in schema.columns) + 1,
        [positions[schema.entity_column], positions[schema.period_column]],
        {positions[c]: slot.get(c) for c in schema.feature_columns},
        positions[schema.event_column],
        kept,
    )


def _remade(old: np.ndarray, start: int, rows: int) -> np.ndarray:
    """A new array of ``rows`` rows shaped and typed as ``old``, holding its
    first ``start`` rows."""
    new = np.empty((rows, *old.shape[1:]), dtype=old.dtype)
    new[:start] = old[:start]
    return new


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


def _reader_cells(text: str, schema: PanelSchema, kept: tuple[str, ...]) -> _Cells | None:
    """Tokenize the data rows of the text with csv.reader, by the header
    that same read gives, keeping the values of the ``kept`` feature
    columns, or None if any row may hold a fault.

    Cells are gathered and converted one block of rows at a time; each
    text column's raw texts are numbered for the whole file and ranked
    once every row is read.  The reader ends a record at a line feed, a
    carriage return or the two together, so the text holds no more rows
    than such line breaks, plus one: the arrays are made for that many.
    """
    lines = text.count("\n") + text.count("\r") - text.count("\r\n") + 1
    reader = _records(text)
    cells = _panel_cells(next(reader, None), schema, kept)
    numberings = [_Codes() for _ in cells.texts]
    flag_values = _FlagValues()
    rows = filter(None, reader)
    try:
        while block := list(itertools.islice(rows, _BLOCK_ROWS)):
            n = len(block)
            if min(map(len, block)) < cells.width:
                return None
            columns = list(zip(*block))
            codes, values, flags = cells.block(n, lines)
            for at, slot in cells.features.items():
                cells.fill(values, slot, np.fromiter(map(float, columns[at]), np.float64, n))
            for row, at, numbering in zip(codes, cells.texts, numberings):
                row[:] = np.fromiter(map(numbering.__getitem__, columns[at]), np.intp, n)
            flags[:] = np.fromiter(map(flag_values.__getitem__, columns[cells.flag]), np.int8, n)
    except (ValueError, csv.Error):
        # A cell is not a number, or the reader failed on a later row: an
        # earlier row may still hold the first fault.
        return None
    cells.distinct = [
        _rank_texts(codes[: cells.rows], numbering)
        for codes, numbering in zip(cells.codes, numberings)
    ]
    return cells


class _Lines:
    """A file's rest read as blocks of whole lines into one padded buffer.

    Each :meth:`read` takes ``_BLOCK_BYTES`` bytes into the buffer with one
    ``readinto`` and the rest of their last line with ``readline``, between
    ``_FRONT`` zero bytes and ``_BACK`` or more, and judges these bytes
    plain, the ones the rows are read from: the body in the buffer itself
    (:func:`_is_plain_array`), the rest as read.  The buffer
    has room for a rest of ``_BACK`` bytes, and is made anew for a longer
    one.  Every column of a block reads its cells from this buffer.

    ``total`` is the bytes the reads are expected to take in all, the
    file's rest when the reads began, or 0 if that is not known; with the
    bytes read so far, it turns the rows read so far into an estimate of
    the rows of the whole (:meth:`estimate`).
    """

    def __init__(self, handle: BinaryIO, total: int = 0) -> None:
        self._handle = handle
        self._buffer = np.zeros(_FRONT + _BLOCK_BYTES + 1 + 2 * _BACK, dtype=np.uint8)
        self._total, self._taken = total, 0
        # The bytes the last read took, and whether it ended the file: a
        # short read, or a last line without a line feed.
        self.size, self.last = 0, False

    def read(self) -> np.ndarray | None:
        """The next block, padded, with a line feed after a last line that
        has none; or None if it is not plain."""
        buffer = self._buffer
        got = self._handle.readinto(buffer[_FRONT : _FRONT + _BLOCK_BYTES])
        tail = self._handle.readline()
        if not (_is_plain_array(buffer[_FRONT : _FRONT + got]) and _is_plain(tail)):
            return None
        self.size, self.last = got + len(tail), not tail.endswith(b"\n")
        self._taken += self.size
        start, end = _FRONT + got, _FRONT + self.size
        if len(buffer) < end + 1 + _BACK:
            self._buffer = buffer = np.concatenate(
                (buffer[:start], np.empty(end + 1 + _BACK - start, np.uint8))
            )
        buffer[start:end] = np.frombuffer(tail, np.uint8)
        buffer[end : end + 1 + _BACK] = 0
        if buffer[end - 1] != _NEWLINE:  # the file's last line has no line feed
            buffer[end] = _NEWLINE
        return buffer[: end + 1 + _BACK]

    def estimate(self, rows: int) -> int:
        """The rows the reads are estimated to hold in all, ``rows`` of them
        in the bytes read so far: as many per byte of ``total``, or
        ``rows`` if more."""
        return max(rows, -(-self._total * rows // self._taken))


def _cell_ends(padded: np.ndarray, limit: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(before, ends) for the lines of a padded block, with blank lines
    dropped, or None if its lines hold different numbers of cells or a cell
    is longer than ``limit`` bytes.

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
    ends = ends.reshape(-1, cells)
    # No cell is longer than its line, and few lines are longer than the limit.
    if (feeds - before).max() > limit + 1 and (
        np.diff(ends, axis=1, prepend=before[:, None]).max() > limit + 1
    ):
        return None
    return before, ends


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
    Of the other cells, one of digits, a ``.`` and digits, with 1 to 15
    digits in all, is read as such an integer m over 10**k, k the digits
    after the point (:func:`_decimals`): both are exact doubles, so the one
    correctly rounded division equals ``float(text)`` (Clinger, "How to
    read floating point numbers accurately", PLDI 1990).  Every other cell
    goes through ``float``.
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
        values[rest], decimal = _decimals(padded, first[rest], lengths[rest])
        rest = rest[~decimal]
    if len(rest):
        texts = _texts(padded, first[rest], lengths[rest]).tolist()
        try:
            values[rest] = np.fromiter(map(float, texts), np.float64, len(rest))
        except ValueError:
            return None
    return values


def _decimals(
    padded: np.ndarray, first: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(values, exact): whether each cell is digits, one ``.`` and digits,
    with 1 to ``_MAX_DIGITS`` digits in all, and the value of each such
    cell, m / 10**k for its digits m and the k of them after the point.

    m is read by Horner's rule as in :func:`_numbers`, the point skipped.
    """
    longest = _MAX_DIGITS + 1  # the digits and the point
    size = max(int(min(lengths.max(), longest)), 1)
    values = np.zeros(len(first))
    points = np.zeros(len(first), dtype=np.intp)
    after = np.zeros(len(first), dtype=np.intp)  # the digits after the last point
    at = first - size
    at += lengths
    numeric = np.ones(len(first), dtype=bool)
    for k in range(size, 0, -1):
        digit = padded[at]
        inside = lengths >= k
        point = digit == _POINT
        point &= inside
        digit -= np.uint8(_ZERO)
        digit *= inside ^ point  # a point, or a byte before the cell's start, adds 0
        numeric &= digit <= 9
        values *= np.where(point, 1.0, 10.0)
        values += digit
        points += point
        after[point] = k - 1
        at += 1
    exact = numeric & (points == 1) & (lengths <= longest) & (lengths > 1)
    values /= _POWERS_OF_TEN[after]
    return values, exact


def _is_plain(data: bytes) -> bool:
    """Whether the bytes are only printable ASCII other than the quote
    character, and line feeds.

    csv.reader splits a file of such bytes, after an optional BOM, at every
    comma and line feed and nowhere else, so its header record is its first
    line.
    """
    return not data.translate(None, _PLAIN_BYTES)


def _is_plain_array(data: np.ndarray) -> bool:
    """:func:`_is_plain` of a uint8 array's bytes, judged in place: every
    byte is at most 0x7E, the only bytes up to 0x20 are line feeds, and
    none is the quote character."""
    return not len(data) or bool(
        data.max() <= 0x7E
        and np.count_nonzero(data <= 0x20) == np.count_nonzero(data == _NEWLINE)
        and not (data == _QUOTE).any()
    )


def _plain_cells(lines: _Lines, cells: _Cells, stream: bool = False) -> int | None:
    """Tokenize the next data rows of a plain file, read by ``lines``, into
    ``cells`` with numpy; return the bytes of the last read past the rows
    kept, or None when csv.reader must tokenize them: a block is not plain,
    the lines of a block differ in length or are short, a cell is longer
    than ``csv.field_size_limit()`` or ``_LONGEST_CELL``, or a feature cell
    is not a number (the csv.reader tokenizer then meets the same cell and
    the fault walk names it).

    This is the one read loop of a plain panel.  It reads a block of whole
    lines at a time and tokenizes each as it is read (:func:`_plain_block`),
    coding its entity, period and flag texts by the block's own distinct
    keys.  A whole read runs to the file's end.  A ``stream`` read stops at
    the first block that holds a line of another entity than its first
    row's, and keeps the rows before that block's last entity
    (:func:`_last_entity`); a block that ends the file ends it too.  The
    last block's keys are then narrowed to those of the rows kept, and each
    text column's keys are ranked once (:func:`_rank_keys`).
    """
    cells.rows, cells.in_range = 0, True
    # Per text column: the rows of each block and the block's distinct keys.
    column_keys: list[list[tuple[int, int, np.ndarray]]] = [[] for _ in cells.texts]
    cut = None
    while True:
        first = cells.rows
        block = _plain_block(lines, cells, column_keys)
        if block is None:
            return None
        before = block[1]
        del block  # keep only the line starts: let go of the cell ends now
        if lines.last:
            cut = cells.rows
        elif stream:
            cut = _last_entity(cells, column_keys, first)
        if cut is not None:
            break
        del before  # let go of it before the next block is tokenized
    past = 0 if cut == cells.rows else lines.size + _FRONT - 1 - int(before[cut - first])
    cells.rows = cut
    for codes, keys in zip(cells.codes, column_keys):
        if keys:
            # Only the last block holds rows past the cut: its keys are
            # narrowed to those of its rows kept.
            start, _, distinct = keys.pop()
            if start < cut:
                read_codes = codes[start:cut]
                used = np.bincount(read_codes, minlength=len(distinct)) > 0
                if not used.all():
                    np.take(np.cumsum(used) - 1, read_codes, out=read_codes, mode="clip")
                    distinct = distinct[used]
                keys.append((start, cut, distinct))
    cells.distinct = [
        _rank_keys(codes, keys) if keys else [] for codes, keys in zip(cells.codes, column_keys)
    ]
    return past


def _plain_block(
    lines: _Lines, cells: _Cells, column_keys: list[list[tuple[int, int, np.ndarray]]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Read the next block of lines and tokenize it into the next rows of
    ``cells``, appending each text column's rows and distinct keys to its
    list in ``column_keys``; return the block's padded bytes and its
    (before, ends) from :func:`_cell_ends`, or None when csv.reader must
    tokenize the file (:func:`_plain_cells`).  Lines of more cells than
    ``cells.width`` are taken, and their cells past it left unread.

    This is the one tokenizing step of every plain CSV the package reads:
    the block is split once into cell ends, from which every column reads
    its cells, and the caller lets go of them before the next block.
    """
    padded = lines.read()
    limit = min(csv.field_size_limit(), _LONGEST_CELL)
    split = None if padded is None else _cell_ends(padded, limit)
    if split is None:
        return None
    before, ends = split
    n = len(before)
    if not n:
        return padded, before, ends
    if ends.shape[1] < cells.width:
        return None
    start = cells.rows
    codes, values, flags = cells.block(n, lines.estimate(start + n))
    texts = dict(zip(cells.texts, zip(codes, column_keys)))
    for at, first, length in _spans(before, ends, cells.width):
        if at in cells.features:
            column = _numbers(padded, first, length)
            if column is None:
                return None
            cells.fill(values, cells.features[at], column)
        elif at in texts:
            row, keys = texts[at]
            keys.append((start, cells.rows, _block_codes(padded, first, length, row)))
        elif at == cells.flag:
            _flag_values(padded, first, length, flags)
    return padded, before, ends


def _flag_values(
    padded: np.ndarray, first: np.ndarray, lengths: np.ndarray, out: np.ndarray
) -> None:
    """Each flag cell's ``_FLAGS`` value into ``out``, or -1 for a cell that
    is not one byte, "0" or "1" (a plain file holds nothing to strip)."""
    value = padded[first]
    value -= np.uint8(_ZERO)  # any other byte wraps past 1
    value[(value > 1) | (lengths != 1)] = 0xFF  # -1 as int8
    out[:] = value.view(np.int8)


def _columns(
    cells: _Cells,
    index: Callable[[list[str], str], dict[str, int] | None] = index_periods,
) -> PanelColumns | None:
    """Check the tokenized cells as whole columns and convert them to
    PanelColumns, or None if any row may hold a fault or ``index`` gives
    None.

    Each distinct entity, period and flag text is checked once.  The
    entity codes are the codes of the sorted ids; each period code, the
    position of its label among the sorted labels, is replaced in place by
    the label's ordinal, which ``index`` gives for the labels, sorted as
    text, and their format.
    """
    if not cells.rows:
        raise EmptyInput("input has a header but no data rows")
    entity_ids, label_texts = cells.distinct
    entity_codes, label_codes = (codes[: cells.rows] for codes in cells.codes)
    flags = cells.flags[: cells.rows]
    kinds = {_label_kind(label) for label in label_texts}
    file_kind = kinds.pop() if len(kinds) == 1 else None
    # An empty id sorts first.
    if not entity_ids[0] or file_kind is None or flags.min() < 0 or not cells.in_range:
        return None

    ordinal = index(label_texts, file_kind)
    if ordinal is None:
        return None
    ranks = np.fromiter(map(ordinal.__getitem__, label_texts), np.intp, len(label_texts))
    if (ranks != np.arange(len(ranks))).any():
        np.take(ranks, label_codes, out=label_codes, mode="clip")
    return PanelColumns(
        entity_ids=tuple(entity_ids),
        codes=entity_codes,
        periods={o: PeriodIndex(o, label) for label, o in ordinal.items()},
        ordinals=label_codes,
        features=cells.kept,
        values=cells.values[: cells.rows],
        flags=flags,
    )


def _plain_header(line: bytes, schema: PanelSchema, kept: tuple[str, ...]) -> _Cells | None:
    """The layout (:func:`_panel_cells`) of the rows under a plain header
    line, after an optional BOM, or None if the line is not plain."""
    if not _is_plain(line[len(_BOM) :] if line.startswith(_BOM) else line):
        return None
    return _panel_cells(next(_records(line.decode("utf-8-sig")), None), schema, kept)


def _header_positions(header: list[str] | None, schema: PanelSchema) -> dict[str, int]:
    """The position of each stripped header name, first one first; raises
    EmptyInput with no header, ParseError if it names a schema column twice
    and MissingColumn if it lacks one."""
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
    return positions


def parse_panel_csv(
    source: Union[bytes, BinaryIO],
    schema: PanelSchema,
    features: Collection[str] | None = None,
) -> PanelDataset:
    """Parse a panel CSV into a :class:`PanelDataset`.

    ``features`` names the feature columns whose values the dataset keeps,
    by default every one; its schema is ``schema.keeping(features)``.  Every
    feature cell is converted and checked, kept or not, so the parse fails
    alike whatever it keeps.  A file handle is read from its position, once:
    the header line, then the rows, a block at a time; a handle that cannot
    seek is read whole first.  Raises MissingColumn, BadValue, or
    EmptyInput; error messages name the offending line and column.
    """
    kept = schema if features is None else schema.keeping(features)
    handle = io.BytesIO(source) if isinstance(source, bytes) else source
    if not handle.seekable():
        # csv.reader reads the file again from its start, which a stream
        # that cannot seek does not allow.
        handle = io.BytesIO(handle.read())
    origin = handle.tell()
    # Only a hint of the rows' bytes: the rows are read to the file's end.
    size = handle.seek(0, io.SEEK_END) - origin
    handle.seek(origin)

    @cache
    def text() -> str:
        """The whole text, read and decoded at most once: the rows of a
        plain file may never need csv.reader or a decoded copy of them."""
        handle.seek(origin)
        return handle.read().decode("utf-8-sig")

    # Plainness is judged on the bytes the rows are read from, as they are
    # read: the header line here, then each block of rows.
    line = handle.readline()
    try:
        cells = _plain_header(line, schema, kept.feature_columns)
    except ParseError:
        # Read whole, a file that is not UTF-8 fails to decode before its
        # header is read; so it does here, where only its header line was.
        text()
        raise
    if cells is not None and _plain_cells(_Lines(handle, size - len(line)), cells) is None:
        cells = None
    if cells is None:
        cells = _reader_cells(text(), schema, kept.feature_columns)
    columns = None if cells is None else _columns(cells)
    if columns is None:
        _raise_first_fault(text(), schema)
    return PanelDataset(kept, columns)


class EntityBlocks:
    """A seekable panel file read as consecutive blocks of whole entities.

    Iterating from the handle's position gives each block as a
    :class:`PanelDataset` that keeps the named ``features``, by default
    every one, with the period ordinals of the whole file.  The header line
    is parsed, and the column layout (:class:`_Cells`) and the padded buffer
    (:class:`_Lines`) made, once for the file.  Each block is a streamed
    read of :func:`_plain_cells`, and the next starts where it cut, after a
    seek back; so the file is read about once.  Each block's rows fill the
    arrays of the block before, so a block is let go before the next is
    asked for.

    Each label's ordinal is its rank among the labels of this block and
    those before it, which is its rank in the whole file as long as no
    later block adds a label that sorts before one of these.  The last item
    is None when the blocks may not be the file's rows entity by entity:
    the header line or a read is not plain or must go to csv.reader, a row
    may hold a fault, a block's smallest id is not above the largest id of
    the blocks before it, its period labels are of another format than
    theirs, or a label it adds does not sort after every label of theirs.
    The whole file must then be parsed from its start.  ``rows``,
    ``entities`` and ``periods`` count those of the blocks given.
    """

    def __init__(
        self, handle: BinaryIO, schema: PanelSchema, features: Collection[str] | None = None
    ) -> None:
        self._handle = handle
        self._schema = schema
        self._kept = schema if features is None else schema.keeping(features)
        # Each label of the blocks given and its ordinal, in chronological order.
        self._ordinals: dict[str, int] = {}
        self._kind: str | None = None
        self._last_id = ""
        self.rows = self.entities = 0

    @property
    def periods(self) -> int:
        return len(self._ordinals)

    def __iter__(self) -> Iterator[PanelDataset | None]:
        handle = self._handle
        cells = _plain_header(handle.readline(), self._schema, self._kept.feature_columns)
        if cells is None:
            yield None
            return
        lines = _Lines(handle)
        while True:
            past = _plain_cells(lines, cells, stream=True)
            if past is None:
                yield None
                return
            if cells.rows:
                block = self._block(cells)
                yield block
                if block is None:
                    return
            if lines.last:
                return
            start = handle.tell() - past
            handle.seek(start)

    def _block(self, cells: _Cells) -> PanelDataset | None:
        """The rows tokenized, as the next block, or None if they may hold a
        fault or do not follow the blocks before them."""
        columns = _columns(cells, self._file_ordinals)
        if columns is None or columns.entity_ids[0] <= self._last_id:
            return None
        self._last_id = columns.entity_ids[-1]
        self.rows += len(columns)
        self.entities += len(columns.entity_ids)
        return PanelDataset(self._kept, columns)

    def _file_ordinals(self, labels: list[str], kind: str) -> dict[str, int] | None:
        """The ordinal of each of a block's period labels among the labels of
        the blocks so far, or None if they are of another format than those
        of the blocks before, or a label it adds does not sort after every
        label of theirs.  Raises BadValue as :func:`index_periods` does for
        two labels it adds of one period."""
        if self._kind not in (None, kind):
            return None
        new = [label for label in labels if label not in self._ordinals]
        if new:
            order = index_periods(new, kind)
            new.sort(key=order.__getitem__)
            key = _int_value if kind == "int" else str
            if self._ordinals and key(new[0]) <= key(next(reversed(self._ordinals))):
                return None
            for label in new:
                self._ordinals[label] = len(self._ordinals)
        self._kind = kind
        return {label: self._ordinals[label] for label in labels}


def _last_entity(
    cells: _Cells, column_keys: list[list[tuple[int, int, np.ndarray]]], first: int
) -> int | None:
    """The first row of the last entity of the rows tokenized, or None if
    they are all of one entity.

    Rows from ``first`` on are the last read's, coded by its own distinct
    keys; every row before them is of one entity, so when the last read's
    rows are too, its one key is compared with the read's before.
    """
    codes = cells.codes[0][first : cells.rows]
    change = np.flatnonzero(codes[1:] != codes[:-1])
    if len(change):
        return first + int(change[-1]) + 1
    if not first or not len(codes):
        return None
    (last,), (earlier,) = column_keys[0][-1][2], column_keys[0][-2][2]
    return None if type(last) is type(earlier) and last == earlier else first


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
    # The row's first bad value, if any: a dataset may keep no feature column.
    j = int(np.argmax(bad_value[row])) if bad_value[row].any() else None
    fault = next(message for failed, message in (
        (not entity, f"empty value in column {schema.entity_column!r}"),
        (bad_id[code], f"entity id in column {schema.entity_column!r} has surrounding whitespace"),
        (kind is None, f"unparseable period {label!r} in column {schema.period_column!r} "
                       "(expected an integer or YYYY-MM)"),
        (kind != file_kind, f"period {label!r} in column {schema.period_column!r} "
                            f"does not match the dataset's {file_kind} period format"),
        (j is not None, j is not None and f"value {repr(float(columns.values[row, j]))!r} in "
                        f"column {columns.features[j]!r} must be finite and non-negative"),
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
    """Write a dataset in canonical order: its header line, then its rows as
    :func:`write_panel_rows` writes them.

    Raises BadValue as :func:`write_panel_rows` does, before anything is
    written, the header included.
    """
    rows = _row_texts(dataset)
    stream.write(csv_line(dataset.schema.columns))
    stream.writelines(rows)


def write_panel_rows(dataset: PanelDataset, stream: io.TextIOBase) -> None:
    """Write a dataset's rows, with no header line, in canonical order:
    entity ascending, then period.

    Every cell is rendered on its own, whatever the other rows hold, so the
    rows of consecutive blocks of entities, written one block after another
    below one header, are the bytes :func:`write_panel_csv` writes for their
    union; ``synth`` writes its panel so.

    Raises BadValue, before any row of the dataset is written, if a cell
    would not read back as it is: an empty id or one with surrounding
    whitespace, a period label that is not an integer or YYYY-MM or mixes
    the two formats, a negative, infinite or NaN feature value, or a flag
    other than 0 or 1; or if the period labels would read back as other
    periods or in another order than the dataset's ordinals.  A dataset
    written as one of several blocks is checked alone, so an earlier
    block's rows may already be written.
    """
    stream.writelines(_row_texts(dataset))


def _row_texts(dataset: PanelDataset) -> Iterator[str]:
    """The text of the dataset's rows, a block of rows at a time, for
    :func:`write_panel_rows`; its cells are checked by :func:`_check_writable`
    before this returns, so a BadValue is raised before any text is made.

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
    if not len(order):
        return iter(())
    return _gathered_rows(columns, periods, ordinals, period_index, order)


def _gathered_rows(
    columns: PanelColumns,
    periods: dict[int, str],
    ordinals: list[int],
    period_index: np.ndarray,
    order: np.ndarray,
) -> Iterator[str]:
    """The text of the rows ``order`` of the columns, a block at a time, as
    :func:`_row_texts` lays them out."""
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
        kept, data = used.view(np.bool_), texts.view(np.uint8)
        text = b"".join(
            np.compress(kept[at : at + _COMPRESS_BYTES], data[at : at + _COMPRESS_BYTES]).tobytes()
            for at in range(0, len(data), _COMPRESS_BYTES)
        )
        yield text.decode("utf-8", "surrogatepass")


def build_timelines(dataset: PanelDataset) -> Timelines:
    """Group records into per-entity timelines sorted by period.

    One stable sort by (entity, period) orders every row, unless the rows
    already come strictly in that order, as every written panel's do; each
    timeline is a view of its entity's rows, made when it is first read
    (:class:`Timelines`).  Raises DuplicateObservation if
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
    return Timelines(TimelineBlock(columns, offsets))


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
