import bisect
import csv
import dataclasses
import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CONFIG_JSON,
    dataset_of,
    parse_both_ways,
    parse_every_way,
    parse_outcome,
    write_both_ways,
)
from corpus import random_float_panel_rows, random_panel_rows, rows_to_csv_bytes
import oracle
from oracle import period_positions

from leadframe.errors import (
    BadValue,
    DimensionMismatch,
    DuplicateObservation,
    EmptyInput,
    InvalidConfig,
    LeadframeError,
    MissingColumn,
    ParseError,
)
from leadframe import panel
from leadframe.cli import main
from leadframe.panel import (
    EntityTimeline,
    PanelDataset,
    PanelSchema,
    _format_number,
    build_timelines,
    csv_cells,
    distinct_values,
    parse_panel_csv,
    validate_timeline,
    write_panel_csv,
)
from leadframe.synth import SynthConfig, generate_panel

import io


def small_schema() -> PanelSchema:
    return PanelSchema("entity", "period", "event", ("a", "b"))


def csv_bytes(*lines: str) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestParse:
    def test_fixture_counts(self, fixture_dataset):
        assert len(fixture_dataset.records) == 41
        assert fixture_dataset.entity_ids() == ["Aasheesh", "Jitin", "Kumarjit", "Prabhu"]

    def test_fixture_preserves_row_order(self, fixture_dataset):
        first, second = fixture_dataset.records[:2]
        assert (first.entity_id, first.period.label) == ("Kumarjit", "2016-01")
        assert (second.entity_id, second.period.label) == ("Aasheesh", "2016-01")

    def test_records_refuse_a_stepped_slice(self, fixture_dataset):
        with pytest.raises(ValueError, match="^records supports only slices with step 1$"):
            fixture_dataset.records[::2]

    def test_fixture_period_ordinals(self, fixture_dataset):
        by_label = {r.period.label: r.period.ordinal for r in fixture_dataset.records}
        assert by_label["2016-01"] == 0
        assert by_label["2016-10"] == 9
        assert by_label["2017-03"] == 14
        assert by_label["2017-12"] == 23

    def test_header_only_is_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_panel_csv(csv_bytes("entity,period,a,b,event"), small_schema())

    def test_missing_column(self):
        data = csv_bytes("entity,period,a,event", "x,1,2,0")
        with pytest.raises(MissingColumn, match="b"):
            parse_panel_csv(data, small_schema())

    def test_event_flag_two_names_line_and_column(self):
        data = csv_bytes("entity,period,a,b,event", "x,1,2,3,0", "y,1,2,3,2")
        with pytest.raises(BadValue) as excinfo:
            parse_panel_csv(data, small_schema())
        assert "line 3" in str(excinfo.value)
        assert "event" in str(excinfo.value)

    def test_negative_feature_rejected(self):
        data = csv_bytes("entity,period,a,b,event", "x,1,-1,3,0")
        with pytest.raises(BadValue, match="'a'"):
            parse_panel_csv(data, small_schema())

    def test_non_numeric_feature_rejected(self):
        data = csv_bytes("entity,period,a,b,event", "x,1,two,3,0")
        with pytest.raises(BadValue, match="non-numeric"):
            parse_panel_csv(data, small_schema())

    def test_nan_feature_rejected(self):
        data = csv_bytes("entity,period,a,b,event", "x,1,nan,3,0")
        with pytest.raises(BadValue):
            parse_panel_csv(data, small_schema())

    def test_unparseable_period(self):
        data = csv_bytes("entity,period,a,b,event", "x,Jan-16,1,1,0")
        with pytest.raises(BadValue, match="period"):
            parse_panel_csv(data, small_schema())

    def test_mixed_period_formats_rejected(self):
        data = csv_bytes("entity,period,a,b,event", "x,1,1,1,0", "x,2016-02,1,1,0")
        with pytest.raises(BadValue, match="format"):
            parse_panel_csv(data, small_schema())

    def test_ambiguous_integer_labels_rejected(self):
        data = csv_bytes("entity,period,a,b,event", "x,1,1,1,0", "y,01,1,1,0")
        with pytest.raises(BadValue, match="same period"):
            parse_panel_csv(data, small_schema())

    def test_empty_entity_rejected(self):
        data = csv_bytes("entity,period,a,b,event", ",1,1,1,0")
        with pytest.raises(BadValue, match="entity"):
            parse_panel_csv(data, small_schema())

    def test_integer_periods_sort_numerically(self):
        data = csv_bytes(
            "entity,period,a,b,event", "x,2,1,1,0", "x,10,1,1,0", "x,9,1,1,0"
        )
        dataset = parse_panel_csv(data, small_schema())
        ordered = sorted(dataset.records, key=lambda r: r.period.ordinal)
        assert [r.period.label for r in ordered] == ["2", "9", "10"]

    def test_integer_periods_of_any_length_sort_numerically(self):
        # More digits than int() converts from text (4,300).
        zeros, nines = "0" * 4400, "9" * 4400
        labels = [f"+{nines}", f"-{nines}", f"{zeros}7", "-8", f"-{zeros}", "12", f"1{zeros}"]
        data = csv_bytes("entity,period,a,b,event", *(f"x,{label},1,1,0" for label in labels))
        dataset = parse_panel_csv(data, small_schema())
        ordered = sorted(dataset.records, key=lambda r: r.period.ordinal)
        assert [r.period.label for r in ordered] == [
            f"-{nines}", "-8", f"-{zeros}", f"{zeros}7", "12", f"+{nines}", f"1{zeros}"
        ]

    @pytest.mark.parametrize(
        "digits", ["0" * 4400 + "1", "1" + "0" * 4400], ids=["leading-zeros", "trailing-zeros"]
    )
    def test_long_integer_labels_of_one_period_rejected(self, digits):
        data = csv_bytes("entity,period,a,b,event", f"x,{digits},1,1,0", f"y,+{digits},1,1,0")
        with pytest.raises(BadValue, match="same period"):
            parse_panel_csv(data, small_schema())

    def test_crlf_and_bom_accepted(self):
        data = b"\xef\xbb\xbfentity,period,a,b,event\r\nx,1,1,2,0\r\n"
        dataset = parse_panel_csv(data, small_schema())
        assert len(dataset.records) == 1
        assert dataset.records[0].features == {"a": 1.0, "b": 2.0}

    def test_carriage_returns_alone_end_rows(self):
        # csv.reader ends a row at a carriage return too, so a file without
        # a line feed still holds one row per line.
        lf = csv_bytes("entity,period,a,b,event", "x,1,1,2,0", "x,2,3,4,1", "y,1,5,6,0", "y,2,7,8,0")
        for twin in (lf.replace(b"\n", b"\r"), lf.replace(b"\n", b"\r\n")):
            assert parse_outcome(twin, small_schema()) == parse_outcome(lf, small_schema())

    def test_extra_columns_ignored(self):
        data = csv_bytes("entity,period,junk,a,b,event", "x,1,zzz,1,2,0")
        dataset = parse_panel_csv(data, small_schema())
        assert dataset.records[0].features == {"a": 1.0, "b": 2.0}

    def test_features_parsed_as_reals(self):
        data = csv_bytes("entity,period,a,b,event", "x,1,1.5,2,0")
        record = parse_panel_csv(data, small_schema()).records[0]
        assert record.features["a"] == 1.5


# A second data row with several faults, and the message naming its first
# fault: cells are checked entity, period, each feature, then the event flag.
FIRST_FAULT = [
    (",1,inf,x,2", "line 3: empty value in column 'entity'"),
    (",2", "line 3: empty value in column 'entity'"),
    ("y", "line 3: row too short for column 'period'"),
    (
        "y,Jan,inf,x,2",
        "line 3: unparseable period 'Jan' in column 'period' (expected an integer or YYYY-MM)",
    ),
    (
        "y,2016-01,1,1,0",
        "line 3: period '2016-01' in column 'period' does not match the file's int period format",
    ),
    ("y,2,inf,x,0", "line 3: value 'inf' in column 'a' must be finite and non-negative"),
    ("y,2,x,inf,0", "line 3: non-numeric value 'x' in column 'a'"),
    ("y,2,1,-2,5", "line 3: value '-2' in column 'b' must be finite and non-negative"),
    ("y,2,1,1e999,0", "line 3: value '1e999' in column 'b' must be finite and non-negative"),
    ("y,2,nan", "line 3: value 'nan' in column 'a' must be finite and non-negative"),
    ("y,2,1", "line 3: row too short for column 'b'"),
    ("y,2,1,1", "line 3: row too short for column 'event'"),
    ("y,2,1,1,true", "line 3: event flag 'true' in column 'event' must be 0 or 1"),
]


class TestFirstFault:
    @pytest.mark.parametrize("row, message", FIRST_FAULT)
    def test_first_fault_named(self, row, message):
        data = csv_bytes("entity,period,a,b,event", "x,1,1,1,0", row)
        with pytest.raises(BadValue) as excinfo:
            parse_panel_csv(data, small_schema())
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
    def test_every_row_short(self, newline):
        # The rows are all of one length, so a tokenizer's width check is the
        # first to refuse them: numpy's for LF, csv.reader's for CRLF.
        data = csv_bytes("entity,period,a,b,event", "x,1,1,1", "y,1,2,2").replace(b"\n", newline)
        with pytest.raises(BadValue) as excinfo:
            parse_panel_csv(data, small_schema())
        assert str(excinfo.value) == "line 2: row too short for column 'event'"

    def test_finite_cells_whose_sum_overflows_are_accepted(self):
        data = csv_bytes("entity,period,a,b,event", " x , 1 , 1e308 , 1e308 , 1 ")
        (record,) = parse_panel_csv(data, small_schema()).records
        assert (record.entity_id, record.period.label, record.event_flag) == ("x", "1", 1)
        assert record.features == {"a": 1e308, "b": 1e308}

    def test_records_share_one_period_index_per_label(self):
        data = csv_bytes("entity,period,a,b,event", "x,1,1,1,0", "y,1,2,2,0", "y,2,3,3,0")
        first, second, third = parse_panel_csv(data, small_schema()).records
        assert first.period is second.period
        assert third.period.ordinal == 1


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidConfig):
            PanelSchema("e", "p", "e", ("a",))

    def test_needs_a_feature_column(self):
        with pytest.raises(InvalidConfig):
            PanelSchema("e", "p", "v", ())

    def test_empty_column_name_rejected(self):
        with pytest.raises(InvalidConfig, match="^schema column names must be non-empty$"):
            PanelSchema("e", "", "v", ("a",))


class TestTimelines:
    def test_fixture_grouping(self, fixture_timelines):
        assert [t.entity_id for t in fixture_timelines] == [
            "Aasheesh",
            "Jitin",
            "Kumarjit",
            "Prabhu",
        ]
        kumarjit = fixture_timelines[2]
        assert len(kumarjit.records) == 10
        assert kumarjit.records[0].period.label == "2016-01"
        assert kumarjit.records[-1].period.label == "2016-10"

    def test_conservation(self, fixture_dataset, fixture_timelines):
        assert sum(len(t.records) for t in fixture_timelines) == len(fixture_dataset.records)

    def test_single_record(self):
        data = csv_bytes("entity,period,a,b,event", "solo,1,1,1,0")
        (timeline,) = build_timelines(parse_panel_csv(data, small_schema()))
        assert timeline.entity_id == "solo"
        assert len(timeline.records) == 1

    def test_duplicate_observation(self):
        data = csv_bytes("entity,period,a,b,event", "x,1,1,1,0", "x,1,2,2,0")
        with pytest.raises(DuplicateObservation, match="'x'"):
            build_timelines(parse_panel_csv(data, small_schema()))

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["x,1,1,1,0", "x,2,1,1,0", "x,2,2,2,0", "y,1,1,1,0"],
             "entity 'x' observed twice in period '2'"),
            (["x,1,1,1,0", "y,1,1,1,0", "y,1,2,2,0"], "entity 'y' observed twice in period '1'"),
            (["y,3,1,1,0", "x,1,1,1,0", "y,3,2,2,0"], "entity 'y' observed twice in period '3'"),
        ],
        ids=["sorted-otherwise", "sorted-otherwise-last", "unsorted"],
    )
    def test_duplicate_observation_names_entity_and_period(self, lines, message):
        data = csv_bytes("entity,period,a,b,event", *lines)
        with pytest.raises(DuplicateObservation) as raised:
            build_timelines(parse_panel_csv(data, small_schema()))
        assert str(raised.value) == message

    def test_rows_in_order_are_not_copied(self, fixture_dataset, schema):
        in_order = reordered(fixture_dataset, np.lexsort(
            (fixture_dataset.columns.ordinals, fixture_dataset.columns.codes)))
        timelines = build_timelines(in_order)
        assert timelines[0].block.columns is in_order.columns
        assert build_timelines(fixture_dataset)[0].block.columns is not fixture_dataset.columns

    def test_every_row_order_gives_the_sorted_timelines(self):
        rows = [("a", "1", 0, (1.0, 2.0), 0), ("a", "10", 9, (3.0, 4.0), 0),
                ("b", "1", 0, (5.0, 6.0), 0), ("b", "5", 4, (7.0, 8.0), 0),
                ("b", "10", 9, (9.0, 10.0), 1)]
        expected = build_timelines(dataset_of(small_schema(), rows))
        for order in itertools.permutations(rows):
            dataset = dataset_of(small_schema(), list(order))
            timelines = build_timelines(dataset)
            assert timelines == expected
            assert (timelines[0].block.columns is dataset.columns) == (list(order) == rows)

    def test_shuffled_file_gives_the_sorted_files_timelines_and_bytes(self, tmp_path, schema):
        written = tmp_path / "sorted.csv"
        assert main(["synth", "--output", str(written), "--entities", "60", "--periods", "12",
                     "--seed", "3"]) == 0
        header, *lines = written.read_text(encoding="utf-8").splitlines(keepends=True)
        random.Random(5).shuffle(lines)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(header + "".join(lines), encoding="utf-8")
        assert build_timelines(parse_panel_csv(shuffled.read_bytes(), schema)) == build_timelines(
            parse_panel_csv(written.read_bytes(), schema))
        outputs = {}
        for panel_csv in (written, shuffled):
            out = tmp_path / panel_csv.stem
            out.mkdir()
            for argv in (
                ["transform", "--input", panel_csv, "--config", CONFIG_JSON,
                 "--output", out / "training.csv"],
                ["train", "--input", out / "training.csv", "--config", CONFIG_JSON,
                 "--output", out / "model.json"],
                ["score", "--model", out / "model.json", "--input", panel_csv,
                 "--config", CONFIG_JSON, "--output", out / "scores.csv"],
                ["sweep", "--input", panel_csv, "--config", CONFIG_JSON,
                 "--output", out / "curve.csv"],
            ):
                assert main([str(arg) for arg in argv]) == 0
            outputs[panel_csv.stem] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert outputs["shuffled"] == outputs["sorted"]

    def test_order_insensitive(self, fixture_dataset, fixture_timelines, schema):
        shuffled = list(range(len(fixture_dataset.columns)))
        random.Random(13).shuffle(shuffled)
        rebuilt = build_timelines(reordered(fixture_dataset, shuffled))
        assert rebuilt == fixture_timelines

    def test_round_trip(self, fixture_dataset, schema):
        buffer = io.StringIO()
        write_panel_csv(fixture_dataset, buffer)
        reparsed = parse_panel_csv(buffer.getvalue().encode("utf-8"), schema)
        key = lambda r: (r.entity_id, r.period.ordinal)
        assert sorted(reparsed.records, key=key) == sorted(fixture_dataset.records, key=key)


@st.composite
def small_panels(draw):
    """Rows of up to five entities over periods 1..6, in any order."""
    rows = [
        (f"e{entity}", str(period), period - 1, (draw(st.sampled_from((0.0, 1.5, -2.0))), 1.0),
         draw(st.sampled_from((0, 0, 1))))
        for entity in range(draw(st.integers(0, 5)))
        for period in sorted(draw(st.sets(st.integers(1, 6), min_size=1)))
    ]
    return draw(st.permutations(rows))


class TestTimelinesView:
    """build_timelines' view reads as the tuple of every entity's timeline
    of its one block, each made once."""

    @given(rows=small_panels(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_reads_as_the_tuple_of_its_timelines(self, rows, data):
        timelines = build_timelines(dataset_of(small_schema(), rows))
        block = timelines.block
        expected = tuple(EntityTimeline(block, i) for i in range(len(block.columns.entity_ids)))
        n = len(expected)
        assert len(timelines) == n
        assert timelines.entity_ids == tuple(t.entity_id for t in expected)
        for index in range(-n - 2, n + 2):
            if -n <= index < n:
                assert timelines[index] == expected[index]
                assert timelines[index] is timelines[index % n]
            else:
                with pytest.raises(IndexError):
                    timelines[index]
        made = [timelines[i] for i in range(n)]
        cut = slice(*data.draw(st.tuples(
            st.none() | st.integers(-7, 7), st.none() | st.integers(-7, 7),
            st.none() | st.integers(-3, 3).filter(bool),
        )))
        piece = timelines[cut]
        assert isinstance(piece, tuple) and piece == expected[cut]
        assert all(a is b for a, b in zip(piece, tuple(made)[cut]))
        assert all(a is b for a, b in zip(timelines, made, strict=True))
        assert timelines == expected and expected == timelines
        assert timelines == list(expected) and list(expected) == timelines
        assert timelines == build_timelines(dataset_of(small_schema(), rows))
        if n:
            assert timelines != expected[:-1] and expected[1:] != timelines
        assert (() + timelines, timelines + ()) == (expected, expected)
        assert isinstance(() + timelines, tuple) and isinstance(timelines + (), tuple)
        assert expected + timelines == expected * 2 == timelines + expected
        assert all(t.block is block for t in timelines)
        assert all(t.records is t.records for t in timelines)


class TestValidate:
    def test_clean_event_timeline(self, timeline_of):
        report = validate_timeline(timeline_of("Kumarjit"))
        assert report.findings == ()

    def test_clean_non_event_timeline(self, timeline_of):
        report = validate_timeline(timeline_of("Prabhu"))
        assert not any(
            f.code in ("multiple_events", "records_after_event") for f in report.findings
        )

    def test_multiple_events_warning(self):
        data = csv_bytes(
            "entity,period,a,b,event", "x,1,1,1,1", "x,2,1,1,0", "x,3,1,1,1"
        )
        (timeline,) = build_timelines(parse_panel_csv(data, small_schema()))
        report = validate_timeline(timeline)
        codes = {f.code for f in report.findings}
        assert "multiple_events" in codes
        assert "records_after_event" in codes
        assert report.has_warnings

    def test_gap_is_informational(self):
        # Gaps are positions in the globally observed period sequence that
        # the entity skips, so another entity must populate 2 and 3.
        data = csv_bytes(
            "entity,period,a,b,event",
            "x,1,1,1,0",
            "x,4,1,1,0",
            "y,2,1,1,0",
            "y,3,1,1,0",
        )
        gappy, _ = build_timelines(parse_panel_csv(data, small_schema()))
        report = validate_timeline(gappy)
        (finding,) = report.findings
        assert finding.code == "period_gaps"
        assert finding.level == "info"
        assert "2 unobserved" in finding.message
        assert not report.has_warnings


class TestDuplicateHeaderColumn:
    @pytest.mark.parametrize(
        "header, row, column",
        [
            ("entity,period,a,a,b,event", "x,1,1,99,2,0", "a"),
            ("entity,period,a, a ,b,event", "x,1,1,99,2,0", "a"),
            ("entity,entity,period,a,b,event", "x,y,1,1,2,0", "entity"),
            ("entity,period,a,b,event,event", "x,1,1,2,0,1", "event"),
        ],
    )
    def test_schema_column_named_twice_rejected(self, header, row, column):
        with pytest.raises(ParseError, match=f"column '{column}' more than once"):
            parse_panel_csv(csv_bytes(header, row), small_schema())

    def test_extra_column_named_twice_ignored(self):
        data = csv_bytes("entity,period,a,note,b,note,event", "x,1,1,p,2,q,0")
        (record,) = parse_panel_csv(data, small_schema()).records
        assert record.features == {"a": 1.0, "b": 2.0}


class TestValidateCorpus:
    """Gap and event findings against counts taken from the raw rows."""

    def expected_findings(self, raw, entity, positions):
        observed = sorted((positions[label], label, flag) for e, label, _, flag in raw if e == entity)
        findings = []
        first, last = observed[0], observed[-1]
        gaps = (last[0] - first[0] + 1) - len(observed)
        if gaps:
            findings.append(
                ("period_gaps", f"{gaps} unobserved period(s) between {first[1]} and {last[1]}")
            )
        flagged = [(position, label) for position, label, flag in observed if flag == 1]
        if len(flagged) > 1:
            findings.append(
                (
                    "multiple_events",
                    f"{len(flagged)} records carry the event flag; only the first "
                    f"({flagged[0][1]}) is treated as the event",
                )
            )
        if flagged:
            trailing = sum(1 for position, _, _ in observed if position > flagged[0][0])
            if trailing:
                findings.append(
                    (
                        "records_after_event",
                        f"{trailing} record(s) after the first event flag "
                        f"({flagged[0][1]}) are ignored by the transform",
                    )
                )
        return findings

    def test_findings_match_raw_rows(self, corpus_schema):
        rng = random.Random(20240601)
        seen = set()
        for _ in range(60):
            raw = random_panel_rows(rng)
            positions = period_positions(raw)
            for timeline in build_timelines(parse_panel_csv(rows_to_csv_bytes(raw), corpus_schema)):
                expected = self.expected_findings(raw, timeline.entity_id, positions)
                report = validate_timeline(timeline)
                assert [(f.code, f.message) for f in report.findings] == expected
                seen.update(code for code, _ in expected)
        assert seen == {"period_gaps", "multiple_events", "records_after_event"}


class TestWriteFormatsEachCell:
    """Every written cell is ``_format_number`` of its own value, so the
    writer's cache of formatted values never merges values that print
    differently."""

    SPECIAL = (-0.0, 1e15 - 1, 1e15, 1e16, 0.1, 1e300, 0.1 + 0.2)

    def test_cells_match_format_number(self, corpus_schema):
        rng = random.Random(20261018)
        written = set()
        for _ in range(20):
            raw = random_float_panel_rows(rng)
            dataset = parse_panel_csv(rows_to_csv_bytes(raw), corpus_schema)
            values = dataset.columns.values.copy()
            odd = values[1::2, corpus_schema.feature_columns.index("a")]
            odd[:] = list(itertools.islice(itertools.cycle(self.SPECIAL), len(odd)))
            edited = PanelDataset(corpus_schema, dataclasses.replace(dataset.columns, values=values))
            records = edited.records
            buffer = io.StringIO()
            write_panel_csv(edited, buffer)
            header, *rows = csv.reader(io.StringIO(buffer.getvalue()))
            assert header == list(corpus_schema.columns)
            ordered = sorted(records, key=lambda r: (r.entity_id, r.period.ordinal))
            assert len(rows) == len(ordered)
            for row, record in zip(rows, ordered):
                features = corpus_schema.feature_columns
                assert row == [
                    record.entity_id,
                    record.period.label,
                    *(_format_number(record.features[c]) for c in features),
                    str(record.event_flag),
                ]
                written.update(row[2 : 2 + len(features)])
        assert {
            "0", "999999999999999", "1000000000000000.0", "1e+16", "0.1", "1e+300", "0.3",
            "0.30000000000000004",
        } <= written


class TestFaultLineNumbers:
    """A fault names the physical line its record ends on, so quoted
    multi-line fields and blank lines both count."""

    @pytest.mark.parametrize(
        "lines, message",
        [
            (
                ['"x\ny",1,1,2,0', "z,2,-1,2,0"],
                "line 4: value '-1' in column 'a' must be finite and non-negative",
            ),
            (
                ['"x\ny",1,-1,2,0'],
                "line 3: value '-1' in column 'a' must be finite and non-negative",
            ),
            (["", "", "z,1,1,two,0"], "line 4: non-numeric value 'two' in column 'b'"),
            (
                ["x,1,1,2,0", "", '"multi\n\nline",2,1,2,0', "", "z,3,1,2,7"],
                "line 8: event flag '7' in column 'event' must be 0 or 1",
            ),
            (['"x\ny",1,1,2,0', "", "z,2", "w,3,-1,2,0"], "line 5: row too short for column 'a'"),
        ],
    )
    def test_line_counts_every_physical_line(self, lines, message):
        data = csv_bytes("entity,period,a,b,event", *lines)
        with pytest.raises(BadValue) as excinfo:
            parse_panel_csv(data, small_schema())
        assert str(excinfo.value) == message

    def test_fault_in_a_later_chunk_keeps_its_line(self):
        rows = [f"e{i % 7},{i},1,2,0" for i in range(1, 20001)]
        rows[15000] = "bad,15001,1,nan,0"
        data = csv_bytes("entity,period,a,b,event", "", *rows)
        with pytest.raises(BadValue) as excinfo:
            parse_panel_csv(data, small_schema())
        assert str(excinfo.value) == (
            "line 15003: value 'nan' in column 'b' must be finite and non-negative"
        )

    def test_earlier_fault_wins_over_a_later_unreadable_field(self):
        huge = "x" * (csv.field_size_limit() + 1)
        data = csv_bytes("entity,period,a,b,event", "x,1,-1,2,0", f"{huge},2,1,2,0")
        with pytest.raises(BadValue, match="line 2: value '-1'"):
            parse_panel_csv(data, small_schema())


HEADER = "entity,period,a,b,event"
FIELD_LIMIT = csv.field_size_limit()
# name -> (file, whether the numpy tokenizer reads its rows)
EDGE_FILES = {
    "bom": (b"\xef\xbb\xbf" + csv_bytes(HEADER, "x,1,1,2,0", "y,1,3,4,1"), True),
    "no final newline": (csv_bytes(HEADER, "x,1,1,2,0", "y,1,3,4,1")[:-1], True),
    "blank lines": (csv_bytes(HEADER, "", "", "x,1,1,2,0", "", "", "y,1,3,4,1", "", ""), True),
    "signs and leading zeros": (csv_bytes(HEADER, "x,1,-0,+3,0", "x,2,007,1_0,1"), True),
    "decimals and exponents": (csv_bytes(HEADER, "x,1,1e300,0.1,0", "x,2,.5,5.,0"), True),
    "15 and 16 digits": (
        csv_bytes(HEADER, "x,1,999999999999999,1000000000000000,0",
                  "x,2,123456789012345,1234567890123456,0"),
        True,
    ),
    "2**53 + 1": (csv_bytes(HEADER, "x,1,9007199254740993,18446744073709551617,0"), True),
    # Digit by digit in float64, this one rounds twice and misses float(text) by 16.
    "17 digits": (csv_bytes(HEADER, "x,1,81474247932312637,1,0"), True),
    "month periods": (csv_bytes(HEADER, "x,2016-01,1,2,0", "y,2016-02,1,2,1"), True),
    "ids over 8 bytes": (
        csv_bytes(HEADER, "customer-000000001,1,1,2,0", "customer-000000002,1,1,2,1",
                  "customer-000000001,2,1,2,1"),
        True,
    ),
    "uniform rows wider than the header": (
        csv_bytes(HEADER, "x,1,1,2,0,p,q", "y,1,1,2,0,r,s"), True
    ),
    "ids of 256 bytes": (csv_bytes(HEADER, "x,1,1,2,0", f"{'y' * 256},1,1,2,0"), True),
    "id of 257 bytes": (csv_bytes(HEADER, "x,1,1,2,0", f"{'y' * 257},1,1,2,0"), False),
    "cell at the field size limit": (
        csv_bytes(HEADER, "x,1,1,2,0", f"{'y' * FIELD_LIMIT},1,1,2,0"), False
    ),
    "header only": (csv_bytes(HEADER), True),
    "header without newline": (HEADER.encode(), True),
    "empty cell": (csv_bytes(HEADER, "x,1,1,2,0", "x,2,,2,0"), False),
    "non-numeric cell": (csv_bytes(HEADER, "x,1,1,2,0", "x,2,1,two,0"), False),
    "nan cell": (csv_bytes(HEADER, "x,1,1,2,0", "x,2,1,nan,0"), True),
    "negative cell": (csv_bytes(HEADER, "x,1,1,2,0", "x,2,1,-2,0"), True),
    "bad flag": (csv_bytes(HEADER, "x,1,1,2,0", "x,2,1,2,2"), True),
    "mixed period formats": (csv_bytes(HEADER, "x,1,1,2,0", "x,2016-01,1,2,0"), True),
    "empty entity": (csv_bytes(HEADER, "x,1,1,2,0", ",2,1,2,0"), True),
    "short row": (csv_bytes(HEADER, "x,1,1,2,0", "y,1,1"), False),
    "long row": (csv_bytes(HEADER, "x,1,1,2,0", "y,1,1,2,0,extra"), False),
    "ragged rows": (csv_bytes(HEADER, "x,1,1,2,0,p", "y,1,1,2,0", "z,1,1,2,0,q,r"), False),
    "quoted cells": (csv_bytes(HEADER, '"x",1,"1",2,0', "y,1,1,2,0"), False),
    "quoted id": (csv_bytes(HEADER, '"x",1,1,2,0'), False),
    "quoted newline": (csv_bytes(HEADER, '"x\ny",1,1,2,0', "z,1,-1,2,0"), False),
    "crlf": (b"entity,period,a,b,event\r\nx,1,1,2,0\r\n", False),
    "spaces": (csv_bytes(HEADER, " x , 1 , 1 , 2 , 0 "), False),
    "tab": (csv_bytes(HEADER, "x\t,1,1,2,0"), False),
    "non-ascii": (csv_bytes(HEADER, "\u00e9,1,1,2,0"), False),
    "nul": (csv_bytes(HEADER, "x\0,1,1,2,0"), False),
    "not utf-8 below a plain header": (
        csv_bytes(HEADER, "x,1,1,2,0").replace(b"x", b"\x80"), False
    ),
    "not utf-8 below a plain header missing a column": (
        csv_bytes("entity,period,a,b", "x,1,1,2").replace(b"x", b"\x80"), False
    ),
    "cell over the field size limit": (
        csv_bytes(HEADER, "x,1,1,2,0", f"{'y' * (FIELD_LIMIT + 1)},1,1,2,0"), False
    ),
    "fault before a cell over the field size limit": (
        csv_bytes(HEADER, "x,1,-1,2,0", f"{'y' * (FIELD_LIMIT + 1)},1,1,2,0"), False
    ),
    "bom only": (b"\xef\xbb\xbf", False),
    "empty file": (b"", False),
}


class TestTokenizerMatchesCsvReader:
    """A plain file gives the same columns, bit for bit, or the same error
    through the numpy tokenizer as through csv.reader alone."""

    @pytest.mark.parametrize("rows", [random_panel_rows, random_float_panel_rows])
    def test_corpus_panels(self, corpus_schema, rows):
        rng = random.Random(20261019)
        for _ in range(60):
            outcome, through_reader, tokenized = parse_both_ways(
                rows_to_csv_bytes(rows(rng)), corpus_schema
            )
            assert tokenized
            assert outcome == through_reader

    @pytest.mark.parametrize("name", list(EDGE_FILES))
    def test_edge_files(self, name):
        data, numpy_reads = EDGE_FILES[name]
        outcome, through_reader, tokenized = parse_both_ways(data, small_schema())
        assert outcome == through_reader
        assert tokenized == numpy_reads

    def test_blocks_of_whole_lines(self):
        # More than one block, with a blank line, a float and an id over
        # 8 bytes in a later one.
        rows = [f"e{i % 97},{i},{i % 13},{i % 7},0" for i in range(1, 60001)]
        rows[45000] = ""
        rows[50000] = "entity-number-50001,50001,0.25,1e3,1"
        outcome, through_reader, tokenized = parse_both_ways(csv_bytes(HEADER, *rows), small_schema())
        assert tokenized and not isinstance(outcome[0], type)
        assert outcome == through_reader


# Bytes a plain judge must tell apart: controls, the tab, CR, the space and
# the quote character, the ends of printable ASCII, and every byte above it,
# among plain ones and line feeds, which make three in four draws.
EDGE_BYTES = st.sampled_from((0x00, 0x09, 0x0D, 0x20, 0x22, 0x7E, 0x7F, *range(0x80, 0x100)))
PLAIN_BYTES = st.sampled_from(b"\n\n,0a.-e~!#")
JUDGED_BYTES = st.one_of(EDGE_BYTES, PLAIN_BYTES, PLAIN_BYTES, PLAIN_BYTES)


@given(st.lists(JUDGED_BYTES, max_size=40).map(bytes))
@settings(max_examples=400)
def test_plain_array_judges_as_plain_bytes(data):
    array = np.frombuffer(data, np.uint8)
    assert panel._is_plain_array(array) == panel._is_plain(data)


def test_empty_array_is_plain():
    assert panel._is_plain_array(np.zeros(0, np.uint8)) and panel._is_plain(b"")


def test_quoted_id_in_the_rows_goes_to_csv_reader():
    # The header line is plain, but a row quotes its id: the block holding it
    # is judged not plain, and csv.reader reads the id without its quotes.
    data = csv_bytes(HEADER, '"E1",1,0,0,0', "E2,1,0,0,0")
    assert parse_panel_csv(data, small_schema()).columns.entity_ids == ("E1", "E2")


def block_starts(data: bytes) -> list[int]:
    """The byte at which each block of the numpy tokenizer starts: blocks
    hold whole lines and end at the first line feed ``_BLOCK_BYTES`` or
    more bytes after their start."""
    start, starts = data.find(b"\n") + 1, []
    while start < len(data):
        starts.append(start)
        start = data.find(b"\n", start + panel._BLOCK_BYTES) + 1 or len(data)
    return starts


def blocks_holding(data: bytes, text: bytes) -> list[int]:
    """The index of the block of each line that starts with ``text``."""
    starts = block_starts(data)
    lines = [m.start() + 1 for m in re.finditer(b"\n" + re.escape(text), data)]
    return [bisect.bisect_right(starts, at) - 1 for at in lines]


class TestTokenizerAcrossBlocks:
    """Files of several numpy blocks: texts are coded by keys kept for the
    whole file, so a text first seen in a later block, or seen again after
    a block without it, reads as csv.reader reads it."""

    @staticmethod
    def numpy_outcome(data: bytes):
        assert len(block_starts(data)) >= 3
        outcome, through_reader, tokenized = parse_both_ways(data, small_schema())
        assert tokenized
        assert outcome == through_reader
        return outcome

    def test_id_recurring_in_blocks_apart_in_an_unsorted_file(self):
        rows = [f"u{i:05d},{1 + i % 24},{i % 13},{i % 7},0" for i in range(45000)]
        random.Random(14).shuffle(rows)
        rows[100], rows[-100] = "again,1,1,2,0", "again,2,3,4,1"
        data = csv_bytes(HEADER, *rows)
        first, last = blocks_holding(data, b"again,")
        assert last - first >= 2
        entity_ids, _, _, codes = self.numpy_outcome(data)[:4]
        again = entity_ids.index("again")
        assert np.count_nonzero(np.frombuffer(codes[2], codes[0]) == again) == 2

    def test_label_and_flag_first_seen_in_a_late_block(self):
        rows = [f"e{i % 500:03d},{1 + i // 500},{i % 13},{i % 7},0" for i in range(40000)]
        rows[-10] = "e990,999,1,2,1"
        data = csv_bytes(HEADER, *rows)
        assert blocks_holding(data, b"e990,999,") == [len(block_starts(data)) - 1]
        earlier = data[: block_starts(data)[-1]].split(b"\n")[1:]
        assert not any(line.endswith(b",1") for line in earlier)
        _, periods, _, _, _, _, flags = self.numpy_outcome(data)
        assert "999" in {period.label for period in periods.values()}
        assert np.frombuffer(flags[2], flags[0]).sum() == 1

    def test_ids_of_8_bytes_and_ids_of_9_that_share_them(self):
        # Block by block: ids of 8 bytes only (keys), of 9 (whole texts),
        # both, then 8 again.
        def entity(i):
            base = f"id{i % 800:06d}"
            long = 15000 <= i < 45000 or (45000 <= i < 60000 and i % 5 == 0)
            return base + "x" if long else base

        rows = [f"{entity(i)},{1 + i // 800},{i % 13},{i % 7},0" for i in range(75000)]
        data = csv_bytes(HEADER, *rows)
        lengths = [
            {len(line.split(b",")[0]) for line in data[a:b].splitlines()}
            for a, b in itertools.pairwise(block_starts(data) + [len(data)])
        ]
        assert {8} in lengths and {9} in lengths and {8, 9} in lengths
        entity_ids = self.numpy_outcome(data)[0]
        assert "id000001" in entity_ids and "id000001x" in entity_ids

    def test_labels_of_one_period_in_different_blocks(self):
        rows = [f"e{i % 500:03d},{1 + i % 9},{i % 13},{i % 7},0" for i in range(40000)]
        rows[-10] = "e990,02,1,2,0"
        data = csv_bytes(HEADER, *rows)
        assert blocks_holding(data, b"e990,02,") == [len(block_starts(data)) - 1]
        assert self.numpy_outcome(data) == (
            BadValue, "period labels '02' and '2' denote the same period"
        )

    # Lines of 16 bytes: a block of 2**18 bytes holds 16,384 of them, and
    # ends at the line feed of the next one.
    FIXED_ROWS = [f"e{i % 1000:03d},{1001 + i // 1000},{i % 10},{i % 7},0" for i in range(50000)]

    @pytest.mark.parametrize("where", ["last line of a block", "first line of a block"])
    def test_blank_line_at_a_block_boundary(self, where):
        assert {len(row) for row in self.FIXED_ROWS} == {15}
        boundary = block_starts(csv_bytes(HEADER, *self.FIXED_ROWS))[1]
        at = boundary - 16 if where == "last line of a block" else boundary
        plain = csv_bytes(HEADER, *self.FIXED_ROWS)
        data = plain[:at] + b"\n" + plain[at:]
        stop = block_starts(data)[1]
        if where == "last line of a block":
            assert data[stop - 2 : stop] == b"\n\n"
        else:
            assert data[stop : stop + 1] == b"\n" and data[stop - 2 : stop - 1] != b"\n"
        assert self.numpy_outcome(data) == self.numpy_outcome(plain)

    def test_no_final_line_feed(self):
        data = csv_bytes(HEADER, *self.FIXED_ROWS)
        assert self.numpy_outcome(data[:-1]) == self.numpy_outcome(data)

    def test_first_block_of_longer_lines_remakes_the_rows(self, monkeypatch):
        # The first block's rows per byte, fewer than the rest's, make too
        # few rows for the file: later blocks remake the arrays and copy the
        # rows filled so far.
        rows = [
            f"{'long-entity-' * (i < 13000)}e{i % 500:03d},{1 + i // 500},{i % 13},{i % 7},0"
            for i in range(60000)
        ]
        sizes = {}  # the row counts each parse's arrays were made for
        block = panel._Cells.block

        def spied(cells, n, lines):
            filled = block(cells, n, lines)
            sizes.setdefault(cells, set()).add(len(cells.values))
            return filled

        monkeypatch.setattr(panel._Cells, "block", spied)
        entity_ids = self.numpy_outcome(csv_bytes(HEADER, *rows))[0]
        assert len(entity_ids) == 1000
        assert any(len(made) > 1 for made in sizes.values())

    def test_uniform_file_makes_its_arrays_once(self, monkeypatch):
        # The first block's rows per byte, times the bytes of the rows, size
        # the arrays for a file of like lines: later blocks fill them, and
        # none remakes them, as sizing by the bytes read so far would.
        config = SynthConfig(n_entities=5000, n_periods=24, event_rate=0.3, ramp_length=3,
                             signal_strength=3.0, noise_rate=0.5, seed=0)
        dataset = generate_panel(config)
        text = io.StringIO(newline="")
        write_panel_csv(dataset, text)
        data = text.getvalue().encode()
        made = []  # the rows of the arrays each block fills
        block = panel._Cells.block

        def spied(cells, n, lines):
            filled = block(cells, n, lines)
            made.append(len(cells.values))
            return filled

        monkeypatch.setattr(panel._Cells, "block", spied)
        rows = len(parse_panel_csv(data, dataset.schema).columns)
        assert len(made) == len(block_starts(data)) >= 8
        assert len(set(made)) == 1 and made[0] >= rows


class TestParseFromHandles:
    """A file parses alike, to the same columns bit for bit or to the same
    error, from bytes, an io.BytesIO, a file, a stream that cannot seek, and
    a file that changes at the parse's first seek, its size query
    (:func:`conftest.parse_every_way`)."""

    @pytest.mark.parametrize("rows", [random_panel_rows, random_float_panel_rows])
    def test_corpus_panels(self, corpus_schema, rows, tmp_path):
        rng = random.Random(20261019)
        for _ in range(60):
            outcomes = parse_every_way(rows_to_csv_bytes(rows(rng)), corpus_schema, tmp_path)
            assert outcomes == outcomes[:1] * len(outcomes)

    @pytest.mark.parametrize("name", list(EDGE_FILES))
    def test_edge_files(self, name, tmp_path):
        outcomes = parse_every_way(EDGE_FILES[name][0], small_schema(), tmp_path)
        assert outcomes == outcomes[:1] * len(outcomes)

    def test_quoted_id_in_a_late_block(self, tmp_path):
        # Plainness is judged block by block: the numpy tokenizer reads the
        # first blocks, meets the quote in the last and hands the file over.
        rows = [f"e{i % 500:03d},{1 + i // 500},{i % 13},{i % 7},0" for i in range(40000)]
        rows[-10] = '"e490",80,1,2,1'
        data = csv_bytes(HEADER, *rows)
        assert blocks_holding(data, b'"e490"') == [len(block_starts(data)) - 1] != [0]
        outcome, through_reader, tokenized = parse_both_ways(data, small_schema())
        assert not tokenized and not isinstance(outcome[0], type)
        assert outcome == through_reader
        assert parse_every_way(data, small_schema(), tmp_path) == [outcome] * 8

    def test_file_rewritten_before_csv_reader_reads_it(self, tmp_path):
        # csv.reader reads the file again from its start, and reads its rows
        # by the header of that read, not by the header line read before.
        rows = [f"e{i % 500:03d},{1 + i // 500},{i % 13},{i % 7},0" for i in range(40000)]
        rows[-10] = '"e490",80,1,2,1'
        old = csv_bytes(HEADER, *rows)
        new = csv_bytes("entity,period,b,a,event", *rows)
        with ChangesAfterItsHeader(tmp_path / "panel.csv", old, new) as handle:
            outcome = parse_outcome(handle, small_schema())
            assert handle.changed
        assert outcome == parse_outcome(new, small_schema()) != parse_outcome(old, small_schema())

    def test_plain_file_is_read_once(self):
        data = csv_bytes(HEADER, *TestTokenizerAcrossBlocks.FIXED_ROWS)
        handle = CountingReads(data)
        assert parse_outcome(handle, small_schema()) == parse_outcome(data, small_schema())
        assert handle.bytes_read == len(data)

    def test_crlf_file_is_read_whole_once_after_its_header_line(self):
        data = csv_bytes(HEADER, *TestTokenizerAcrossBlocks.FIXED_ROWS).replace(b"\n", b"\r\n")
        handle = CountingReads(data)
        assert parse_outcome(handle, small_schema()) == parse_outcome(data, small_schema())
        assert handle.bytes_read <= data.find(b"\n") + 1 + len(data)


class ChangesAfterItsHeader(io.FileIO):
    """A file that holds ``old`` until the parse seeks after reading its
    header line, as it does to hand the file to csv.reader, and ``new``
    from then on."""

    def __init__(self, path, old: bytes, new: bytes) -> None:
        path.write_bytes(old)
        super().__init__(path, "rb")
        self.path, self.new, self.header_read, self.changed = path, new, False, False

    def readline(self, *args) -> bytes:
        self.header_read = True
        return super().readline(*args)

    def seek(self, *args) -> int:
        if self.header_read and not self.changed:
            self.path.write_bytes(self.new)
            self.changed = True
        return super().seek(*args)


class CountingReads(io.BytesIO):
    """An in-memory file that counts the bytes read from it."""

    bytes_read = 0

    def read(self, *args) -> bytes:
        data = super().read(*args)
        self.bytes_read += len(data)
        return data

    def readline(self, *args) -> bytes:
        data = super().readline(*args)
        self.bytes_read += len(data)
        return data

    def readinto(self, buffer) -> int:
        size = super().readinto(buffer)
        self.bytes_read += size
        return size


class TestHandlesAcrossBlocks(TestTokenizerAcrossBlocks):
    """The files of several numpy blocks parse alike from bytes and from
    every handle of :class:`TestParseFromHandles`."""

    @pytest.fixture(autouse=True)
    def directory(self, tmp_path):
        self.tmp_path = tmp_path

    def numpy_outcome(self, data: bytes):
        outcomes = parse_every_way(data, small_schema(), self.tmp_path)
        assert outcomes == outcomes[:1] * len(outcomes)
        return super().numpy_outcome(data)

    def test_lines_longer_than_the_room_after_a_block(self):
        # The rest of a block's last line, past _BLOCK_BYTES, may be longer
        # than the _BACK bytes the buffer keeps for it; so may a line.
        extra = ",".join(["x" * panel._BACK] * 3)
        rows = [f"e{i % 50:02d},{1 + i // 50},{i % 13},{i % 7},0,{extra}" for i in range(2000)]
        entity_ids = self.numpy_outcome(csv_bytes(HEADER, *rows))[0]
        assert entity_ids == tuple(f"e{i:02d}" for i in range(50))


SYNTH_SHAPES = pytest.mark.parametrize(
    "shape",
    [dict(n_entities=5000, n_periods=24, ramp_length=3),
     dict(n_entities=150, n_periods=1000, ramp_length=48)],
    ids=["5000x24", "150x1000"],
)


def synth_panel(shape) -> tuple[bytes, PanelSchema]:
    """A panel file of the seed-0 synth panel of the shape, and its schema."""
    config = SynthConfig(**shape, event_rate=0.3, signal_strength=3.0, noise_rate=0.5, seed=0)
    dataset, text = generate_panel(config), io.StringIO(newline="")
    write_panel_csv(dataset, text)
    return text.getvalue().encode(), dataset.schema


def traced_parse(source, schema) -> tuple[int, int]:
    """(peak traced bytes of the parse, bytes of the columns it returns)."""
    tracemalloc.start()
    try:
        columns = parse_panel_csv(source, schema).columns
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(a.nbytes for a in (columns.codes, columns.ordinals, columns.values, columns.flags))


@SYNTH_SHAPES
def test_parse_holds_little_beyond_its_columns(shape):
    # The row columns are made once, for the file's lines, and filled block
    # by block: the parse's peak stays under the file's bytes plus twice
    # the bytes of the columns it returns.
    data, schema = synth_panel(shape)
    parse_panel_csv(data, schema)
    peak, held = traced_parse(data, schema)
    assert peak < len(data) + 2 * held


@SYNTH_SHAPES
def test_parse_of_a_file_holds_a_block_not_the_file(shape, tmp_path):
    # Read from a file, the parse holds one block of it at a time, so its
    # peak stays under twice the bytes of the columns it returns, whatever
    # the file's size.
    data, schema = synth_panel(shape)
    path = tmp_path / "panel.csv"
    path.write_bytes(data)
    with open(path, "rb") as handle:
        parse_panel_csv(handle, schema)
    with open(path, "rb") as handle:
        peak, held = traced_parse(handle, schema)
    assert peak < 2 * held


@SYNTH_SHAPES
def test_crlf_file_holds_its_text_once(shape):
    # csv.reader reads the decoded text through a StringIO per piece of it;
    # one StringIO of the whole text would hold it again at 4 bytes per
    # character, and the parse would peak at 3.4x its columns on 5,000 x 24.
    data, schema = synth_panel(shape)
    crlf = data.replace(b"\n", b"\r\n")
    parse_panel_csv(crlf, schema)
    peak, held = traced_parse(crlf, schema)
    assert peak < 2 * held


def test_ambiguous_labels_named_alike_under_every_hash_seed():
    # A set of strings iterates in an order that depends on the process's
    # hash seed; the error must not.
    program = (
        "from leadframe.panel import index_periods\n"
        "try:\n"
        "    index_periods(['2', '3', '+2', '02', '4'], 'int')\n"
        "except Exception as exc:\n"
        "    print(exc)\n"
    )
    messages = {
        subprocess.run(
            [sys.executable, "-c", program], capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
        ).stdout
        for seed in range(8)
    }
    assert messages == {"period labels '+2' and '02' denote the same period\n"}


def reordered(dataset: PanelDataset, rows) -> PanelDataset:
    return PanelDataset(dataset.schema, dataset.columns.take(np.asarray(rows)))


class TestWriterMatchesRowWriter:
    """The block writer writes the bytes of the row-by-row csv.writer in
    oracle.py, which it replaced."""

    @pytest.mark.parametrize("rows_of", [random_panel_rows, random_float_panel_rows])
    def test_corpus_panels_in_any_row_order(self, corpus_schema, rows_of):
        rng = random.Random(20261018)
        for _ in range(30):
            dataset = parse_panel_csv(rows_to_csv_bytes(rows_of(rng)), corpus_schema)
            n = len(dataset.columns)
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            twice = reordered(dataset, shuffled + shuffled)
            # Each (entity, period) twice, apart and with other values: the
            # row writer keeps such rows in row order.
            twice.columns = dataclasses.replace(
                twice.columns, values=twice.columns.values + (np.arange(2 * n) >= n)[:, None]
            )
            for variant in (
                dataset,
                reordered(dataset, shuffled),
                twice,
                reordered(dataset, np.repeat(np.arange(n), 2)),  # every row twice, adjacent
            ):
                written, reference = write_both_ways(variant)
                assert written == reference

    @pytest.mark.parametrize(
        "shape",
        [dict(n_entities=5000, n_periods=24, ramp_length=3),
         dict(n_entities=150, n_periods=1000, ramp_length=48)],
        ids=["5000x24", "150x1000"],
    )
    def test_synth_panels_of_the_bench_shapes(self, shape):
        config = SynthConfig(**shape, event_rate=0.3, signal_strength=3.0, noise_rate=0.5, seed=9)
        written, reference = write_both_ways(generate_panel(config))
        assert written == reference

    def test_month_labels(self, corpus_schema):
        labels = [f"{year}-{month:02d}" for year in (2019, 2020) for month in range(1, 13)]
        rows = [
            (f"m{e}", label, ordinal, (float(e), ordinal / 10, 0.0), int(ordinal == 20))
            for e in range(3)
            for ordinal, label in enumerate(labels)
            if (e + ordinal) % 4
        ]
        dataset = dataset_of(corpus_schema, rows[::-1])
        written, reference = write_both_ways(dataset)
        assert written == reference
        assert "m2,2020-12,2,2.3,0,0\n" in written

    def test_special_values(self, corpus_schema):
        special = TestWriteFormatsEachCell.SPECIAL + (
            0.0, 5e-324, 1.7976931348623157e308, 123.456, 1e15 + 0.5, 2.0**53, 1e14 + 0.5,
        )
        rows = [
            (f"e{i % 4}", str(i), i, (value, special[-1 - i], float(i)), i % 2)
            for i, value in enumerate(special)
        ]
        written, reference = write_both_ways(dataset_of(corpus_schema, rows))
        assert written == reference
        assert ",999999999999999," in written and ",1000000000000000.0," in written

    # The writer refuses an empty id and one with surrounding whitespace
    # (TestWriteRefusesWhatTheParserRefuses), since the parser refuses or
    # strips it.
    IDS = (
        "acme, inc", 'say "hi"', '"', "two\nlines", "nul\0byte", "\0", "inner space",
        "Zoë", "日本語", "e" * 257, "plain",
    )

    def test_awkward_ids(self, corpus_schema):
        rows = [
            (entity, str(period), period, (float(k), 0.5, 1e16), 0)
            for k, entity in enumerate(self.IDS)
            for period in range(1 + k % 3)
        ]
        written, reference = write_both_ways(dataset_of(corpus_schema, rows))
        assert written == reference

    def test_empty_dataset_writes_the_header_only(self, corpus_schema):
        written, reference = write_both_ways(dataset_of(corpus_schema, []))
        assert written == reference == "entity,period,a,b,c,event\n"

    @staticmethod
    def fixed_width_dataset(schema, n):
        """n rows whose cells keep one width however many there are."""
        rows = [
            (f"E{i // 9:05d}", str(1 + i % 9), i % 9, (float(i % 10), float(i % 7), 1.0), i % 2)
            for i in range(n)
        ]
        return dataset_of(schema, rows)

    @staticmethod
    def block_writes(dataset):
        """The text of each write after the header."""
        writes = []

        class Spy(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        write_panel_csv(dataset, Spy(newline=""))
        return writes[1:]

    def test_row_counts_at_block_boundaries(self, corpus_schema):
        full = self.fixed_width_dataset(corpus_schema, 100_000)
        block = self.block_writes(full)[0].count("\n")
        assert 10_000 < block < 40_000
        for n in (block - 1, block, block + 1, 2 * block - 1, 2 * block, 2 * block + 1):
            dataset = reordered(full, np.arange(n))
            writes = self.block_writes(dataset)
            assert [w.count("\n") for w in writes[:-1]] == [block] * (len(writes) - 1)
            assert len(writes) == -(-n // block)
            written, reference = write_both_ways(dataset)
            assert written == reference

    @staticmethod
    def with_long_id(dataset, where, length):
        """The dataset with the id at ``where`` made ``length`` characters
        long, keeping the ids in order."""
        ids = list(dataset.columns.entity_ids)
        k = {"first": 0, "middle": len(ids) // 2, "last": len(ids) - 1}[where]
        ids[k] = ids[k].ljust(length, "x")
        assert ids == sorted(ids)
        columns = dataclasses.replace(dataset.columns, entity_ids=tuple(ids))
        return PanelDataset(dataset.schema, columns)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_one_long_id_narrows_only_its_blocks(self, corpus_schema, where):
        dataset = self.fixed_width_dataset(corpus_schema, 50_000)
        long = self.with_long_id(dataset, where, 20_000)
        tracemalloc.start()
        try:
            writes = self.block_writes(long)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(writes) <= len(self.block_writes(dataset)) + 2
        # Each block's byte matrix stays near _WRITE_BYTES.
        assert peak < 16 << 20
        written, reference = write_both_ways(long)
        assert written == reference

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_long_ids_of_entities_without_rows(self, corpus_schema, where):
        # A dataset of some of another's rows keeps every id, so an entity
        # may have no rows: its id widens no block and costs no memory.
        dataset = self.fixed_width_dataset(corpus_schema, 50_000)
        long = self.with_long_id(dataset, where, 5_000)
        lengths = [len(entity) for entity in long.columns.entity_ids]
        rows = np.flatnonzero(long.columns.codes != lengths.index(5_000))
        without, plain = reordered(long, rows), reordered(dataset, rows)
        tracemalloc.start()
        try:
            writes = self.block_writes(without)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(writes) == len(self.block_writes(plain))
        assert peak < 16 << 20
        written, reference = write_both_ways(without)
        assert written == reference

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("length", [20, 100])
    def test_long_ids_across_small_blocks(self, corpus_schema, monkeypatch, where, length):
        # A 100-character id alone overflows a block, so its rows go one by one.
        monkeypatch.setattr(panel, "_WRITE_BYTES", 64)
        dataset = self.fixed_width_dataset(corpus_schema, 60)
        for n in (1, 10, 17, 60):
            written, reference = write_both_ways(
                self.with_long_id(reordered(dataset, np.arange(n)), where, length)
            )
            assert written == reference

    def test_small_blocks(self, corpus_schema, monkeypatch):
        monkeypatch.setattr(panel, "_WRITE_BYTES", 40)
        block = self.block_writes(self.fixed_width_dataset(corpus_schema, 20))[0].count("\n")
        assert 1 < block < 5
        for n in range(3 * block + 2):
            dataset = self.fixed_width_dataset(corpus_schema, n)
            assert len(self.block_writes(dataset)) == -(-n // block)
            written, reference = write_both_ways(dataset)
            assert written == reference


class TestCarriageReturnIds:
    """An id holding a carriage return is quoted, so the panel reads back;
    csv.writer before Python 3.13 leaves it bare."""

    IDS = ("x\ry", "a\r\nb", 'q"\rz', "r\r\rs", "mid\rdle, with comma")

    def test_cells_are_quoted(self):
        assert csv_cells(["x\ry", 'q"\rz', "plain", "", "a,b"]) == [
            '"x\ry"', '"q""\rz"', "plain", "", '"a,b"',
        ]

    def test_panel_round_trip(self, corpus_schema):
        rows = [
            (entity, str(period), period, (float(k), 0.25, 3.0), int(period == 2))
            for k, entity in enumerate(self.IDS)
            for period in range(3)
        ]
        dataset = dataset_of(corpus_schema, rows)
        buffer = io.StringIO(newline="")
        write_panel_csv(dataset, buffer)
        columns = dataset.columns
        canonical = reordered(dataset, np.lexsort((columns.ordinals, columns.codes)))
        assert parse_panel_csv(buffer.getvalue().encode(), corpus_schema) == canonical
        assert list(csv.reader(io.StringIO(buffer.getvalue(), newline="")))[1][0] == self.IDS[1]


def writer_cell(text: str) -> str:
    """The cell csv.writer writes for the text, with a carriage return
    quoted."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow((text, ""))
    cell = line.getvalue()[:-2]
    return f'"{cell}"' if "\r" in cell and not cell.startswith('"') else cell


class TestCsvCellsMatchCsvWriter:
    """csv_cells returns a text that holds none of the characters csv.writer
    quotes as it is, and quotes every other text as csv.writer does."""

    TEXTS = (
        ",", '"', "\r", "\n", "\r\n", "a,b", 'say "hi"', "x\ry", "two\nlines", '",\r\n',
        "", "plain", "inner space", " padded ", "tab\there", "nul\0byte", "\0",
        "Zoë", "日本語", "emoji \U0001f600", "\u2028", "\x85", "\x7f",
    )

    def test_special_empty_and_non_ascii_texts(self):
        assert csv_cells(self.TEXTS) == [writer_cell(text) for text in self.TEXTS]

    def test_every_character_alone_and_inside_a_text(self):
        texts = [t for c in range(0x3000) for t in (chr(c), f"a{chr(c)}b")]
        cells = csv_cells(texts)
        assert cells == [writer_cell(text) for text in texts]
        assert {t for t, cell in zip(texts, cells) if cell != t} == {
            t for c in ',"\r\n' for t in (c, f"a{c}b")
        }


class TestWriteRefusesWhatTheParserRefuses:
    """A value the parser would refuse is a BadValue naming the entity, the
    period and the column, raised before anything is written."""

    @pytest.mark.parametrize(
        "value, text",
        [(float("inf"), "inf"), (float("-inf"), "-inf"), (float("nan"), "nan"),
         (-1.0, "-1.0"), (-5e-324, "-5e-324")],
    )
    def test_bad_value(self, corpus_schema, value, text):
        rows = [("a", "1", 0, (1.0, 2.0, 3.0), 0), ("b", "2", 1, (1.0, value, 3.0), 0)]
        stream = io.StringIO()
        with pytest.raises(BadValue) as raised:
            write_panel_csv(dataset_of(corpus_schema, rows), stream)
        assert str(raised.value) == (
            f"entity 'b', period '2': value '{text}' in column 'b' must be finite and non-negative"
        )
        assert stream.getvalue() == ""

    @pytest.mark.parametrize(
        "row, fault",
        [
            (("", "2", 1, (1.0, 2.0, 3.0), 0), "empty value in column 'entity'"),
            ((" b", "2", 1, (1.0, 2.0, 3.0), 0),
             "entity id in column 'entity' has surrounding whitespace"),
            (("b ", "2", 1, (1.0, 2.0, 3.0), 0),
             "entity id in column 'entity' has surrounding whitespace"),
            (("b\t", "2", 1, (1.0, 2.0, 3.0), 0),
             "entity id in column 'entity' has surrounding whitespace"),
            (("b", "2", 1, (1.0, 2.0, 3.0), 2), "event flag '2' in column 'event' must be 0 or 1"),
            (("b", "2", 1, (1.0, 2.0, 3.0), -1), "event flag '-1' in column 'event' must be 0 or 1"),
            (("b", "Q1", 1, (1.0, 2.0, 3.0), 0),
             "unparseable period 'Q1' in column 'period' (expected an integer or YYYY-MM)"),
            (("b", " 2", 1, (1.0, 2.0, 3.0), 0),
             "unparseable period ' 2' in column 'period' (expected an integer or YYYY-MM)"),
            (("b", "2\n", 1, (1.0, 2.0, 3.0), 0),
             "unparseable period '2\\n' in column 'period' (expected an integer or YYYY-MM)"),
            (("b", "2016-02", 1, (1.0, 2.0, 3.0), 0),
             "period '2016-02' in column 'period' does not match the dataset's int period format"),
        ],
        ids=["empty-id", "leading-space", "trailing-space", "trailing-tab", "flag-2",
             "flag-minus-1", "label-Q1", "label-space", "label-newline", "mixed-labels"],
    )
    def test_bad_cell(self, corpus_schema, row, fault):
        dataset = dataset_of(corpus_schema, [("a", "1", 0, (1.0, 2.0, 3.0), 0), row])
        stream = io.StringIO()
        with pytest.raises(BadValue) as raised:
            write_panel_csv(dataset, stream)
        assert str(raised.value) == f"entity {row[0]!r}, period {row[1]!r}: {fault}"
        assert stream.getvalue() == ""
        # Written row by row, the cell is refused by the parser or reads back changed.
        reference = io.StringIO(newline="")
        oracle.write_panel_csv(dataset, reference)
        try:
            columns = parse_panel_csv(reference.getvalue().encode(), corpus_schema).columns
        except BadValue:
            return
        assert (columns.entity_ids, [p.label for p in columns.periods.values()]) != (
            dataset.columns.entity_ids, [p.label for p in dataset.columns.periods.values()]
        )

    @pytest.mark.parametrize(
        "labels, message",
        [
            (("2", "02"), "period labels '02' and '2' denote the same period"),
            (("5", "3"), "period labels '5' then '3' in column 'period' do not read back in "
                         "that order"),
            (("2016-05", "2016-03"), "period labels '2016-05' then '2016-03' in column 'period' "
                                     "do not read back in that order"),
            (("4", "4"), "period labels '4' then '4' in column 'period' do not read back in "
                         "that order"),
            (("1", "0" * 4400 + "1"), f"period labels '{'0' * 4400}1' and '1' denote the same "
                                      "period"),
        ],
        ids=["one-integer", "ints-out-of-order", "months-out-of-order", "one-label-twice",
             "one-long-integer"],
    )
    def test_labels_that_do_not_read_back(self, corpus_schema, labels, message):
        rows = [
            (entity, label, ordinal, (1.0, 2.0, 3.0), 0)
            for entity in ("a", "b")
            for ordinal, label in enumerate(labels)
        ]
        dataset = dataset_of(corpus_schema, rows)
        stream = io.StringIO()
        with pytest.raises(BadValue) as raised:
            write_panel_csv(dataset, stream)
        assert str(raised.value) == message
        assert stream.getvalue() == ""
        # Written row by row, in the rows' order, the labels are refused or
        # read back as other ordinals.
        reference = io.StringIO(newline="")
        oracle.write_panel_csv(dataset, reference)
        try:
            columns = parse_panel_csv(reference.getvalue().encode(), corpus_schema).columns
        except BadValue:
            return
        assert columns.ordinals.tolist() != [row[2] for row in rows]

    def test_first_faulty_row_in_write_order_and_its_first_cell(self, corpus_schema):
        rows = [
            ("b", "1", 0, (1.0, 2.0, 3.0), 2),
            ("a ", "Q1", 1, (-1.0, 2.0, 3.0), 5),
            ("a", "2", 2, (1.0, -2.0, 3.0), 7),
        ]
        with pytest.raises(BadValue, match="^entity 'a', period '2': value '-2.0' in column 'b'"):
            write_panel_csv(dataset_of(corpus_schema, rows), io.StringIO())
        with pytest.raises(
            BadValue, match="^entity 'a ', period 'Q1': entity id in column 'entity' has"
        ):
            write_panel_csv(dataset_of(corpus_schema, rows[:2]), io.StringIO())
        with pytest.raises(BadValue, match="^entity 'b', period 'Q1': unparseable period 'Q1'"):
            write_panel_csv(dataset_of(corpus_schema, [rows[0][:1] + rows[1][1:]]), io.StringIO())
        # The period format is the first written row's, not the first given row's.
        mixed = [("b", "2016-02", 1, (1.0, 2.0, 3.0), 0), ("a", "1", 0, (1.0, 2.0, 3.0), 0)]
        with pytest.raises(
            BadValue, match="^entity 'b', period '2016-02': period '2016-02' .* int period format"
        ):
            write_panel_csv(dataset_of(corpus_schema, mixed), io.StringIO())

    def test_first_fault_in_write_order(self, corpus_schema):
        nan = float("nan")
        rows = [
            ("z", "1", 0, (nan, 0.0, 0.0), 0),
            ("a", "2", 1, (0.0, 0.0, -2.0), 0),
            ("a", "1", 0, (0.0, -1.0, nan), 0),
        ]
        with pytest.raises(BadValue, match="^entity 'a', period '1': value '-1.0' in column 'b'"):
            write_panel_csv(dataset_of(corpus_schema, rows), io.StringIO())


@st.composite
def distinct_columns(draw):
    """A column of one of the kinds the writers pass to distinct_values:
    whole numbers in and out of [0, n) and below 0, floats with both signs of
    zero, int8 flags, or the int64 bits of floats."""
    n = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["int64", "float64", "int8", "bits"]))
    if kind == "int64":
        low = draw(st.integers(-3, 2 * n + 3))
        cells = st.integers(low - 3, low + n + 3)
    elif kind == "float64":
        cells = st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, -1.0, float(n), float(n - 1)])
    elif kind == "int8":
        cells = st.integers(-2, 3)
    else:
        cells = st.integers(0, n + 2) | st.floats(width=64).map(
            lambda x: int(np.float64(x).view(np.int64))
        )
    dtype = np.int64 if kind == "bits" else np.dtype(kind)
    return np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=dtype)


class TestDistinctValues:
    """distinct_values gives np.unique's values and positions, with or
    without its lookup table."""

    @settings(max_examples=400, deadline=None)
    @given(column=distinct_columns())
    def test_matches_unique(self, column):
        values, positions = distinct_values(column)
        expected_values, expected_positions = np.unique(column, return_inverse=True)
        assert values.dtype == column.dtype
        # -0.0 == 0.0: np.unique keeps whichever sorts first, so compare by ==.
        assert np.array_equal(values, expected_values)
        assert positions.tolist() == expected_positions.tolist()
        assert np.array_equal(values[positions], column)


def write_panel_bytes(dataset: PanelDataset) -> bytes:
    text = io.StringIO(newline="")
    write_panel_csv(dataset, text)
    return text.getvalue().encode()


def restricted(data: bytes, schema: PanelSchema, kept):
    """The full parse's outcome with only the ``kept`` feature columns."""
    try:
        columns = parse_panel_csv(data, schema).columns
    except (LeadframeError, UnicodeDecodeError, csv.Error) as exc:
        return (type(exc), str(exc))
    at = [j for j, name in enumerate(schema.feature_columns) if name in kept]
    return dataclasses.replace(
        columns, features=tuple(schema.feature_columns[j] for j in at), values=columns.values[:, at]
    )


class TestKeptColumns:
    """A parse keeps the values of the named feature columns only, in
    schema order, and converts and checks every feature cell as the full
    parse does: it gives the full parse's columns less the others, or the
    full parse's error, through either tokenizer."""

    KEPT = [(), ("a",), ("b",), ("b", "a")]

    @staticmethod
    def assert_kept_like_full(data, schema, kept):
        expected = restricted(data, schema, kept)
        try:
            dataset = parse_panel_csv(data, schema, kept)
        except (LeadframeError, UnicodeDecodeError, csv.Error) as exc:
            assert (type(exc), str(exc)) == expected
            return
        assert dataset.columns == expected
        assert dataset.schema == schema.keeping(kept)

    @pytest.mark.parametrize("kept", KEPT)
    @pytest.mark.parametrize("name", list(EDGE_FILES))
    def test_edge_files(self, name, kept):
        self.assert_kept_like_full(EDGE_FILES[name][0], small_schema(), kept)

    @pytest.mark.parametrize("kept", KEPT)
    @pytest.mark.parametrize("row", [row for row, _ in FIRST_FAULT])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_first_faults(self, row, kept, newline):
        data = csv_bytes("entity,period,a,b,event", "x,1,1,1,0", row).replace(b"\n", newline)
        self.assert_kept_like_full(data, small_schema(), kept)

    def test_corpus_panels(self, corpus_schema):
        # Half the panels hold one fault, in a feature cell kept or not.
        rng = random.Random(20261020)
        names = corpus_schema.feature_columns
        for _ in range(60):
            lines = rows_to_csv_bytes(random_float_panel_rows(rng)).decode().splitlines()
            if rng.random() < 0.5:
                line = rng.randrange(1, len(lines))
                cells = lines[line].split(",")
                cells[rng.randrange(2, 2 + len(names))] = rng.choice(["-1", "nan", "inf", "x", ""])
                lines[line] = ",".join(cells)
            data = "".join(line + "\n" for line in lines).encode()
            kept = rng.sample(names, rng.randint(0, len(names)))
            self.assert_kept_like_full(data, corpus_schema, kept)

    def test_keeping_names_the_schema_lacks(self):
        with pytest.raises(InvalidConfig, match="kept columns missing from the schema: c"):
            parse_panel_csv(csv_bytes("entity,period,a,b,event", "x,1,1,1,0"),
                            small_schema(), ("a", "c"))

    @pytest.mark.parametrize("kept", [None, (), ("interruptions",),
                                      ("promotions", "outbound_calls")])
    def test_writes_and_reads_back(self, kept):
        data, schema = synth_panel(dict(n_entities=60, n_periods=12, ramp_length=3))
        dataset = parse_panel_csv(data, schema, kept)
        written = write_panel_bytes(dataset)
        assert written.split(b"\n", 1)[0].decode() == ",".join(dataset.schema.columns)
        assert parse_panel_csv(written, dataset.schema) == dataset

    def test_writer_names_a_bad_cell_without_feature_columns(self):
        schema = small_schema().keeping(())
        dataset = dataset_of(schema, [("a", "1", 0, (), 0), ("b", "1", 0, (), 2)])
        with pytest.raises(BadValue, match="entity 'b', period '1': event flag '2'"):
            write_panel_csv(dataset, io.StringIO())


class TestDatasetSchemaMatchesColumns:
    def test_mismatch_refused(self):
        dataset = parse_panel_csv(csv_bytes("entity,period,a,b,event", "x,1,1,2,0"),
                                  small_schema(), ("b",))
        for schema in (small_schema(), small_schema().keeping(("a",))):
            with pytest.raises(DimensionMismatch, match="do not match the dataset's features"):
                PanelDataset(schema, dataset.columns)
        assert PanelDataset(small_schema().keeping(("b",)), dataset.columns) == dataset

    def test_keeping_leaves_the_schema_as_declared(self):
        schema = small_schema()
        assert schema.keeping(("b",)).feature_columns == ("b",)
        assert schema.keeping(()).columns == ("entity", "period", "event")
        assert schema.feature_columns == ("a", "b")


def test_parse_keeping_two_columns_holds_three_fewer():
    # On the 5,000 x 24 panel, a parse that keeps 2 of the 5 feature columns
    # peaks lower than the full parse by nearly the 3 dropped columns' bytes.
    data, schema = synth_panel(dict(n_entities=5000, n_periods=24, ramp_length=3))
    kept = ("outbound_calls", "interruptions")
    parse_panel_csv(data, schema, kept)
    full_peak, _ = traced_parse(data, schema)
    tracemalloc.start()
    try:
        columns = parse_panel_csv(data, schema, kept).columns
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert columns.values.shape == (len(columns), 2)
    assert peak <= full_peak - 0.9 * 3 * columns.values[:, 0].nbytes
