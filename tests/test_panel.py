import csv
import dataclasses
import itertools
import random

import pytest

from corpus import random_float_panel_rows, random_panel_rows, rows_to_csv_bytes
from oracle import period_positions

from leadframe.errors import (
    BadValue,
    DuplicateObservation,
    EmptyInput,
    InvalidConfig,
    MissingColumn,
    ParseError,
)
from leadframe.panel import (
    PanelDataset,
    PanelSchema,
    _format_number,
    build_timelines,
    parse_panel_csv,
    validate_timeline,
    write_panel_csv,
)

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

    def test_crlf_and_bom_accepted(self):
        data = b"\xef\xbb\xbfentity,period,a,b,event\r\nx,1,1,2,0\r\n"
        dataset = parse_panel_csv(data, small_schema())
        assert len(dataset.records) == 1
        assert dataset.records[0].features == {"a": 1.0, "b": 2.0}

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
    ("y,2,1,1,true", "line 3: event flag 'true' in column 'event' must be 0 or 1"),
]


class TestFirstFault:
    @pytest.mark.parametrize("row, message", FIRST_FAULT)
    def test_first_fault_named(self, row, message):
        data = csv_bytes("entity,period,a,b,event", "x,1,1,1,0", row)
        with pytest.raises(BadValue) as excinfo:
            parse_panel_csv(data, small_schema())
        assert str(excinfo.value) == message

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

    def test_order_insensitive(self, fixture_dataset, fixture_timelines, schema):
        shuffled = list(fixture_dataset.records)
        random.Random(13).shuffle(shuffled)
        rebuilt = build_timelines(type(fixture_dataset)(schema, tuple(shuffled)))
        assert rebuilt == fixture_timelines

    def test_round_trip(self, fixture_dataset, schema):
        buffer = io.StringIO()
        write_panel_csv(fixture_dataset, buffer)
        reparsed = parse_panel_csv(buffer.getvalue().encode("utf-8"), schema)
        key = lambda r: (r.entity_id, r.period.ordinal)
        assert sorted(reparsed.records, key=key) == sorted(fixture_dataset.records, key=key)


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
            special = itertools.cycle(self.SPECIAL)
            records = tuple(
                dataclasses.replace(r, features={**r.features, "a": next(special)}) if i % 2 else r
                for i, r in enumerate(dataset.records)
            )
            buffer = io.StringIO()
            write_panel_csv(PanelDataset(corpus_schema, records), buffer)
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
