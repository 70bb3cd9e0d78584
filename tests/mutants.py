"""Mutation checks: deliberate faults that named tests must catch.

Each mutant replaces one exact text of a file under ``src/leadframe`` and
names the tests that must fail on the result.  ``tests/run_mutants.py``
applies them one at a time to a copy of the checkout.  A mutant whose text
is no longer in its file fails the run too, so the list follows the code.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # under src/leadframe
    text: str  # must occur exactly once
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "cutoff-off-by-one",
        "transform.py",
        'np.searchsorted(keys, owner * span + cut, side="right")',
        'np.searchsorted(keys, owner * span + cut, side="left")',
        ("tests/test_transform.py::TestTruncate",),
    ),
    Mutant(
        "sum-starts-at-first-value",
        "transform.py",
        "        if fold is np.add:\n            band[0] += 0.0\n",
        "",
        ("tests/test_transform.py::TestFloatCorpus::test_negative_zero_cells",),
    ),
    Mutant(
        "max-keeps-numpy-zero-sign",
        "transform.py",
        "            np.copysign(band, zeros, out=band, where=band == 0.0)\n",
        "            pass\n",
        ("tests/test_transform.py::TestBandEdges::test_max_of_negatives_and_zeros",),
    ),
    Mutant(
        "window-cell-past-its-end",
        "transform.py",
        "first[owners] + (lengths - 1) * width[owners]",
        "first[owners] + lengths * width[owners]",
        ("tests/test_transform.py::TestBandEdges",),
    ),
    Mutant(
        "entity-folded-to-its-last-window",
        "transform.py",
        "np.maximum.at(longest, owners, lengths)",
        "longest[owners] = lengths",
        (
            "tests/test_transform.py::TestBuildTrainingSets"
            "::test_overflow_only_in_the_longer_windows",
        ),
    ),
    Mutant(
        "last-zero-not-first",
        "transform.py",
        "np.minimum.accumulate(np.where(band == 0.0, positions, len(band) - 1), axis=0)",
        "np.maximum.accumulate(np.where(band == 0.0, positions, 0), axis=0)",
        ("tests/test_transform.py::TestBandEdges::test_max_of_negatives_and_zeros",),
    ),
    Mutant(
        "count-nonzero-folds-raw-value",
        "transform.py",
        "AggKind.COUNT_NONZERO: (lambda x: np.not_equal(x, 0.0, out=x), np.add),",
        "AggKind.COUNT_NONZERO: (lambda x: x, np.add),",
        ("tests/test_transform.py::TestAggregate",),
    ),
    Mutant(
        "sum-folds-rounded-values",
        "transform.py",
        "AggKind.SUM: (lambda x: x, np.add),",
        "AggKind.SUM: (lambda x: np.round(x), np.add),",
        ("tests/test_transform.py::TestFloatCorpus::test_score_matches_brute_force",),
    ),
    Mutant(
        "max-folds-minimum",
        "transform.py",
        "AggKind.MAX: (lambda x: x, np.maximum),",
        "AggKind.MAX: (lambda x: x, np.minimum),",
        ("tests/test_transform.py::TestAggregate",),
    ),
    Mutant(
        "last-reads-first-row",
        "transform.py",
        "folded = columns.values[last, j]",
        "folded = columns.values[last - k[kept] + 1, j]",
        ("tests/test_transform.py::TestAggregate",),
    ),
    Mutant(
        "ratio-numerator-counts",
        "transform.py",
        "numerator = read(AggKind.SUM, spec.column)",
        "numerator = read(AggKind.COUNT_NONZERO, spec.column)",
        ("tests/test_transform.py::TestAggregate",),
    ),
    Mutant(
        "training-set-width-unchecked",
        "transform.py",
        "if self.values.shape != (n, m) or",
        "if self.values.ndim != 2 or len(self.values) != n or",
        ("tests/test_transform.py::TestTrainingSetShape",),
    ),
    Mutant(
        "distinct-lookup-shifted",
        "panel.py",
        "lookup = np.cumsum(present) - 1",
        "lookup = np.cumsum(present)",
        ("tests/test_panel.py::TestDistinctValues",),
    ),
    Mutant(
        "writer-accepts-padded-ids",
        "panel.py",
        "bad_id = np.array([not e or e != e.strip() for e in ids], dtype=bool)",
        "bad_id = np.array([not e for e in ids], dtype=bool)",
        ("tests/test_panel.py::TestWriteRefusesWhatTheParserRefuses::test_bad_cell",),
    ),
    Mutant(
        "writer-accepts-bad-flags",
        "panel.py",
        "        | ((columns.flags != 0) & (columns.flags != 1))\n",
        "",
        ("tests/test_panel.py::TestWriteRefusesWhatTheParserRefuses::test_bad_cell",),
    ),
    Mutant(
        "writer-accepts-negative-values",
        "panel.py",
        "bad_value = ~((columns.values >= 0.0) & (columns.values < np.inf))",
        "bad_value = ~(columns.values < np.inf)",
        ("tests/test_panel.py::TestWriteRefusesWhatTheParserRefuses::test_bad_value",),
    ),
    Mutant(
        "writer-accepts-one-label-twice",
        "panel.py",
        "if read_back[after] <= read_back[before]:",
        "if read_back[after] < read_back[before]:",
        (
            "tests/test_panel.py::TestWriteRefusesWhatTheParserRefuses"
            "::test_labels_that_do_not_read_back",
        ),
    ),
    Mutant(
        "numbering-searches-right",
        "panel.py",
        "np.repeat(np.searchsorted(distinct, runs),",
        'np.repeat(np.searchsorted(distinct, runs, side="right"),',
        ("tests/test_panel.py::TestTokenizerMatchesCsvReader",),
    ),
    Mutant(
        "numbering-keys-unmasked",
        "panel.py",
        "keys = windows[starts] & _PREFIX_MASKS[lengths]",
        "keys = windows[starts]",
        ("tests/test_panel.py::TestTokenizerMatchesCsvReader",),
    ),
    Mutant(
        "remake-drops-filled-rows",
        "panel.py",
        "new[:start] = old[:start]",
        "new[:start] = 0",
        (
            "tests/test_panel.py::TestTokenizerAcrossBlocks"
            "::test_first_block_of_longer_lines_remakes_the_rows",
        ),
    ),
    Mutant(
        "block-drops-carried-line",
        "panel.py",
        "        tail = self._handle.readline()\n",
        "        tail = self._handle.readline()[:0]\n",
        ("tests/test_panel.py::TestTokenizerAcrossBlocks",),
    ),
    Mutant(
        "row-keys-collide",
        "panel.py",
        "- low + 2",
        "- low",
        ("tests/test_transform.py::TestTruncate",),
    ),
    Mutant(
        "cells-width-one-short",
        "panel.py",
        "max(positions[c] for c in schema.columns) + 1",
        "max(positions[c] for c in schema.columns)",
        ("tests/test_panel.py::TestFirstFault",),
    ),
    Mutant(
        "score-lengths-off-by-one",
        "transform.py",
        "lengths = block.offsets[entities + 1] - block.offsets[entities]",
        "lengths = block.offsets[entities + 1] - block.offsets[entities] - 1",
        ("tests/test_transform.py::TestScoreFeatures",),
    ),
    Mutant(
        "dropped-column-range-unchecked",
        "panel.py",
        "self.in_range &= bool(column.min() >= 0.0 and column.max() < np.inf)",
        "self.in_range &= slot is None or bool(column.min() >= 0.0 and column.max() < np.inf)",
        ("tests/test_cli.py::TestFaultsInColumnsThePlanDoesNotRead",),
    ),
    Mutant(
        "dropped-column-number-unread",
        "panel.py",
        "column = _numbers(padded, first, length)\n            if column is None:\n",
        "column = _numbers(padded, first, length)\n"
        "            if column is None and cells.features[at] is None:\n"
        "                continue\n"
        "            if column is None:\n",
        ("tests/test_cli.py::TestFaultsInColumnsThePlanDoesNotRead",),
    ),
    Mutant(
        "stream-ids-may-repeat",
        "panel.py",
        "columns.entity_ids[0] <= self._last_id",
        "columns.entity_ids[0] < self._last_id",
        (
            "tests/test_stream.py::TestHandoff"
            "::test_last_id_of_a_block_recurs_at_the_start_of_the_next",
        ),
    ),
    Mutant(
        "stream-labels-unchecked",
        "panel.py",
        "            if self._ordinals and key(new[0]) <= key(next(reversed(self._ordinals))):\n"
        "                return None\n",
        "",
        ("tests/test_stream.py::TestHandoff::test_late_label_not_after_earlier_ones",),
    ),
    Mutant(
        "stream-seek-back-dropped",
        "panel.py",
        "            handle.seek(start)\n",
        "            pass\n",
        ("tests/test_stream.py::TestBlocks",),
    ),
    Mutant(
        "stream-long-entity-split",
        "panel.py",
        "return None if type(last) is type(earlier) and last == earlier else first",
        "return first",
        ("tests/test_stream.py::TestBlocks::test_entity_longer_than_a_block",),
    ),
    Mutant(
        "stream-keys-past-the-cut-kept",
        "panel.py",
        "used = np.bincount(read_codes, minlength=len(distinct)) > 0",
        "used = np.ones(len(distinct), dtype=bool)",
        ("tests/test_stream.py::TestValidate::test_grouped_file_streams",),
    ),
    Mutant(
        "whole-read-sized-by-bytes-read",
        "panel.py",
        "_Lines(handle, size - len(line))",
        "_Lines(handle)",
        (
            "tests/test_panel.py::TestTokenizerAcrossBlocks"
            "::test_uniform_file_makes_its_arrays_once",
        ),
    ),
    Mutant(
        "whole-read-cut-at-entity-change",
        "panel.py",
        "        elif stream:\n",
        "        else:\n",
        (
            "tests/test_synth.py::TestWrittenPanelsTakeTheNumpyTokenizer"
            "::test_synth_panels[5000x24]",
        ),
    ),
    Mutant(
        "decimal-divisor-one-power-off",
        "panel.py",
        "after[point] = k - 1",
        "after[point] = k",
        ("tests/test_read_training.py::TestDecimalCells::test_matches_float",),
    ),
    Mutant(
        "sixteen-digit-mantissa-exact",
        "panel.py",
        "_MAX_DIGITS = 15",
        "_MAX_DIGITS = 16",
        ("tests/test_read_training.py::TestDecimalCells::test_matches_float",),
    ),
    Mutant(
        "training-read-takes-wide-lines",
        "transform.py",
        "ends.shape[1] != m + 2 or ",
        "",
        ("tests/test_read_training.py::TestPlainRules::test_later_block_with_a_cell_too_many",),
    ),
    Mutant(
        "training-read-refuses-negatives",
        "transform.py",
        "if not np.isfinite(cells.values[rows]).all():",
        "if not cells.in_range:",
        ("tests/test_read_training.py::TestPlainRules::test_negative_values_across_blocks",),
    ),
    Mutant(
        "training-ids-one-byte-late",
        "transform.py",
        "_texts(padded, first, ends[:, 0] - first)",
        "_texts(padded, first + 1, ends[:, 0] - first)",
        (
            "tests/test_read_training.py::TestPlainRules::test_negative_values_across_blocks",
            "tests/test_read_training.py::TestPlainRoundTrip",
        ),
    ),
    Mutant(
        "run-sums-as-a-dot-with-ones",
        "model.py",
        "np.add.reduce(r3, axis=1, out=self.sums[ks, None])",
        "np.matmul(np.ones((1, r3.shape[1])), r3, out=self.sums[ks, None, None])",
        ("tests/test_model.py::TestBatch::test_runs_of_equal_sizes_equal_the_one_model_loop",),
    ),
    Mutant(
        "whole-block-ids-one-position-off",
        "transform.py",
        "ordered, entity_ids = timelines, timelines.entity_ids",
        "ordered, entity_ids = timelines, timelines.entity_ids[1:] + timelines.entity_ids[:1]",
        (
            "tests/test_transform.py::TestBuildTrainingSets"
            "::test_whole_block_folds_as_its_timelines",
        ),
    ),
    Mutant(
        "whole-block-folds-one-entity-off",
        "transform.py",
        "return [(timelines.block, entities, entities)]",
        "return [(timelines.block, entities, np.roll(entities, 1))]",
        (
            "tests/test_transform.py::TestBuildTrainingSets"
            "::test_whole_block_folds_as_its_timelines",
        ),
    ),
    Mutant(
        "timeline-list-ids-unsorted",
        "transform.py",
        "ordered = sorted(timelines, key=lambda t: t.entity_id)",
        "ordered = list(timelines)",
        ("tests/test_transform.py::TestBuildTrainingSet::test_output_sorted_by_entity",),
    ),
    Mutant(
        "plain-judge-lets-quotes-through",
        "panel.py",
        "        and not (data == _QUOTE).any()\n",
        "",
        (
            "tests/test_panel.py::test_plain_array_judges_as_plain_bytes",
            "tests/test_panel.py::test_quoted_id_in_the_rows_goes_to_csv_reader",
        ),
    ),
    Mutant(
        "next-block-starts-one-late",
        "synth.py",
        "        start = stop\n",
        "        start = stop + 1\n",
        ("tests/test_synth.py::TestBlocks",),
    ),
    Mutant(
        "id-width-of-the-block",
        "synth.py",
        "width = len(str(config.n_entities - 1))",
        "width = len(str(stop - 1))",
        ("tests/test_synth.py::TestBlocks",),
    ),
)
