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
        "AggKind.COUNT_NONZERO: (lambda x: (x != 0.0).astype(np.float64), np.add),",
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
        "plain-rows-miss-last-line",
        "panel.py",
        'lines = feeds - line.endswith(b"\\n") + 1',
        'lines = feeds - line.endswith(b"\\n")',
        ("tests/test_panel.py::TestTokenizerAcrossBlocks::test_no_final_line_feed",),
    ),
    Mutant(
        "block-drops-carried-line",
        "panel.py",
        "np.frombuffer(handle.readline(size - first), dtype=np.uint8)",
        "np.frombuffer(handle.readline(size - first)[:0], dtype=np.uint8)",
        ("tests/test_panel.py::TestTokenizerAcrossBlocks",),
    ),
    Mutant(
        "reader-rows-from-line-feeds",
        "panel.py",
        'text.count("\\n") + text.count("\\r") - text.count("\\r\\n") + 1',
        'text.count("\\n") + 1',
        ("tests/test_panel.py::TestParse::test_carriage_returns_alone_end_rows",),
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
)
