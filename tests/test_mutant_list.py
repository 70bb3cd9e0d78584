"""The mutation checks of ``tests/mutants.py`` still fit the code: each
mutant's text occurs once in its file, and each test it names is there.

``tests/run_mutants.py`` finds the same drift, but only in its long run;
this finds it in the tier-1 suite, as soon as a refactor moves a text.
"""

import re
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_text_occurs_once(mutant):
    source = (ROOT / "src" / "leadframe" / mutant.file).read_text(encoding="utf-8")
    assert source.count(mutant.text) == 1
    assert mutant.replacement != mutant.text


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_named_tests_exist(mutant):
    assert mutant.tests
    for test in mutant.tests:
        path, *names = test.split("::")
        assert path.startswith("tests/test_") and path.endswith(".py")
        source = (ROOT / path).read_text(encoding="utf-8")
        for name in names:
            name = name.split("[", 1)[0]  # a parametrized test's id
            assert re.search(rf"^\s*(class|def) {re.escape(name)}\b", source, re.M), test
