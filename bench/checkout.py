"""Bind the benchmark to the checkout it lives in.

Importing this module puts the checkout's ``src/`` and ``tests/`` first on
``sys.path`` and imports ``leadframe`` and the brute-force ``oracle`` from
there.  When either is missing, or ``leadframe`` resolves to a copy outside
the checkout, it exits with status 1 before any measurement or result.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

sys.path[:0] = [str(SRC), str(TESTS)]

try:
    import leadframe
    import oracle
except ImportError as exc:
    raise SystemExit(f"error: the program is missing from {ROOT}: {exc}") from None

for _module, _home in ((leadframe, SRC), (oracle, TESTS)):
    if not Path(_module.__file__).resolve().is_relative_to(_home):
        raise SystemExit(
            f"error: {_module.__name__} was imported from {_module.__file__}, "
            f"not from {_home}"
        )
