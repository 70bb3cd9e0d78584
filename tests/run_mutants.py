"""Run the mutation checks of ``tests/mutants.py``.

    python tests/run_mutants.py [NAME ...]

For each mutant (or only those named), copies ``src/``, ``tests/``,
``data/`` and ``pyproject.toml`` to a temporary directory, applies the
mutant there and runs its tests with ``pytest -x`` in a subprocess.  Exits
1 if a mutant's text does not occur exactly once in its file, or if its
tests do not fail.  The checkout itself is never written.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS, Mutant  # noqa: E402

_COPIED = ("src", "tests", "data")
_IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")


def check(mutant: Mutant, workdir: Path) -> str | None:
    """Why the mutant survives, or None if its tests fail on it."""
    copy = workdir / mutant.name
    for part in _COPIED:
        shutil.copytree(ROOT / part, copy / part, ignore=_IGNORED)
    shutil.copy(ROOT / "pyproject.toml", copy)
    path = copy / "src" / "leadframe" / mutant.file
    source = path.read_text(encoding="utf-8")
    found = source.count(mutant.text)
    if found != 1:
        return f"its text occurs {found} times in {mutant.file}, not once"
    path.write_text(source.replace(mutant.text, mutant.replacement), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    if result.returncode == 1:  # 1: tests ran and some failed
        return None
    if result.returncode == 0:
        return "its tests pass"
    return f"pytest exited {result.returncode}:\n{result.stdout[-2000:]}{result.stderr[-2000:]}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="leadframe-mutants-") as workdir:
        for mutant in MUTANTS:
            if names and mutant.name not in names:
                continue
            start = time.perf_counter()
            reason = check(mutant, Path(workdir))
            status = "killed" if reason is None else f"SURVIVED: {reason}"
            print(f"{mutant.name}: {status} ({time.perf_counter() - start:.1f} s)", flush=True)
            survivors += reason is not None
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
