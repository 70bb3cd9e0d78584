"""Sample how fast the host runs while a timed interval runs.

On a shared host the same pass can take from 1x to 2x its usual time.  Each
CPU's speed changes from one second to the next, on its own, and CPU time
slows with wall time (contention for the core, its caches and memory, not
waiting for a turn).  So a timing of a fixed loop before and after a pass
says little about the pass.

``Sampler`` times a small fixed loop (the probe) every ``INTERVAL_S`` of
wall time, from a ``SIGALRM`` handler in the measured process itself, so on
the CPU the measured code runs on at that moment.  ``speed()`` is the mean
of ``REF_S / probe time`` over the interval: 1.0 when the probe runs at its
nominal time, 0.5 when it takes twice as long.  The benchmark reports
measured seconds x speed, "reference seconds": the time the interval would
take at the nominal speed.  When the host slows, the probe slows with it and
reference seconds stay put.

The probe uses only the standard library and never imports ``leadframe``,
so no change to the program can change it.  It does the kind of work the
program's hot paths do in pure Python: parse CSV text, convert fields, group
rows by id in dicts of lists, sort each group and fold it.  Each probe takes
about 1.5% of the interval.
"""

from __future__ import annotations

import csv
import gc
import io
import random
import signal
import statistics
import time

# A fixed scale, close to the probe's time on an uncontended 2-CPU Xeon host
# (Python 3.11), so that reference seconds read like wall seconds there.  It
# never changes between the runs that are compared.
REF_S = 0.0005
INTERVAL_S = 0.05


def _text(rows: int = 300, seed: int = 1) -> str:
    rng = random.Random(seed)
    lines = ["id,period,a,b,c,d,flag"]
    for i in range(rows):
        lines.append(
            f"{i // 20},{i % 20},{rng.randint(0, 9)},{rng.random():.4f},"
            f"{rng.randint(0, 50)},{rng.random() * 10:.3f},{int(rng.random() < 0.1)}"
        )
    return "\n".join(lines) + "\n"


_TEXT = _text()


def _probe() -> float:
    """Run the probe once and return its time in seconds."""
    gc_was_on = gc.isenabled()
    gc.disable()  # a collection of the measured code's objects is not the probe's
    start = time.perf_counter()
    reader = csv.reader(io.StringIO(_TEXT))
    next(reader)
    groups: dict[int, list[tuple]] = {}
    for row in reader:
        record = (int(row[0]), int(row[1]), float(row[2]), float(row[3]),
                  float(row[4]), float(row[5]), row[6] == "1")
        groups.setdefault(record[0], []).append(record)
    for records in groups.values():
        records.sort(key=lambda r: r[1])
        total = sum(r[2] for r in records)
        max(r[4] for r in records) + sum(r[3] for r in records) / (1.0 + total)
    elapsed = time.perf_counter() - start
    if gc_was_on:
        gc.enable()
    return elapsed


class Sampler:
    """Context manager that probes the host's speed while its body runs.

    Only one may be active at a time in a process; it owns ``SIGALRM``.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.times.append(_probe())

    def __enter__(self) -> Sampler:
        for _ in range(3):  # warm the probe's code and data
            _probe()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.times:  # a body shorter than one interval
            self.times.append(_probe())

    def speed(self) -> float:
        """Mean probe speed over the body, relative to ``REF_S``."""
        return statistics.mean(REF_S / t for t in self.times)
