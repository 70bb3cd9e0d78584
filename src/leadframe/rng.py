"""Portable seeded random number generation.

Everything stochastic in this package (synthetic panels, entity splits) runs
on SplitMix64 so that a given seed produces the same stream on any platform
or language.  The generator state is a single 64-bit integer and one step is:

    state   = (state + 0x9E3779B97F4A7C15) mod 2^64
    z       = state
    z       = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z       = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output  = z XOR (z >> 31)

Derived quantities are defined exactly in terms of that 64-bit output:

    uniform()     = (output >> 11) * 2^-53                 (double in [0, 1))
    randrange(n)  = (output * n) >> 64                     (integer in [0, n))
    poisson(lam)  = Knuth's product-of-uniforms method     (see leadframe.synth)

Per-entity substreams are seeded with the first output of a SplitMix64
generator whose state is ``seed XOR ((k + 1) * 0x9E3779B97F4A7C15 mod 2^64)``
for entity ``k``, so each entity sees the same stream however many entities
are drawn, and in whatever order.

:class:`SplitMix64` is the scalar generator.  The functions below it apply
the same step to a numpy ``uint64`` array of states, one state per stream,
so many streams advance in lockstep; wrapping array arithmetic is exact and
never warns.  After ``j`` outputs a stream seeded with ``s`` holds state
``s + j * 0x9E3779B97F4A7C15 mod 2^64``.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Double in [0, 1) with 53 bits of precision."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        """Integer in [0, n) via the multiply-shift reduction."""
        if n <= 0:
            raise ValueError("randrange requires n >= 1")
        return (self.next_uint64() * n) >> 64

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


GOLDEN = np.uint64(_GOLDEN)


def outputs(states: np.ndarray) -> np.ndarray:
    """The output of each ``uint64`` state, which the caller has advanced."""
    z = states ^ (states >> np.uint64(30))
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def uniforms(states: np.ndarray) -> np.ndarray:
    """``uniform()`` of each advanced state: doubles in [0, 1)."""
    return (outputs(states) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def substream_seeds(seed: int, start: int, stop: int) -> np.ndarray:
    """Seeds of the substreams of entities ``start .. stop - 1``, as ``uint64``."""
    states = np.arange(start + 1, stop + 1, dtype=np.uint64) * GOLDEN
    states ^= np.uint64(seed)
    states += GOLDEN
    return outputs(states)
