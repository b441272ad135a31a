"""Seeded 64-bit generator behind every random draw in the package.

A single integer seed pins down metrics, request sequences and campaign
draws exactly, independent of platform and interpreter version.  The
generator is splitmix64, chosen because its reference definition is a
handful of integer operations that any implementation can reproduce.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64: golden-ratio increment plus xor-shift-multiply finalizer.

    ``randint(lo, hi)`` maps a raw draw to ``lo + u % (hi - lo + 1)``.  The
    modulo bias is negligible at testbed ranges and keeps the derivation
    trivial to replicate.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi], both ends included."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def sample(self, population: int, count: int) -> list[int]:
        """``count`` distinct indices out of range(population), sorted.

        Partial Fisher-Yates on an index table; deterministic per stream
        state.  Draw i swaps entry i with entry ``randint(i, population - 1)``.
        The states of the ``count`` draws step by the golden increment, so
        all draws are mixed in one uint64 pass, and the table holds only
        the entries that have moved.
        """
        if not 0 <= count <= population:
            raise ValueError(f"cannot sample {count} of {population}")
        steps = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GOLDEN)  # wraps mod 2^64
        self._state = (self._state + count * _GOLDEN) & MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        swaps = (z % (np.uint64(population) - steps + np.uint64(1))).tolist()
        table: dict[int, int] = {}
        for i, offset in enumerate(swaps):
            j = i + offset
            table[i], table[j] = table.get(j, j), table.get(i, i)
        return sorted(table.get(i, i) for i in range(count))
