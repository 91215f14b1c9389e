"""Tiny deterministic RNG (splitmix64) — platform/version independent.

Used by the corpus generator and media renderer so the pipeline, the
oracle and committed goldens never drift with numpy RNG implementation
changes.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


def mix64(x: int) -> int:
    """One splitmix64 output step for seed ``x``."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def mix64_np(x):
    """Vectorized ``mix64`` over a numpy uint64 array (bit-identical to the
    scalar version; uint64 arithmetic wraps mod 2^64 like the masked ints)."""
    import numpy as np

    with np.errstate(over="ignore"):
        x = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        z = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def hash_str(s: str) -> int:
    """Deterministic 64-bit FNV-1a hash of a string."""
    h = 0xCBF29CE484222325
    for b in s.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK
    return h


class Rng:
    """Sequential splitmix64 stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def randint(self, lo: int, hi: int) -> int:
        """Uniform int in [lo, hi] inclusive."""
        if hi <= lo:
            return lo
        return lo + self.next64() % (hi - lo + 1)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self.next64() / float(1 << 64)

    def choice(self, seq):
        return seq[self.next64() % len(seq)]
