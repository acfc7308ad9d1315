"""Deterministic randomness: SHA-256 seed derivation plus SplitMix64 streams.

Every random draw in the system comes from one mechanism: a 64-bit seed is
derived by hashing a root seed together with purpose tags (participant ids,
decision indices, stream names), and the seed drives a SplitMix64 generator.
Seeds are loggable integers, so any draw can be reconstructed after the fact.
"""

from __future__ import annotations

import hashlib
import math

MASK64 = 0xFFFFFFFFFFFFFFFF

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def derive_seed(root_seed: int, *parts: int | str | bytes) -> int:
    """Derive a 64-bit seed from a root seed and an ordered list of tags.

    The digest input is the root seed as 8 big-endian bytes followed by each
    part: ints as 8 big-endian bytes; strings and bytes with a 4-byte length
    prefix so adjacent variable-length tags can never alias. The seed is the
    big-endian value of the first 8 bytes of the SHA-256 digest.
    """
    h = hashlib.sha256()
    h.update((root_seed & MASK64).to_bytes(8, "big"))
    for part in parts:
        if isinstance(part, int):
            h.update((part & MASK64).to_bytes(8, "big"))
        else:
            raw = part.encode("utf-8") if isinstance(part, str) else part
            h.update(len(raw).to_bytes(4, "big"))
            h.update(raw)
    return int.from_bytes(h.digest()[:8], "big")


def splitmix64_next(state: int) -> tuple[int, int]:
    """Advance a SplitMix64 stream one step: returns (next_state, output)."""
    state = (state + _GOLDEN) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return state, z ^ (z >> 31)


def unit_float(word: int) -> float:
    """Map a 64-bit word to a float in [0, 1) using the top 53 bits."""
    return (word >> 11) * 2.0**-53


class SplitMix64:
    """A SplitMix64 stream whose whole state is the single integer ``state``,
    so it can be checkpointed and resumed by copying one number. Each draw
    runs in one frame: :func:`splitmix64_next` and, for a uniform,
    :func:`unit_float` are written out inline, with the same arithmetic."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = z = (self.state + _GOLDEN) & MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        self.state = z = (self.state + _GOLDEN) & MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return ((z ^ (z >> 31)) >> 11) * 2.0**-53

    def next_gauss(self) -> float:
        # Box-Muller, cosine branch only: two uniforms per draw, no cached
        # partner, so the stream state fully determines the next value.
        z = (self.state + _GOLDEN) & MASK64
        self.state = w = (z + _GOLDEN) & MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        w = ((w ^ (w >> 30)) * _MIX1) & MASK64
        w = ((w ^ (w >> 27)) * _MIX2) & MASK64
        u1 = 1.0 - ((z ^ (z >> 31)) >> 11) * 2.0**-53  # (0, 1], keeps log() finite
        u2 = ((w ^ (w >> 31)) >> 11) * 2.0**-53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def next_geometric(self, p: float) -> int:
        """Number of whole failures before the first success, P(success)=p.

        p = 1 always returns 0. Uses one uniform via inversion so the draw
        count per call is fixed regardless of p.
        """
        self.state = z = (self.state + _GOLDEN) & MASK64
        if p >= 1.0:
            return 0
        if p <= 0.0:
            raise ValueError("geometric success probability must be > 0")
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        u = ((z ^ (z >> 31)) >> 11) * 2.0**-53
        # u in [0, 1); at u == 0, log1p(-u) is -0.0, and -0.0 // a negative is 0.0
        return int(math.log1p(-u) // math.log1p(-p))
