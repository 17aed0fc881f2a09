"""Reference tape: interval inversion over `Fraction` slots, one coin at a time.

This is the draw the compiled `Sampler` of `lll_toolkit.tape` replaced,
kept for the differential tests. A coin comes from four splitmix rounds
over (seed, stream, draw, block), or from the explicit bit string; a value
settles as soon as the dyadic interval of the coins read fits inside its
cumulative slot. The splitmix64 finalizer is written out here, on one word
at a time, so the tape's lane-parallel `_mix64` is checked against it.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from lll_toolkit.errors import TapeExhausted

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """The splitmix64 finalizer on one 64-bit word."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def word(seed: int, stream: int, draw: int, block: int) -> int:
    h = mix64(seed ^ GAMMA)
    h = mix64(h + stream * 0xC2B2AE3D27D4EB4F)
    h = mix64(h + draw * 0x165667B19E3779F9)
    return mix64(h + block * GAMMA)


@lru_cache(maxsize=None)
def cumulative(distribution: tuple[Fraction, ...]):
    """Per value: (lo_num, lo_den, hi_num, hi_den) of its cumulative slot."""
    slots = []
    acc = Fraction(0)
    for p in distribution:
        lo, hi = acc, acc + p
        acc = hi
        if p > 0:
            slots.append((lo.numerator, lo.denominator,
                          hi.numerator, hi.denominator))
        else:
            slots.append(None)
    return tuple(slots)


class ReferenceTape:
    """The state and draw of `lll_toolkit.tape.Tape`, without compiling."""

    def __init__(self, seed: int | None = None, bits: str | None = None):
        self.seed = seed
        self.bits = bits
        self.bit_cursor = 0
        self.bits_consumed = 0
        self._consumed: dict[int, int] = {}

    @property
    def consumed(self) -> dict[int, int]:
        return dict(self._consumed)

    def _next_bit(self, stream: int, draw: int, position: int) -> int:
        if self.bits is not None:
            if self.bit_cursor >= len(self.bits):
                raise TapeExhausted()
            b = 1 if self.bits[self.bit_cursor] == "1" else 0
            self.bit_cursor += 1
        else:
            b = (word(self.seed, stream, draw, position >> 6)
                 >> (63 - (position & 63))) & 1
        self.bits_consumed += 1
        return b

    def draw(self, stream: int, distribution: Sequence[Fraction]) -> int:
        slots = cumulative(tuple(distribution))
        draw_index = self._consumed.get(stream, 0)
        a = 0
        d = 0  # current dyadic interval is [a/2^d, (a+1)/2^d)
        while True:
            pow2 = 1 << d
            for value, slot in enumerate(slots):
                if slot is None:
                    continue
                lo_n, lo_d, hi_n, hi_d = slot
                if a * lo_d >= lo_n * pow2 and (a + 1) * hi_d <= hi_n * pow2:
                    self._consumed[stream] = draw_index + 1
                    return value
            b = self._next_bit(stream, draw_index, d)
            a = (a << 1) | b
            d += 1
