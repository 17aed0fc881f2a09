"""Pre-drawn randomness: per-stream value tables backed by fair coin bits.

A Tape models a table of random values x_i^0, x_i^1, ... per stream i
(streams are variable indices during solving). Values over any exact
rational distribution are produced from fair bits by interval inversion:
read bits as a binary expansion narrowing a dyadic interval, and emit
value v as soon as the interval fits inside v's cumulative slot. That
makes every draw's probability an exact dyadic weight, so exhaustive
enumeration of bit strings reproduces distributions exactly.

Seeded mode derives the bit for (stream, draw, position) from a counter-based
mix of the seed, so a stream's personal value sequence is independent of the
order in which other streams are consumed.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence

from .errors import BudgetRefused, ModelError, TapeExhausted
from .model import VariableSpec

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    # splitmix64 finalizer
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _word(seed: int, stream: int, draw: int, block: int) -> int:
    h = _mix64(seed ^ _GAMMA)
    h = _mix64(h + stream * 0xC2B2AE3D27D4EB4F)
    h = _mix64(h + draw * 0x165667B19E3779F9)
    return _mix64(h + block * _GAMMA)


@lru_cache(maxsize=None)
def _cumulative(distribution: tuple[Fraction, ...]):
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


class Tape:
    """A single-owner source of pre-drawn random values.

    Exactly one of `seed` (unbounded replayable bits) and `bits` (an explicit
    finite coin string, for exhaustive enumeration) must be given.
    """

    __slots__ = ("seed", "bits", "bit_cursor", "bits_consumed", "_consumed")

    def __init__(self, seed: int | None = None, bits: str | None = None):
        if (seed is None) == (bits is None):
            raise ModelError("give exactly one of seed= or bits=")
        if bits is not None and any(b not in "01" for b in bits):
            raise ModelError("explicit bits must be a string of 0s and 1s")
        self.seed = seed
        self.bits = bits
        self.bit_cursor = 0          # position in the explicit bit string
        self.bits_consumed = 0       # total bits in either mode
        self._consumed: dict[int, int] = {}

    def consumed_count(self, stream: int) -> int:
        """How many values stream has drawn so far (x^0 .. x^{count-1})."""
        return self._consumed.get(stream, 0)

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
            word = _word(self.seed, stream, draw, position >> 6)
            b = (word >> (63 - (position & 63))) & 1
        self.bits_consumed += 1
        return b

    def draw(self, stream: int, distribution: Sequence[Fraction]) -> int:
        """The next unused value of `stream`, distributed per `distribution`."""
        slots = _cumulative(tuple(distribution))
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

    def to_hex(self) -> str:
        """Serialize an explicit tape as `<bit length>:<hex digits>`."""
        if self.bits is None:
            raise ModelError("only explicit tapes serialize to hex")
        if not self.bits:
            return "0:"
        value = int(self.bits, 2)
        width = (len(self.bits) + 3) // 4
        return f"{len(self.bits)}:{value:0{width}x}"

    @classmethod
    def from_hex(cls, text: str) -> "Tape":
        """Parse `<bit length>:<hex digits>`, the form `to_hex` writes.

        The digits may be left out only for the empty tape, and their value
        must fit in the declared number of bits.
        """
        length_str, _, digits = text.partition(":")
        if not re.fullmatch(r"[0-9]+", length_str):
            raise ModelError(
                f"tape {text!r}: bit length is not a non-negative integer")
        length = int(length_str)
        if length == 0 and not digits:
            return cls(bits="")
        if not re.fullmatch(r"[0-9a-fA-F]+", digits):
            raise ModelError(f"tape {text!r}: {digits!r} is not hex digits")
        value = int(digits, 16)
        if value >> length:
            raise ModelError(
                f"tape {text!r}: value does not fit in {length} bits")
        return cls(bits=format(value, f"0{length}b") if length else "")


def fresh_value(tape: Tape, var: VariableSpec) -> int:
    """Draw the next unused value for a variable from its personal stream."""
    return tape.draw(var.index, var.distribution)


DEFAULT_ENUM_GUARD = 26


def enumerate_tapes(bit_budget: int, guard: int = DEFAULT_ENUM_GUARD,
                    force: bool = False) -> Iterator[Tape]:
    """All 2^bit_budget explicit tapes, lexicographic by bit string."""
    if bit_budget < 0:
        raise ModelError("bit_budget must be >= 0")
    if bit_budget > guard and not force:
        raise BudgetRefused(
            f"bit budget {bit_budget} over guard {guard}; pass force=True")
    for combo in product("01", repeat=bit_budget):
        yield Tape(bits="".join(combo))
