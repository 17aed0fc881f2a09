"""Pre-drawn randomness: per-stream value tables backed by fair coin bits.

A Tape models a table of random values x_i^0, x_i^1, ... per stream i
(streams are variable indices during solving). Values over any exact
rational distribution are produced from fair bits by interval inversion:
read bits as a binary expansion narrowing a dyadic interval, and emit
value v as soon as the interval fits inside v's cumulative slot. That
makes every draw's probability an exact dyadic weight, so exhaustive
enumeration of bit strings reproduces distributions exactly.

Each distribution is compiled once into a `Sampler`, which holds the slot
bounds as integers over the distribution's common denominator, so a draw
inverts its coins by integer comparisons and touches no `Fraction`. The
fair bit (1/2, 1/2) takes its one coin as its value. `Tape.draw` compiles a
plain sequence through a cache; solvers pass the samplers their system
compiled at first use, once per distinct law object. A law is checked once
as well: `check_law` runs when a law is compiled and when a variable takes
it, but the fair bit's law `FAIR_BIT` is checked here at import, and a
variable that holds that very tuple is not checked again.

Seeded mode derives the bit for (stream, draw, position) from a counter-based
mix of the seed, so a stream's personal value sequence is independent of the
order in which other streams are consumed. The mix rounds that depend only
on the seed run once per tape, those of the stream once per stream, so a
draw costs one round for its key plus one per 64-coin block.
`Tape.draw_initial` draws x^0 of every stream of an all-fair system on a
fresh seeded tape at once: its three rounds per stream (stream key, draw
key, coin block) run as three passes of `_mix64` over one integer that
holds a 64-bit lane per stream. It keeps the stream keys of that pass, so
no later draw recomputes them. `Tape.redraw` draws the next value of each
stream of a sequence (the variables of one resampled event): on a seeded
tape with fair laws the draws are independent lanes too, and their draw
key and coin block rounds run as two passes over one integer, through the
same lane routine as the initial pass.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm
from struct import unpack
from typing import Optional, Sequence, Union

from .errors import ModelError, TapeExhausted

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_STREAM = 0xC2B2AE3D27D4EB4F
_DRAW = 0x165667B19E3779F9


def _mix64(x: int, mask: int = _MASK64) -> int:
    # splitmix64 finalizer, on every 64-bit lane of `mask` at once: a lane
    # is masked after each xor-shift (which pulls in bits of the lane above)
    # and before each multiply, so its product stays below the next lane
    x &= mask
    x = (((x ^ (x >> 30)) & mask) * 0xBF58476D1CE4E5B9) & mask
    x = (((x ^ (x >> 27)) & mask) * 0x94D049BB133111EB) & mask
    return (x ^ (x >> 31)) & mask


def _word(seed: int, stream: int, draw: int, block: int) -> int:
    h = _mix64(seed ^ _GAMMA)
    h = _mix64(h + stream * _STREAM)
    h = _mix64(h + draw * _DRAW)
    return _mix64(h + block * _GAMMA)


def check_law(distribution: Sequence[Fraction], where: str = "") -> None:
    """Raise `ModelError` (its message led by `where`) unless `distribution`
    is a law the tape can draw from: exact (Fraction or int) masses, none
    negative, summing to 1."""
    if not distribution:
        raise ModelError(f"{where}empty distribution")
    for p in distribution:
        if not isinstance(p, (Fraction, int)):
            raise ModelError(f"{where}expected an exact rational mass, got {p!r}")
        if p < 0:
            from .formats import format_rational  # formats imports tape
            raise ModelError(f"{where}negative mass {format_rational(p)}")
    if sum(distribution) != 1:
        from .formats import format_rational
        raise ModelError(f"{where}distribution sums to "
                         f"{format_rational(sum(distribution))}, not 1")


# the fair bit's law, checked here once: `VariableSpec` takes this very tuple
# without checking it again
FAIR_BIT = (Fraction(1, 2), Fraction(1, 2))
check_law(FAIR_BIT)


class Sampler:
    """An exact distribution compiled for interval inversion.

    Over the common denominator `total`, value v's cumulative slot is
    [bounds[v-1], bounds[v]) (the first starts at 0). `fair` marks the fair
    bit, whose value is its first coin. `depth` is the most coins a draw
    reads: log2(total) for a dyadic law, whose slot bounds all lie on the
    grid of 2^-depth, and None otherwise, where some coin path never
    settles. Compiling raises `ModelError` for a law `check_law` refuses.
    """

    __slots__ = ("bounds", "total", "fair", "depth")

    def __init__(self, distribution: Sequence[Fraction]):
        check_law(distribution)
        self.total = lcm(*(p.denominator for p in distribution))
        acc = 0
        bounds = []
        for p in distribution:
            acc += p.numerator * (self.total // p.denominator)
            bounds.append(acc)
        self.bounds = tuple(bounds)
        self.fair = self.bounds == (1, 2)
        self.depth = (self.total.bit_length() - 1
                      if self.total & (self.total - 1) == 0 else None)

    def settle(self, a: int, d: int) -> Optional[int]:
        """The value whose slot holds the coin interval [a/2^d, (a+1)/2^d),
        or None while it straddles a slot boundary and the draw demands
        another coin."""
        lo = a * self.total
        for value, bound in enumerate(self.bounds):
            bound <<= d
            if lo < bound:
                return value if lo + self.total <= bound else None
        return None


def sampler_for(distribution: Sequence[Fraction]) -> Sampler:
    """The compiled `Sampler` of an exact distribution, cached per law."""
    masses = tuple(distribution)
    # a float hashes and compares like an equal Fraction: key on the types
    # too, so it reaches the compiler and is refused there
    return _compiled(masses, tuple(map(type, masses)))


@lru_cache(maxsize=None)
def _compiled(masses: tuple, _types: tuple) -> Sampler:
    return Sampler(masses)


@lru_cache(maxsize=8)
def _lanes(n: int) -> tuple[int, int, int]:
    """For n 128-bit lanes: 1 in every lane, v * _STREAM in lane v, and the
    lane mask (each lane's low 64 bits)."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * n, "little")
    streams = int.from_bytes(b"".join(v.to_bytes(16, "little")
                                      for v in range(n)), "little")
    return ones, streams * _STREAM, ones * _MASK64


def _fair_values(keys: int, n: int) -> bytes:
    """The fair-bit values of n draws whose draw keys (stream key plus
    position * _DRAW) fill the n 128-bit lanes of `keys`, one byte each:
    the top bit of each draw's first coin block, after a pass of `_mix64`
    for the draw key and one for the block."""
    mask = _lanes(n)[2]
    top = _mix64(_mix64(keys, mask), mask) >> 63
    return top.to_bytes(16 * n, "little")[::16]


class Tape:
    """A single-owner source of pre-drawn random values.

    Exactly one of `seed` (unbounded replayable bits) and `bits` (an explicit
    finite coin string, for exhaustive enumeration) must be given.
    """

    __slots__ = ("seed", "bits", "bit_cursor", "bits_consumed", "_consumed",
                 "_seed_key", "_stream_keys")

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
        self._seed_key = None if seed is None else _mix64(seed ^ _GAMMA)
        self._stream_keys: dict[int, int] = {}

    @property
    def consumed(self) -> dict[int, int]:
        return dict(self._consumed)

    def draw(self, stream: int,
             distribution: Union[Sequence[Fraction], Sampler]) -> int:
        """The next unused value of `stream`, distributed per `distribution`
        (exact masses, or their `Sampler`)."""
        sampler = (distribution if type(distribution) is Sampler
                   else sampler_for(distribution))
        index = self._consumed.get(stream, 0)
        if self.bits is not None:
            value = self._invert_bits(sampler)
        else:
            key = self._stream_keys.get(stream)
            if key is None:
                key = self._new_stream_key(stream)
            key = _mix64(key + index * _DRAW)
            a = d = 0
            while (value := sampler.settle(a, d)) is None:
                if not d & 63:
                    word = _mix64(key + (d >> 6) * _GAMMA)
                a = (a << 1) | ((word >> (63 - (d & 63))) & 1)
                d += 1
            self.bits_consumed += d
        self._consumed[stream] = index + 1
        return value

    def draw_initial(self, samplers: Sequence[Sampler], out: list,
                     fair: Optional[bool] = None) -> None:
        """Append x^0 of streams 0..n-1 to `out`, stream v drawn per
        `samplers[v]`: the values and tape state of `out.append(self.draw(v,
        samplers[v]))` for v in order. `fair` is whether every sampler is
        the fair bit, for callers that know it already.

        A fresh seeded tape draws n fair bits in three passes of `_mix64`
        over n lanes of one integer, lane v at bit 128v, wide enough to hold
        a 64x64-bit product. Any other tape or law draws one value at a
        time, so a cut explicit tape leaves the values drawn so far in
        `out`.
        """
        n = len(samplers)
        if fair is None:
            fair = all(s.fair for s in samplers)
        if not fair or self.bits is not None or self._consumed:
            for v, sampler in enumerate(samplers):
                out.append(self.draw(v, sampler))
            return
        ones, offsets, mask = _lanes(n)
        # the stream keys, kept for later draws; x^0's draw key adds
        # 0 * _DRAW to its stream key
        keys = _mix64(self._seed_key * ones + offsets, mask)
        self._stream_keys = dict(enumerate(
            unpack(f"<{2 * n}Q", keys.to_bytes(16 * n, "little"))[::2]))
        out.extend(_fair_values(keys, n))
        self._consumed = dict.fromkeys(range(n), 1)
        self.bits_consumed += n

    def redraw(self, streams: Sequence[int], samplers: Sequence[Sampler],
               assignment: list, fair: Optional[bool] = None
               ) -> tuple[tuple[int, int, int], ...]:
        """Draw the next value of each stream of `streams` in order, stream v
        per `samplers[v]`, into `assignment[v]`, and return each draw's
        (stream, position, value): the values and tape state of
        `tape.draw(v, samplers[v])` for v in order. `fair` is whether every
        sampler is the fair bit, for callers that know it already.

        A seeded tape draws fair bits as one lane each of one integer, in
        two passes of `_mix64` over the draw keys, with the stream keys it
        keeps. Any other tape or law draws one value at a time and writes
        it to `assignment` at once, so a cut explicit tape leaves the values
        drawn so far there.
        """
        consumed = self._consumed
        if fair is None:
            fair = all(samplers[v].fair for v in streams)
        if not fair or self.bits is not None:
            draws = []
            for v in streams:
                position = consumed.get(v, 0)
                assignment[v] = value = self.draw(v, samplers[v])
                draws.append((v, position, value))
            return tuple(draws)
        stream_keys = self._stream_keys
        positions = []
        keys = shift = 0
        for v in streams:
            index = consumed.get(v, 0)
            consumed[v] = index + 1
            key = stream_keys.get(v)
            if key is None:
                key = self._new_stream_key(v)
            keys |= (key + index * _DRAW) << shift
            shift += 128
            positions.append(index)
        values = _fair_values(keys, len(positions))
        self.bits_consumed += len(positions)
        for v, value in zip(streams, values):
            assignment[v] = value
        return tuple(zip(streams, positions, values))

    def _new_stream_key(self, stream: int) -> int:
        """Compute and keep the key of a stream no draw has keyed yet."""
        key = self._stream_keys[stream] = _mix64(
            self._seed_key + stream * _STREAM)
        return key

    def _invert_bits(self, sampler: Sampler) -> int:
        """Invert the next coins of the explicit string; running out of them
        consumes the rest and raises `TapeExhausted`."""
        bits, start = self.bits, self.bit_cursor
        a = d = 0
        while (value := sampler.settle(a, d)) is None:
            if start + d == len(bits):
                self.bit_cursor = start + d
                self.bits_consumed += d
                raise TapeExhausted()
            a = (a << 1) | (bits[start + d] == "1")
            d += 1
        self.bit_cursor = start + d
        self.bits_consumed += d
        return value

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

