"""Exact enclosures of fractional powers of two, and the least-integer search.

2^(a/b) is irrational unless b divides a, so inequalities involving such
powers are decided against certified rational enclosures of controllable
width rather than floats.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .errors import ModelError
from .model import ONE, as_fraction


def least(holds: Callable[[int], bool], start: int = 0,
          limit: Optional[int] = None) -> Optional[int]:
    """The least n >= start with holds(n), for a test that stays true once
    it holds, or None if it fails at `limit`: tests start, start + 1,
    start + 3, start + 7, ... (capped at `limit`), then bisects the gap."""
    lo, n, step = start, start, 1  # the test fails below lo
    while not holds(n):
        if n == limit:
            return None
        lo, n, step = n + 1, n + step, 2 * step
        n = n if limit is None else min(n, limit)
    while lo < n:
        mid = (lo + n) // 2
        if holds(mid):
            n = mid
        else:
            lo = mid + 1
    return n


def _nth_root_floor(x: int, n: int) -> int:
    """Largest r with r**n <= x, by Newton iteration on integers."""
    if x < 0 or n <= 0:
        raise ModelError("nth root needs x >= 0, n >= 1")
    if x in (0, 1) or n == 1:
        return x
    r = 1 << ((x.bit_length() + n - 1) // n)  # upper seed
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    # from above, integer Newton falls to the floor root, never past it
    return r


def pow2_interval(exponent, precision_bits: int = 48) -> tuple[Fraction, Fraction]:
    """An enclosure [lo, hi] of 2**exponent with hi - lo <= 2**-precision-ish.

    Exact (lo == hi) when the exponent is an integer.
    """
    e = as_fraction(exponent)
    if e.denominator == 1:
        v = (Fraction(2 ** e.numerator) if e.numerator >= 0
             else Fraction(1, 2 ** (-e.numerator)))
        return v, v
    if e < 0:
        lo, hi = pow2_interval(-e, precision_bits)
        return ONE / hi, ONE / lo
    a, b = e.numerator, e.denominator
    s = precision_bits
    # n/2^s <= 2^(a/b) < (n+1)/2^s  where  n = floor((2^(a+bs))^(1/b))
    n = _nth_root_floor(2 ** (a + b * s), b)
    return Fraction(n, 2 ** s), Fraction(n + 1, 2 ** s)
