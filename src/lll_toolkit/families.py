"""Effectively presented infinite event families.

A family enumerates events by index and answers which events touch a given
variable; any finite prefix can be materialized as an ordinary
ConstraintSystem (cached, so repeated materializations are identical).
Forbidden-substring events are numbered by diagonal p + |f|, so those
inside a window of L bits are the family's first events.
"""
from __future__ import annotations

from fractions import Fraction
from math import ceil
from typing import Optional, Sequence

from .errors import FamilyError, ModelError
from .intervals import least, pow2_interval
from .model import (ConstraintSystem, Event, VariableSpec, clause_event,
                    uniform_bit)
from .tape import _word


class InfiniteFamily:
    """Base class: a total, repeatable enumeration of events."""

    def __init__(self):
        self._event_cache: dict[int, Event] = {}
        self._system_cache: dict[int, ConstraintSystem] = {}

    # subclasses implement these two
    def _build_event(self, index: int) -> Event:
        raise NotImplementedError

    def events_of_variable(self, var: int) -> tuple[int, ...]:
        raise NotImplementedError

    def size(self) -> Optional[int]:
        """Number of events, or None when the family is infinite."""
        return None

    def variable_spec(self, var: int) -> VariableSpec:
        return uniform_bit(var)

    def degree_bound(self, size: int) -> Fraction:
        """Certified lower bound of the declared per-(variable, size) count
        formula: a count not exceeding this value provably respects the
        declared bound. A family that declares a bound overrides this."""
        raise FamilyError("family declares no incidence exponent gamma")

    def event(self, index: int) -> Event:
        if index < 0:
            raise FamilyError(f"event index must be >= 0, got {index}")
        n = self.size()
        if n is not None and index >= n:
            raise FamilyError(f"family has {n} events, no index {index}")
        if index not in self._event_cache:
            ev = self._build_event(index)
            if ev.index != index:
                raise FamilyError(
                    f"enumerator returned event {ev.index} for index {index}")
            self._event_cache[index] = ev
        return self._event_cache[index]

    def neighbors_of_event(self, index: int) -> tuple[int, ...]:
        """Neighbor indices within the whole family, via variable incidence."""
        out: set[int] = set()
        for v in self.event(index).vbl:
            out.update(self.events_of_variable(v))
        return tuple(sorted(out))

    def materialize(self, k: int) -> ConstraintSystem:
        """The first k events as a finite system over variables 0..max."""
        if k < 0:
            raise FamilyError("prefix length must be >= 0")
        n = self.size()
        if n is not None and k > n:
            raise FamilyError(f"family has only {n} events")
        if k not in self._system_cache:
            events = [self.event(i) for i in range(k)]
            max_var = -1
            for ev in events:
                max_var = max(max_var, ev.vbl[-1])
            variables = [self.variable_spec(v) for v in range(max_var + 1)]
            self._system_cache[k] = ConstraintSystem.build(variables, events)
        return self._system_cache[k]


class FiniteFamily(InfiniteFamily):
    """Any finite system viewed through the family interface."""

    def __init__(self, system: ConstraintSystem):
        super().__init__()
        self.system = system

    def size(self) -> int:
        return len(self.system.events)

    def _build_event(self, index: int) -> Event:
        return self.system.events[index]

    def variable_spec(self, var: int) -> VariableSpec:
        return self.system.variables[var]

    def events_of_variable(self, var: int) -> tuple[int, ...]:
        return self.system.var_to_events.get(var, ())


class ChainCnfFamily(InfiniteFamily):
    """An infinite CNF of m-variable clauses on a line.

    Clause t covers variables t*(m-overlap) .. t*(m-overlap)+m-1, so each
    clause shares variables with at most two others; the falsifying tuple of
    each clause is derived from `polarity_seed`, giving a reproducible
    "random" CNF meeting the fixed-clause-size neighbor bound.
    """

    def __init__(self, m: int, overlap: int = 1, polarity_seed: int = 0):
        super().__init__()
        if m < 2:
            raise ModelError("clause size must be >= 2")
        if not 0 <= overlap < m:
            raise ModelError("overlap must be in 0..m-1")
        self.m = m
        self.overlap = overlap
        self.polarity_seed = polarity_seed

    def _stride(self) -> int:
        return self.m - self.overlap

    def _build_event(self, index: int) -> Event:
        start = index * self._stride()
        vbl = tuple(range(start, start + self.m))
        word = _word(self.polarity_seed, 1, index, 0)
        falsifying = tuple((word >> j) & 1 for j in range(self.m))
        return clause_event(index, vbl, falsifying)

    def events_of_variable(self, var: int) -> tuple[int, ...]:
        stride = self._stride()
        lo = max(0, -((-(var - self.m + 1)) // stride))
        hi = var // stride
        return tuple(t for t in range(lo, hi + 1)
                     if t * stride <= var < t * stride + self.m)


class ForbiddenSubstringFamily(InfiniteFamily):
    """Clauses forbidding each pattern occurrence in a one-sided bit sequence.

    Every pattern f (length >= min_len) at every position p gives one event
    over variables p..p+|f|-1 forbidding exactly the tuple f. Events are
    numbered diagonally by (p + |f|, p, f) so each has a finite index.
    """

    def __init__(self, patterns: Sequence[str], gamma: Fraction, min_len: int):
        super().__init__()
        self.gamma = Fraction(gamma)
        self.min_len = min_len
        kept = []
        rejected = []
        seen = set()
        for f in patterns:
            if any(c not in "01" for c in f):
                raise ModelError(f"pattern {f!r} is not a bit string")
            if f in seen:
                continue
            seen.add(f)
            (kept if len(f) >= min_len else rejected).append(f)
        self.patterns = tuple(sorted(kept, key=lambda f: (len(f), f)))
        self.rejected_patterns = tuple(sorted(rejected, key=lambda f: (len(f), f)))
        # longest patterns first: the order of events within a diagonal
        self._by_length: dict[int, tuple[str, ...]] = {}
        for f in sorted(self.patterns, key=lambda f: (-len(f), f)):
            self._by_length.setdefault(len(f), ())
            self._by_length[len(f)] += (f,)

    def size(self) -> Optional[int]:
        return 0 if not self.patterns else None

    def _diagonals_before(self, d: int) -> int:
        """Number of events with p + |f| < d: a pattern of length l has one
        event on each diagonal l, l+1, ..."""
        return sum(len(fs) * max(0, d - l) for l, fs in self._by_length.items())

    def _enumeration(self, index: int) -> tuple[int, str]:
        """(position, pattern) of the event with this enumeration index."""
        if not self.patterns:
            raise FamilyError("family has no patterns of admissible length")
        # a diagonal from the shortest length on holds at least one event and
        # at most one per pattern, so the last d with at most index events
        # before it, which holds `index`, is index // |patterns| or more on
        start = min(self._by_length) + index // len(self.patterns)
        d = least(lambda d: self._diagonals_before(d) > index, start) - 1
        # within diagonal d: order by p ascending, that is by the length
        # l = d - p descending, then pattern lexicographic
        offset = index - self._diagonals_before(d)
        for l, fs in self._by_length.items():
            if l <= d:
                if offset < len(fs):
                    return d - l, fs[offset]
                offset -= len(fs)
        raise FamilyError("diagonal bookkeeping out of range")

    def index_of(self, position: int, pattern: str) -> int:
        """Inverse of the enumeration; validates the event exists."""
        if pattern not in self._by_length.get(len(pattern), ()):
            raise FamilyError(f"pattern {pattern!r} not in the family")
        if position < 0:
            raise FamilyError("position must be >= 0")
        d = position + len(pattern)
        # events on diagonal d at smaller positions have longer patterns
        total = self._diagonals_before(d) + sum(
            len(fs) for l, fs in self._by_length.items()
            if len(pattern) < l <= d)
        return total + self._by_length[len(pattern)].index(pattern)

    def _build_event(self, index: int) -> Event:
        p, f = self._enumeration(index)
        vbl = tuple(range(p, p + len(f)))
        return clause_event(index, vbl, tuple(int(c) for c in f))

    def events_of_variable(self, var: int) -> tuple[int, ...]:
        out = []
        for l, fs in sorted(self._by_length.items()):
            for f in fs:
                for p in range(max(0, var - l + 1), var + 1):
                    out.append(self.index_of(p, f))
        return tuple(sorted(out))

    def degree_bound(self, size: int) -> Fraction:
        # one occurrence window per offset, times the per-length pattern
        # count bound: size * 2^(gamma*size)
        lo, _hi = pow2_interval(self.gamma * size, 64)
        return size * lo

    def events_in_window(self, length: int) -> range:
        """Indices of all events fully inside variables 0..length-1: those
        with p + |f| <= length, which the diagonal numbering puts first."""
        return range(self._diagonals_before(length + 1))


class TrimmedFamily(InfiniteFamily):
    """A clause family with each clause's lowest-index variables removed.

    A clause of size s loses its ceil(rho*s) lowest-index variables, which
    only strengthens it: any assignment satisfying the trimmed clause
    satisfies the original.
    """

    def __init__(self, base: InfiniteFamily, rho: Fraction):
        super().__init__()
        rho = Fraction(rho)
        if not 0 < rho < 1:
            raise ModelError("rho must lie strictly between 0 and 1")
        self.base = base
        self.rho = rho

    def size(self) -> Optional[int]:
        return self.base.size()

    def variable_spec(self, var: int) -> VariableSpec:
        return self.base.variable_spec(var)

    def _trim_count(self, s: int) -> int:
        return ceil(self.rho * s)

    def _build_event(self, index: int) -> Event:
        ev = self.base.event(index)
        if len(ev.forbidden) != 1:
            raise FamilyError("trimming is defined for clause events only")
        drop = self._trim_count(len(ev.vbl))
        if drop >= len(ev.vbl):
            raise FamilyError(
                f"event {index}: trimming would remove every variable")
        (tup,) = ev.forbidden
        return clause_event(index, ev.vbl[drop:], tup[drop:])

    def events_of_variable(self, var: int) -> tuple[int, ...]:
        # a variable survives in clauses where it is not among the dropped
        # prefix; scan the base incidence over all original sizes
        return tuple(sorted(idx for idx in self.base.events_of_variable(var)
                            if var in self.event(idx).vbl))

    def degree_bound(self, size: int) -> Fraction:
        # every original size s with s - ceil(rho*s) == size can contribute,
        # each within the base family's own bound; the map is non-decreasing
        # in s and below s, so those sizes are one run past `size`
        first = least(lambda s: s - self._trim_count(s) >= size, size)
        end = least(lambda s: s - self._trim_count(s) > size, first)
        return sum(map(self.base.degree_bound, range(first, end)), Fraction(0))
