"""Exact data model: variables, events, neighborhoods, local-lemma conditions.

All probabilities and condition bounds are `fractions.Fraction` values and
every comparison is exact; no float enters any correctness-bearing path.
The condition check forms each right-hand side once per neighbourhood
signature: an event's weight and the multiset of its neighbours' weights.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .errors import BudgetRefused, ModelError
from .tape import FAIR_BIT, Sampler, check_law, sampler_for

ZERO = Fraction(0)
ONE = Fraction(1)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, and strings `[+-]digits[/digits]` such as
    '3/4' or '-2', of any number of digits; reject floats and every other
    string form."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise ModelError(
                f"bad rational {value!r}: not an integer or num/den")
        num, _, den = value.partition("/")
        try:  # refuses a zero denominator
            return Fraction(_int_of(num), _int_of(den or "1"))
        except ZeroDivisionError as exc:
            raise ModelError(f"bad rational {value!r}: {exc}") from None
    raise ModelError(f"expected an exact rational, got {value!r}")


def _int_of(digits: str) -> int:
    """`int(digits)` of any length: past the interpreter's int-to-string
    digit limit, `decimal` reads it, as it has no such limit."""
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


@dataclass(frozen=True)
class VariableSpec:
    """A finite-range variable with an exact rational distribution.

    `tape.FAIR_BIT` itself (that object, not an equal law) was checked at
    import and is kept as it is; any other law is coerced and checked."""

    index: int
    distribution: tuple[Fraction, ...]

    def __post_init__(self):
        law = self.distribution
        if law is not FAIR_BIT:
            law = tuple(as_fraction(p) for p in law)
            object.__setattr__(self, "distribution", law)
        if self.index < 0:
            raise ModelError(f"variable index must be >= 0, got {self.index}")
        if law is not FAIR_BIT:
            check_law(law, f"variable {self.index}: ")

    @property
    def range_size(self) -> int:
        return len(self.distribution)


def uniform_bit(index: int) -> VariableSpec:
    return VariableSpec(index, FAIR_BIT)


@dataclass(frozen=True)
class Event:
    """An undesirable event: a set of forbidden value tuples over some variables.

    `vbl` is strictly increasing; each forbidden tuple is aligned with it.
    """

    index: int
    vbl: tuple[int, ...]
    forbidden: frozenset[tuple[int, ...]]

    def __post_init__(self):
        vbl = tuple(self.vbl)
        object.__setattr__(self, "vbl", vbl)
        object.__setattr__(self, "forbidden",
                           frozenset(tuple(t) for t in self.forbidden))
        if self.index < 0:
            raise ModelError(f"event index must be >= 0, got {self.index}")
        if not vbl:
            raise ModelError(f"event {self.index}: empty variable list")
        if any(a >= b for a, b in zip(vbl, vbl[1:])):
            raise ModelError(f"event {self.index}: vbl not strictly increasing")
        for t in self.forbidden:
            if len(t) != len(vbl):
                raise ModelError(
                    f"event {self.index}: tuple {t} has wrong arity")

    def check_fits(self, variables: Sequence[VariableSpec]) -> None:
        """Refuse a variable that `variables` lacks, or a forbidden value
        outside its variable's range."""
        for v in self.vbl:
            if not 0 <= v < len(variables):
                raise ModelError(
                    f"event {self.index} uses unknown variable {v}")
        n_range = [variables[v].range_size for v in self.vbl]
        for t in self.forbidden:
            for x, r in zip(t, n_range):
                if not 0 <= x < r:
                    raise ModelError(f"event {self.index}: tuple {t} out of "
                                     f"variable range")


def clause_event(index: int, vbl: Sequence[int], falsifying: Sequence[int]) -> Event:
    """A CNF-clause-style event forbidding exactly one assignment of `vbl`."""
    return Event(index, tuple(vbl), frozenset({tuple(falsifying)}))


@dataclass(frozen=True)
class ConstraintSystem:
    """Immutable bundle of variables, events, and the variable/event incidence."""

    variables: tuple[VariableSpec, ...]
    events: tuple[Event, ...]
    var_to_events: dict[int, tuple[int, ...]]
    neighbor_sets: tuple[frozenset[int], ...]

    @classmethod
    def build(cls, variables: Sequence[VariableSpec],
              events: Sequence[Event]) -> "ConstraintSystem":
        variables = tuple(variables)
        events = tuple(events)
        for pos, var in enumerate(variables):
            if var.index != pos:
                raise ModelError(
                    f"variable at position {pos} has index {var.index}")
        incidence: dict[int, list[int]] = {}
        for pos, ev in enumerate(events):
            if ev.index != pos:
                raise ModelError(f"event at position {pos} has index {ev.index}")
            ev.check_fits(variables)
            for v in ev.vbl:
                incidence.setdefault(v, []).append(ev.index)
        var_to_events = {v: tuple(ixs) for v, ixs in incidence.items()}
        neighbor_sets = []
        for ev in events:
            seen: set[int] = set()
            for v in ev.vbl:
                seen.update(var_to_events[v])
            neighbor_sets.append(frozenset(seen))
        return cls(variables, events, var_to_events, tuple(neighbor_sets))

    @cached_property
    def samplers(self) -> tuple[Sampler, ...]:
        """Each variable's compiled distribution, by index (compiled at
        first use). Each distinct law object is looked up once, keyed by its
        id, which stays unique while `variables` holds the law."""
        laws = {id(var.distribution): var.distribution
                for var in self.variables}
        compiled = {key: sampler_for(law) for key, law in laws.items()}
        return tuple(compiled[id(var.distribution)] for var in self.variables)

    @cached_property
    def range_sizes(self) -> tuple[int, ...]:
        """Each variable's number of values, in variable order."""
        return tuple(var.range_size for var in self.variables)

    @cached_property
    def fair(self) -> bool:
        """Whether every variable is a fair bit (checked at first use)."""
        return all(s.fair for s in self.samplers)

    @cached_property
    def checks(self) -> tuple[tuple[Callable, frozenset], ...]:
        """Each event's (values getter, forbidden set), by index (compiled at
        first use): event i is true under `a` when `values(a) in forbidden`.
        The getter of a one-variable event reads its value bare, not as a
        1-tuple, so its forbidden set holds bare values."""
        return tuple((itemgetter(*ev.vbl), ev.forbidden if len(ev.vbl) > 1
                      else frozenset(t for t, in ev.forbidden))
                     for ev in self.events)

    def is_true(self, event_index: int, assignment: Sequence[int]) -> bool:
        values, forbidden = self.checks[event_index]
        return values(assignment) in forbidden

    def assignments(self) -> Iterator[tuple[int, ...]]:
        """Every full assignment, lexicographic in variable-index order."""
        ranges = [range(v.range_size) for v in self.variables]
        return product(*ranges)

    def assignment_probability(self, assignment: Sequence[int]) -> Fraction:
        p = ONE
        for var, value in zip(self.variables, assignment):
            p *= var.distribution[value]
        return p


def neighbors(system: ConstraintSystem, i: int) -> tuple[int, ...]:
    """Indices of events sharing a variable with event i, including i itself."""
    if not 0 <= i < len(system.events):
        raise ModelError(f"no event with index {i}")
    return tuple(sorted(system.neighbor_sets[i]))


def event_probability(event: Event, system: ConstraintSystem) -> Fraction:
    """Probability of the event under the product measure, summed exactly."""
    total = ZERO
    for t in event.forbidden:
        p = ONE
        for v, value in zip(event.vbl, t):
            var = system.variables[v]
            if not 0 <= value < var.range_size:
                raise ModelError(
                    f"event {event.index}: value {value} out of range for x{v}")
            p *= var.distribution[value]
        total += p
    return total


@dataclass(frozen=True)
class LLLParams:
    """Per-event weights z_i in (0,1) plus a slack factor alpha in (0,1].

    alpha == 1 selects the plain finite condition; alpha < 1 the strengthened
    one required for event streams.
    """

    z: tuple[Fraction, ...]
    alpha: Fraction = ONE

    def __post_init__(self):
        z = tuple(as_fraction(x) for x in self.z)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        if any(not ZERO < x < ONE for x in z):
            raise ModelError("every z must lie strictly between 0 and 1")
        if not ZERO < self.alpha <= ONE:
            raise ModelError("alpha must lie in (0, 1]")

    @classmethod
    def constant(cls, z: Fraction, count: int, alpha: Fraction = ONE) -> "LLLParams":
        return cls((as_fraction(z),) * count, alpha)


@dataclass(frozen=True)
class StreamParams:
    """Event-indexed weights for an infinite family: z(i) computable per index."""

    z_of: Callable[[int], Fraction]
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        if not ZERO < self.alpha <= ONE:
            raise ModelError("alpha must lie in (0, 1]")

    @classmethod
    def constant(cls, z: Fraction, alpha: Fraction) -> "StreamParams":
        z = as_fraction(z)
        if not ZERO < z < ONE:
            raise ModelError("z must lie strictly between 0 and 1")
        return cls(lambda _i: z, alpha)


@dataclass(frozen=True)
class ConditionEntry:
    index: int
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


@dataclass(frozen=True)
class ConditionReport:
    entries: tuple[ConditionEntry, ...]
    alpha: Fraction
    avoid_bound: Fraction

    @property
    def holds(self) -> bool:
        return all(e.holds for e in self.entries)


def _complement_product(counts: Counter) -> Fraction:
    """prod (1 - z)^count over weights z keyed as (numerator, denominator)."""
    product = ONE
    for (num, den), count in counts.items():
        product *= (ONE - Fraction(num, den)) ** count
    return product


def check_lll(system: ConstraintSystem, params: LLLParams) -> ConditionReport:
    """Per-event exact check at the params' own alpha,

        Pr[A_i] <= alpha * z_i * prod_{j in N(i), j != i} (1 - z_j):

    the plain condition when alpha is 1, the strengthened one when alpha < 1.

    The report also carries prod_i (1 - z_i), the guaranteed lower bound on
    the mass of assignments avoiding every event when the condition holds.
    """
    if len(params.z) != len(system.events):
        raise ModelError(
            f"got {len(params.z)} weights for {len(system.events)} events")
    # a right-hand side depends only on the event's signature: its own weight
    # and the multiset of its proper neighbours' weights, so it is formed once
    # per signature; pairs hash faster than Fractions
    keys = [(z.numerator, z.denominator) for z in params.z]
    rhs_of: dict[tuple, Fraction] = {}
    entries = []
    for i, ev in enumerate(system.events):
        counts = Counter(keys[j] for j in system.neighbor_sets[i] if j != i)
        signature = (keys[i], frozenset(counts.items()))
        if signature not in rhs_of:
            rhs_of[signature] = (params.alpha * params.z[i]
                                 * _complement_product(counts))
        entries.append(ConditionEntry(i, event_probability(ev, system),
                                      rhs_of[signature]))
    return ConditionReport(tuple(entries), params.alpha,
                           _complement_product(Counter(keys)))


def expected_steps_bound(z: Sequence[Fraction]) -> Fraction:
    """Sum of z_i/(1-z_i) over the events."""
    return sum((zi / (ONE - zi) for zi in map(as_fraction, z)), ZERO)


_ENUM_GUARD = 1 << 22


def _avoiders(system: ConstraintSystem) -> Iterator[tuple[int, ...]]:
    """Brute-force scan: every assignment under which no event is true."""
    space = 1
    for var in system.variables:
        space *= var.range_size
    if space > _ENUM_GUARD:
        raise BudgetRefused(
            f"assignment space of size {space} exceeds guard {_ENUM_GUARD}")
    n_events = len(system.events)
    for assignment in system.assignments():
        if not any(system.is_true(i, assignment) for i in range(n_events)):
            yield assignment


def avoiding_probability(system: ConstraintSystem) -> Fraction:
    """Exact mass of assignments under which no event is true.

    Brute-force enumeration over the full assignment space; desk scale only.
    """
    return sum((system.assignment_probability(a)
                for a in _avoiders(system)), ZERO)


def avoiding_assignments(system: ConstraintSystem) -> list[tuple[int, ...]]:
    """All assignments avoiding every event, by brute force (desk scale)."""
    return list(_avoiders(system))
