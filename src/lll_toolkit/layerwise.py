"""Layerwise machinery: effective stability horizons for output cells, exact
output-distribution intervals, and extraction of computable branches from
lower-approximable distributions.

Both extractors run one dovetail: for each cell, precision rounds n = 1, 2,
... look for a child whose lower bound passes the extractor's test. A round
without one after which the oracle's coin guard fixes every bound refuses
(`BudgetRefused`), and EXTRACTION_ROUNDS futile rounds at one prefix raise
`ExtractionTimeout`. The solver's output measure, `SystemQOracle`, keeps one
census, its highest, and reads q_n(u) at every lower coin budget off it, so
q_n(u) depends on u and n alone and rises with n.

The horizon certificate for a cell combines two exactly-checked tail bounds:
a step count t after which the first k events are all false except with small
probability (Markov on the expected-steps bound), and a tree-size bound
showing that a later resampling of any event touching the cell requires a
witness tree of at least m vertices, which the strengthened condition makes
(z/(1-z)) * alpha^m unlikely.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import ceil
from typing import Iterator, Optional, Protocol, Sequence

from .errors import (BudgetRefused, ContractViolation, ExtractionTimeout,
                     FamilyError, ModelError, VerificationError)
from .model import (ConstraintSystem, LLLParams, ONE, StreamParams, ZERO,
                    as_fraction, expected_steps_bound)
from .tape import Tape
from .engine import SATISFIED, run_finite, suggested_max_steps
from .exhaustive import DEFAULT_BRANCH_GUARD, RunCensus, census_runs
from .families import InfiniteFamily
from .formats import format_rational
from .intervals import least

DEFAULT_BIT_GUARD = 40
# exact prefixes at the command line and exact avoidance refuse past this
# many census branches, long before a census can outgrow memory
PREFIX_BRANCH_GUARD = 1 << 18
_BALL_GUARD = 100_000


def _start_bits(system: ConstraintSystem) -> int:
    """First coin budget of a census: two coins per variable, >= 8."""
    return max(8, 2 * len(system.variables))


@dataclass(frozen=True)
class HorizonTerm:
    """Derivation record for one event touching the cell."""

    event: int
    m: int        # minimal tree size with (z/(1-z)) * alpha^m <= budget share
    k: int        # prefix covering the radius-m neighbor ball of the event
    t: int        # Markov step bound for that prefix


@dataclass(frozen=True)
class StabilityCertificate:
    """After step N the cell changes with probability at most delta."""

    cell: int
    delta: Fraction
    N: int
    terms: tuple[HorizonTerm, ...]
    budget_share: Fraction  # delta / (2 * number of events touching the cell)

    def to_line(self) -> str:
        """Text record with the derivation of the binding term."""
        if self.terms:
            worst = max(self.terms, key=lambda t: t.t)
            m, k = worst.m, worst.k
        else:
            m = k = 0
        return (f"cell={self.cell} delta={format_rational(self.delta)} "
                f"N={format_rational(self.N)} m={m} k={k}")

    def total_bound(self, params: StreamParams) -> Fraction:
        """Exact sum of both tail terms over all events; must be <= delta."""
        total = ZERO
        for term in self.terms:
            z = as_fraction(params.z_of(term.event))
            total += z / (ONE - z) * params.alpha ** term.m
            if term.t > 0:
                bound = expected_steps_bound(
                    [params.z_of(i) for i in range(term.k)])
                total += bound / term.t
        return total


def _neighbor_ball(family: InfiniteFamily, event: int, radius: int) -> set[int]:
    ball = {event}
    frontier = [event]
    for _ in range(radius):
        new = []
        for e in frontier:
            for j in family.neighbors_of_event(e):
                if j not in ball:
                    ball.add(j)
                    new.append(j)
                    if len(ball) > _BALL_GUARD:
                        raise FamilyError(
                            f"neighbor ball around event {event} exceeds "
                            f"{_BALL_GUARD} events")
        frontier = new
    return ball


def stability_horizon(family: InfiniteFamily, params: StreamParams, cell: int,
                      delta) -> StabilityCertificate:
    """Certified step count N with Pr[cell changes after step N] <= delta.

    The delta budget is split evenly: each event touching the cell gets
    delta/(2*count) for its tree-size term and the same for its Markov term.
    All the defining inequalities are checked in exact rational arithmetic.
    Tree sizes past the neighbor ball guard are refused (`BudgetRefused`).
    """
    if cell < 0:
        raise ModelError(f"cell must be >= 0, got {cell}")
    delta = as_fraction(delta)
    if delta <= ZERO:
        raise ModelError("delta must be positive")
    if delta >= ONE:
        return StabilityCertificate(cell, delta, 0, (), delta)
    if params.alpha >= ONE:
        raise ModelError("stability horizons require alpha < 1")
    touching = family.events_of_variable(cell)
    if not touching:
        return StabilityCertificate(cell, delta, 0, (), delta)
    share = delta / (2 * len(touching))
    terms = []
    horizon = 0
    for j in touching:
        zj = as_fraction(params.z_of(j))
        ratio = zj / (ONE - zj)
        m = least(lambda m: ratio * params.alpha ** m <= share, 0,
                  _BALL_GUARD)
        if m is None:
            raise BudgetRefused(
                f"event {j}: no tree size m <= {_BALL_GUARD} (the neighbor "
                "ball guard) meets its share of delta")
        ball = _neighbor_ball(family, j, m)
        k = max(ball) + 1
        bound = expected_steps_bound([params.z_of(i) for i in range(k)])
        t = ceil(bound / share) if bound > ZERO else 0
        terms.append(HorizonTerm(j, m, k, t))
        horizon = max(horizon, t)
    cert = StabilityCertificate(cell, delta, horizon, tuple(terms), share)
    if cert.total_bound(params) > delta:
        raise ModelError("internal: certificate bound exceeds delta")  # pragma: no cover
    return cert


def approx_output_distribution(system: ConstraintSystem, prefix: Sequence[int],
                               delta) -> tuple[Fraction, Fraction]:
    """An interval [lo, hi] containing the probability that the final
    assignment starts with `prefix`, with hi - lo <= delta.

    Runs the full computation tree over explicit coins, deepening the coin
    budget until the unresolved mass (which is all that separates hi from
    lo) is small enough; refuses rather than approximate past the guards.
    The budget starts at `_start_bits(system)`, or at `DEFAULT_BIT_GUARD`
    if that is lower, and doubles up to that guard: no census reads more
    coins. For other guards, ask a `SystemQOracle` built with them.
    """
    delta = as_fraction(delta)
    if delta <= ZERO:
        raise ModelError("delta must be positive")
    prefix = tuple(prefix)
    if len(prefix) > len(system.variables):
        raise ModelError("prefix longer than the variable list")
    for pos, value in enumerate(prefix):
        if not 0 <= value < system.variables[pos].range_size:
            raise ModelError(f"prefix value {value} out of range at cell {pos}")
    return SystemQOracle(system).interval(prefix, delta)


class QOracle(Protocol):
    """Lower approximations q_n(u) of a tree measure q(u), non-decreasing in n."""

    def lower_bound(self, prefix: tuple[int, ...], n: int) -> Fraction: ...

    def arity(self, position: int) -> int: ...

    def guard(self, n: int) -> Optional[int]:
        """The coin guard that fixes every lower bound from round n on, or
        None while a later round can still raise one."""


class TableQOracle:
    """A finite-support binary measure with the schedule q_n = q * n/(n+1).

    `atoms` maps infinite 0/1 branches to masses, each branch given by a
    non-empty pattern repeated forever ("01" is 0101...); q(u) sums the
    atoms whose branch extends u. It is a dict or a sequence of (pattern,
    mass) pairs, in which the masses of equal patterns add. Masses are
    >= 0 and sum to at most 1.
    """

    def __init__(self, atoms: dict[str, Fraction]
                 | Sequence[tuple[str, Fraction]]):
        pairs = atoms.items() if isinstance(atoms, dict) else atoms
        self.atoms: dict[str, Fraction] = {}
        for pattern, mass in pairs:
            mass = as_fraction(mass)
            if not pattern or set(pattern) - {"0", "1"}:
                raise ModelError(f"atom pattern {pattern!r} is not a "
                                 f"non-empty string of 0s and 1s")
            if mass < ZERO:
                raise ModelError(f"atom {pattern} has negative mass "
                                 f"{format_rational(mass)}")
            self.atoms[pattern] = self.atoms.get(pattern, ZERO) + mass
        total = sum(self.atoms.values(), ZERO)
        if total > ONE:
            raise ModelError(f"atom masses sum to {format_rational(total)}, "
                             "more than 1")

    def arity(self, position: int) -> int:
        return 2

    def guard(self, n: int) -> Optional[int]:
        return None

    def _branch_value(self, pattern: str, position: int) -> int:
        return int(pattern[position % len(pattern)])

    def measure(self, prefix: tuple[int, ...]) -> Fraction:
        total = ZERO
        for pattern, mass in self.atoms.items():
            if all(self._branch_value(pattern, i) == v
                   for i, v in enumerate(prefix)):
                total += mass
        return total

    def lower_bound(self, prefix: tuple[int, ...], n: int) -> Fraction:
        return self.measure(prefix) * Fraction(n, n + 1)


class SystemQOracle:
    """The solver's output distribution as a lower-approximable measure.

    q(u) is the probability that the final assignment starts with u;
    q_n(u) is the resolved mass at coin budget `_start_bits(system) + 4n`
    (at most `bit_guard`), which can only grow with the budget. The oracle
    keeps one census, its highest, and reads the mass at every budget up to
    it off that census (`RunCensus.prefix_mass`), for its lower bounds and
    intervals alike, so q_n(u) depends on u and n alone.
    """

    def __init__(self, system: ConstraintSystem,
                 bit_guard: int = DEFAULT_BIT_GUARD,
                 branch_guard: int = DEFAULT_BRANCH_GUARD):
        self.system = system
        self.base_bits = _start_bits(system)
        self.bit_guard = bit_guard
        self.branch_guard = branch_guard
        self._top: Optional[RunCensus] = None

    def arity(self, position: int) -> int:
        return self.system.variables[position].range_size

    def guard(self, n: int) -> Optional[int]:
        return self.bit_guard if self._budget(n) == self.bit_guard else None

    def _budget(self, n: int) -> int:
        return min(self.bit_guard, self.base_bits + 4 * n)

    def _mass(self, prefix: tuple[int, ...], budget: int) -> Fraction:
        """The resolved mass of `prefix` at `budget` coins, off a new
        highest census if the budget passes the one kept."""
        top = self._top
        if top is None or budget > top.bit_budget:
            self._top = top = census_runs(
                self.system, budget, branch_guard=self.branch_guard,
                want_trees=False)
        return top.prefix_mass(prefix, budget)

    def lower_bound(self, prefix: tuple[int, ...], n: int) -> Fraction:
        return self._mass(prefix, self._budget(n))

    def interval(self, prefix: tuple[int, ...],
                 delta: Fraction) -> tuple[Fraction, Fraction]:
        """The interval of `approx_output_distribution` off this oracle's
        censuses: from min(bit_guard, `_start_bits`) coins, doubling up to
        the guard."""
        budget = min(self.bit_guard, self.base_bits)
        while True:
            unresolved = 1 - self._mass((), budget)
            if unresolved <= delta:
                lo = self._mass(prefix, budget)
                return lo, lo + unresolved
            if budget >= self.bit_guard:
                raise BudgetRefused(
                    f"cannot reach width {format_rational(delta)} within "
                    f"{self.bit_guard} coins (unresolved mass "
                    f"{format_rational(unresolved)})")
            budget = min(self.bit_guard, budget * 2)


# futile rounds at one prefix after which extraction gives up
EXTRACTION_ROUNDS = 256


def _dovetail(q: QOracle, prefix: tuple[int, ...], pick,
              wanted: str) -> Iterator[tuple[int, Fraction]]:
    """Extend `prefix` one cell at a time, yielding the (cell, lower bound)
    that `pick(prefix, n)` returns in round n, or None; a refusal or a
    timeout reports "no child {wanted}"."""
    while True:
        for n in range(1, EXTRACTION_ROUNDS + 1):
            found = pick(prefix, n)
            if found is not None:
                break
            guard = q.guard(n)
            if guard is not None:
                raise BudgetRefused(
                    f"no child {wanted} within the coin guard of {guard} "
                    f"coins at prefix {prefix}")
        else:
            raise ExtractionTimeout(
                f"no child {wanted} within {EXTRACTION_ROUNDS} rounds "
                f"at prefix {prefix}")
        prefix += (found[0],)
        yield found


def extract_from_positive_probability(q: QOracle, r,
                                      w: Sequence[int] = ()) -> Iterator[int]:
    """Stream the branch through w whose measure exceeds the threshold r.

    Valid when the target branch has measure > r and q(w) < 2r: at each
    prefix exactly one child's measure can exceed r (two would push the
    parent past 2r), so dovetailing the children's lower bounds with rising
    precision pins down the next cell. The 2r precondition is watched
    opportunistically and a contract violation aborts the stream. The
    stream has no end: callers take as many cells as they need. A threshold
    that is not positive is refused at the call, before any cell.
    """
    r = as_fraction(r)
    if r <= ZERO:
        raise ModelError("threshold r must be positive")
    text = format_rational(r)

    def too_heavy(prefix, bound):
        if bound > 2 * r:
            raise ContractViolation(
                f"q({''.join(map(str, prefix))or 'empty'}) exceeds "
                f"2r = {format_rational(2 * r)}")

    def heavy_child(prefix, n):
        too_heavy(prefix, q.lower_bound(prefix, n))
        winners = [(a, bound) for a in range(q.arity(len(prefix)))
                   if (bound := q.lower_bound(prefix + (a,), n)) > r]
        if len(winners) > 1:
            raise ContractViolation(
                f"two children exceed r = {text} at prefix {prefix}")
        if not winners:
            return None
        # the next cell starts again at round 1: watch the bound that
        # picked this one, which only an oracle that is not a measure can
        # raise past its parent's
        too_heavy(prefix + winners[0][:1], winners[0][1])
        return winners[0]

    return (cell for cell, _ in _dovetail(q, tuple(w), heavy_child,
                                          f"exceeded r = {text}"))


def _positive_cells(q: QOracle) -> Iterator[tuple[int, Fraction]]:
    """The positive branch as (cell, its first positive lower bound)."""

    def first_positive_child(prefix, n):
        for a in range(q.arity(len(prefix))):
            bound = q.lower_bound(prefix + (a,), n)
            if bound > ZERO:
                return a, bound
        return None

    return _dovetail(q, (), first_positive_child, "with positive lower bound")


def extract_positive_branch(q: QOracle) -> Iterator[int]:
    """Stream a branch along which the measure stays provably positive.

    Dovetail schedule: precision rounds ascending, children in value order
    within a round; the first child with a strictly positive lower bound is
    emitted. The stream has no end.
    """
    for cell, _ in _positive_cells(q):
        yield cell


@dataclass(frozen=True)
class PrefixResult:
    """Cells 0..L-1 of an assignment, with either a certificate or a report.

    Exact mode: `cell_bounds[i]` is a proven positive lower bound on the
    output mass extending values[:i+1], and `interval` encloses the mass of
    the full returned prefix within the requested width. Any event fully
    decided by the prefix is false under it.

    Empirical mode: `frequencies[i]` is the fraction of trials whose final
    value at cell i equals values[i]; a confidence report, not a proof.
    """

    values: tuple[int, ...]
    mode: str
    cell_bounds: tuple[Fraction, ...] = ()
    interval: Optional[tuple[Fraction, Fraction]] = None
    frequencies: tuple[Fraction, ...] = ()
    trials: int = 0


def compute_assignment_prefix(system: ConstraintSystem,
                              params: Optional[LLLParams], L: int,
                              mode: str = "exact", *, delta=Fraction(1, 64),
                              trials: int = 2000, seed: int = 0,
                              max_steps: int | None = None,
                              bit_guard: int = DEFAULT_BIT_GUARD,
                              branch_guard: int = DEFAULT_BRANCH_GUARD) -> PrefixResult:
    """Values of cells 0..L-1 of an avoiding assignment of `system`.

    For an infinite family, pass `family.materialize(k)`. Exact mode takes
    the first L cells of the positive branch of the output measure, each
    with the lower bound that certified it, and an interval of width at
    most `delta` around the mass of the whole prefix (at L = 0, around the
    resolved mass of all outputs). Both come from one `SystemQOracle`: the
    interval deepens its budget as `approx_output_distribution` does, and
    each budget at or below the oracle's highest census is read off that
    census rather than run again. Empirical mode reruns the solver over
    seeded tapes, for `max_steps` steps or else `suggested_max_steps(params)`
    as `lll solve` does, and reports majority values with their stability
    frequencies.
    """
    if L < 0:
        raise ModelError("prefix length must be >= 0")
    if L > len(system.variables):
        raise ModelError("prefix longer than the variable list")

    if mode == "exact":
        delta = as_fraction(delta)
        if delta <= ZERO:
            raise ModelError("delta must be positive")
        oracle = SystemQOracle(system, bit_guard=bit_guard,
                               branch_guard=branch_guard)
        cells = list(islice(_positive_cells(oracle), L))
        values = tuple(cell for cell, _ in cells)
        interval = oracle.interval(values, delta)
        for i, event in enumerate(system.events):
            if event.vbl[-1] < L and system.is_true(i, values):
                raise VerificationError(
                    f"internal: decided event {i} true under the prefix")
        return PrefixResult(values, mode, tuple(bound for _, bound in cells),
                            interval)

    if mode == "empirical":
        if L == 0:
            return PrefixResult((), mode)
        if trials <= 0:
            raise ModelError("empirical mode needs a positive trial count")
        if max_steps is None:
            if params is not None:
                max_steps = suggested_max_steps(params)
            else:
                raise ModelError("empirical mode needs params or max_steps")
        counts = [dict() for _ in range(L)]
        for trial in range(trials):
            result = run_finite(system, Tape(seed=seed + trial), max_steps)
            if result.status != SATISFIED:
                continue
            for cell in range(L):
                v = result.assignment[cell]
                counts[cell][v] = counts[cell].get(v, 0) + 1
        values = []
        freqs = []
        for cell in range(L):
            if not counts[cell]:
                raise VerificationError(
                    "no trial reached a satisfying assignment; "
                    "raise max_steps or trials")
            v, n = max(counts[cell].items(), key=lambda kv: (kv[1], -kv[0]))
            values.append(v)
            freqs.append(Fraction(n, trials))
        return PrefixResult(tuple(values), mode, frequencies=tuple(freqs),
                            trials=trials)

    raise ModelError(f"unknown mode {mode!r}")
