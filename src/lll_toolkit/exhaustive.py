"""Exhaustive run exploration over explicit coin strings.

Instead of materializing all 2^budget tapes, the driver explores the
computation prefix tree: a draw inverts its interval of coins read so far
and forks the run only where it actually demands another coin. Each leaf
therefore carries an exact dyadic weight, and weights of leaves sum to one.
Runs that would need more than `bit_budget` coins are reported as
unresolved mass.

Two explorations share that draw. `enumerate_runs` walks the tree depth
first and carries each run's state (assignment, log, draw in flight) into
both children of a coin, so every leaf comes with its log. The census
without trees needs outputs only: a run's future depends on its assignment
and coins used alone, so it sweeps resample levels forward, merging equal
states and counting the coin paths that reach each one.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import BudgetRefused, EngineError, ModelError
from .model import ConstraintSystem, event_probability
from .engine import (BUDGET_EXCEEDED, EXHAUSTED, SATISFIED, ResampleLog,
                     Step)
from .tape import Sampler
from .witness import (WitnessTree, build_witness_tree,
                      tape_positions_by_vertex, trees_for_run)

DEFAULT_BRANCH_GUARD = 1 << 26


@dataclass(frozen=True)
class Branch:
    """One leaf of the computation prefix tree.

    `in_flight_event` is the event whose resampling was cut off by the coin
    budget, if any; its completed step would precede anything an extension
    of this branch logs.
    """

    bits: str
    weight: Fraction
    resolved: bool
    status: str
    assignment: Optional[tuple[int, ...]]
    log: Optional[ResampleLog]
    in_flight_event: Optional[int] = None


def _draw_paths(sampler: Sampler, coins_left: int) -> tuple[dict, int]:
    """Every coin path of one draw within `coins_left` coins: the number of
    paths per (value, coins read), and the number cut off by the budget."""
    settled: dict = {}
    cut = 0
    stack = [(0, 0)]
    while stack:
        a, d = stack.pop()
        value = sampler.settle(a, d)
        if value is not None:
            settled[value, d] = settled.get((value, d), 0) + 1
        elif d < coins_left:
            stack.append((2 * a, d + 1))
            stack.append((2 * a + 1, d + 1))
        else:
            cut += 1
    return settled, cut


def _first_true(system: ConstraintSystem):
    """The minimal-index true event of an assignment tuple (None if none),
    as `run_finite` picks it; memoized per assignment."""
    cache: dict = {}
    events = range(len(system.events))

    def first(assignment: tuple[int, ...]) -> Optional[int]:
        if assignment not in cache:
            cache[assignment] = next(
                (e for e in events if system.is_true(e, assignment)), None)
        return cache[assignment]
    return first


def _step_guard(system: ConstraintSystem, bit_budget: int,
                step_guard: int | None) -> int:
    if bit_budget < 0:
        raise ModelError("bit_budget must be >= 0")
    if step_guard is None:
        # each resample consumes at least one coin unless a variable is
        # deterministic; the extra headroom covers those
        return bit_budget + len(system.variables) + 8
    if step_guard < 0:
        raise ModelError("step_guard must be >= 0")
    return step_guard


def _refuse(branch_guard: int) -> None:
    raise BudgetRefused(
        f"branch guard {branch_guard} exceeded during enumeration")


class _Run:
    """A resampling run paused where its draw in flight demands a coin.

    `seq` lists the variables of the current phase (all of them while
    initializing, else the vbl of `event`), `todo` indexes the one in
    flight, whose coins so far give the interval [a/2^d, (a+1)/2^d).
    """

    __slots__ = ("assignment", "initial", "steps", "consumed", "event",
                 "seq", "todo", "draws", "a", "d")

    def __init__(self, system: ConstraintSystem):
        self.assignment: list[int] = []
        self.initial: Optional[tuple[int, ...]] = None
        self.steps: tuple[Step, ...] = ()
        self.consumed = [0] * len(system.variables)
        self.event: Optional[int] = None
        self.seq = range(len(system.variables))
        self.todo = 0
        self.draws: list = []
        self.a = self.d = 0

    def fork(self, bit: int) -> "_Run":
        """A copy that has read `bit` as its next coin."""
        run = object.__new__(_Run)
        run.assignment = self.assignment.copy()
        run.initial = self.initial
        run.steps = self.steps
        run.consumed = self.consumed.copy()
        run.event = self.event
        run.seq = self.seq
        run.todo = self.todo
        run.draws = self.draws.copy()
        run.a = 2 * self.a + bit
        run.d = self.d + 1
        return run

    def advance(self, system, step_guard, first_true) -> Optional[str]:
        """Run on until the next coin demand (None) or the end (status)."""
        while True:
            if self.todo < len(self.seq):
                v = self.seq[self.todo]
                value = system.samplers[v].settle(self.a, self.d)
                if value is None:
                    return None
                self.a = self.d = 0
                self.todo += 1
                if self.event is None:
                    self.assignment.append(value)
                else:
                    self.assignment[v] = value
                    self.draws.append((v, self.consumed[v], value))
                self.consumed[v] += 1
                continue
            if self.event is None:
                self.initial = tuple(self.assignment)
            else:
                self.steps += (Step(len(self.steps) + 1, self.event,
                                    tuple(self.draws)),)
            event = first_true(tuple(self.assignment))
            if event is None:
                return SATISFIED
            if len(self.steps) >= step_guard:
                return BUDGET_EXCEEDED
            self.event = event
            self.seq = system.events[event].vbl
            self.todo = 0
            self.draws = []

    def log(self) -> Optional[ResampleLog]:
        if self.initial is None:
            return None
        return ResampleLog(self.initial, self.steps)


def enumerate_runs(system: ConstraintSystem, bit_budget: int,
                   step_guard: int | None = None,
                   branch_guard: int = DEFAULT_BRANCH_GUARD) -> Iterator[Branch]:
    """Depth-first enumeration of all run branches up to `bit_budget` coins,
    in lexicographic order of their coin strings.

    A leaf is resolved when its run is satisfied; unresolved leaves carry
    the partial assignment and log available at cutoff. Refuses once more
    than `branch_guard` prefix-tree nodes are visited.
    """
    step_guard = _step_guard(system, bit_budget, step_guard)
    first_true = _first_true(system)
    visited = 0
    stack = [("", _Run(system))]
    while stack:
        prefix, run = stack.pop()
        visited += 1
        if visited > branch_guard:
            _refuse(branch_guard)
        status = run.advance(system, step_guard, first_true)
        weight = Fraction(1, 1 << len(prefix))
        if status is not None:
            yield Branch(prefix, weight, status == SATISFIED, status,
                         tuple(run.assignment), run.log())
        elif len(prefix) < bit_budget:
            stack.append((prefix + "1", run.fork(1)))
            stack.append((prefix + "0", run.fork(0)))
        else:
            yield Branch(prefix, weight, False, EXHAUSTED,
                         tuple(run.assignment), run.log(), run.event)


@dataclass(frozen=True)
class TreeAppearance:
    """Exact within-horizon appearance mass for one witness tree.

    p_low is the exact probability that the tree shows up within the
    enumerated horizon; pending is the unresolved mass in whose extensions
    the tree could still appear for the first time (a sound upper-bound
    complement: the true appearance probability lies in
    [p_low, p_low + pending]).
    """

    tree: WitnessTree
    p_low: Fraction
    pending: Fraction


@dataclass
class RunCensus:
    appearances: dict  # canon -> TreeAppearance
    resolved_mass: Fraction
    unresolved_mass: Fraction
    branch_count: int
    output_mass: dict  # assignment tuple -> Fraction, resolved branches only

    def __post_init__(self):
        if self.resolved_mass + self.unresolved_mass != 1:
            raise EngineError(
                f"census masses sum to "
                f"{self.resolved_mass + self.unresolved_mass}, not 1")

    def prefix_mass(self, prefix: tuple[int, ...]) -> Fraction:
        """Resolved mass of outputs whose first cells equal `prefix`."""
        n = len(prefix)
        total = Fraction(0)
        for assignment, weight in self.output_mass.items():
            if assignment[:n] == prefix:
                total += weight
        return total

    def appearance_list(self) -> list[TreeAppearance]:
        return sorted(self.appearances.values(),
                      key=lambda a: (-a.p_low, a.tree.canonical_line()))


def _components(system: ConstraintSystem) -> list[frozenset[int]]:
    """Connected components of the event neighbor graph."""
    seen: set[int] = set()
    out = []
    for start in range(len(system.events)):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            e = frontier.pop()
            for j in system.neighbor_sets[e]:
                if j not in comp:
                    comp.add(j)
                    frontier.append(j)
        seen |= comp
        out.append(frozenset(comp))
    return out


def census_runs(system: ConstraintSystem, bit_budget: int,
                step_guard: int | None = None,
                branch_guard: int = DEFAULT_BRANCH_GUARD,
                want_trees: bool = True) -> RunCensus:
    """Tally witness-tree appearances and outputs over all run branches.

    With want_trees=False only output masses are collected, by a forward
    sweep over resample levels (used by the output-distribution oracle).
    A run's future depends only on its assignment, the coins it has read
    and, through the step guard, its resample count; all runs of a level
    share the count, so runs there with equal assignment and coins merge
    into one state carrying the number of coin paths that reach it. Masses
    stay integers in units of 2^-budget until the end. The branch count and
    the guard are those of the prefix tree, whose visited nodes number
    2 * leaves - 1.

    With want_trees=True the census walks `enumerate_runs`, since witness
    trees need each branch's log.
    """
    step_guard = _step_guard(system, bit_budget, step_guard)
    if want_trees:
        return _tree_census(system, enumerate_runs(system, bit_budget,
                                                   step_guard, branch_guard))
    first_true = _first_true(system)
    paths: dict = {}
    leaves = unresolved = 0
    resolved: dict = {}  # assignment -> units

    def guard(pending: int) -> None:
        # every pending path ends in at least one leaf
        if 2 * (leaves + pending) - 1 > branch_guard:
            _refuse(branch_guard)

    def draw(states: dict, variables) -> dict:
        """Run every state through draws of `variables`, in order."""
        nonlocal leaves, unresolved
        for v in variables:
            out: dict = {}
            for (assignment, coins), n in states.items():
                key = (v, bit_budget - coins)
                if key not in paths:
                    paths[key] = _draw_paths(system.samplers[v],
                                             bit_budget - coins)
                settled, cut = paths[key]
                leaves += n * cut
                unresolved += n * cut
                for (value, used), k in settled.items():
                    state = (assignment[:v] + (value,) + assignment[v + 1:],
                             coins + used)
                    out[state] = out.get(state, 0) + n * k
            states = out
            guard(sum(states.values()))
        return states

    # initialization draws every variable, in order, over placeholder zeros
    n_vars = len(system.variables)
    frontier = draw({((0,) * n_vars, 0): 1}, range(n_vars))
    level = 0
    while frontier:
        by_event: dict = {}
        for (assignment, coins), n in frontier.items():
            event = first_true(assignment)
            units = n << (bit_budget - coins)
            if event is None:
                leaves += n
                resolved[assignment] = resolved.get(assignment, 0) + units
            elif level >= step_guard:
                leaves += n
                unresolved += units
            else:
                by_event.setdefault(event, {})[assignment, coins] = n
        frontier = {}
        for event, states in by_event.items():
            for state, n in draw(states, system.events[event].vbl).items():
                frontier[state] = frontier.get(state, 0) + n
        level += 1
    guard(0)
    total = 1 << bit_budget
    output_mass = {a: Fraction(u, total) for a, u in resolved.items()}
    return RunCensus({}, Fraction(sum(resolved.values()), total),
                     Fraction(unresolved, total), leaves, output_mass)


def _tree_census(system: ConstraintSystem, branches) -> RunCensus:
    """The census with trees over the branches of a prefix-tree walk.

    For each unresolved branch the census works out which trees could still
    appear for the first time in an extension: the tree's root must be
    reachable (neighbor-connected to a currently-true event) and the tree
    must contain, label for label, the base tree a hypothetical next
    resampling of that root would inherit from the branch's history. Mass of
    branches failing those filters cannot contribute, so it is excluded from
    `pending`.

    Surviving charges are further discounted: a tree appearing in an
    extension pins the values of table cells it determines, and any vertex
    all of whose relevant cells lie beyond the branch's consumption must
    still hit its forbidden set with fresh coins, contributing an
    independent factor Pr[A_label].
    """
    components = _components(system)
    comp_of = {}
    for comp in components:
        for e in comp:
            comp_of[e] = comp

    p_low: dict = {}
    trees_by_canon: dict = {}
    resolved_mass = Fraction(0)
    unresolved_mass = Fraction(0)
    branch_count = 0
    output_mass: dict = {}
    # per unresolved branch:
    # (weight, {root: (base_counter, min_size)}, appeared canons, consumed_ub)
    pending_info: list[tuple[Fraction, dict, set, Optional[dict]]] = []

    for branch in branches:
        branch_count += 1
        appeared: set = set()
        if branch.log is not None and branch.log.steps:
            for tree in trees_for_run(branch.log, system):
                canon = tree.canon()
                appeared.add(canon)
                trees_by_canon.setdefault(canon, tree)
                p_low[canon] = p_low.get(canon, Fraction(0)) + branch.weight
        if branch.resolved:
            resolved_mass += branch.weight
            key = branch.assignment
            output_mass[key] = output_mass.get(key, Fraction(0)) + branch.weight
        else:
            unresolved_mass += branch.weight
            bases: dict = {}
            consumed_ub: Optional[dict] = None
            if branch.assignment is not None and branch.log is not None:
                # upper bound on per-variable table consumption: one entry at
                # initialization, one per logged resample touching the
                # variable, plus one for the cut-off resampling in flight
                consumed_ub = {v: 1 for v in range(len(system.variables))}
                for step in branch.log.steps:
                    for v, _, _ in step.draws:
                        consumed_ub[v] += 1
                if branch.in_flight_event is not None:
                    for v in system.events[branch.in_flight_event].vbl:
                        consumed_ub[v] += 1
                in_flight = branch.in_flight_event
                reachable: set[int] = set()
                for e in range(len(system.events)):
                    if system.is_true(e, branch.assignment):
                        reachable |= comp_of[e]
                if in_flight is not None:
                    reachable |= comp_of[in_flight]
                history = branch.log.steps
                if in_flight is not None:
                    # the cut-off resampling completes before anything else
                    # an extension logs
                    history = history + (Step(len(history) + 1, in_flight, ()),)
                for root in reachable:
                    fake = ResampleLog(
                        branch.log.initial,
                        history + (Step(len(history) + 1, root, ()),))
                    base = build_witness_tree(fake, len(fake.steps), system)
                    min_size = base.size
                    flippable = (in_flight is not None
                                 and root in system.neighbor_sets[in_flight])
                    if not system.is_true(root, branch.assignment) and not flippable:
                        # some future neighbor resample must make root true
                        # first, and it would join the tree as well
                        min_size += 1
                    bases[root] = (base.label_counts(), min_size)
            else:
                # cut off during initialization: no filter information
                bases = {root: (Counter(), 1)
                         for root in range(len(system.events))}
            pending_info.append((branch.weight, bases, appeared, consumed_ub))

    event_probs = [event_probability(ev, system) for ev in system.events]
    appearances: dict = {}
    for canon, tree in trees_by_canon.items():
        counts = tree.label_counts()
        positions = tape_positions_by_vertex(tree, system)
        pending = Fraction(0)
        for weight, bases, appeared, consumed_ub in pending_info:
            if canon in appeared:
                continue
            entry = bases.get(tree.root_label)
            if entry is None:
                continue
            base_counts, min_size = entry
            if tree.size < min_size:
                continue
            if any(counts[label] < n for label, n in base_counts.items()):
                continue
            charge = weight
            if consumed_ub is not None:
                for v in range(tree.size):
                    # cell x^(p-1) holds the value that made the vertex's
                    # event true; if the whole before-tuple is beyond the
                    # branch's consumption it must still land forbidden
                    if all(p - 1 >= consumed_ub[var]
                           for var, p in positions[v].items()):
                        charge *= event_probs[tree.labels[v]]
            pending += charge
        appearances[canon] = TreeAppearance(tree, p_low[canon], pending)

    return RunCensus(appearances, resolved_mass, unresolved_mass,
                     branch_count, output_mass)


@dataclass(frozen=True)
class LemmaEntry:
    tree: WitnessTree
    p_low: Fraction
    pending: Fraction
    bound: Fraction

    @property
    def holds_within_horizon(self) -> bool:
        return self.p_low <= self.bound

    @property
    def certified(self) -> bool:
        return self.p_low + self.pending <= self.bound


@dataclass(frozen=True)
class LemmaReport:
    entries: tuple[LemmaEntry, ...]
    unresolved_mass: Fraction
    branch_count: int

    @property
    def holds_within_horizon(self) -> bool:
        return all(e.holds_within_horizon for e in self.entries)

    @property
    def certified(self) -> bool:
        return all(e.certified for e in self.entries)


def check_tree_lemma(system: ConstraintSystem, bit_budget: int,
                     branch_guard: int = DEFAULT_BRANCH_GUARD) -> LemmaReport:
    """Exact check that every appearing tree obeys the label-product bound."""
    from .witness import tree_probability_bound
    census = census_runs(system, bit_budget, branch_guard=branch_guard)
    entries = tuple(
        LemmaEntry(a.tree, a.p_low, a.pending,
                   tree_probability_bound(a.tree, system))
        for a in census.appearance_list())
    return LemmaReport(entries, census.unresolved_mass, census.branch_count)
