"""Exhaustive run enumeration over explicit coin strings.

Instead of materializing all 2^budget tapes, the driver explores the
computation prefix tree: a run is re-executed on a bit prefix and branches
only where it actually demands another coin. Each leaf therefore carries an
exact dyadic weight, and weights of leaves sum to one. Runs that would need
more than `bit_budget` coins are reported as unresolved mass.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import BudgetRefused, EngineError, TapeExhausted
from .model import ConstraintSystem, event_probability
from .engine import EXHAUSTED, SATISFIED, ResampleLog, Step, run_finite
from .tape import Tape
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


def enumerate_runs(system: ConstraintSystem, bit_budget: int,
                   step_guard: int | None = None,
                   branch_guard: int = DEFAULT_BRANCH_GUARD) -> Iterator[Branch]:
    """Depth-first enumeration of all run branches up to `bit_budget` coins.

    A leaf is resolved when the run finished having consumed exactly its
    prefix; unresolved leaves carry the partial log available at cutoff.
    """
    if step_guard is None:
        # each resample consumes at least one coin unless a variable is
        # deterministic; the extra headroom covers those
        step_guard = bit_budget + len(system.variables) + 8
    visited = 0
    stack = [""]
    while stack:
        prefix = stack.pop()
        visited += 1
        if visited > branch_guard:
            raise BudgetRefused(
                f"branch guard {branch_guard} exceeded during enumeration")
        tape = Tape(bits=prefix)
        try:
            result = run_finite(system, tape, step_guard)
        except TapeExhausted as exc:
            if len(prefix) < bit_budget:
                stack.append(prefix + "1")
                stack.append(prefix + "0")
            else:
                yield Branch(prefix, Fraction(1, 2 ** len(prefix)), False,
                             EXHAUSTED, exc.partial_assignment,
                             exc.partial_log, exc.in_flight_event)
            continue
        # the run ended; every coin of the prefix was demanded by construction
        if tape.bit_cursor != len(prefix):
            raise EngineError(
                f"run on prefix {prefix!r} ended after {tape.bit_cursor} "
                f"of its {len(prefix)} coins")
        resolved = result.status == SATISFIED
        yield Branch(prefix, Fraction(1, 2 ** len(prefix)), resolved,
                     result.status, result.assignment, result.log)


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

    With want_trees=False only output masses are collected (cheaper; used
    by the output-distribution oracle).

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

    for branch in enumerate_runs(system, bit_budget, step_guard, branch_guard):
        branch_count += 1
        appeared: set = set()
        if want_trees and branch.log is not None and branch.log.steps:
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
            if not want_trees:
                continue
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
