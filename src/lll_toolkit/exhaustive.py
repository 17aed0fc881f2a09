"""Exhaustive run exploration over explicit coin strings.

Instead of materializing all 2^budget tapes, the census explores the
computation prefix tree: a draw inverts its interval of coins read so far
and branches only where it actually demands another coin. Each leaf
therefore carries an exact dyadic weight, and weights of leaves sum to one.
Runs that would need more than `bit_budget` coins are reported as
unresolved mass.

One exploration serves both censuses. `census_runs` sweeps resample levels
forward, merging runs in equal states and counting the coin paths that
reach each one. A witness tree depends only on the sequence of resampled
events, never on the values drawn, so the census with trees groups states
by that sequence and builds each distinct history's tree once, straight
from the sequence, keeping an int id of its canon. A state is packed into one
int, each variable's value in a bit field of its own and the coins read
above them: a resample is one AND and one addition per entry of a joint
table of its redraws, and an event's truth one AND and one set lookup.
Each packed assignment's events are tested once; masses stay integer units
per packed assignment, and only the resolved outputs are unpacked, once read.
`enumerate_runs` lists the leaves one by one instead, re-executing the run
on each coin prefix.

A run that ends within b coins is the same run at every larger budget, so
a census keeps its resolved states by their coins read and the runs its
step guard stopped by theirs, and reads the census at any lower budget off
those tables (`RunCensus.at_budget`) instead of exploring again.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from typing import Iterator, Optional

from .errors import BudgetRefused, EngineError, ModelError, TapeExhausted
from .model import ConstraintSystem, event_probability
from .engine import EXHAUSTED, SATISFIED, ResampleLog, run_finite
from .tape import Sampler, Tape
from .witness import (WitnessTree, admit_tree, canon_line, check_root_grew,
                      label_counts_of_events, label_product,
                      tape_positions_by_vertex, tree_of_events)

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


def _step_guard(system: ConstraintSystem, bit_budget: int,
                step_guard: int | None, branch_guard: int) -> int:
    if bit_budget < 0:
        raise ModelError("bit_budget must be >= 0")
    if branch_guard < 1:
        raise ModelError("branch_guard must be >= 1")
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


def enumerate_runs(system: ConstraintSystem, bit_budget: int,
                   step_guard: int | None = None,
                   branch_guard: int = DEFAULT_BRANCH_GUARD) -> Iterator[Branch]:
    """Depth-first enumeration of all run branches up to `bit_budget` coins,
    in lexicographic order of their coin strings.

    Every node of the prefix tree re-runs `run_finite` from scratch on its
    coins; a run stopped by the end of its prefix branches on the next coin.
    A leaf is resolved when its run is satisfied; unresolved leaves carry
    the partial assignment and log available at cutoff. Refuses once more
    than `branch_guard` prefix-tree nodes are visited. The censuses do not
    call this: it is the per-branch view, for tests and tracing.
    """
    step_guard = _step_guard(system, bit_budget, step_guard, branch_guard)
    visited = 0
    stack = [""]
    while stack:
        prefix = stack.pop()
        visited += 1
        if visited > branch_guard:
            _refuse(branch_guard)
        weight = Fraction(1, 1 << len(prefix))
        tape = Tape(bits=prefix)
        try:
            result = run_finite(system, tape, step_guard)
        except TapeExhausted as exc:
            if len(prefix) < bit_budget:
                stack.append(prefix + "1")
                stack.append(prefix + "0")
            else:
                yield Branch(prefix, weight, False, EXHAUSTED,
                             exc.partial_assignment, exc.partial_log,
                             exc.in_flight_event)
            continue
        # the run ended; every coin of the prefix was demanded by construction
        if tape.bit_cursor != len(prefix):
            raise EngineError(
                f"run on prefix {prefix!r} ended after {tape.bit_cursor} "
                f"of its {len(prefix)} coins")
        yield Branch(prefix, weight, result.status == SATISFIED,
                     result.status, result.assignment, result.log)


@dataclass(frozen=True)
class TreeAppearance:
    """Exact within-horizon appearance mass for one witness tree, and the
    tree lemma's bound on it.

    p_low is the exact probability that the tree shows up within the
    enumerated horizon; pending is the unresolved mass in whose extensions
    the tree could still appear for the first time (a sound upper-bound
    complement: the true appearance probability lies in
    [p_low, p_low + pending]). bound is the label product, Pr[A_label]
    over every vertex: the witness-tree lemma's bound (Moser & Tardos,
    J. ACM 2010).
    """

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


@dataclass
class RunCensus:
    """The census of all runs within `bit_budget` coins, from its tables.

    `resolved` maps the packed state of each resolved run, its values and
    the coins it read (`layout` unpacks one), to the number of coin paths
    that reach it; `step_cut` maps coins read to the number of paths the
    step guard stopped. From them `at_budget` reads the census at every
    lower budget. `units` maps each resolved packed assignment to its units
    of 2^-bit_budget, which `prefix_mass` sums and `output_mass` turns into
    `Fraction`s when first read.
    """

    appearances: dict  # canon -> TreeAppearance
    resolved_mass: Fraction
    unresolved_mass: Fraction
    branch_count: int
    bit_budget: int
    resolved: dict  # packed state -> paths
    step_cut: dict  # coins read -> paths
    layout: tuple  # (coin shift, ((field mask, offset) per variable))
    units: dict  # packed assignment -> units

    def __post_init__(self):
        if self.resolved_mass + self.unresolved_mass != 1:
            raise EngineError(
                f"census masses sum to "
                f"{self.resolved_mass + self.unresolved_mass}, not 1")

    @cached_property
    def output_mass(self) -> dict:
        """Assignment tuple -> Fraction, resolved runs only."""
        return {tuple([(a & f) >> o for f, o in self.layout[1]]):
                Fraction(u, 1 << self.bit_budget)
                for a, u in self.units.items()}

    def at_budget(self, bit_budget: int) -> RunCensus:
        """The census at `bit_budget` coins, field for field what
        `census_runs(system, bit_budget, step_guard, want_trees=False)`
        returns under this census's step guard, for any budget up to this
        census's own.

        A leaf of the coin-prefix tree at budget b <= B is one of three
        kinds. A run resolved after c <= b coins: each of its draws ended
        within those coins, so the census at B follows the same c coin
        strings to the same state, at the same level. A run the step guard
        stopped after c <= b coins: the same holds under an explicit guard.
        The default guard, b + len(variables) + 8 steps, stops a run within
        b coins only if some resample read no coin. Such a resample redraws
        point-mass variables alone, leaves the assignment as it was and so
        repeats forever without a coin; the census at B stops the run in
        the same state, only at its own guard. (So each resample of a
        resolved run read a coin, and its at most c <= b steps stay below
        either default guard.) The coin budget cuts every other path at exactly b
        coins, one leaf per unit of 2^-b. So the resolved and step-cut
        entries within b coins are the census at b, and its branch count is
        their paths plus the units they leave. That count is at most this
        census's, so no branch guard this census passed can refuse.
        """
        if bit_budget < 0:
            raise ModelError("bit_budget must be >= 0")
        if bit_budget > self.bit_budget:
            raise ModelError(f"cannot read a census at {bit_budget} coins "
                             f"off one at {self.bit_budget}")
        shift = self.layout[0]
        return _census_of_tables(
            {}, bit_budget,
            {s: n for s, n in self.resolved.items() if s >> shift <= bit_budget},
            {c: n for c, n in self.step_cut.items() if c <= bit_budget},
            self.layout)

    def prefix_mass(self, prefix: tuple[int, ...]) -> Fraction:
        """Resolved mass of outputs whose first cells equal `prefix`: the
        units of the packed assignments that match it under one mask,
        divided once."""
        unpack = self.layout[1][:len(prefix)]
        if len(unpack) < len(prefix) or any(
                not 0 <= x <= f >> o for x, (f, o) in zip(prefix, unpack)):
            return Fraction(0)  # no output has a value there
        mask = sum(f for f, _ in unpack)
        packed = sum(x << o for x, (_, o) in zip(prefix, unpack))
        return Fraction(sum(u for a, u in self.units.items()
                            if a & mask == packed), 1 << self.bit_budget)

    def appearance_list(self) -> list[TreeAppearance]:
        """Appearances by falling p_low, then by canonical line, each line
        formatted from the canon the appearance is stored under."""
        ordered = sorted(self.appearances.items(),
                         key=lambda item: (-item[1].p_low, canon_line(item[0])))
        return [a for _, a in ordered]


def _component_of(system: ConstraintSystem) -> dict[int, frozenset[int]]:
    """Each event's connected component in the event neighbor graph."""
    out: dict = {}
    for start in range(len(system.events)):
        if start in out:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            for j in system.neighbor_sets[frontier.pop()]:
                if j not in comp:
                    comp.add(j)
                    frontier.append(j)
        out.update(dict.fromkeys(comp, frozenset(comp)))
    return out


def _census_of_tables(appearances: dict, bit_budget: int, resolved: dict,
                      step_cut: dict, layout: tuple,
                      leaves: Optional[int] = None) -> RunCensus:
    """The census at `bit_budget` coins from its tables and its number of
    leaves; each leaf neither resolved nor step-cut is a path the coin budget
    cut, of one unit of 2^-bit_budget (by default, every unit left over)."""
    shift = layout[0]
    total = 1 << bit_budget
    values_mask = (1 << shift) - 1
    units: dict = {}  # packed assignment -> units
    for s, n in resolved.items():
        a = s & values_mask
        units[a] = units.get(a, 0) + (n << (bit_budget - (s >> shift)))
    resolved_units = sum(units.values())
    stopped = sum(n << (bit_budget - c) for c, n in step_cut.items())
    paths = sum(resolved.values()) + sum(step_cut.values())
    if leaves is None:
        leaves = paths + total - resolved_units - stopped
    return RunCensus(appearances, Fraction(resolved_units, total),
                     Fraction(stopped + leaves - paths, total), leaves,
                     bit_budget, resolved, step_cut, layout, units)


def census_runs(system: ConstraintSystem, bit_budget: int,
                step_guard: int | None = None,
                branch_guard: int = DEFAULT_BRANCH_GUARD,
                want_trees: bool = True) -> RunCensus:
    """Tally witness-tree appearances and outputs over all run branches.

    The census sweeps resample levels forward. A run's future depends only
    on its assignment, the coins it has read and, through the step guard,
    its resample count; all runs of a level share the count, so runs there
    in equal states merge into one state carrying the number of coin paths
    that reach it. Masses stay integers in units of 2^-budget until the end.
    The branch count and the guard are those of the prefix tree, whose
    visited nodes number 2 * leaves - 1. The census keeps the path count of
    each resolved state, its coins included, and of the runs the step guard
    stopped by their coins; `RunCensus.at_budget` reads every lower budget
    off these two tables, with no census of its own.

    A state is one int: variable v's value sits in a field of
    (range_size - 1).bit_length() bits (none for a range-1 variable), and
    the number of coins read sits above all the fields. Each event is the
    mask of its fields and the set of its forbidden tuples packed under it,
    and each packed assignment's least true event and true events are
    memoized. A resample of event e after c coins is one table, built from
    each variable's draws when first needed: the addends (values in e's
    fields, coins above) of every redraw of vbl(e) with their paths, and the
    paths the budget cuts. A state clears e's fields and adds each addend.
    Initialization is that table over every variable. The guard counts each
    pending path as a leaf, once per state and once per variable while a
    table is built.

    States are grouped by history. With want_trees=True that is the events
    a state has resampled, the one in flight included, as its witness trees
    depend on nothing else; otherwise every state shares the empty one. A
    state that has just completed a resample carries the mass of every
    leaf below it, so the tree of its last step appears with that mass.
    That mass is credited when the resample is drawn: a table also keeps
    the units of its moves that land within the budget, and a state drawn
    through it adds its paths times those units to its history extended by
    the event, the mass the next level's states of that history carry. A
    group keeps its next-level groups and its cut runs by event and forms
    each longer key once per event, when the group ends; no step of a
    single state hashes a history.
    Unresolved runs are kept by the true events of the state before the
    step they stopped in, their history and their event in flight, all
    that the pending filters of `_tree_tally` read; in the table of e that
    state is the pre-resample one, e least among its true events. A partial
    redraw of vbl(e) can change only events sharing a variable with e, all
    in neighbor_sets[e] (e included) and in e's component, and the tally
    reads the true set only through the union of components, to which it
    adds e's, and through `root in true or root in neighbor_sets[e]`: both
    keys give the same appearances. With want_trees=False only output
    masses are collected (used by the output-distribution oracle); a census
    with trees keeps the same two tables.
    """
    step_guard = _step_guard(system, bit_budget, step_guard, branch_guard)
    widths = [(var.range_size - 1).bit_length() for var in system.variables]
    *offsets, coin_shift = accumulate(widths, initial=0)
    fields = [((1 << w) - 1) << o for w, o in zip(widths, offsets)]
    values_mask = (1 << coin_shift) - 1
    # each event as its index, the mask of its variables' fields and its
    # forbidden tuples packed under that mask
    event_bits = [(e, sum(fields[v] for v in ev.vbl),
                   frozenset(sum(x << offsets[v] for v, x in zip(ev.vbl, t))
                             for t in ev.forbidden))
                  for e, ev in enumerate(system.events)]
    # paths[v][coins]: the moves of a draw of v after `coins` coins, each
    # the addend to the cleared state (the value in v's field, the coins it
    # reads above) with its number of paths, and the paths the budget cuts
    paths: list = [[None] * (bit_budget + 1) for _ in widths]
    # tables[e][coins]: the same for a redraw of every variable of event e
    tables: list = [[None] * (bit_budget + 1) for _ in system.events]
    first: dict = {}  # packed assignment -> (least true event, true events)
    room = (branch_guard + 1) // 2  # the most leaves the guard admits
    leaves = 0
    resolved: dict = {}  # packed state -> paths
    step_cut: dict = {}  # coins read -> paths
    reached: dict = {}  # completed history -> units
    cut: dict = {}  # (true events, completed history, in-flight event) -> units

    def table(variables, coins: int) -> tuple:
        """A redraw of `variables`, in order, after `coins` coins: its
        moves, their paths, the paths cut and, with trees, the units of
        the paths that land within the budget."""
        moves, n_cut = {0: 1}, 0
        for v in variables:
            out: dict = {}
            for a, n in moves.items():
                at = coins + (a >> coin_shift)
                if paths[v][at] is None:
                    settled, k_cut = _draw_paths(system.samplers[v],
                                                 bit_budget - at)
                    paths[v][at] = (
                        [((value << offsets[v]) + (used << coin_shift), k)
                         for (value, used), k in settled.items()], k_cut)
                drawn, k_cut = paths[v][at]
                n_cut += n * k_cut
                for move, k in drawn:
                    out[a + move] = out.get(a + move, 0) + n * k
            moves = out
            if leaves + sum(moves.values()) > room:
                _refuse(branch_guard)
        landed = sum(k << (bit_budget - coins - (a >> coin_shift))
                     for a, k in moves.items()) if want_trees else 0
        return list(moves.items()), sum(moves.values()), n_cut, landed

    # initialization draws every variable, in order, over placeholder zeros
    moves, _, leaves, _ = table(range(len(widths)), 0)
    if leaves and want_trees:  # cut with no history to filter by
        cut[None, None, None] = leaves
    frontier = {(): dict(moves)}
    clears = [~mask for _, mask, _ in event_bits]
    level = 0
    while frontier:
        following: dict = {}
        pending = 0  # paths sent to the next level
        for events, group in frontier.items():
            # with trees: event -> its next-level states and the units that
            # land there, and (true events, event in flight) -> units cut
            nexts: dict = {}
            group_cut: dict = {}
            for s, n in group.items():
                a = s & values_mask
                if a not in first:
                    true = frozenset(e for e, mask, patterns in event_bits
                                     if a & mask in patterns)
                    first[a] = min(true, default=None), true
                event, true = first[a]
                coins = s >> coin_shift
                if event is None:
                    leaves += n
                    resolved[s] = resolved.get(s, 0) + n
                elif level >= step_guard:
                    leaves += n
                    step_cut[coins] = step_cut.get(coins, 0) + n
                    if want_trees:
                        where = true, None
                        group_cut[where] = (group_cut.get(where, 0)
                                            + (n << (bit_budget - coins)))
                else:
                    entry = tables[event][coins]
                    if entry is None:
                        entry = tables[event][coins] = table(
                            system.events[event].vbl, coins)
                    moves, reach, n_cut, landed = entry
                    leaves += n * n_cut
                    pending += n * reach
                    if leaves + pending > room:
                        _refuse(branch_guard)
                    if want_trees:
                        if n_cut:
                            where = true, event
                            group_cut[where] = (group_cut.get(where, 0)
                                                + n * n_cut)
                        step = nexts.get(event)
                        if step is None:
                            step = nexts[event] = [{}, 0]
                        step[1] += n * landed
                        drawn = step[0]
                    else:
                        drawn = following.setdefault(events, {})
                    s &= clears[event]
                    for move, k in moves:
                        t = s + move
                        drawn[t] = drawn.get(t, 0) + n * k
            for event, (drawn, units) in nexts.items():
                if units:
                    history = events + (event,)
                    following[history] = drawn
                    reached[history] = units
            for (true, event), units in group_cut.items():
                cut[true, events, event] = units
        frontier = following
        level += 1
    if leaves > room:
        _refuse(branch_guard)
    appearances = (_tree_tally(system, reached, cut, 1 << bit_budget)
                   if want_trees else {})
    return _census_of_tables(appearances, bit_budget, resolved, step_cut,
                             (coin_shift, tuple(zip(fields, offsets))),
                             leaves)


def _tree_tally(system: ConstraintSystem, reached: dict, cut: dict,
                total: int) -> dict:
    """Witness-tree appearances from the census tables, masses in units of
    1/total.

    `reached` maps each resample history (the events resampled, in order)
    to the mass of runs that complete it; the tree of its last step appears
    with that mass. `cut` maps (true events, history, event in flight) of
    the unresolved runs, true before their last step or amid its redraw
    (see `census_runs`), to their mass; the key is all None for runs cut
    during initialization and the in-flight event None for step-guard cuts.

    Each reached history's tree is built once, straight from the sequence,
    and admitted after the trees of its prefixes (`admit_tree`). Its canon
    gets a small int id the first time it is admitted; the tally keys its
    masses by id and hashes no canon again. Each distinct tree is checked
    once, by `tape_positions_by_vertex`, and keeps that check and its
    label counts for its pricing: the tally prices its label product here,
    from one probability per event, and `check_mt_vs_gw` its process bound.

    For each unresolved run the tally works out which trees could still
    appear for the first time in an extension: the tree's root must be
    reachable (neighbor-connected to a currently-true event) and the tree
    must contain, label for label, the base tree a hypothetical next
    resampling of that root would inherit from the run's history. Those
    filters read only the base tree's label multiset and size, so no base
    tree is built: `label_counts_of_events` scans the history for its
    labels alone. The hypothetical steps, the one in flight and each
    root's, still pass the root-multiplicity check of `admit_tree`. That
    check also keeps out every tree the run has already shown: such a tree
    has at most as many root labels as the latest one with its root, and
    the base tree has more. Mass of runs failing the filters cannot
    contribute, so it is excluded from `pending`.

    Surviving charges are further discounted: a tree appearing in an
    extension pins the values of table cells it determines, and any vertex
    all of whose relevant cells lie beyond the run's consumption must
    still hit its forbidden set with fresh coins, contributing an
    independent factor Pr[A_label]. The runs are grouped by the roots they
    can reach. A tree's charges are summed in units per consumption vector,
    each vector's product of fresh factors is taken once as an integer
    numerator and denominator, and the sum is divided once.
    """
    comp_of = _component_of(system)
    ids: dict = {}  # canon -> its id, in order of first admission
    # history -> (tree of its last step, that tree's id, root label ->
    # multiplicity); the last is the bookkeeping of `admit_tree`
    history_trees: dict = {(): (None, None, {})}

    def trees_of(history: tuple[int, ...]) -> tuple:
        """The entry of `history`, extending the longest memoized prefix by
        one tree per step."""
        n = len(history)
        while history[:n] not in history_trees:
            n -= 1
        root_counts = history_trees[history[:n]][2]
        for k in range(n + 1, len(history) + 1):
            tree = tree_of_events(history[:k], system)
            root_counts = dict(root_counts)
            admit_tree(tree, k, root_counts)
            history_trees[history[:k]] = (
                tree, ids.setdefault(tree.canon(), len(ids)), root_counts)
        return history_trees[history]

    p_low: dict = {}
    trees: dict = {}  # id -> the tree of the first reached history with it
    for history, units in reached.items():
        tree, tree_id = trees_of(history)[:2]
        trees.setdefault(tree_id, tree)
        p_low[tree_id] = p_low.get(tree_id, 0) + units

    # root -> the unresolved runs that can reach it, each as
    # (units, base label counts, min_size, consumed_ub)
    by_root: dict = {}
    for (true, history, in_flight), units in cut.items():
        if history is None:
            # cut off during initialization: no filter information
            for root in range(len(system.events)):
                by_root.setdefault(root, []).append((units, {}, 1, None))
            continue
        root_counts = trees_of(history)[2]
        begun = history
        if in_flight is not None:
            # the cut-off resampling completes before anything else an
            # extension logs
            begun = history + (in_flight,)
            n_root = label_counts_of_events(begun, system)[in_flight]
            check_root_grew(in_flight, n_root, len(begun), root_counts)
            root_counts = {**root_counts, in_flight: n_root}
        # upper bound on per-variable table consumption: one entry at
        # initialization, one per resample touching the variable, the
        # cut-off resampling in flight included
        consumed_ub = [1] * len(system.variables)
        for e in begun:
            for v in system.events[e].vbl:
                consumed_ub[v] += 1
        consumed_ub = tuple(consumed_ub)
        reachable = set().union(*(comp_of[e] for e in true),
                                comp_of.get(in_flight, ()))
        for root in reachable:
            base = label_counts_of_events(begun + (root,), system)
            check_root_grew(root, base[root], len(begun) + 1, root_counts)
            min_size = sum(base.values())
            flippable = (in_flight is not None
                         and root in system.neighbor_sets[in_flight])
            if root not in true and not flippable:
                # some future neighbor resample must make root true
                # first, and it would join the tree as well
                min_size += 1
            by_root.setdefault(root, []).append(
                (units, base, min_size, consumed_ub))

    event_probs = [event_probability(ev, system) for ev in system.events]
    canons = list(ids)
    appearances: dict = {}
    for tree_id, tree in trees.items():
        counts, size = tree._counts, tree.size
        positions = tape_positions_by_vertex(tree, system)
        # consumption vector -> units of the runs charged with it
        charged: dict = {}
        for units, base, min_size, consumed_ub in by_root.get(
                tree.root_label, ()):
            if size < min_size or any(counts[label] < n
                                      for label, n in base.items()):
                continue
            charged[consumed_ub] = charged.get(consumed_ub, 0) + units
        # cell x^(p-1) holds the value that made a vertex's event true;
        # if the whole before-tuple is beyond the run's consumption it
        # must still land forbidden, an independent factor Pr[A_label]
        charges = []  # (units, numerator, denominator)
        for consumed_ub, units in charged.items():
            num = den = 1
            if consumed_ub is not None:
                for v, row in positions.items():
                    if all(p - 1 >= consumed_ub[var]
                           for var, p in row.items()):
                        prob = event_probs[tree.labels[v]]
                        num *= prob.numerator
                        den *= prob.denominator
            charges.append((units, num, den))
        unit = lcm(*(den for _, _, den in charges))
        pending = Fraction(sum(units * num * (unit // den)
                               for units, num, den in charges), total * unit)
        appearances[canons[tree_id]] = TreeAppearance(
            tree, Fraction(p_low[tree_id], total), pending,
            label_product(counts, event_probs))
    return appearances


@dataclass(frozen=True)
class LemmaReport:
    """The tree lemma over one census: its appearances, each priced by the
    tally, by falling p_low."""

    entries: tuple[TreeAppearance, ...]
    unresolved_mass: Fraction
    branch_count: int

    @classmethod
    def of(cls, census: RunCensus) -> LemmaReport:
        return cls(tuple(census.appearance_list()), census.unresolved_mass,
                   census.branch_count)

    @property
    def holds_within_horizon(self) -> bool:
        return all(e.holds_within_horizon for e in self.entries)

    @property
    def certified(self) -> bool:
        return all(e.certified for e in self.entries)


def check_tree_lemma(system: ConstraintSystem, bit_budget: int) -> LemmaReport:
    """Exact check that every appearing tree obeys the label-product bound
    (`tree_probability_bound`) that its census's tally priced it with."""
    return LemmaReport.of(census_runs(system, bit_budget))
