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
by that sequence and gets each distinct history's tree once, keeping an int
id of its canon: a history whose last two steps resample the same event
regrows the tree of the step before under a new root, any other builds its
tree straight from the sequence. A state is packed into one
int, each variable's value in a bit field of its own and the coins read
above them: a resample is one AND and one addition per entry of a joint
table of its redraws, and an event's truth one AND and one set lookup.
Each packed assignment's events are tested once; masses stay integer units
per packed assignment, and only the resolved outputs are unpacked, once read.
A draw from a dyadic law reads at most log2 of its denominator in coins, so
the tables of a draw or a redraw differ only up to that many coins left:
each is built once per number of coins left up to its cap.
`enumerate_runs` lists the leaves one by one instead, re-executing the run
on each coin prefix.

A run that ends within b coins is the same run, with the same output, at
every larger budget, so a census keeps one table, its resolved states by
their coins read, and reads the resolved mass at any lower budget off it
(`RunCensus.prefix_mass`) instead of exploring again.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, groupby
from math import lcm
from typing import Iterator, Optional

from .errors import BudgetRefused, EngineError, ModelError, TapeExhausted
from .model import ConstraintSystem, event_probability
from .engine import EXHAUSTED, SATISFIED, ResampleLog, run_finite
from .tape import Sampler, Tape
from .witness import (WitnessTree, canon_line, check_root_grew,
                      label_counts_of_events, label_product, regrown_tree,
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
    bound it is checked against.

    p_low is the exact probability that the tree shows up within the
    enumerated horizon; pending is the unresolved mass in whose extensions
    the tree could still appear for the first time (a sound upper-bound
    complement: the true appearance probability lies in
    [p_low, p_low + pending]). bound is the bound the appearance is checked
    against: the census prices it by the label product, Pr[A_label] over
    every vertex, the witness-tree lemma's bound (Moser & Tardos, J. ACM
    2010), and `GWComparisonEntry` by the process bound.
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
    """The census of all runs within `bit_budget` coins, from its table.

    `resolved` maps the packed state of each resolved run, its values and
    the coins it read (`layout` unpacks one), to the number of coin paths
    that reach it. `prefix_mass` reads the resolved mass at this or any
    lower budget off it, and `output_mass` aggregates it when first read.
    """

    appearances: dict  # canon -> TreeAppearance
    resolved_mass: Fraction
    unresolved_mass: Fraction
    branch_count: int
    bit_budget: int
    resolved: dict  # packed state -> paths
    layout: tuple  # (coin shift, ((field mask, offset) per variable))

    @cached_property
    def output_mass(self) -> dict:
        """Assignment tuple -> Fraction, resolved runs only."""
        shift, unpack = self.layout
        values_mask = (1 << shift) - 1
        units: dict = {}  # packed assignment -> units of 2^-bit_budget
        for s, n in self.resolved.items():
            a = s & values_mask
            units[a] = units.get(a, 0) + (n << (self.bit_budget - (s >> shift)))
        return {tuple([(a & f) >> o for f, o in unpack]):
                Fraction(u, 1 << self.bit_budget) for a, u in units.items()}

    def prefix_mass(self, prefix: tuple[int, ...],
                    bit_budget: int | None = None) -> Fraction:
        """Resolved mass at `bit_budget` coins (by default this census's
        own) of outputs whose first cells equal `prefix`: the paths of the
        resolved states within that many coins that match it under one
        mask, in units of 2^-bit_budget, divided once. At `prefix=()` it is
        the resolved mass, and 1 minus that the unresolved mass.

        A run resolved within b coins is the same run, with the same
        output, at every budget past b: each of its resamples read a coin
        (one that reads none leaves the assignment as it was and repeats
        forever), so it takes at most b steps, fewer than the default step
        guard at either budget, and an explicit guard is the same at both.
        So the resolved states within b coins are those of the census at b.
        """
        if bit_budget is None:
            bit_budget = self.bit_budget
        elif bit_budget < 0:
            raise ModelError("bit_budget must be >= 0")
        elif bit_budget > self.bit_budget:
            raise ModelError(f"cannot read a census at {bit_budget} coins "
                             f"off one at {self.bit_budget}")
        shift, unpack = self.layout
        unpack = unpack[:len(prefix)]
        if len(unpack) < len(prefix) or any(
                not 0 <= x <= f >> o for x, (f, o) in zip(prefix, unpack)):
            return Fraction(0)  # no output has a value there
        mask = sum(f for f, _ in unpack)
        packed = sum(x << o for x, (_, o) in zip(prefix, unpack))
        top = (bit_budget + 1) << shift  # the least state of more coins
        return Fraction(sum([n << (bit_budget - (s >> shift))
                             for s, n in self.resolved.items()
                             if s & mask == packed and s < top]),
                        1 << bit_budget)

    def appearance_list(self) -> list[TreeAppearance]:
        """Appearances by falling p_low, then by canonical line. A line is
        formatted, from the canon the appearance is stored under, only
        where it breaks a tie in p_low."""
        ordered = sorted(self.appearances.items(),
                         key=lambda item: item[1].p_low, reverse=True)
        out = []
        for _, tied in groupby(ordered, key=lambda item: item[1].p_low):
            tied = list(tied)
            if len(tied) > 1:
                tied.sort(key=lambda item: canon_line(item[0]))
            out += [a for _, a in tied]
        return out


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
    each resolved state, its coins included; `RunCensus.prefix_mass` reads
    the resolved mass at every lower budget off that table, with no census
    of its own. The runs the step guard stopped are only counted, in paths
    and in units, to check the leaves against the masses.

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

    A draw of v reads at most `Sampler.depth` coins (None for a law that is
    not dyadic), so its paths with more coins left are those at the depth,
    and each variable's draws are built once per min(coins left, depth). A
    redraw of vbl(e) reads at most e's cap, the sum of their depths (None if
    any is None). With more coins left than the cap, e's table is the one
    at the cap, which cuts no path, with its landed units shifted left by
    the coins over the cap; it is built once and `tables[e][c]` is filled
    from it on the first miss at c. The guard refuses as before: a table
    that cuts no path grows with each variable, and the state check that
    follows its use counts every path it sends on.

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
    with trees keeps the same resolved table.
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
    # paths[v][left]: the moves of a draw of v with `left` coins left, each
    # the addend to the cleared state (the value in v's field, the coins it
    # reads above) with its number of paths, and the paths the budget cuts;
    # a draw reads at most depth coins, so `left` is capped there
    depths = [sampler.depth for sampler in system.samplers]
    paths: list = [[None] * (bit_budget + 1) for _ in widths]
    # tables[e][coins]: the same for a redraw of every variable of event e
    # after `coins` coins, and caps[e] the most coins that redraw reads
    tables: list = [[None] * (bit_budget + 1) for _ in system.events]
    caps = [None if any(depths[v] is None for v in ev.vbl)
            else sum(depths[v] for v in ev.vbl) for ev in system.events]
    first: dict = {}  # packed assignment -> (least true event, true events)
    room = (branch_guard + 1) // 2  # the most leaves the guard admits
    leaves = 0
    resolved: dict = {}  # packed state -> paths
    stopped_paths = stopped_units = 0  # of the runs the step guard stopped
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
                left = bit_budget - coins - (a >> coin_shift)
                if depths[v] is not None and left > depths[v]:
                    left = depths[v]
                if paths[v][left] is None:
                    settled, k_cut = _draw_paths(system.samplers[v], left)
                    paths[v][left] = (
                        [((value << offsets[v]) + (used << coin_shift), k)
                         for (value, used), k in settled.items()], k_cut)
                drawn, k_cut = paths[v][left]
                n_cut += n * k_cut
                for move, k in drawn:
                    out[a + move] = out.get(a + move, 0) + n * k
            moves = out
            if leaves + sum(moves.values()) > room:
                _refuse(branch_guard)
        landed = sum(k << (bit_budget - coins - (a >> coin_shift))
                     for a, k in moves.items()) if want_trees else 0
        return list(moves.items()), sum(moves.values()), n_cut, landed

    def joint(event: int, coins: int) -> tuple:
        """The table of a resample of `event` after `coins` coins. Past the
        event's cap it is the table at the cap, which cuts no path, with
        its landed units shifted by the coins left over."""
        cap = caps[event]
        if cap is None or coins + cap >= bit_budget:
            return table(system.events[event].vbl, coins)
        at = bit_budget - cap
        if tables[event][at] is None:
            tables[event][at] = table(system.events[event].vbl, at)
        moves, reach, n_cut, landed = tables[event][at]
        return moves, reach, n_cut, landed << (at - coins)

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
                    units = n << (bit_budget - coins)
                    stopped_paths += n
                    stopped_units += units
                    if want_trees:
                        where = true, None
                        group_cut[where] = group_cut.get(where, 0) + units
                else:
                    entry = tables[event][coins]
                    if entry is None:
                        entry = tables[event][coins] = joint(event, coins)
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
    # each leaf neither resolved nor step-cut is a path the coin budget
    # cut, of one unit: the resolved and step-cut paths plus the units they
    # leave must count every leaf once
    total = 1 << bit_budget
    resolved_units = sum(n << (bit_budget - (s >> coin_shift))
                         for s, n in resolved.items())
    lost = (sum(resolved.values()) + stopped_paths + total
            - resolved_units - stopped_units - leaves)
    if lost:  # a coin path lost or counted twice
        raise EngineError(
            f"census masses sum to {1 - Fraction(lost, total)}, not 1")
    return RunCensus(appearances, Fraction(resolved_units, total),
                     Fraction(total - resolved_units, total), leaves,
                     bit_budget, resolved,
                     (coin_shift, tuple(zip(fields, offsets))))


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

    `census_runs` reaches a history while it sweeps the group of the
    history's prefix, one level earlier, so `reached` lists every history
    after its prefix. Each history's tree is then found once, in one step
    from its prefix's entry. When the history's last step resamples the
    event of the step before, the tree is that step's tree under a new root
    (`regrown_tree`), and the memo keeps, per tree id, the id regrown from
    it: a tree is regrown and its canon hashed only the first time. Any
    other history's tree is built straight from the sequence. A canon gets
    a small int id the first time it is admitted, and one record: the tree
    in hand, built or regrown, its label counts, its rows of cells with the
    number of its vertices touching each variable, and its units. Off the
    counts, every history's root count is checked (`check_root_grew`, as
    `admit_tree` does) after the trees of its prefixes. A tree first met
    built is checked and positioned once, by `tape_positions_by_vertex`.
    One first met regrown is legal iff the tree below it is, so it is not
    checked again, and its rows are those of the record below, in hand
    when it is admitted, plus a root row, each of the root's variables at
    one more than the number of that tree's vertices touching it. The
    records are priced in id order, each tree's label product from one
    probability per event.

    For each unresolved run the tally works out which trees could still
    appear for the first time in an extension: the tree's root must be
    reachable (neighbor-connected to a currently-true event) and the tree
    must contain, label for label, the base tree a hypothetical next
    resampling of that root would inherit from the run's history. Those
    filters read only the base tree's label multiset and size, so no base
    tree is built: `label_counts_of_events` scans the history for its
    labels alone. The hypothetical steps, the one in flight and each
    root's, still pass the root-multiplicity check. That check also keeps
    out every tree the run has already shown: such a tree has at most as
    many root labels as the latest one with its root, and the base tree
    has more. Mass of runs failing the filters cannot contribute, so it is
    excluded from `pending`.

    Surviving charges are further discounted: a tree appearing in an
    extension pins the values of table cells it determines, and any vertex
    all of whose relevant cells lie beyond the run's consumption must
    still hit its forbidden set with fresh coins, contributing an
    independent factor Pr[A_label]. The runs are grouped by the roots they
    can reach. A tree's charges are summed in units per consumption vector,
    each vector's product of fresh factors is taken once as an integer
    numerator and denominator, from rows of each vertex's cells listed once
    per tree, and the sum is divided once.
    """
    comp_of = _component_of(system)
    event_probs = [event_probability(ev, system) for ev in system.events]
    ids: dict = {}  # canon -> its id, in order of first admission
    # id -> [the tree of the first history with it, its label counts, its
    # rows, (probability, ((variable, position), ...)) per vertex, variable
    # -> the number of its vertices touching it, its units]
    records: list = []
    # id -> the id of that tree under a new root of its root's label: the
    # tree of a step that repeats the event of the step before, whose tree
    # is rooted at that event
    regrown: dict = {}
    # history -> (the id of its last step's tree, root label ->
    # multiplicity in the latest tree rooted there, as in `admit_tree`)
    history_trees: dict = {(): (None, {})}

    def admitted(tree: WitnessTree, below: int | None = None) -> int:
        """The id of `tree`'s canon; its record is made the first time,
        with the rows of the tree `below` it, if regrown, plus a root row."""
        tree_id = ids.setdefault(tree.canon(), len(ids))
        if tree_id < len(records):
            return tree_id
        if below is None:
            positions = tape_positions_by_vertex(tree, system)
            rows = [(event_probs[tree.labels[v]], tuple(row.items()))
                    for v, row in positions.items()]
            touched: dict = {}
            for row in positions.values():
                touched.update(row)  # deepest first: the last is the count
        else:
            _, _, rows, touched, _ = records[below]
            root = tree.root_label
            # the tree below is rooted at the same label: it touches each
            # of the root's variables
            row = tuple((var, touched[var] + 1)
                        for var in system.events[root].vbl)
            rows = rows + [(event_probs[root], row)]
            touched = {**touched, **dict(row)}
        records.append([tree, tree.label_counts(), rows, touched, 0])
        return tree_id

    for history, units in reached.items():
        tree_id, root_counts = history_trees[history[:-1]]
        k = len(history)
        if k > 1 and history[-2] == history[-1]:
            below, tree_id = tree_id, regrown.get(tree_id)
            if tree_id is None:
                tree = regrown_tree(records[below][0], k)
                tree_id = regrown[below] = admitted(tree, below)
        else:
            tree_id = admitted(tree_of_events(history, system))
        record = records[tree_id]
        root = record[0].root_label
        n_root = record[1][root]
        check_root_grew(root, n_root, k, root_counts)
        root_counts = {**root_counts, root: n_root}
        history_trees[history] = tree_id, root_counts
        record[4] += units

    # root -> the unresolved runs that can reach it, each as
    # (units, base label counts, min_size, consumed_ub)
    by_root: dict = {}
    for (true, history, in_flight), units in cut.items():
        if history is None:
            # cut off during initialization: no filter information
            for root in range(len(system.events)):
                by_root.setdefault(root, []).append((units, {}, 1, None))
            continue
        root_counts = history_trees[history][1]
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

    appearances: dict = {}
    for canon, (tree, counts, rows, _, low) in zip(ids, records):
        size = tree.size
        # consumption vector -> units of the runs charged with it
        charged: dict = {}
        for units, base, min_size, consumed_ub in by_root.get(
                tree.root_label, ()):
            if size < min_size or any(counts[label] < n
                                      for label, n in base.items()):
                continue
            charged[consumed_ub] = charged.get(consumed_ub, 0) + units
        # cell x^(p-1) holds the value that made a vertex's event true;
        # if the whole before-tuple is beyond the run's consumption (each
        # p - 1 at least the variable's consumed count) it must still land
        # forbidden, an independent factor Pr[A_label]
        charges = []  # (units, numerator, denominator)
        for consumed_ub, units in charged.items():
            num = den = 1
            if consumed_ub is not None:
                for prob, row in rows:
                    for var, p in row:
                        if consumed_ub[var] >= p:
                            break
                    else:
                        num *= prob.numerator
                        den *= prob.denominator
            charges.append((units, num, den))
        unit = lcm(*(den for _, _, den in charges))
        pending = Fraction(sum(units * num * (unit // den)
                               for units, num, den in charges), total * unit)
        appearances[canon] = TreeAppearance(
            tree, Fraction(low, total), pending,
            label_product(counts, event_probs))
    return appearances


@dataclass(frozen=True)
class LemmaReport:
    """The tree lemma over one census: its appearances, each priced by the
    tally, by falling p_low. A census with no appearance and unresolved
    mass certifies nothing: a tree could still appear in that mass. The
    process comparison (`GWComparisonReport`) is this report over the same
    appearances priced by the process bound, under the same verdicts."""

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
        return (bool(self.entries) or not self.unresolved_mass) and all(
            e.certified for e in self.entries)


def check_tree_lemma(system: ConstraintSystem, bit_budget: int) -> LemmaReport:
    """Exact check that every appearing tree obeys the label-product bound
    (`tree_probability_bound`) that its census's tally priced it with."""
    return LemmaReport.of(census_runs(system, bit_budget))
