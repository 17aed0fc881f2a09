"""The slow reference behind the exhaustive census: every node of the
coin-prefix tree re-runs `run_finite` from scratch on its prefix
(`exhaustive.enumerate_runs`), and the census adds up those branches one by
one. Its tree tally builds the tree of every reached history with its own
reverse scan and prices each tree's pending charges one run at a time.

`lll_toolkit.exhaustive.census_runs` sweeps merged states instead, and its
tally regrows the tree of a history that repeats its last event from the
tree before; the differential tests check both against this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from lll_toolkit.exhaustive import (DEFAULT_BRANCH_GUARD, RunCensus,
                                    TreeAppearance, enumerate_runs)
from lll_toolkit.model import ConstraintSystem, event_probability
from lll_toolkit.witness import (admit_tree, check_root_grew,
                                 label_counts_of_events,
                                 tape_positions_by_vertex,
                                 tree_probability_bound)
from reference_engine import true_events
from reference_witness import tree_of_events


@dataclass(frozen=True)
class ReferenceCensus:
    """The fields of a `RunCensus` that adding up branches gives."""

    appearances: dict  # canon -> TreeAppearance
    resolved_mass: Fraction
    unresolved_mass: Fraction
    branch_count: int
    output_mass: dict  # assignment tuple -> Fraction

    appearance_list = RunCensus.appearance_list


def census_runs(system: ConstraintSystem, bit_budget: int,
                step_guard: int | None = None,
                branch_guard: int = DEFAULT_BRANCH_GUARD,
                want_trees: bool = True) -> ReferenceCensus:
    """The census over the re-executed branches, its trees tallied by
    `tree_tally` from tables built from each branch's record. A run
    cut inside a resample is keyed by the events true under its partly
    redrawn assignment, where `exhaustive.census_runs` takes the assignment
    before that resample, so the differential tests compare both keys."""
    total = 1 << bit_budget
    resolved_mass = Fraction(0)
    unresolved_mass = Fraction(0)
    branch_count = 0
    output_mass: dict = {}
    reached: dict = {}
    cut: dict = {}
    for branch in enumerate_runs(system, bit_budget, step_guard,
                                 branch_guard):
        branch_count += 1
        units = total >> len(branch.bits)
        history = None  # a run cut during initialization has no log
        if branch.log is not None:
            history = tuple(step.event for step in branch.log.steps)
            for k in range(1, len(history) + 1):
                reached[history[:k]] = reached.get(history[:k], 0) + units
        if branch.resolved:
            resolved_mass += branch.weight
            key = branch.assignment
            output_mass[key] = output_mass.get(key, Fraction(0)) + branch.weight
        else:
            unresolved_mass += branch.weight
            where = ((None, None, None) if history is None else
                     (frozenset(true_events(system, branch.assignment)),
                      history, branch.in_flight_event))
            cut[where] = cut.get(where, 0) + units
    appearances = (tree_tally(system, reached, cut, total)
                   if want_trees else {})
    return ReferenceCensus(appearances, resolved_mass, unresolved_mass,
                           branch_count, output_mass)


def _components(system: ConstraintSystem) -> dict:
    """Each event's connected component in the event neighbor graph."""
    comp = {e: {e} for e in range(len(system.events))}
    grown = True
    while grown:
        grown = False
        for e in comp:
            wider = set().union(*(system.neighbor_sets[f] for f in comp[e]))
            if not wider <= comp[e]:
                comp[e] |= wider
                grown = True
    return comp


def tree_tally(system: ConstraintSystem, reached: dict, cut: dict,
               total: int) -> dict:
    """`exhaustive._tree_tally` over the same tables (see there), done one
    history and one unresolved run at a time: each reached history's tree
    is scanned from its whole sequence and admitted after its prefix's
    (`reached` lists every prefix of a history before it), and each tree
    prices every run that can still show it by itself."""
    root_counts: dict = {(): {}}  # history -> root label -> multiplicity
    trees: dict = {}  # canon -> the tree of the first history with it
    p_low: dict = {}  # canon -> units
    for history, units in reached.items():
        tree = tree_of_events(history, system)
        counts = dict(root_counts[history[:-1]])
        admit_tree(tree, len(history), counts)
        root_counts[history] = counts
        trees.setdefault(tree.canon(), tree)
        p_low[tree.canon()] = p_low.get(tree.canon(), 0) + units

    comp = _components(system)
    runs = []  # (units, root, base label counts, min_size, consumed_ub)
    for (true, history, in_flight), units in cut.items():
        if history is None:
            # cut off during initialization: no filter information
            runs += [(units, root, {}, 1, None)
                     for root in range(len(system.events))]
            continue
        counts = root_counts[history]
        begun = history
        if in_flight is not None:
            begun = history + (in_flight,)
            n_root = label_counts_of_events(begun, system)[in_flight]
            check_root_grew(in_flight, n_root, len(begun), counts)
            counts = {**counts, in_flight: n_root}
        consumed_ub = [1] * len(system.variables)
        for e in begun:
            for v in system.events[e].vbl:
                consumed_ub[v] += 1
        reachable = set().union(*(comp[e] for e in true),
                                comp[in_flight] if in_flight is not None
                                else ())
        for root in reachable:
            base = label_counts_of_events(begun + (root,), system)
            check_root_grew(root, base[root], len(begun) + 1, counts)
            min_size = sum(base.values())
            flippable = (in_flight is not None
                         and root in system.neighbor_sets[in_flight])
            if root not in true and not flippable:
                min_size += 1
            runs.append((units, root, base, min_size, consumed_ub))

    appearances = {}
    for canon, tree in trees.items():
        labels = tree.label_counts()
        positions = tape_positions_by_vertex(tree, system)
        pending = Fraction(0)
        for units, root, base, min_size, consumed_ub in runs:
            if (root != tree.root_label or tree.size < min_size
                    or any(labels[label] < n for label, n in base.items())):
                continue
            charge = Fraction(units, total)
            if consumed_ub is not None:
                for v, row in positions.items():
                    if all(p - 1 >= consumed_ub[var]
                           for var, p in row.items()):
                        charge *= event_probability(
                            system.events[tree.labels[v]], system)
            pending += charge
        appearances[canon] = TreeAppearance(
            tree, Fraction(p_low[canon], total), pending,
            tree_probability_bound(tree, system))
    return appearances
