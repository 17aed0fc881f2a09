"""The slow reference behind the exhaustive census: every node of the
coin-prefix tree re-runs `run_finite` from scratch on its prefix
(`exhaustive.enumerate_runs`), and the census adds up those branches one by
one.

`lll_toolkit.exhaustive.census_runs` sweeps merged states instead; the
differential tests check it against this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from lll_toolkit import exhaustive
from lll_toolkit.exhaustive import (DEFAULT_BRANCH_GUARD, RunCensus,
                                    enumerate_runs)
from lll_toolkit.model import ConstraintSystem
from reference_engine import true_events


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
    """The census over the re-executed branches; the tree tally is the
    library's own, fed with tables built from each branch's record. A run
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
    appearances = (exhaustive._tree_tally(system, reached, cut, total)
                   if want_trees else {})
    return ReferenceCensus(appearances, resolved_mass, unresolved_mass,
                           branch_count, output_mass)
