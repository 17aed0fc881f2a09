"""The slow reference behind the exhaustive census: every node of the
coin-prefix tree re-runs `run_finite` from scratch on its prefix, and a run
stopped by the end of its prefix branches on the next coin.

`lll_toolkit.exhaustive` forks runs where they demand a coin instead;
the differential tests check it against this module.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from lll_toolkit import exhaustive
from lll_toolkit.engine import EXHAUSTED, SATISFIED, run_finite
from lll_toolkit.errors import BudgetRefused, EngineError, TapeExhausted
from lll_toolkit.exhaustive import DEFAULT_BRANCH_GUARD, Branch, RunCensus
from lll_toolkit.model import ConstraintSystem
from lll_toolkit.tape import Tape


def enumerate_runs(system: ConstraintSystem, bit_budget: int,
                   step_guard: int | None = None,
                   branch_guard: int = DEFAULT_BRANCH_GUARD) -> Iterator[Branch]:
    """Depth-first enumeration of all run branches up to `bit_budget` coins,
    re-executing the run on each prefix."""
    if step_guard is None:
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


def census_runs(system: ConstraintSystem, bit_budget: int,
                step_guard: int | None = None,
                branch_guard: int = DEFAULT_BRANCH_GUARD,
                want_trees: bool = True) -> RunCensus:
    """The census over the re-executed branches; the tree tally is the
    library's own, fed with this module's branches."""
    branches = enumerate_runs(system, bit_budget, step_guard, branch_guard)
    if want_trees:
        return exhaustive._tree_census(system, branches)
    resolved_mass = Fraction(0)
    unresolved_mass = Fraction(0)
    branch_count = 0
    output_mass: dict = {}
    for branch in branches:
        branch_count += 1
        if branch.resolved:
            resolved_mass += branch.weight
            key = branch.assignment
            output_mass[key] = output_mass.get(key, Fraction(0)) + branch.weight
        else:
            unresolved_mass += branch.weight
    return RunCensus({}, resolved_mass, unresolved_mass, branch_count,
                     output_mass)
