"""Slow references behind the resampling engine.

`true_events` is the full rescan that `run_finite`'s lazy heap stands in
for, and `naive_run` is the engine written with it: every iteration
rescans every event and every value is one `Tape.draw`. Both read truth
straight off each event's `vbl` and `forbidden` set, so they share nothing
with `ConstraintSystem.checks`, the compiled table the engine reads.
"""
from __future__ import annotations

from typing import Sequence

from lll_toolkit.engine import (BUDGET_EXCEEDED, EXHAUSTED, SATISFIED,
                                ResampleLog, Step)
from lll_toolkit.errors import TapeExhausted
from lll_toolkit.model import ConstraintSystem
from lll_toolkit.tape import Tape


def true_events(system: ConstraintSystem,
                assignment: Sequence[int]) -> list[int]:
    """The indices of the events true under `assignment`, in order."""
    return [ev.index for ev in system.events
            if tuple(assignment[v] for v in ev.vbl) in ev.forbidden]


def naive_run(system: ConstraintSystem, tape: Tape, max_steps: int):
    """(status, assignment, log, in-flight event) of the minimal-index
    resampling run. A tape that runs out gives status EXHAUSTED with the
    values drawn so far, the log so far and the event being resampled (log
    and event None when the cut came during the initial draws); any other
    run has no in-flight event."""
    assignment: list[int] = []
    try:
        for var in system.variables:
            assignment.append(tape.draw(var.index, var.distribution))
    except TapeExhausted:
        return EXHAUSTED, tuple(assignment), None, None
    initial = tuple(assignment)
    positions = [1] * len(assignment)
    steps: list[Step] = []
    while True:
        true = true_events(system, assignment)
        log = ResampleLog(initial, tuple(steps))
        if not true:
            return SATISFIED, tuple(assignment), log, None
        if len(steps) >= max_steps:
            return BUDGET_EXCEEDED, tuple(assignment), log, None
        i = min(true)
        draws = []
        for v in system.events[i].vbl:
            try:
                assignment[v] = tape.draw(v, system.variables[v].distribution)
            except TapeExhausted:
                return EXHAUSTED, tuple(assignment), log, i
            draws.append((v, positions[v], assignment[v]))
            positions[v] += 1
        steps.append(Step(len(steps) + 1, i, tuple(draws)))
