"""The resampling solver: draw an initial assignment, then repeatedly redraw
the variables of the first (minimal-index) currently-true event until none
remains. The selection rule is fixed so that finite systems and prefixes of
infinite families behave identically.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import ceil
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import EngineError, ModelError, TapeExhausted
from .model import ConstraintSystem, LLLParams, expected_steps_bound
from .tape import Tape

SATISFIED = "satisfied"
BUDGET_EXCEEDED = "budget_exceeded"
EXHAUSTED = "exhausted"


class Step(NamedTuple):
    """One resampling: which event fired and what each of its variables drew.

    `draws` holds (variable, tape position, value) in increasing variable
    order; position j means the variable consumed its table entry x^j.
    """

    number: int
    event: int
    draws: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class ResampleLog:
    """Initial draws (each variable's x^0) plus the ordered resample steps."""

    initial: tuple[int, ...]
    steps: tuple[Step, ...]

    def events(self) -> tuple[int, ...]:
        return tuple(s.event for s in self.steps)


@dataclass(frozen=True)
class RunResult:
    status: str
    assignment: tuple[int, ...]
    log: ResampleLog

    @property
    def resample_count(self) -> int:
        return len(self.log.steps)


def suggested_max_steps(params: LLLParams) -> int:
    """Ten times the expected-steps bound, rounded up (and at least 1)."""
    return max(1, ceil(10 * expected_steps_bound(params.z)))


def run_finite(system: ConstraintSystem, tape: Tape,
               max_steps: int) -> RunResult:
    """Run the resampling loop on a finite system.

    The initial assignment comes from one `Tape.draw_initial`, which draws
    every x^0 of an all-fair system on a fresh seeded tape in one packed
    pass, and each resample from one `Tape.redraw`, which draws the fair
    variables of the event on a seeded tape in one packed pass too, with
    the stream keys the initial pass kept. Truth, read off `system.checks`,
    is tracked incrementally: after resampling event i only
    `neighbor_sets[i]`, the events sharing one of its variables, are
    rechecked, with a lazy min-heap over true events standing in for a full
    rescan (differentially tested against one). The recheck order does not
    matter: each event's push depends on its own truth only, and the heap's
    pops on the multiset of pushes.
    """
    if max_steps < 0:
        raise ModelError("max_steps must be >= 0")
    samplers, fair, checks = system.samplers, system.fair, system.checks
    redraw = tape.redraw
    assignment: list[int] = []
    steps: list[Step] = []
    initial = None
    try:
        tape.draw_initial(samplers, assignment, fair)
        initial = tuple(assignment)

        is_true = [values(assignment) in forbidden
                   for values, forbidden in checks]
        heap = [i for i, now in enumerate(is_true) if now]
        heapq.heapify(heap)

        while heap:
            i = heapq.heappop(heap)
            if not is_true[i]:
                continue
            if len(steps) >= max_steps:
                log = ResampleLog(initial, tuple(steps))
                return RunResult(BUDGET_EXCEEDED, tuple(assignment), log)
            draws = redraw(system.events[i].vbl, samplers, assignment, fair)
            steps.append(Step(len(steps) + 1, i, draws))
            for j in system.neighbor_sets[i]:
                values, forbidden = checks[j]
                now = values(assignment) in forbidden
                # j's heap entry survives unless j was the event just popped;
                # events turning true get a fresh entry, stale entries are
                # skipped.
                if now and (j == i or not is_true[j]):
                    heapq.heappush(heap, j)
                is_true[j] = now
    except TapeExhausted:
        # only draws exhaust the tape: before `initial` is set the cut came
        # during initialization, afterwards during event i's resampling
        started = initial is not None
        raise TapeExhausted(
            partial_log=ResampleLog(initial, tuple(steps)) if started else None,
            partial_assignment=tuple(assignment),
            in_flight_event=i if started else None) from None

    log = ResampleLog(initial, tuple(steps))
    return RunResult(SATISFIED, tuple(assignment), log)


def run_stream(family, active_k: int, tape: Tape, max_steps: int) -> RunResult:
    """Run on the first `active_k` events of a family; identical semantics to
    `run_finite` on the materialized prefix (materialization is cached)."""
    system = family.materialize(active_k)
    return run_finite(system, tape, max_steps)


def _walk(system: ConstraintSystem, log: ResampleLog, validate: bool = True
          ) -> Iterator[tuple[Optional[Step], list[int]]]:
    """The log's steps in order, each with the assignment right after it,
    led by (None, initial assignment). The assignment is one list, updated
    in place from step to step.

    With validate=True, checks that each step names an event of the system
    that was true right before its resampling, that tape positions follow
    the consumption law and then that each value is in its variable's range.
    """
    if len(log.initial) != len(system.variables):
        raise EngineError("log initial draws do not match the variable count")
    sizes = system.range_sizes
    if validate:
        for v, value in enumerate(log.initial):
            if not 0 <= value < sizes[v]:
                raise _out_of_range("init", v, value, sizes[v])
    assignment = list(log.initial)
    yield None, assignment
    positions = {v: 1 for v in range(len(system.variables))}
    n_events = len(system.events)
    for step in log.steps:
        if validate:
            if not 0 <= step.event < n_events:
                raise EngineError(
                    f"step {step.number}: no event {step.event} in a system "
                    f"of {n_events} events")
            if not system.is_true(step.event, assignment):
                raise EngineError(
                    f"step {step.number}: event {step.event} was not true")
            expected = tuple(system.events[step.event].vbl)
            if tuple(v for v, _, _ in step.draws) != expected:
                raise EngineError(
                    f"step {step.number}: draws do not cover vbl in order")
        for v, position, value in step.draws:
            if validate and position != positions[v]:
                raise EngineError(
                    f"step {step.number}: x{v} position {position}, "
                    f"expected {positions[v]}")
            positions[v] = position + 1
            assignment[v] = value
        if validate:
            for v, _, value in step.draws:
                if not 0 <= value < sizes[v]:
                    raise _out_of_range(f"step {step.number}", v, value,
                                        sizes[v])
        yield step, assignment


def _out_of_range(where: str, v: int, value: int, size: int) -> EngineError:
    return EngineError(f"{where}: x{v} value {value} is outside its range "
                       f"0..{size - 1}")


def replay(system: ConstraintSystem, log: ResampleLog,
           validate: bool = True) -> list[tuple[int, ...]]:
    """Assignments after 0, 1, ..., len(steps) resamples, recomputed from the log.

    With validate=True, checks that each step names an event of the system
    that was true right before its resampling, that tape positions follow
    the consumption law and that every value lies in its variable's range.
    """
    return [tuple(assignment) for _, assignment in _walk(system, log, validate)]


def stable_times(log: ResampleLog,
                 system: ConstraintSystem) -> list[Optional[int]]:
    """Entry k is the first step count after which events 0..k-1 are
    simultaneously false, for k = 0..len(system.events); None when the
    logged run never reaches that state.

    One validating walk over the log, as `replay` does. A lazy min-heap
    holds the true events, rechecked only in the neighbour set of each
    step's event; when the least true index rises to m, every entry k <= m
    still empty takes the current step count.
    """
    n_events, checks = len(system.events), system.checks
    times: list[Optional[int]] = [None] * (n_events + 1)
    filled = 0  # entries 0..filled-1 are set; stable times rise with k
    is_true: list[bool] = []
    heap: list[int] = []
    for t, (step, assignment) in enumerate(_walk(system, log)):
        if step is None:
            is_true = [values(assignment) in forbidden
                       for values, forbidden in checks]
            heap = [i for i, now in enumerate(is_true) if now]
            heapq.heapify(heap)
        else:
            # the walk checked that the step redrew exactly vbl(event)
            for j in system.neighbor_sets[step.event]:
                values, forbidden = checks[j]
                now = values(assignment) in forbidden
                # an event turning true gets a fresh entry; stale entries
                # are dropped when they reach the top
                if now and not is_true[j]:
                    heapq.heappush(heap, j)
                is_true[j] = now
        while heap and not is_true[heap[0]]:
            heapq.heappop(heap)
        least = heap[0] if heap else n_events
        while filled <= least:
            times[filled] = t
            filled += 1
    return times


# (log, system, stable_times(log, system)) of the last call. Both are frozen
# and held here, so their ids cannot be reused while they are compared.
_last_stable_times: Optional[tuple] = None


def first_k_stable_time(log: ResampleLog, system: ConstraintSystem,
                        k: int) -> Optional[int]:
    """Entry k of `stable_times(log, system)`: the first step count after
    which events 0..k-1 are simultaneously false, None if never reached.

    A view with a one-entry memo keyed by the identities of the log and the
    system, so asking for every k of one log walks it once. A log that
    fails validation raises on every call and is never cached.
    """
    global _last_stable_times
    if not 0 <= k <= len(system.events):
        raise ModelError(f"k must be in 0..{len(system.events)}")
    memo = _last_stable_times
    if memo is None or memo[0] is not log or memo[1] is not system:
        memo = (log, system, stable_times(log, system))
        _last_stable_times = memo
    return memo[2][k]


def log_from_event_sequence(system: ConstraintSystem,
                            events: Sequence[int]) -> ResampleLog:
    """Synthesize a log from a resample-order event sequence.

    Every value drawn, initial ones included, is 0, and tape positions follow
    the consumption law (x^0 at initialization, then one fresh value per
    resampling touching the variable). The log fixes the sequence's witness
    trees; it need not replay, since zeros need not make each event true.
    """
    positions = [1] * len(system.variables)
    steps = []
    for number, e in enumerate(events, start=1):
        draws = []
        for v in system.events[e].vbl:
            draws.append((v, positions[v], 0))
            positions[v] += 1
        steps.append(Step(number, e, tuple(draws)))
    return ResampleLog((0,) * len(system.variables), tuple(steps))
