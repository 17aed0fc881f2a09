from __future__ import annotations

import inspect
from fractions import Fraction
from itertools import product

import pytest

from lll_toolkit import engine
from lll_toolkit.errors import EngineError, ModelError, TapeExhausted
from lll_toolkit.model import (ConstraintSystem, Event, LLLParams,
                               expected_steps_bound, uniform_bit)
from lll_toolkit.tape import Tape
from lll_toolkit.engine import (BUDGET_EXCEEDED, SATISFIED, ResampleLog,
                                Step, first_k_stable_time,
                                log_from_event_sequence, replay, run_finite,
                                run_stream, stable_times, suggested_max_steps)
from lll_toolkit.families import ChainCnfFamily, FiniteFamily
from lll_toolkit.formats import log_from_text, log_to_text
from reference_engine import naive_run


F = Fraction


def test_zero_events_satisfied_immediately():
    system = ConstraintSystem.build([uniform_bit(0), uniform_bit(1)], [])
    result = run_finite(system, Tape(bits="10"), 5)
    assert result.status == SATISFIED
    assert result.resample_count == 0
    assert result.assignment == (1, 0)


def test_single_event_hand_trace(one_bit_system):
    result = run_finite(one_bit_system, Tape(bits="10"), 10)
    assert result.status == SATISFIED
    assert result.assignment == (0,)
    assert result.resample_count == 1
    result = run_finite(one_bit_system, Tape(bits="110"), 10)
    assert result.resample_count == 2


def test_zero_budget(one_bit_system):
    result = run_finite(one_bit_system, Tape(bits="1"), 0)
    assert result.status == BUDGET_EXCEEDED
    assert result.log.steps == ()
    result = run_finite(one_bit_system, Tape(bits="0"), 0)
    assert result.status == SATISFIED


def test_tape_exhaustion_carries_partial_log(one_bit_system):
    with pytest.raises(TapeExhausted) as info:
        run_finite(one_bit_system, Tape(bits="11"), 10)
    exc = info.value
    assert exc.partial_log is not None
    assert len(exc.partial_log.steps) == 1
    assert exc.in_flight_event == 0


def test_log_positions_follow_consumption(chain3_system):
    result = run_finite(chain3_system, Tape(seed=11), 100)
    assert result.status == SATISFIED
    counts = {v: 1 for v in range(len(chain3_system.variables))}
    for step in result.log.steps:
        for v, position, _value in step.draws:
            assert position == counts[v]
            counts[v] += 1


def test_replay_validates_and_reproduces(chain3_system):
    result = run_finite(chain3_system, Tape(seed=3), 100)
    states = replay(chain3_system, result.log)
    assert states[0] == result.log.initial
    assert states[-1] == result.assignment
    # each logged event was true at its moment: replay(validate=True) passed
    # smaller-index events are false when a larger index is resampled
    for t, step in enumerate(result.log.steps):
        before = states[t]
        for j in range(step.event):
            assert not chain3_system.is_true(j, before)


def test_replay_rejects_corrupted_log(chain3_system):
    result = run_finite(chain3_system, Tape(seed=6), 100)
    assert result.log.steps
    step = result.log.steps[0]
    bad = step.__class__(step.number, step.event,
                         tuple((v, p + 1, x) for v, p, x in step.draws))
    bad_log = result.log.__class__(result.log.initial,
                                   (bad,) + result.log.steps[1:])
    with pytest.raises(EngineError):
        replay(chain3_system, bad_log)
    # the same draws in reverse: each variable keeps its position, so only
    # the check of vbl's order refuses them
    swapped = step.__class__(step.number, step.event, step.draws[::-1])
    swapped_log = result.log.__class__(result.log.initial,
                                       (swapped,) + result.log.steps[1:])
    with pytest.raises(EngineError,
                       match="^step 1: draws do not cover vbl in order$"):
        replay(chain3_system, swapped_log)


@pytest.mark.parametrize("log, message", [
    (ResampleLog((1,), (Step(1, 0, ((0, 1, 7),)),)),
     "step 1: x0 value 7 is outside its range 0..1"),
    (ResampleLog((1,), (Step(1, 0, ((0, 1, -1),)),)),
     "step 1: x0 value -1 is outside its range 0..1"),
    (ResampleLog((9,), ()), "init: x0 value 9 is outside its range 0..1"),
])
def test_replay_and_stable_times_refuse_a_value_outside_its_range(
        one_bit_system, log, message):
    # the checks `read_log` makes of a log's text hold for a log in hand
    with pytest.raises(EngineError, match=f"^{message}$"):
        replay(one_bit_system, log)
    with pytest.raises(EngineError, match=f"^{message}$"):
        stable_times(log, one_bit_system)
    assert len(replay(one_bit_system, log, validate=False)) == 1 + len(
        log.steps)


@pytest.mark.parametrize("event", [-1, 3])
def test_replay_rejects_an_event_outside_the_system(chain3_system, event):
    # the initial draws make event 2 true, so a log naming event 2 replays;
    # -1 must not be read as the last event, nor 3 end in an IndexError
    draws = ((4, 1, 0), (5, 1, 0), (6, 1, 0))
    initial = (0, 0, 0, 0, 1, 0, 1)
    replay(chain3_system, ResampleLog(initial, (Step(1, 2, draws),)))
    log = ResampleLog(initial, (Step(1, event, draws),))
    with pytest.raises(EngineError, match=f"step 1: no event {event} "):
        replay(chain3_system, log)
    with pytest.raises(EngineError):
        first_k_stable_time(log, chain3_system, 1)


@pytest.mark.parametrize("seed", range(25))
def test_differential_against_naive_engine(seed):
    system = ChainCnfFamily(3, 1, seed).materialize(5)
    fast = run_finite(system, Tape(seed=seed), 50)
    status, assignment, log, _ = naive_run(system, Tape(seed=seed), 50)
    assert fast.status == status
    assert fast.assignment == assignment
    assert fast.log == log


def test_step_is_a_frozen_record_of_three_named_fields(chain3_system):
    step = Step(2, 1, ((2, 1, 0), (3, 1, 1), (4, 1, 1)))
    assert list(inspect.signature(Step).parameters) == [
        "number", "event", "draws"]
    assert (step.number, step.event) == (2, 1)
    assert repr(step) == ("Step(number=2, event=1, "
                          "draws=((2, 1, 0), (3, 1, 1), (4, 1, 1)))")
    with pytest.raises(AttributeError):
        step.event = 0
    twin = Step(2, 1, ((2, 1, 0), (3, 1, 1), (4, 1, 1)))
    assert twin == step and hash(twin) == hash(step)
    assert twin != Step(2, 0, twin.draws)
    log = run_finite(chain3_system, Tape(seed=6), 100).log
    assert len(log.steps) == 2
    back = log_from_text(log_to_text(log))
    assert back == log
    assert all(type(s) is Step for s in back.steps)


def test_replay_determinism(chain3_system):
    a = run_finite(chain3_system, Tape(seed=123), 100)
    b = run_finite(chain3_system, Tape(seed=123), 100)
    assert a == b


def test_suggested_max_steps():
    params = LLLParams((F(1, 2), F(1, 3)))
    # 10 * (1 + 1/2) = 15
    assert suggested_max_steps(params) == 15
    assert expected_steps_bound(params.z) == F(3, 2)


# --- stable_times and first_k_stable_time -----------------------------------

def test_stable_time_trivial_k_zero(one_bit_system):
    result = run_finite(one_bit_system, Tape(bits="10"), 10)
    assert first_k_stable_time(result.log, one_bit_system, 0) == 0


def test_stable_time_hand_trace(one_bit_system):
    result = run_finite(one_bit_system, Tape(bits="10"), 10)
    assert first_k_stable_time(result.log, one_bit_system, 1) == 1


def test_stable_time_bounded_by_total_steps(chain3_system):
    for seed in range(10):
        result = run_finite(chain3_system, Tape(seed=seed), 200)
        assert result.status == SATISFIED
        n = result.resample_count
        for k in range(len(chain3_system.events) + 1):
            t = first_k_stable_time(result.log, chain3_system, k)
            assert t is not None and t <= n


def test_stable_time_not_reached(one_bit_system):
    result = run_finite(one_bit_system, Tape(bits="1"), 0)
    assert first_k_stable_time(result.log, one_bit_system, 1) is None


def test_stable_time_validates_the_whole_log(chain3_system):
    # stable times are found before the bad step, which still fails
    result = run_finite(chain3_system, Tape(seed=6), 100)
    assert len(result.log.steps) == 2
    bad = Step(len(result.log.steps) + 1, 0, ((0, 99, 1), (1, 99, 1),
                                              (2, 99, 1)))
    log = ResampleLog(result.log.initial, result.log.steps + (bad,))
    with pytest.raises(EngineError, match="step 3: "):
        stable_times(log, chain3_system)
    for k in range(len(chain3_system.events) + 1):
        with pytest.raises(EngineError, match="step 3: "):
            first_k_stable_time(log, chain3_system, k)


def test_stable_time_rejects_bad_k(one_bit_system):
    result = run_finite(one_bit_system, Tape(bits="0"), 1)
    for k in (-1, 2):
        with pytest.raises(ModelError):
            first_k_stable_time(result.log, one_bit_system, k)


def test_stable_times_hand_trace(chain3_system):
    # x4 = x6 = 1 makes event 2 true and nothing else; its first redraw
    # leaves it true, the second clears it
    initial = (0, 0, 0, 0, 1, 0, 1)
    steps = (Step(1, 2, ((4, 1, 1), (5, 1, 0), (6, 1, 1))),
             Step(2, 2, ((4, 2, 1), (5, 2, 1), (6, 2, 1))))
    log = ResampleLog(initial, steps)
    assert stable_times(log, chain3_system) == [0, 0, 0, 2]
    assert stable_times(ResampleLog(initial, steps[:1]), chain3_system) == [
        0, 0, 0, None]


def test_stable_time_view_walks_each_log_once(chain3_system, monkeypatch):
    walks = []

    def counted(log, system):
        walks.append(log)
        return stable_times(log, system)

    monkeypatch.setattr(engine, "stable_times", counted)
    log = run_finite(chain3_system, Tape(seed=3), 100).log
    expected = stable_times(log, chain3_system)
    for k in range(len(expected)):
        assert first_k_stable_time(log, chain3_system, k) == expected[k]
    assert walks == [log]
    # an equal but distinct log is walked again, not looked up
    twin = ResampleLog(log.initial, log.steps)
    assert twin == log and twin is not log
    assert first_k_stable_time(twin, chain3_system, 3) == expected[3]
    assert len(walks) == 2 and walks[1] is twin


def test_stable_time_memo_is_keyed_by_the_system(chain3_system):
    # event 0 forbids every tuple in the other system, so its logs are the
    # same but no k >= 1 ever stabilizes
    first = chain3_system.events[0]
    always = Event(0, first.vbl, frozenset(product((0, 1), repeat=3)))
    other = ConstraintSystem.build(chain3_system.variables,
                                   (always,) + chain3_system.events[1:])
    log = run_finite(chain3_system, Tape(seed=3), 100).log
    assert stable_times(log, other) == [0, None, None, None]
    expected = stable_times(log, chain3_system)
    assert None not in expected
    for k in range(1, 4):
        assert first_k_stable_time(log, chain3_system, k) == expected[k]
        assert first_k_stable_time(log, other, k) is None


def test_stable_time_after_a_bad_log(chain3_system):
    # a walk that raises caches nothing, so neither the bad log nor the
    # good one asked next gets another log's answer
    good = run_finite(chain3_system, Tape(seed=6), 100).log
    expected = stable_times(good, chain3_system)
    bad_step = Step(3, 0, ((0, 99, 1), (1, 99, 1), (2, 99, 1)))
    bad = ResampleLog(good.initial, good.steps + (bad_step,))
    for _ in range(2):
        with pytest.raises(EngineError):
            first_k_stable_time(bad, chain3_system, 1)
        assert first_k_stable_time(good, chain3_system, 3) == expected[3]
        with pytest.raises(EngineError):
            first_k_stable_time(bad, chain3_system, 0)


# --- run_stream -------------------------------------------------------------

def test_stream_prefix_one_matches_finite():
    family = ChainCnfFamily(3, overlap=1, polarity_seed=2)
    stream = run_stream(family, 1, Tape(seed=4), 50)
    finite = run_finite(family.materialize(1), Tape(seed=4), 50)
    assert stream == finite


def test_stream_equals_finite_on_wrapped_system(chain3_system):
    family = FiniteFamily(chain3_system)
    stream = run_stream(family, 3, Tape(seed=8), 100)
    finite = run_finite(chain3_system, Tape(seed=8), 100)
    assert stream == finite


@pytest.mark.parametrize("seed", range(12))
def test_stream_prefix_stability(seed):
    """Raising k never changes steps taken before an event past the old k
    could be selected (the per-variable streams keep draws aligned)."""
    family = ChainCnfFamily(3, overlap=1, polarity_seed=5)
    small = run_stream(family, 5, Tape(seed=seed), 400)
    large = run_stream(family, 10, Tape(seed=seed), 400)
    cut = None
    for idx, step in enumerate(large.log.steps):
        if step.event >= 5:
            cut = idx
            break
    shared = len(large.log.steps) if cut is None else cut
    assert small.log.initial == large.log.initial[:len(small.log.initial)]
    assert small.log.steps[:shared] == large.log.steps[:shared]


def test_stream_family_errors_are_distinct():
    from lll_toolkit.errors import FamilyError
    family = FiniteFamily(ConstraintSystem.build([uniform_bit(0)], []))
    with pytest.raises(FamilyError):
        run_stream(family, 2, Tape(seed=0), 10)


def test_stream_zero_budget():
    family = ChainCnfFamily(3, overlap=1, polarity_seed=2)
    result = run_stream(family, 4, Tape(seed=1), 0)
    initially_true = any(
        family.materialize(4).is_true(i, result.log.initial)
        for i in range(4))
    assert (result.status == BUDGET_EXCEEDED) == initially_true
    assert result.log.steps == ()


# --- synthetic logs --------------------------------------------------------

def test_log_from_event_sequence_positions(paper_example_system):
    log = log_from_event_sequence(paper_example_system, [2, 1, 3, 4, 2])
    positions = {}
    for step in log.steps:
        for v, p, _ in step.draws:
            positions.setdefault(v, []).append(p)
    # variable 1 is drawn by events 2, 1, 2 (steps 1, 2, 5), variable 2 by
    # events 2, 3, 2 (steps 1, 3, 5), variable 3 by event 4 only
    assert positions[1] == [1, 2, 3]
    assert positions[2] == [1, 2, 3]
    assert positions[3] == [1]
