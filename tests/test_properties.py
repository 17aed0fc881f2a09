"""Property tests over generated small systems: each single owner of an
exact quantity against a naive reference written out here.

Generation is derandomized, so every run checks the same examples.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lll_toolkit.engine import (EXHAUSTED, ResampleLog, Step,
                                first_k_stable_time, run_finite,
                                stable_times)
from lll_toolkit.errors import ModelError, TapeExhausted
from lll_toolkit.exhaustive import census_runs
from lll_toolkit.formats import read_dimacs
from lll_toolkit.model import (ConditionEntry, ConditionReport,
                               ConstraintSystem, Event, LLLParams,
                               VariableSpec, as_fraction,
                               avoiding_assignments, avoiding_probability,
                               check_lll)
from lll_toolkit.tape import FAIR_BIT, Sampler, Tape, check_law
from lll_toolkit.witness import (WitnessTree, reconstruct_tape_positions,
                                 trees_for_run, validate_tree)
from reference_engine import naive_run, true_events

F = Fraction

PROPERTY = settings(derandomize=True, database=None, max_examples=40,
                    deadline=None)


@st.composite
def distributions(draw, point_masses=False):
    # integer weights over totals such as 2, 4 (dyadic) and 3, 5, 7 (not)
    if point_masses and draw(st.booleans()):
        return (F(0), F(1))
    weights = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    return tuple(F(w, sum(weights)) for w in weights)


@st.composite
def systems(draw, max_vars=5, max_events=4, point_masses=False):
    """At most 5 variables; some events forbid nothing. With point_masses,
    some variables are deterministic, so their draws read no coin."""
    dists = draw(st.lists(distributions(point_masses), min_size=1,
                          max_size=max_vars))
    variables = [VariableSpec(v, d) for v, d in enumerate(dists)]
    events = []
    for i in range(draw(st.integers(1, max_events))):
        vbl = tuple(sorted(draw(st.sets(st.integers(0, len(dists) - 1),
                                        min_size=1, max_size=3))))
        space = list(product(*(range(len(dists[v])) for v in vbl)))
        forbidden = draw(st.sets(st.sampled_from(space),
                                 max_size=min(2, len(space))))
        events.append(Event(i, vbl, frozenset(forbidden)))
    return ConstraintSystem.build(variables, events)


@given(systems(), st.data())
@PROPERTY
def test_prefix_mass_is_the_direct_sum(system, data):
    census = census_runs(system, 6, want_trees=False)
    assert census.resolved_mass + census.unresolved_mass == 1
    length = data.draw(st.integers(0, len(system.variables)))
    prefix = tuple(data.draw(st.integers(0, var.range_size - 1))
                   for var in system.variables[:length])
    direct = sum((census.output_mass.get(a, F(0))
                  for a in system.assignments() if a[:length] == prefix),
                 F(0))
    assert census.prefix_mass(prefix) == direct
    assert census.prefix_mass(()) == census.resolved_mass


@given(systems())
@PROPERTY
def test_avoiding_probability_sums_the_avoiding_assignments(system):
    avoiders = avoiding_assignments(system)
    naive = [a for a in system.assignments() if not true_events(system, a)]
    assert avoiders == naive
    assert avoiding_probability(system) == sum(
        (system.assignment_probability(a) for a in naive), F(0))


@given(systems(point_masses=True))
@PROPERTY
def test_compiled_checks_are_the_naive_truth(system):
    assert len(system.checks) == len(system.events)
    for a in system.assignments():
        naive = true_events(system, a)
        assert [i for i, (values, forbidden) in enumerate(system.checks)
                if values(a) in forbidden] == naive
        assert [i for i in range(len(system.events))
                if system.is_true(i, a)] == naive


def outcome(system, tape, max_steps):
    """`run_finite` in `naive_run`'s terms: (status, assignment, log,
    in-flight event), with a cut tape's partial log and assignment."""
    try:
        result = run_finite(system, tape, max_steps)
    except TapeExhausted as exc:
        return (EXHAUSTED, exc.partial_assignment, exc.partial_log,
                exc.in_flight_event)
    return result.status, result.assignment, result.log, None


@given(systems(point_masses=True), st.data())
@settings(PROPERTY, max_examples=300)
def test_run_finite_is_the_naive_rescan(system, data):
    """Status, assignment, every logged step and, on a cut explicit tape,
    the partial log and in-flight event, over one-variable events,
    non-dyadic and point-mass laws and events forbidding nothing; both
    runs read the same coins."""
    max_steps = data.draw(st.integers(0, 20))
    if data.draw(st.booleans()):
        seed = data.draw(st.integers(0, 1 << 16))
        fast_tape, naive_tape = Tape(seed=seed), Tape(seed=seed)
    else:
        # 64 coins, cut short by up to all the coins a run on them reads
        bits = format(data.draw(st.integers(0, (1 << 64) - 1)), "064b")
        whole = Tape(bits=bits)
        naive_run(system, whole, max_steps)
        used = whole.bits_consumed
        bits = bits[:used - data.draw(st.integers(0, used))]
        fast_tape, naive_tape = Tape(bits=bits), Tape(bits=bits)
    assert (outcome(system, fast_tape, max_steps)
            == naive_run(system, naive_tape, max_steps))
    assert fast_tape.bits_consumed == naive_tape.bits_consumed


def per_variable_numbering(tree, system):
    """Reference: count each variable's vertices level by level, deepest
    level first, rejecting a variable seen twice on one level."""
    check = validate_tree(tree, system)
    if not check.valid:
        raise ModelError("; ".join(check.violations))
    depths = tree.depths()
    per_var = {}
    for v in sorted(range(tree.size), key=lambda v: -depths[v]):
        for var in system.events[tree.labels[v]].vbl:
            per_var.setdefault(var, []).append(depths[v])
    out = {}
    for var, levels in per_var.items():
        if len(set(levels)) != len(levels):
            raise ModelError(f"variable {var} occurs twice on one level")
        out[var] = list(range(1, len(levels) + 1))
    return out


@given(systems(), st.integers(0, 1 << 16))
@PROPERTY
def test_tape_positions_from_logged_trees(system, seed):
    result = run_finite(system, Tape(seed=seed), 12)
    for tree in trees_for_run(result.log, system):
        assert (reconstruct_tape_positions(tree, system)
                == per_variable_numbering(tree, system))


@given(systems(), st.data())
@PROPERTY
def test_tape_positions_from_arbitrary_trees(system, data):
    n_events = len(system.events)
    size = data.draw(st.integers(1, 5))
    labels = tuple(data.draw(st.integers(0, n_events - 1))
                   for _ in range(size))
    parents = (-1,) + tuple(data.draw(st.integers(0, v - 1))
                            for v in range(1, size))
    tree = WitnessTree(labels, parents)
    try:
        expected = per_variable_numbering(tree, system)
    except ModelError:
        with pytest.raises(ModelError):
            reconstruct_tape_positions(tree, system)
    else:
        assert reconstruct_tape_positions(tree, system) == expected


@given(systems(max_events=6), st.data())
@PROPERTY
def test_condition_is_the_direct_per_event_product(system, data):
    """Each entry against alpha z_i prod (1 - z_j) over the proper
    neighbours j found by intersecting vbl sets, and lhs against the mass
    of the assignments making the event true; weights from a pool of three
    (so neighbourhood signatures repeat) or all distinct."""
    n = len(system.events)
    if data.draw(st.booleans()):
        pool = st.sampled_from([F(1, 4), F(1, 3), F(1, 2)])
        z = tuple(data.draw(pool) for _ in range(n))
    else:
        z = tuple(data.draw(st.lists(
            st.fractions(F(1, 64), F(63, 64), max_denominator=64),
            min_size=n, max_size=n, unique=True)))
    alpha = data.draw(st.sampled_from([F(1), F(99, 100), F(1, 2)]))
    expected = []
    for i, ev in enumerate(system.events):
        rhs = alpha * z[i]
        for j, other in enumerate(system.events):
            if j != i and set(ev.vbl) & set(other.vbl):
                rhs *= 1 - z[j]
        lhs = sum((system.assignment_probability(a)
                   for a in system.assignments() if system.is_true(i, a)),
                  F(0))
        expected.append(ConditionEntry(i, lhs, rhs))
    bound = F(1)
    for zi in z:
        bound *= 1 - zi
    report = check_lll(system, LLLParams(z, alpha))
    assert report == ConditionReport(tuple(expected), alpha, bound)
    assert all(type(e.rhs) is F for e in report.entries)
    assert type(report.avoid_bound) is F


def naive_stable_times(log, system):
    """Replay every state, then find for each k the first state in which
    events 0..k-1 are all false."""
    states = [list(log.initial)]
    for step in log.steps:
        states.append(states[-1].copy())
        for v, _, value in step.draws:
            states[-1][v] = value
    return [next((t for t, a in enumerate(states)
                  if not any(i < k for i in true_events(system, a))), None)
            for k in range(len(system.events) + 1)]


@given(systems(max_events=6), st.integers(0, 1 << 16), st.integers(0, 30))
@settings(PROPERTY, max_examples=80)
def test_stable_time_is_the_first_stable_replayed_state(system, seed,
                                                        max_steps):
    log = run_finite(system, Tape(seed=seed), max_steps).log
    naive = naive_stable_times(log, system)
    assert stable_times(log, system) == naive
    for k in range(len(system.events) + 1):
        assert first_k_stable_time(log, system, k) == naive[k]


@given(systems(max_events=6), st.data())
@settings(PROPERTY, max_examples=200)
def test_stable_times_of_logs_resampling_any_true_event(system, data):
    # the run picks the minimal true event; a valid log may resample any
    # true one, so the least true index can fall as well as rise.
    # Start where two events are true, if any assignment has two.
    crowded = [a for a in system.assignments()
               if len(true_events(system, a)) >= 2]
    assignment = list(data.draw(st.sampled_from(
        crowded or list(system.assignments()))))
    initial = tuple(assignment)
    ranges = [var.range_size for var in system.variables]
    positions = [1] * len(ranges)
    steps = []
    for number in range(1, data.draw(st.integers(0, 12)) + 1):
        true = true_events(system, assignment)
        if not true:
            break
        event = data.draw(st.sampled_from(true))
        draws = []
        for v in system.events[event].vbl:
            assignment[v] = data.draw(st.integers(0, ranges[v] - 1))
            draws.append((v, positions[v], assignment[v]))
            positions[v] += 1
        steps.append(Step(number, event, tuple(draws)))
    log = ResampleLog(initial, tuple(steps))
    assert stable_times(log, system) == naive_stable_times(log, system)


# --- each law checked and compiled once -------------------------------------

def law_by_law(index, law):
    """A variable's law checked on its own, as `VariableSpec` checks every
    law but `FAIR_BIT`: each mass coerced, then the index, then the law."""
    law = tuple(as_fraction(p) for p in law)
    if index < 0:
        raise ModelError(f"variable index must be >= 0, got {index}")
    check_law(law, f"variable {index}: ")
    return law


def refusal_or(build):
    """`build()`, or the text of the `ModelError` it raises."""
    try:
        return build()
    except ModelError as exc:
        return str(exc)


def compiled(samplers):
    return [(s.bounds, s.total, s.fair, s.depth) for s in samplers]


# masses of every kind a law can be refused for: negative ones, floats,
# strings that are no rational, and laws that do not sum to 1
MASSES = st.one_of(
    st.fractions(-1, 2, max_denominator=6), st.integers(-1, 2),
    st.sampled_from([0.5, 0.25, "1/2", "1/4", "-1/2", "0.5", "x"]))
LAWS = st.one_of(
    st.just(FAIR_BIT), st.just(()), st.just((F(1, 2), F(1, 2))),
    distributions(point_masses=True), st.lists(MASSES, max_size=4).map(tuple))


@given(st.integers(-2, 3), LAWS)
@settings(PROPERTY, max_examples=300)
@example(0, ())
@example(3, (F(3, 2), F(-1, 2)))
@example(1, (0.5, 0.5))
@example(2, (F(1, 2), "x"))
@example(2, ("1/2", "1/2"))
@example(1, (F(1, 2), F(1, 3)))
@example(-1, FAIR_BIT)
def test_a_law_is_taken_or_refused_as_the_check_of_it_alone(index, law):
    # a fresh copy is never `FAIR_BIT`, so it is checked in full
    alone = refusal_or(lambda: law_by_law(index, tuple(p for p in law)))
    assert refusal_or(lambda: VariableSpec(index, law).distribution) == alone


@given(st.lists(LAWS, min_size=1, max_size=3), st.data())
@settings(PROPERTY, max_examples=300)
def test_variables_sharing_laws_build_the_system_of_laws_checked_alone(
        pool, data):
    """Variables that share one law object (`FAIR_BIT` among them) build
    and compile as variables that each hold a copy of their law, checked
    and compiled alone; a refused law names the same variable."""
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                               max_size=6))

    def shared():
        system = ConstraintSystem.build(
            [VariableSpec(i, pool[k]) for i, k in enumerate(picks)], [])
        return system, compiled(system.samplers)

    def alone():
        laws = [law_by_law(i, tuple(p for p in pool[k]))
                for i, k in enumerate(picks)]
        system = ConstraintSystem.build(
            [VariableSpec(i, law) for i, law in enumerate(laws)], [])
        return system, compiled(Sampler(law) for law in laws)

    assert refusal_or(shared) == refusal_or(alone)


@given(st.lists(st.lists(st.integers(-4, 4).filter(bool), min_size=1,
                         max_size=3), max_size=5))
@PROPERTY
def test_a_dimacs_system_is_the_system_of_fair_laws_checked_alone(clauses):
    text = f"p cnf 4 {len(clauses)}\n" + "".join(
        " ".join(map(str, clause)) + " 0\n" for clause in clauses)
    system = read_dimacs(text)
    alone = ConstraintSystem.build(
        [VariableSpec(i, law_by_law(i, (F(1, 2), F(1, 2)))) for i in range(4)],
        system.events)
    assert system == alone
    assert all(var.distribution is FAIR_BIT for var in system.variables)
    assert compiled(system.samplers) == compiled(
        Sampler(var.distribution) for var in alone.variables)
