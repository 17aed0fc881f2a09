from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest

from lll_toolkit.errors import ModelError
from lll_toolkit.model import (ConstraintSystem, Event, LLLParams,
                               VariableSpec, avoiding_probability, check_lll,
                               clause_event, event_probability, neighbors,
                               uniform_bit)
from lll_toolkit.tape import _word

F = Fraction


def test_variable_distribution_must_sum_to_one():
    with pytest.raises(ModelError):
        VariableSpec(0, (F(1, 2), F(1, 3)))
    with pytest.raises(ModelError, match="variable 3: negative mass -1/2"):
        VariableSpec(3, (F(3, 2), F(-1, 2)))
    with pytest.raises(ModelError, match="variable 3: empty distribution"):
        VariableSpec(3, ())
    # a mass past CPython's int-to-string limit of 4,300 digits is written
    # in full; `decimal` writes the expected digits
    den = 7 ** 6000
    with pytest.raises(ModelError,
                       match=f"^variable 0: negative mass -1/{Decimal(den)}$"):
        VariableSpec(0, (-F(1, den), 1 + F(1, den)))
    with pytest.raises(ModelError, match=(
            f"^variable 0: distribution sums to {Decimal(den + 2)}/"
            f"{Decimal(2 * den)}, not 1$")):
        VariableSpec(0, (F(1, den), F(1, 2)))


def test_event_requires_sorted_distinct_variables():
    with pytest.raises(ModelError):
        Event(0, (1, 1), frozenset())
    with pytest.raises(ModelError):
        Event(0, (2, 1), frozenset())
    with pytest.raises(ModelError):
        Event(0, (), frozenset())


def test_event_tuple_arity_checked():
    with pytest.raises(ModelError):
        Event(0, (0, 1), frozenset({(1,)}))


def test_system_rejects_out_of_range_tuples():
    with pytest.raises(ModelError):
        ConstraintSystem.build([uniform_bit(0)],
                               [clause_event(0, (0,), (2,))])


def test_system_rejects_unknown_variables():
    with pytest.raises(ModelError):
        ConstraintSystem.build([uniform_bit(0)],
                               [clause_event(0, (0, 1), (0, 0))])
    # a negative index is no variable either, not one counted from the end
    for v in (-1, -2):
        with pytest.raises(ModelError,
                           match=f"^event 0 uses unknown variable {v}$"):
            ConstraintSystem.build([uniform_bit(0), uniform_bit(1)],
                                   [clause_event(0, (v,), (0,))])


def test_var_to_events_is_incidence_inverse(chain3_system):
    for v, indices in chain3_system.var_to_events.items():
        for i in indices:
            assert v in chain3_system.events[i].vbl
    for i, ev in enumerate(chain3_system.events):
        for v in ev.vbl:
            assert i in chain3_system.var_to_events[v]


# --- event_probability ---------------------------------------------------

def test_probability_of_three_bit_clause():
    system = ConstraintSystem.build([uniform_bit(i) for i in range(3)],
                                    [clause_event(0, (0, 1, 2), (1, 0, 1))])
    assert event_probability(system.events[0], system) == F(1, 8)


def test_probability_of_empty_forbidden_set_is_zero():
    system = ConstraintSystem.build([uniform_bit(0)],
                                    [Event(0, (0,), frozenset())])
    assert event_probability(system.events[0], system) == 0


def test_probability_of_full_forbidden_set_is_one():
    tuples = frozenset(product((0, 1), repeat=3))
    system = ConstraintSystem.build([uniform_bit(i) for i in range(3)],
                                    [Event(0, (0, 1, 2), tuples)])
    assert event_probability(system.events[0], system) == 1


def test_probability_always_within_unit_interval():
    # a handful of pseudo-random small systems
    for seed in range(30):
        word = _word(seed, 0, 0, 0)
        n_tuples = 1 + word % 7
        tuples = set()
        for j in range(n_tuples):
            w = _word(seed, 1, j, 0)
            tuples.add((w & 1, (w >> 1) & 1, (w >> 2) & 1))
        system = ConstraintSystem.build(
            [uniform_bit(0), VariableSpec(1, (F(3, 4), F(1, 4))),
             uniform_bit(2)],
            [Event(0, (0, 1, 2), frozenset(tuples))])
        p = event_probability(system.events[0], system)
        assert 0 <= p <= 1


# --- neighbors ------------------------------------------------------------

def test_neighbors_on_worked_example(paper_example_system):
    assert neighbors(paper_example_system, 2) == (1, 2, 3)
    assert neighbors(paper_example_system, 4) == (4,)


def test_every_event_is_its_own_neighbor(chain3_system):
    for i in range(len(chain3_system.events)):
        assert i in neighbors(chain3_system, i)


def test_neighbors_symmetric(chain3_system, paper_example_system):
    for system in (chain3_system, paper_example_system):
        n = len(system.events)
        for i in range(n):
            for j in neighbors(system, i):
                assert i in neighbors(system, j)


def test_neighbors_rejects_bad_index(chain3_system):
    with pytest.raises(ModelError):
        neighbors(chain3_system, 3)


# --- condition checks -----------------------------------------------------

def make_m3_clause_with_two_neighbors():
    # clause 0 shares one variable with each of clauses 1 and 2
    variables = [uniform_bit(i) for i in range(7)]
    events = [clause_event(0, (0, 1, 2), (1, 1, 1)),
              clause_event(1, (2, 3, 4), (1, 1, 1)),
              clause_event(2, (0, 5, 6), (1, 1, 1))]
    return ConstraintSystem.build(variables, events)


def test_finite_condition_equality_at_m3():
    system = make_m3_clause_with_two_neighbors()
    params = LLLParams.constant(F(1, 2), 3)
    report = check_lll(system, params)
    entry = report.entries[0]
    assert entry.lhs == F(1, 8)
    assert entry.rhs == F(1, 8)  # z * (1-z)^2 with two proper neighbors
    assert entry.holds
    assert report.holds
    assert report.avoid_bound == F(1, 8)


def test_finite_condition_fails_for_certain_event():
    tuples = frozenset(product((0, 1), repeat=1))
    system = ConstraintSystem.build([uniform_bit(0)],
                                    [Event(0, (0,), tuples)])
    report = check_lll(system, LLLParams((F(1, 2),)))
    assert not report.entries[0].holds
    assert not report.holds


def test_finite_condition_empty_system_vacuous():
    system = ConstraintSystem.build([uniform_bit(0)], [])
    report = check_lll(system, LLLParams(()))
    assert report.holds
    assert report.avoid_bound == 1


def test_strengthened_check_empty_prefix_vacuous():
    system = ConstraintSystem.build([uniform_bit(0)], [])
    report = check_lll(system, LLLParams((), F(99, 100)))
    assert report.holds


def test_strengthened_check_fails_at_equality():
    # lhs == rhs at alpha = 1, so any alpha < 1 must report failure
    system = make_m3_clause_with_two_neighbors()
    params = LLLParams.constant(F(1, 2), 3, F(99, 100))
    report = check_lll(system, params)
    assert not report.entries[0].holds


def test_strengthened_check_m4_clause_with_four_neighbors():
    # one 4-bit clause sharing a variable with each of four others
    variables = [uniform_bit(i) for i in range(16)]
    events = [clause_event(0, (0, 1, 2, 3), (1, 1, 1, 1))]
    spare = 4
    for j in range(4):
        vbl = tuple(sorted((j, spare, spare + 1, spare + 2)))
        events.append(clause_event(j + 1, vbl, (1, 1, 1, 1)))
        spare += 3
    system = ConstraintSystem.build(variables, events)
    assert len(system.neighbor_sets[0]) - 1 == 4
    params = LLLParams.constant(F(1, 4), 5, F(99, 100))
    report = check_lll(system, params)
    entry = report.entries[0]
    assert entry.lhs == F(1, 16)
    assert entry.rhs == F(99, 100) * F(1, 4) * F(3, 4) ** 4
    assert entry.holds


def test_closed_form_for_regular_neighborhoods():
    # a cycle of 2-bit events: every event has exactly 2 proper neighbors
    n = 6
    variables = [uniform_bit(i) for i in range(n)]
    events = [Event(i, tuple(sorted((i, (i + 1) % n))), frozenset({(1, 1)}))
              for i in range(n)]
    system = ConstraintSystem.build(variables, events)
    z = F(1, 5)
    report = check_lll(system, LLLParams.constant(z, n))
    for entry in report.entries:
        assert entry.rhs == z * (1 - z) ** 2


# --- avoiding probability vs the condition bound ---------------------------

@pytest.mark.parametrize("z", [F(1, 2), F(3, 4)])
def test_avoiding_mass_meets_bound_single_event(one_bit_system, z):
    report = check_lll(one_bit_system, LLLParams((z,)))
    assert report.holds
    mass = avoiding_probability(one_bit_system)
    assert mass == F(1, 2)
    assert mass >= report.avoid_bound


def test_avoiding_mass_meets_bound_chain(chain3_system):
    params = LLLParams.constant(F(1, 2), 3)
    report = check_lll(chain3_system, params)
    assert report.holds
    mass = avoiding_probability(chain3_system)
    assert mass >= report.avoid_bound
    assert mass > 0  # some assignment avoids every event


def test_avoiding_mass_exact_value(chain3_system):
    # independent check: count satisfying assignments directly
    total = F(0)
    for assignment in chain3_system.assignments():
        if not any(chain3_system.is_true(i, assignment) for i in range(3)):
            total += chain3_system.assignment_probability(assignment)
    assert avoiding_probability(chain3_system) == total
