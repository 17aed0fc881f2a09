from __future__ import annotations

from fractions import Fraction

import pytest

from lll_toolkit.model import (ConstraintSystem, Event, clause_event,
                               uniform_bit)

F = Fraction


@pytest.fixture
def one_bit_system():
    """A single event forbidding x0 = 1 over one uniform bit."""
    return ConstraintSystem.build([uniform_bit(0)],
                                  [clause_event(0, (0,), (1,))])


@pytest.fixture
def paper_example_system():
    """Events 1..4 with neighbor pairs (1,2) and (2,3); event 0 is an
    isolated impossible dummy so labels match the worked example."""
    variables = [uniform_bit(i) for i in range(5)]
    events = [Event(0, (0,), frozenset()),
              clause_event(1, (1,), (1,)),
              Event(2, (1, 2), frozenset({(1, 1)})),
              clause_event(3, (2,), (1,)),
              clause_event(4, (3,), (1,))]
    return ConstraintSystem.build(variables, events)


@pytest.fixture
def chain3_system():
    """Three 3-bit clauses in a chain (middle one has two proper neighbors)."""
    variables = [uniform_bit(i) for i in range(7)]
    events = [clause_event(0, (0, 1, 2), (1, 1, 1)),
              clause_event(1, (2, 3, 4), (0, 0, 0)),
              clause_event(2, (4, 5, 6), (1, 0, 1))]
    return ConstraintSystem.build(variables, events)


@pytest.fixture
def chain2_system():
    """Two 3-bit clauses sharing one variable; cheap to enumerate deeply."""
    variables = [uniform_bit(i) for i in range(5)]
    events = [clause_event(0, (0, 1, 2), (1, 1, 1)),
              clause_event(1, (2, 3, 4), (0, 0, 0))]
    return ConstraintSystem.build(variables, events)

