"""Small systems with known-good parameters for exhaustive certification.

Each entry is tiny enough that every run branch is enumerated within its
coin budget, so the tree-bound and process-comparison inequalities can be
checked with exact arithmetic and zero statistical slack.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .model import (ConstraintSystem, Event, LLLParams, VariableSpec,
                    clause_event, uniform_bit)

F = Fraction


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    system: ConstraintSystem
    params: Optional[LLLParams]   # valid (condition-passing) weights, if any
    bit_budget: int               # enough for full certification


def _one_bit() -> CorpusEntry:
    system = ConstraintSystem.build(
        [uniform_bit(0)], [clause_event(0, (0,), (1,))])
    return CorpusEntry("one_bit", system,
                       LLLParams((F(3, 4),), F(4, 5)), 18)


def _two_disjoint() -> CorpusEntry:
    system = ConstraintSystem.build(
        [uniform_bit(0), uniform_bit(1)],
        [clause_event(0, (0,), (1,)), clause_event(1, (1,), (1,))])
    return CorpusEntry("two_disjoint", system,
                       LLLParams((F(3, 4), F(3, 4)), F(4, 5)), 18)


def _shared_pair() -> CorpusEntry:
    # two 2-bit events sharing a variable; the condition holds only with
    # equality (z = 1/2), so the valid params use alpha = 1
    system = ConstraintSystem.build(
        [uniform_bit(0), uniform_bit(1), uniform_bit(2)],
        [Event(0, (0, 1), frozenset({(1, 1)})),
         Event(1, (1, 2), frozenset({(1, 1)}))])
    return CorpusEntry("shared_pair", system,
                       LLLParams((F(1, 2), F(1, 2)), F(1)), 20)


def _overlap_triples() -> CorpusEntry:
    # 3-bit events overlapping in two variables: enough slack for alpha < 1
    system = ConstraintSystem.build(
        [uniform_bit(i) for i in range(4)],
        [Event(0, (0, 1, 2), frozenset({(1, 1, 1)})),
         Event(1, (1, 2, 3), frozenset({(1, 1, 1)}))])
    return CorpusEntry("overlap_triples", system,
                       LLLParams((F(1, 2), F(1, 2)), F(3, 4)), 20)


def _lopsided_bit() -> CorpusEntry:
    # an unfair dyadic marginal: a draw takes one coin or two
    system = ConstraintSystem.build(
        [VariableSpec(0, (F(3, 4), F(1, 4))), uniform_bit(1)],
        [Event(0, (0, 1), frozenset({(1, 1)}))])
    return CorpusEntry("lopsided_bit", system,
                       LLLParams((F(1, 2),), F(1, 2)), 20)


def _impossible_plus() -> CorpusEntry:
    # an empty forbidden set is a probability-zero event; it never fires
    system = ConstraintSystem.build(
        [uniform_bit(0), uniform_bit(1)],
        [Event(0, (0,), frozenset()), clause_event(1, (1,), (1,))])
    return CorpusEntry("impossible_plus", system,
                       LLLParams((F(1, 100), F(3, 4)), F(4, 5)), 18)


def toy_corpus() -> tuple[CorpusEntry, ...]:
    return (_one_bit(), _two_disjoint(), _shared_pair(), _overlap_triples(),
            _lopsided_bit(), _impossible_plus())
