"""Exact condition checks and the resampling solver on a small CNF chain.

Three 3-variable clauses in a row, each sharing one variable with the next.
With z = 1/2 everywhere the per-event condition holds (with equality at the
middle clause), so the solver finds a satisfying assignment and the
avoiding mass is at least prod (1 - z_i) = 1/8.
"""
from fractions import Fraction as F

from lll_toolkit import (ConstraintSystem, LLLParams, Tape,
                         avoiding_probability, check_lll, clause_event,
                         run_finite, suggested_max_steps, uniform_bit)

variables = [uniform_bit(i) for i in range(7)]
events = [clause_event(0, (0, 1, 2), (1, 1, 1)),
          clause_event(1, (2, 3, 4), (0, 0, 0)),
          clause_event(2, (4, 5, 6), (1, 0, 1))]
system = ConstraintSystem.build(variables, events)

params = LLLParams.constant(F(1, 2), 3)
report = check_lll(system, params)
print("per-event condition (exact rationals):")
for entry in report.entries:
    print(f"  event {entry.index}: Pr = {entry.lhs}  <=  {entry.rhs}"
          f"  -> {'ok' if entry.holds else 'VIOLATED'}")
print(f"guaranteed avoiding mass >= {report.avoid_bound}")

mass = avoiding_probability(system)
print(f"exact avoiding mass (brute force over 2^7 assignments): {mass}")
assert mass >= report.avoid_bound

print("\nsolver runs (seeded, deterministic replay):")
for seed in (1, 6, 29):
    result = run_finite(system, Tape(seed=seed), suggested_max_steps(params))
    print(f"  seed {seed}: {result.status} after {result.resample_count} "
          f"resamples -> {result.assignment}")
    assert not any(system.is_true(i, result.assignment) for i in range(3))
print("every returned assignment avoids every event")
