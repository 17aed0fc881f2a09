"""Stable output prefixes: horizon certificates and exact extraction.

For an infinite chain of 4-variable clauses the toolkit certifies a step
count N(cell, delta) after which the cell changes with probability at most
delta; on finite toy systems it walks the solver's output measure and
returns a prefix carrying proven-positive mass bounds.
"""
from fractions import Fraction as F

from lll_toolkit import (ChainCnfFamily, ConstraintSystem, StreamParams,
                         SystemQOracle, avoiding_assignments, clause_event,
                         compute_assignment_prefix, stability_horizon,
                         uniform_bit)

family = ChainCnfFamily(4, overlap=1, polarity_seed=7)
params = StreamParams.constant(F(1, 4), F(1, 2))
print("horizon certificates for cell 0 of the clause chain:")
for delta in (F(1, 4), F(1, 16)):
    cert = stability_horizon(family, params, cell=0, delta=delta)
    term = cert.terms[0]
    print(f"  delta = {delta}: N = {cert.N}  (tree size m = {term.m}, "
          f"covering prefix k = {term.k}, step bound t = {term.t})")
    print(f"    exact tail total {cert.total_bound(params)} <= {delta}")

variables = [uniform_bit(i) for i in range(5)]
events = [clause_event(0, (0, 1, 2), (1, 1, 1)),
          clause_event(1, (2, 3, 4), (0, 0, 0))]
system = ConstraintSystem.build(variables, events)

# one oracle serves every interval: it keeps its highest census and reads
# the lower budgets off it
oracle = SystemQOracle(system)
print("\noutput-distribution intervals for the two-clause system:")
for prefix in ((0,), (1,), (1, 1)):
    lo, hi = oracle.interval(prefix, F(1, 64))
    print(f"  Pr[output starts with {prefix}] in [{lo}, {hi}]")

result = compute_assignment_prefix(system, None, 5, mode="exact",
                                   delta=F(1, 64))
print(f"\nexact extracted prefix: {result.values}")
print(f"per-cell positive mass bounds: "
      f"{[str(b) for b in result.cell_bounds]}")
lo, hi = result.interval
print(f"mass of the full prefix in [{lo}, {hi}]")
avoiders = avoiding_assignments(system)
assert any(a[:5] == result.values for a in avoiders)
print("cross-checked: the prefix extends to a brute-force avoiding "
      "assignment")
