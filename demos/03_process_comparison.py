"""Exhaustive certification of the two core inequalities on a toy system.

Every run branch over explicit coin strings is enumerated, so witness-tree
appearance probabilities are exact rationals. Each appearing tree is checked
against the label-product bound, and against z/(1-z) * alpha^size times the
probability that the neighbor-spawning branching process yields that tree.
"""
from lll_toolkit import check_mt_vs_gw, toy_corpus

entry = next(e for e in toy_corpus() if e.name == "overlap_triples")
system, params, budget = entry.system, entry.params, entry.bit_budget
print(f"system: {entry.name} ({len(system.events)} events over "
      f"{len(system.variables)} bits), coin budget {budget}, "
      f"z = {params.z[0]}, alpha = {params.alpha}")

# one census serves both inequalities
gw = check_mt_vs_gw(system, params, budget)
lemma = gw.lemma
print(f"\nlabel-product bound ({len(lemma.entries)} trees appeared, "
      f"unresolved mass {lemma.unresolved_mass}):")
for e in lemma.entries[:6]:
    print(f"  {e.tree.canonical_line():18s} Pr = {str(e.p_low):>12s}"
          f"  bound = {e.bound}")
print(f"  ... within horizon: {lemma.holds_within_horizon}, "
      f"fully certified: {lemma.certified}")

print(f"\nprocess comparison (condition holds: {gw.condition.holds}):")
for e in gw.entries[:6]:
    print(f"  {e.tree.canonical_line():18s} Pr = {str(e.p_mt):>12s}"
          f"  bound = {e.bound}")
print(f"  ... certified: {gw.certified}")
for root, total in sorted(gw.gw_totals.items()):
    print(f"  process law mass seen at root {root}: {total} <= 1")
