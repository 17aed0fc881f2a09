"""Slow references behind the witness-tree and process-probability fast
paths.

`tree_of_events` is the original reverse scan: every scanned event looks at
every vertex already in the tree, O(k * |T|) per tree.
`witness.tree_of_events` looks only at the latest vertex of each neighbor
label instead. `gw_tree_probability` multiplies one factor per (vertex,
neighbor label), where `galton_watson.gw_tree_probability` counts the
exponents per label first. The differential tests check each fast path
against its reference here.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from lll_toolkit.model import ConstraintSystem
from lll_toolkit.witness import WitnessTree


def tree_of_events(events: Sequence[int],
                   system: ConstraintSystem) -> WitnessTree:
    """Tree of the last event: reverse-scan the earlier ones, attaching
    each under a deepest vertex whose label neighbors it, ties to the
    lowest label."""
    nb = system.neighbor_sets
    k = len(events)
    labels = [events[-1]]
    parents = [-1]
    steps = [k]
    depths = [0]
    for t in range(k - 2, -1, -1):
        s = events[t]
        best = -1
        for v, label in enumerate(labels):
            if s in nb[label]:
                if best == -1 or ((depths[v], -labels[v])
                                  > (depths[best], -labels[best])):
                    best = v
        if best == -1:
            continue
        labels.append(s)
        parents.append(best)
        steps.append(t + 1)
        depths.append(depths[best] + 1)
    return WitnessTree(tuple(labels), tuple(parents), tuple(steps))


def gw_tree_probability(tree: WitnessTree, z: Sequence[Fraction],
                        system: ConstraintSystem) -> Fraction:
    """Per vertex and neighbor label l of its label: z_l if a son carries
    l, else 1 - z_l."""
    prob = Fraction(1)
    for v in range(tree.size):
        son_labels = {tree.labels[w] for w in range(tree.size)
                      if tree.parents[w] == v}
        for l in sorted(system.neighbor_sets[tree.labels[v]]):
            prob *= z[l] if l in son_labels else 1 - z[l]
    return prob
