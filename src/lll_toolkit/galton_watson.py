"""The branching-process side of the analysis.

A spawning process rooted at one event grows a tree: every vertex labeled j
independently attaches a son labeled l, for each neighbor l of j, with
probability z_l, the weight the system's `LLLParams` gives event l. The law
of that process dominates witness-tree appearance: for a tree T with root i,

    Pr[T appears during a run] <= z_i/(1-z_i) * alpha^size(T) * Pr[process yields T]

whenever the (alpha-strengthened) per-event condition holds. This module
computes both sides exactly on systems small enough for exhaustive run
enumeration.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ModelError
from .model import (ConditionReport, ConstraintSystem, LLLParams, ONE, ZERO,
                    check_lll)
from .tape import Tape
from .witness import WitnessTree, validate_tree
from .exhaustive import LemmaReport, TreeAppearance, census_runs


def gw_tree_probability(tree: WitnessTree, params: LLLParams,
                        system: ConstraintSystem) -> Fraction:
    """Exact probability that the spawning process yields exactly this tree.

    Per vertex: a factor z_l for each neighbor label l attached as a son,
    and (1 - z_l) for each neighbor label not attached. The factors are
    counted per label first, from the tree's label counts: with z_l = a/b,
    label l spawned s times out of o offers contributes a^s (b - a)^(o - s)
    over b^o. Numerators and denominators are multiplied as integers, and
    one `Fraction` is formed at the end. The tree is checked first
    (`validate_tree`).
    """
    check = validate_tree(tree, system)
    if not check.valid:
        raise ModelError("; ".join(check.violations))
    if len(params.z) != len(system.events):
        raise ModelError("params.z must cover every event")
    return _process_probability(tree.label_counts(), tree.root_label,
                                params, system)


def _process_probability(counts: dict, root: int, params: LLLParams,
                         system: ConstraintSystem) -> Fraction:
    """`gw_tree_probability` of a legal tree, from its label counts."""
    # a legal tree's sons carry distinct labels that their father's label
    # offers, so label l spawned once per non-root vertex carrying it and
    # was missed at every other offer
    offered: dict = {}
    for label, n in counts.items():
        for l in system.neighbor_sets[label]:
            offered[l] = offered.get(l, 0) + n
    num = den = 1
    for l, o in offered.items():
        a, b = params.z[l].numerator, params.z[l].denominator
        s = counts[l] - (l == root)
        num *= a ** s * (b - a) ** (o - s)
        den *= b ** o
    return Fraction(num, den)


def gw_sample(params: LLLParams, root: int, system: ConstraintSystem,
              tape: Tape, depth_budget: int) -> Optional[WitnessTree]:
    """Sample one tree from `root`, breadth-first, spawning in label order.

    Returns None when a vertex at the depth budget spawns a son (the branch
    is treated as non-terminating at desk scale).
    """
    if not 0 <= root < len(params.z):
        raise ModelError(
            f"root {root} is not an event in 0..{len(params.z) - 1}")
    if depth_budget < 0:
        raise ModelError("depth_budget must be >= 0")
    labels = [root]
    parents = [-1]
    depths = [0]
    frontier = [0]
    draw_count = 0
    while frontier:
        next_frontier = []
        for v in frontier:
            for l in sorted(system.neighbor_sets[labels[v]]):
                zl = params.z[l]
                spawned = tape.draw(draw_count, (ONE - zl, zl)) == 1
                draw_count += 1
                if spawned:
                    if depths[v] >= depth_budget:
                        return None
                    labels.append(l)
                    parents.append(v)
                    depths.append(depths[v] + 1)
                    next_frontier.append(len(labels) - 1)
        frontier = next_frontier
    return WitnessTree(tuple(labels), tuple(parents))


@dataclass(frozen=True)
class GWComparisonEntry(TreeAppearance):
    """A tree's appearance checked against the process bound:
    z_root/(1-z_root) * alpha^size * gw_probability."""

    gw_probability: Fraction

    @property
    def p_mt(self) -> Fraction:
        """`p_low` under its old name, kept only because the benchmark's
        `perfbench/workloads.py` reads it (ROADMAP item 2); the package
        reads `p_low`."""
        return self.p_low


@dataclass(frozen=True)
class GWComparisonReport(LemmaReport):
    """The census's appearances, each priced by the process bound, with the
    per-event condition and the tree lemma (`lemma`) over the same census."""

    condition: ConditionReport
    lemma: LemmaReport
    gw_totals: dict  # root label -> sum of gw probabilities over seen trees

    @property
    def gw_totals_ok(self) -> bool:
        return all(total <= ONE for total in self.gw_totals.values())


def check_mt_vs_gw(system: ConstraintSystem, params: LLLParams,
                   bit_budget: int) -> GWComparisonReport:
    """Compare exact appearance probabilities against the process bound.

    One census serves both inequalities. Its tree-lemma report (`lemma`,
    as `check_tree_lemma`) is reported alongside, and each of its entries
    comes back with the same p_low and pending, priced instead by
    z_root/(1-z_root) * alpha^size * Pr[process yields the tree]; alpha = 1
    gives the plain bound. The verdicts are `LemmaReport`'s, over those
    bounds. The per-event condition at the same alpha is checked first and
    reported alongside. Each bound is one `Fraction` of integers:
    a c^size n / ((b - a) d^size m) for z_root = a/b, alpha = c/d and
    process probability n/m, from the tree's label counts without a second
    check: the census's tally checked every tree it lists.
    """
    condition = check_lll(system, params)
    lemma = LemmaReport.of(census_runs(system, bit_budget))
    entries = []
    gw_totals: dict[int, Fraction] = {}
    c, d = params.alpha.numerator, params.alpha.denominator
    for appearance in lemma.entries:
        tree = appearance.tree
        root = tree.root_label
        gw_p = _process_probability(tree.label_counts(), root, params, system)
        a, b = params.z[root].numerator, params.z[root].denominator
        bound = Fraction(a * c ** tree.size * gw_p.numerator,
                         (b - a) * d ** tree.size * gw_p.denominator)
        gw_totals[root] = gw_totals.get(root, ZERO) + gw_p
        entries.append(GWComparisonEntry(tree, appearance.p_low,
                                         appearance.pending, bound, gw_p))
    return GWComparisonReport(tuple(entries), lemma.unresolved_mass,
                              lemma.branch_count, condition, lemma, gw_totals)
