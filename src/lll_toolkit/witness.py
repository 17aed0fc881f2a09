"""Witness trees: the accounting device of the resampling analysis.

The tree for step k is built by scanning the resampled events backwards from
k. Each earlier resampling that shares a variable with a label already in
the tree is attached as a son of a deepest such vertex; everything else is
skipped. A tree thus depends only on the sequence of resampled events, never
on the values drawn: `tree_of_events` builds it from that sequence, and
`build_witness_tree` reads the sequence off a log. The resulting trees
determine exactly which table entries each variable consumed, and the
probability that a given tree shows up in a run is bounded by the product of
its labels' event probabilities.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import EngineError, ModelError
from .model import ConstraintSystem, event_probability
from .engine import ResampleLog


def canon_line(canon) -> str:
    """The text form of a canon (`WitnessTree.canon`): a leaf's label, or
    `label(child,...)` with the children in canon order. Written from a
    stack of canons and closing text, so a tree of any depth has a line."""
    if not canon[1]:
        return str(canon[0])
    parts: list[str] = []
    stack = [canon]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            parts.append(item)
            continue
        label, children = item
        parts.append(str(label))
        if children:
            parts.append("(")
            stack.append(")")
            for child in reversed(children[1:]):
                stack.append(child)
                stack.append(",")
            stack.append(children[0])
    return "".join(parts)


@dataclass(frozen=True)
class WitnessTree:
    """Rooted event-labeled tree; vertex 0 is the root.

    `steps` optionally remembers which log step created each vertex; it is
    diagnostic only and excluded from equality. Trees compare by their
    canonical line and hash by their canonical (unordered) form. Besides
    its fields, a tree keeps only its depths, and a regrown tree
    (`regrown_tree`) its canon.
    """

    labels: tuple[int, ...]
    parents: tuple[int, ...]
    steps: tuple[int, ...] = field(default=(), compare=False)
    # a tree regrown from another (`regrown_tree`) is made with its canon;
    # any other tree reads this class-level default and forms its canon
    _canon = None

    def __post_init__(self):
        if not self.labels:
            raise ModelError("a witness tree needs at least a root")
        if len(self.parents) != len(self.labels):
            raise ModelError("labels/parents length mismatch")
        if self.parents[0] != -1:
            raise ModelError("vertex 0 must be the root (parent -1)")
        depths = [0]
        for v in range(1, len(self.parents)):
            p = self.parents[v]
            if not 0 <= p < v:
                raise ModelError(f"vertex {v} has bad parent {p}")
            depths.append(depths[p] + 1)
        object.__setattr__(self, "_depths", tuple(depths))

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def root_label(self) -> int:
        return self.labels[0]

    def depths(self) -> tuple[int, ...]:
        return self._depths

    def label_counts(self) -> Counter:
        return Counter(self.labels)

    def canon(self):
        """Canonical nested-tuple form: (label, sorted children canons)."""
        if self._canon is not None:
            return self._canon
        kids: list[list] = [[] for _ in range(self.size)]
        for v in range(self.size - 1, 0, -1):
            kids[self.parents[v]].append(v)
        memo: dict[int, tuple] = {}
        for v in range(self.size - 1, -1, -1):
            memo[v] = (self.labels[v],
                       tuple(sorted(memo[w] for w in kids[v])))
        return memo[0]

    def canonical_line(self) -> str:
        return canon_line(self.canon())

    def to_indented(self) -> str:
        """One line a vertex, two spaces a level, each vertex before its
        sons in vertex order; walked from a stack, so any depth has a text."""
        sons: list[list[int]] = [[] for _ in range(self.size)]
        for v in range(self.size - 1, 0, -1):  # falling: least popped first
            sons[self.parents[v]].append(v)
        lines, stack = [], [0]
        while stack:
            v = stack.pop()
            lines.append("  " * self._depths[v] + str(self.labels[v]))
            stack += sons[v]
        return "\n".join(lines)

    def __eq__(self, other):
        if not isinstance(other, WitnessTree):
            return NotImplemented
        # by line: comparing nested canon tuples recurses once per level
        return self.canonical_line() == other.canonical_line()

    def __hash__(self):
        return hash(self.canon())


def tree_of_events(events: Sequence[int],
                   system: ConstraintSystem) -> WitnessTree:
    """Tree of the last event of a resample-order event sequence.

    Reverse-scans the earlier events, attaching each one that neighbors a
    label already in the tree as a son of a deepest such vertex; ties break
    to the lowest label (same-depth vertices never share a label, so depth
    plus label is a total order). Every event is its own neighbor, so a
    label's latest vertex is its deepest one, and the scan needs only the
    latest vertex of each neighbor of the scanned event; events that
    neighbor no label in the tree are skipped with one set lookup. Vertex
    steps are 1-based positions in `events`.
    """
    k = len(events)
    if k == 0:
        raise ModelError("a witness tree needs at least one event")
    nb = system.neighbor_sets
    root = events[-1]
    labels = [root]
    parents = [-1]
    steps = [k]
    depths = [0]
    latest = {root: 0}  # label -> its deepest (latest) vertex
    near = set(nb[root])  # every neighbor of a label in the tree
    for t in range(k - 2, -1, -1):
        s = events[t]
        if s not in near:
            continue
        best, best_depth, best_label = -1, -1, 0
        for label in nb[s]:
            v = latest.get(label)
            if v is None:
                continue
            d = depths[v]
            if d > best_depth or (d == best_depth and label < best_label):
                best, best_depth, best_label = v, d, label
        latest[s] = len(labels)
        near |= nb[s]
        labels.append(s)
        parents.append(best)
        steps.append(t + 1)
        depths.append(best_depth + 1)
    return WitnessTree(tuple(labels), tuple(parents), tuple(steps))


def regrown_tree(tree: WitnessTree, k: int) -> WitnessTree:
    """`tree_of_events` of a sequence whose step k resamples the event of
    step k-1 again, from `tree`, the tree of step k-1: that tree hung under
    a new root of its root's label.

    The reverse scan from step k meets step k-1 first and hangs it under
    the root. From there each earlier event finds the latest vertex of each
    label, and the neighbors of the labels so far, as the scan from step
    k-1 did, only one level deeper, so it attaches where that scan did.
    The root's one son is the old root, so the canon is `tree`'s under the
    label: the new tree is made with it, in O(1), and never walks its
    vertices for it. It is legal iff `tree` is (the root's one son carries
    its own label, a neighbor, and every other level is `tree`'s one level
    down), and its tape positions are `tree`'s plus a root row; the census
    tally takes both from `tree` rather than check and position it again.
    """
    root = tree.labels[0]
    grown = WitnessTree((root,) + tree.labels,
                        (-1,) + tuple(p + 1 for p in tree.parents),
                        (k,) + tree.steps)
    object.__setattr__(grown, "_canon", (root, (tree.canon(),)))
    return grown


def label_counts_of_events(events: Sequence[int],
                           system: ConstraintSystem) -> dict[int, int]:
    """The label multiset of `tree_of_events(events, system)`, without the
    tree: the same reverse scan keeps an earlier event iff it neighbors a
    label already kept, and builds no vertex."""
    if not events:
        raise ModelError("a witness tree needs at least one event")
    nb = system.neighbor_sets
    root = events[-1]
    counts = {root: 1}
    near = set(nb[root])
    for t in range(len(events) - 2, -1, -1):
        s = events[t]
        if s in near:
            counts[s] = counts.get(s, 0) + 1
            near |= nb[s]
    return counts


def build_witness_tree(log: ResampleLog, k: int,
                       system: ConstraintSystem) -> WitnessTree:
    """Tree for step k of a log: `tree_of_events` over its first k events."""
    if not log.steps:
        raise ModelError("the log has no steps")
    if not 1 <= k <= len(log.steps):
        raise ModelError(f"step must be in 1..{len(log.steps)}, got {k}")
    return tree_of_events([step.event for step in log.steps[:k]], system)


def trees_for_run(log: ResampleLog,
                  system: ConstraintSystem) -> list[WitnessTree]:
    """One tree per resampling; asserts the in-run distinctness guarantees."""
    trees = [build_witness_tree(log, k, system)
             for k in range(1, len(log.steps) + 1)]
    root_counts: dict[int, int] = {}
    for k, tree in enumerate(trees, start=1):
        admit_tree(tree, k, root_counts)
    return trees


def admit_tree(tree: WitnessTree, k: int, root_counts: dict[int, int]) -> None:
    """Record step k's tree after the trees of steps 1..k-1.

    `root_counts` maps each root label to its multiplicity in the latest
    tree rooted there. Raises EngineError if the tree's root label occurs
    no more often than there (`check_root_grew`), which also refuses a
    tree that repeats an earlier one.
    """
    root = tree.root_label
    n_root = tree.labels.count(root)
    check_root_grew(root, n_root, k, root_counts)
    root_counts[root] = n_root


def check_root_grew(root: int, n_root: int, k: int,
                    root_counts: dict[int, int]) -> None:
    """Raise EngineError unless step k's tree, rooted at `root` with
    `n_root` vertices of that label, has more of them than the latest
    earlier tree rooted there. A tree that passes differs from every
    earlier tree: from those with its root by that count, from the others
    by its root."""
    if n_root <= root_counts.get(root, 0):
        raise EngineError(
            f"step {k}: root-label multiplicity did not increase")


@dataclass(frozen=True)
class TreeValidation:
    valid: bool
    violations: tuple[str, ...]


def validate_tree(tree: WitnessTree, system: ConstraintSystem) -> TreeValidation:
    """Membership check for the legal tree class.

    Sons must be distinct, pairwise non-neighboring neighbors of their
    father's label, and more generally no two same-depth vertices may be
    neighbors.

    Each call checks the tree and keeps nothing. A census checks once,
    through `tape_positions_by_vertex`, each distinct tree it first meets
    built (`tree_of_events`); one first met regrown (`regrown_tree`) is
    legal iff the tree below it is, and is not checked again.
    """
    violations = _violations(tree, system)
    return TreeValidation(not violations, violations)


def _violations(tree: WitnessTree,
                system: ConstraintSystem) -> tuple[str, ...]:
    nb = system.neighbor_sets
    violations: list[str] = []
    for label in tree.labels:
        if not 0 <= label < len(system.events):
            return (f"unknown event label {label}",)
    for v in range(1, tree.size):
        father = tree.labels[tree.parents[v]]
        if tree.labels[v] not in nb[father]:
            violations.append(
                f"vertex {v}: label {tree.labels[v]} is not a neighbor "
                f"of its father's label {father}")
    by_depth: dict[int, list[int]] = {}
    for v, d in enumerate(tree._depths):
        by_depth.setdefault(d, []).append(v)
    for d, vertices in by_depth.items():
        for a_pos, v in enumerate(vertices):
            for w in vertices[a_pos + 1:]:
                if tree.labels[w] in nb[tree.labels[v]]:
                    violations.append(
                        f"vertices {v} and {w} at depth {d} carry "
                        f"neighboring labels {tree.labels[v]}, {tree.labels[w]}")
    return tuple(violations)


def label_product(counts: dict[int, int], probs) -> Fraction:
    """Product of `probs[label] ** n` over a label multiset {label: n}, as
    one integer numerator and denominator."""
    num = den = 1
    for label, n in counts.items():
        p = probs[label]
        num *= p.numerator ** n
        den *= p.denominator ** n
    return Fraction(num, den)


def tree_probability_bound(tree: WitnessTree,
                           system: ConstraintSystem) -> Fraction:
    """Product of event probabilities over all labels, multiplicity included."""
    return label_product(tree.label_counts(), {
        label: event_probability(system.events[label], system)
        for label in set(tree.labels)})


def reconstruct_tape_positions(tree: WitnessTree,
                               system: ConstraintSystem) -> dict[int, list[int]]:
    """Table positions each variable consumed, derived from the tree alone.

    The per-vertex numbering of `tape_positions_by_vertex`, gathered per
    variable: x^1, x^2, ... in deepest-first vertex order.
    """
    out: dict[int, list[int]] = {}
    for row in tape_positions_by_vertex(tree, system).values():
        for var, position in row.items():
            out.setdefault(var, []).append(position)
    return out


def tape_positions_by_vertex(tree: WitnessTree,
                             system: ConstraintSystem) -> dict[int, dict[int, int]]:
    """Per vertex: {variable: consumed position}, deepest-first numbering.

    A variable occurs at most once per depth level (events sharing it are
    neighbors, which a legal tree keeps at different depths) and deeper
    levels happen earlier, so the vertices touching a variable, deepest
    first, consumed its values x^1, x^2, ... in order. The tree is checked
    first: the census's tally positions here each distinct tree it first
    meets built, once, and gives one first met regrown the rows of the
    tree below it plus its root's.
    """
    check = validate_tree(tree, system)
    if not check.valid:
        raise ModelError("; ".join(check.violations))
    depths = tree._depths
    counters: dict[int, int] = {}
    out: dict[int, dict[int, int]] = {}
    for v in sorted(range(tree.size), key=lambda v: -depths[v]):
        row = {}
        for var in system.events[tree.labels[v]].vbl:
            counters[var] = counters.get(var, 0) + 1
            row[var] = counters[var]
        out[v] = row
    return out


def crosscheck_tape_positions(tree: WitnessTree, log: ResampleLog,
                              system: ConstraintSystem) -> bool:
    """True iff tree-derived positions equal the log's recorded consumption.

    Requires a tree built from this log (vertex step numbers present).
    """
    if len(tree.steps) != tree.size:
        raise ModelError("tree does not carry originating step numbers")
    derived = tape_positions_by_vertex(tree, system)
    for v, step_number in enumerate(tree.steps):
        step = log.steps[step_number - 1]
        logged = {var: position for var, position, _ in step.draws}
        if derived[v] != logged:
            return False
    return True
