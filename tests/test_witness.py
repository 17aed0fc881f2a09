from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_witness
from lll_toolkit import witness
from lll_toolkit.errors import EngineError, ModelError
from lll_toolkit.galton_watson import gw_tree_probability
from lll_toolkit.model import (ConstraintSystem, LLLParams, clause_event,
                               uniform_bit)
from lll_toolkit.tape import Tape
from lll_toolkit.engine import (SATISFIED, ResampleLog, Step,
                                log_from_event_sequence, run_finite)
from lll_toolkit.families import ChainCnfFamily
from lll_toolkit.witness import (WitnessTree, build_witness_tree,
                                 crosscheck_tape_positions,
                                 label_counts_of_events,
                                 reconstruct_tape_positions, regrown_tree,
                                 tape_positions_by_vertex,
                                 tree_of_events, tree_probability_bound,
                                 trees_for_run, validate_tree)
from test_properties import systems


F = Fraction


def test_worked_example_reverse_scan(paper_example_system):
    log = log_from_event_sequence(paper_example_system, [2, 1, 3, 4, 2])
    tree = build_witness_tree(log, 5, paper_example_system)
    assert tree.root_label == 2
    assert tree.depths() == (0, 1, 1, 2)
    # 4 skipped (no neighbors in the tree); 3 then 1 become sons of the
    # root; the final 2 goes under the deepest candidate, label 1 by the
    # lowest-label tie-break
    assert tree.labels == (2, 3, 1, 2)
    assert tree.parents == (-1, 0, 0, 2)
    assert tree.labels[tree.parents[3]] == 1
    assert 4 not in tree.labels
    assert tree.canonical_line() == "2(1(2),3)"


def test_single_step_tree_is_singleton(paper_example_system):
    log = log_from_event_sequence(paper_example_system, [2, 1, 3, 4, 2])
    tree = build_witness_tree(log, 1, paper_example_system)
    assert tree.labels == (2,)
    assert tree.size == 1


def test_non_neighbor_prefix_skipped(paper_example_system):
    log = log_from_event_sequence(paper_example_system, [1, 4])
    tree = build_witness_tree(log, 2, paper_example_system)
    assert tree.labels == (4,)


def test_bad_step_index(paper_example_system):
    log = log_from_event_sequence(paper_example_system, [2])
    with pytest.raises(ModelError):
        build_witness_tree(log, 2, paper_example_system)
    with pytest.raises(ModelError):
        build_witness_tree(log, 0, paper_example_system)


def test_canonical_equality_ignores_child_order():
    a = WitnessTree((2, 3, 1), (-1, 0, 0))
    b = WitnessTree((2, 1, 3), (-1, 0, 0))
    assert a == b
    assert hash(a) == hash(b)
    assert a.canonical_line() == b.canonical_line()


def test_a_tree_of_any_depth_has_a_canonical_line():
    # a chain deeper than the interpreter's recursion limit, as a census
    # of one repeated event at a large coin budget makes
    n = 5000
    chain = WitnessTree((0,) * n, (-1,) + tuple(range(n - 1)))
    assert chain.canonical_line() == "0(" * (n - 1) + "0" + ")" * (n - 1)


def test_trees_of_any_depth_compare_by_their_lines():
    # two separately built chains deeper than the recursion limit, and a
    # chain whose last vertex hangs one level higher
    n = 5000
    a = WitnessTree((0,) * n, (-1,) + tuple(range(n - 1)))
    b = WitnessTree((0,) * n, (-1,) + tuple(range(n - 1)))
    forked = WitnessTree((0,) * n, (-1,) + tuple(range(n - 2)) + (n - 3,))
    assert a.canon() is not b.canon()
    assert a == b and hash(a) == hash(b)
    assert a != forked


def test_tree_structural_validation():
    with pytest.raises(ModelError):
        WitnessTree((), ())
    with pytest.raises(ModelError):
        WitnessTree((1, 2), (0, -1))
    with pytest.raises(ModelError):
        WitnessTree((1, 2), (-1, 5))


# --- the sequence builder against the reference scan -------------------------

DIFFERENTIAL = settings(derandomize=True, database=None, max_examples=60,
                        deadline=None)


def as_built(tree):
    # the built form, not the canon: vertex order and steps must match too
    return tree.labels, tree.parents, tree.steps


def assert_matches_reference(events, system):
    for k in range(1, len(events) + 1):
        assert (as_built(tree_of_events(events[:k], system))
                == as_built(reference_witness.tree_of_events(events[:k],
                                                             system)))


@given(systems(), st.data())
@DIFFERENTIAL
def test_sequence_builder_matches_the_reference_scan(system, data):
    events = data.draw(st.lists(st.integers(0, len(system.events) - 1),
                                min_size=1, max_size=24))
    assert_matches_reference(events, system)


@given(systems(), st.data())
@DIFFERENTIAL
def test_label_scan_counts_the_labels_of_the_built_tree(system, data):
    # the census reads the base trees of its pending filters this way: a
    # history and a root to resample next, every prefix and root here
    n = len(system.events)
    events = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=24)))
    for k in range(len(events) + 1):
        for root in range(n):
            sequence = events[:k] + (root,)
            assert (label_counts_of_events(sequence, system)
                    == tree_of_events(sequence, system).label_counts())


@given(systems(), st.data())
@DIFFERENTIAL
def test_a_repeated_event_regrows_the_tree_before(system, data):
    # the census tally takes the tree of a step that resamples the event
    # of the step before again from that step's tree, canon included
    events = data.draw(st.lists(st.integers(0, len(system.events) - 1),
                                min_size=1, max_size=24))
    tree = tree_of_events(events, system)
    for _ in range(data.draw(st.integers(1, 3))):
        events.append(events[-1])
        tree = regrown_tree(tree, len(events))
        built = tree_of_events(events, system)
        assert as_built(tree) == as_built(built)
        assert tree.canon() == built.canon()


@given(systems(), st.data())
@DIFFERENTIAL
def test_a_regrown_tree_keeps_the_check_rows_and_counts_below_it(system,
                                                                   data):
    # the census tally takes these of a regrown tree from the tree below
    # it: the same check, that tree's rows one vertex down plus a root row
    # at one past that tree's count of each root variable, one more root
    events = data.draw(st.lists(st.integers(0, len(system.events) - 1),
                                min_size=1, max_size=24))
    tree = tree_of_events(events, system)
    for k in range(len(events) + 1, len(events) + 1 + data.draw(
            st.integers(1, 3))):
        grown = regrown_tree(tree, k)
        assert validate_tree(grown, system) == validate_tree(tree, system)
        rows = tape_positions_by_vertex(tree, system)
        touched = Counter(var for row in rows.values() for var in row)
        root = tree.root_label
        expected = {v + 1: row for v, row in rows.items()}
        expected[0] = {var: touched[var] + 1
                       for var in system.events[root].vbl}
        assert tape_positions_by_vertex(grown, system) == expected
        assert (grown.label_counts() == tree.label_counts() + Counter([root])
                == Counter(grown.labels))
        tree = grown


@pytest.mark.parametrize("length", [16, 17, 40])
def test_one_event_sequence_builds_a_path(one_bit_system, length):
    # each repeat of the event hangs under the latest, deepest vertex
    events = [0] * length
    assert_matches_reference(events, one_bit_system)
    tree = tree_of_events(events, one_bit_system)
    assert tree.parents == (-1,) + tuple(range(length - 1))
    assert tree.steps == tuple(range(length, 0, -1))


def tie_system():
    """Events 0..8 each read their own bit; event 9 reads bits 1 and 8, so
    it neighbors 1 and 8, which do not neighbor each other. Its neighbor
    set iterates 8 before 1."""
    return ConstraintSystem.build(
        [uniform_bit(i) for i in range(9)],
        [clause_event(i, (i,), (1,)) for i in range(9)]
        + [clause_event(9, (1, 8), (1, 1))])


@pytest.mark.parametrize("events", [(9, 1, 8, 9), (9, 8, 1, 9),
                                    (1, 8, 9, 1, 8, 9)])
def test_same_depth_tie_goes_to_the_lowest_label(events):
    system = tie_system()
    assert_matches_reference(events, system)
    tree = tree_of_events(events, system)
    # the scan reaches the earlier 9 with 1 and 8 at the same depth
    v = tree.labels.index(9, 1)
    assert tree.labels[tree.parents[v]] == 1


def test_every_short_sequence_over_a_tie_matches_the_reference():
    system = tie_system()
    for length in range(1, 7):
        for events in product((1, 8, 9), repeat=length):
            assert (as_built(tree_of_events(events, system))
                    == as_built(reference_witness.tree_of_events(events,
                                                                 system)))


def test_log_trees_match_the_reference_scan(chain3_system):
    bigger = ChainCnfFamily(3, 1, 13).materialize(8)
    compared = 0
    for system, seeds in ((chain3_system, range(100)), (bigger, range(60))):
        for seed in seeds:
            log = run_finite(system, Tape(seed=seed), 400).log
            events = log.events()
            for k in range(1, len(events) + 1):
                assert (as_built(build_witness_tree(log, k, system))
                        == as_built(reference_witness.tree_of_events(
                            events[:k], system)))
                compared += 1
    assert compared > 100


def test_log_builder_scans_only_the_first_k_events(chain3_system,
                                                   monkeypatch):
    scanned = []
    build = witness.tree_of_events

    def recording_build(events, system):
        scanned.append(len(events))
        return build(events, system)

    monkeypatch.setattr(witness, "tree_of_events", recording_build)
    log = log_from_event_sequence(chain3_system, [0, 1, 2, 1, 0])
    for k in range(1, 6):
        build_witness_tree(log, k, chain3_system)
    assert scanned == [1, 2, 3, 4, 5]


def test_sequence_builder_needs_an_event(one_bit_system):
    with pytest.raises(ModelError, match="at least one event"):
        tree_of_events((), one_bit_system)
    with pytest.raises(ModelError, match="at least one event"):
        label_counts_of_events((), one_bit_system)


# --- validate_tree ----------------------------------------------------------

def test_constructed_trees_always_validate(paper_example_system):
    log = log_from_event_sequence(paper_example_system, [2, 1, 3, 4, 2, 1, 3])
    for k in range(1, 8):
        tree = build_witness_tree(log, k, paper_example_system)
        assert validate_tree(tree, paper_example_system).valid


def test_same_depth_neighbors_rejected(paper_example_system):
    # 1 and 2 are neighbors but sit at the same depth under root 3
    bad = WitnessTree((3, 2, 1), (-1, 0, 0))
    check = validate_tree(bad, paper_example_system)
    assert not check.valid
    assert any("depth" in v for v in check.violations)


def test_non_neighbor_son_rejected(paper_example_system):
    bad = WitnessTree((4, 1), (-1, 0))
    check = validate_tree(bad, paper_example_system)
    assert not check.valid


def test_singleton_always_valid(paper_example_system):
    assert validate_tree(WitnessTree((3,), (-1,)),
                         paper_example_system).valid


def shared_and_apart_systems():
    """Two one-bit events, on one variable in the first system and on a
    variable each in the second: the tree 0(1) is legal in the first only."""
    events = [clause_event(0, (0,), (1,)), clause_event(1, (0,), (0,))]
    shared = ConstraintSystem.build([uniform_bit(0)], events)
    apart = ConstraintSystem.build(
        [uniform_bit(0), uniform_bit(1)],
        [events[0], clause_event(1, (1,), (0,))])
    return shared, apart


NOT_A_NEIGHBOR = "vertex 1: label 1 is not a neighbor of its father's label 0"


@pytest.mark.parametrize("caller", [
    tape_positions_by_vertex, reconstruct_tape_positions,
    lambda tree, system: gw_tree_probability(
        tree, LLLParams((F(1, 3), F(2, 5))), system),
], ids=["tape_positions_by_vertex", "reconstruct_tape_positions",
        "gw_tree_probability"])
def test_a_tree_checked_in_one_system_is_checked_again_in_another(caller):
    # a tree keeps no check (the census tally keeps its own), so each caller
    # checks the tree in the system it is given
    shared, apart = shared_and_apart_systems()
    tree = WitnessTree((0, 1), (-1, 0))
    assert validate_tree(tree, shared).valid
    caller(tree, shared)
    with pytest.raises(ModelError, match=f"^{NOT_A_NEIGHBOR}$"):
        caller(tree, apart)
    assert validate_tree(tree, apart).violations == (NOT_A_NEIGHBOR,)
    assert validate_tree(tree, shared).valid
    caller(tree, shared)


# --- trees_for_run ----------------------------------------------------------

def test_one_tree_per_step_all_distinct(chain3_system):
    for seed in (1, 6, 11, 16, 17, 29):
        result = run_finite(chain3_system, Tape(seed=seed), 100)
        trees = trees_for_run(result.log, chain3_system)
        assert len(trees) == result.resample_count
        assert len({t.canon() for t in trees}) == len(trees)


def test_repeated_isolated_event_grows_chains(one_bit_system):
    result = run_finite(one_bit_system, Tape(bits="110"), 10)
    trees = trees_for_run(result.log, one_bit_system)
    assert [t.size for t in trees] == [1, 2]


def test_empty_log_gives_no_trees(one_bit_system):
    result = run_finite(one_bit_system, Tape(bits="0"), 10)
    assert trees_for_run(result.log, one_bit_system) == []


def test_root_label_multiplicity_increases(paper_example_system):
    log = log_from_event_sequence(paper_example_system, [2, 3, 2, 1, 2])
    trees = trees_for_run(log, paper_example_system)
    counts = [t.label_counts()[2] for t in trees if t.root_label == 2]
    assert counts == sorted(counts)
    assert len(set(counts)) == len(counts)


def test_the_root_count_check_refuses_every_repeat(chain3_system,
                                                   paper_example_system):
    # admitting any earlier tree again, right after the latest step or
    # later, fails on its root count: a repeat needs no check of its own
    systems = (chain3_system, ChainCnfFamily(3, 1, 5).materialize(8),
               paper_example_system)
    runs = [(system, run_finite(system, Tape(seed=seed), 100).log)
            for system in systems for seed in range(100)]
    runs.append((paper_example_system, log_from_event_sequence(
        paper_example_system, [2, 3, 2, 1, 2])))
    refused = 0
    for system, log in runs:
        trees = trees_for_run(log, system)
        root_counts: dict = {}
        for j, tree in enumerate(trees, start=1):
            witness.admit_tree(tree, j, root_counts)
            for earlier in trees[:j]:
                with pytest.raises(EngineError, match=(
                        f"^step {j + 1}: root-label multiplicity did not "
                        "increase$")):
                    witness.admit_tree(earlier, j + 1, dict(root_counts))
                refused += 1
    assert refused > 1000


# Tree builders that break the in-run guarantee at step 2: a repeated tree,
# or a root label no more frequent than in the step-1 tree with that root.
# The root-count check refuses both.
BROKEN_BUILDS = {
    "step 2 repeats the tree of step 1":
        (WitnessTree((0,), (-1,)), WitnessTree((0,), (-1,))),
    "step 2: root-label multiplicity did not increase":
        (WitnessTree((0, 0), (-1, 0)), WitnessTree((0,), (-1,))),
}
BROKEN_BUILD_MESSAGE = "^step 2: root-label multiplicity did not increase$"


def broken_build(case):
    def build(log, k, system):
        return BROKEN_BUILDS[case][min(k, 2) - 1]
    return build


@pytest.mark.parametrize("case", sorted(BROKEN_BUILDS))
def test_broken_in_run_guarantee_is_an_engine_error(one_bit_system,
                                                    monkeypatch, case):
    monkeypatch.setattr(witness, "build_witness_tree", broken_build(case))
    result = run_finite(one_bit_system, Tape(bits="110"), 10)
    with pytest.raises(EngineError, match=BROKEN_BUILD_MESSAGE):
        trees_for_run(result.log, one_bit_system)


def test_variable_label_once_per_level(chain3_system, paper_example_system):
    for system, seeds in ((chain3_system, range(20)),):
        for seed in seeds:
            result = run_finite(system, Tape(seed=seed), 100)
            for tree in trees_for_run(result.log, system):
                depths = tree.depths()
                seen = set()
                for v in range(tree.size):
                    for var in system.events[tree.labels[v]].vbl:
                        key = (depths[v], var)
                        assert key not in seen
                        seen.add(key)


# --- tape position reconstruction -------------------------------------------

def test_singleton_positions(paper_example_system):
    tree = WitnessTree((1,), (-1,))
    assert reconstruct_tape_positions(tree, paper_example_system) == {1: [1]}


def test_worked_example_positions(paper_example_system):
    log = log_from_event_sequence(paper_example_system, [2, 1, 3, 4, 2])
    tree = build_witness_tree(log, 5, paper_example_system)
    positions = reconstruct_tape_positions(tree, paper_example_system)
    # variable 1 (shared by events 1 and 2) appears at depths 2, 1, 0:
    # consecutive positions in level order
    assert positions[1] == [1, 2, 3]
    assert positions[2] == [1, 2, 3]
    assert crosscheck_tape_positions(tree, log, paper_example_system)


def test_crosscheck_refuses_a_log_at_odds_with_its_tree(paper_example_system):
    # the root's first draw logged one position past the tree's numbering
    log = log_from_event_sequence(paper_example_system, [2, 1, 3, 4, 2])
    tree = build_witness_tree(log, 5, paper_example_system)
    last = log.steps[-1]
    (var, position, value), *rest = last.draws
    moved = Step(last.number, last.event, ((var, position + 1, value), *rest))
    shifted = ResampleLog(log.initial, log.steps[:-1] + (moved,))
    assert not crosscheck_tape_positions(tree, shifted, paper_example_system)
    # a tree not built from a log has no steps to look its draws up by
    with pytest.raises(ModelError, match="^tree does not carry originating"):
        crosscheck_tape_positions(WitnessTree(tree.labels, tree.parents),
                                  log, paper_example_system)


def test_disjoint_labels_at_one_level(paper_example_system):
    tree = WitnessTree((2, 1, 3), (-1, 0, 0))
    by_vertex = tape_positions_by_vertex(tree, paper_example_system)
    # sons touch disjoint variables, each consuming that variable's first
    # resample entry
    assert by_vertex[1] == {1: 1}
    assert by_vertex[2] == {2: 1}


def test_logged_runs_crosscheck_everywhere(chain3_system):
    checked = 0
    for seed in range(60):
        result = run_finite(chain3_system, Tape(seed=seed), 200)
        assert result.status == SATISFIED
        log = result.log
        for k in range(1, len(log.steps) + 1):
            tree = build_witness_tree(log, k, chain3_system)
            assert crosscheck_tape_positions(tree, log, chain3_system)
            checked += 1
    assert checked > 20


def test_crosscheck_on_bigger_chain():
    system = ChainCnfFamily(3, 1, 13).materialize(8)
    checked = 0
    for seed in range(40):
        result = run_finite(system, Tape(seed=seed), 400)
        assert result.status == SATISFIED
        for k in range(1, result.resample_count + 1):
            tree = build_witness_tree(result.log, k, system)
            assert crosscheck_tape_positions(tree, result.log, system)
            checked += 1
    assert checked > 40


# --- probability bound -----------------------------------------------------

def test_bound_single_label_m3_clause():
    system = ConstraintSystem.build(
        [uniform_bit(i) for i in range(3)],
        [clause_event(0, (0, 1, 2), (1, 1, 1))])
    tree = WitnessTree((0,), (-1,))
    assert tree_probability_bound(tree, system) == F(1, 8)


def test_bound_two_labels_multiplied():
    system = ConstraintSystem.build(
        [uniform_bit(i) for i in range(3)],
        [clause_event(0, (0, 1, 2), (1, 1, 1))])
    tree = WitnessTree((0, 0), (-1, 0))
    assert tree_probability_bound(tree, system) == F(1, 64)


def test_bound_zero_probability_label(paper_example_system):
    tree = WitnessTree((0,), (-1,))
    assert tree_probability_bound(tree, paper_example_system) == 0


# --- statistical appearance bound -------------------------------------------

def test_appearance_frequency_within_three_sigma():
    """Appearance frequency of the 20 most frequent trees stays within a
    3-sigma band of the label-product bound over 10^4 seeded runs."""
    system = ChainCnfFamily(3, 1, 21).materialize(4)
    trials = 10_000
    counts: dict = {}
    trees: dict = {}
    for seed in range(trials):
        result = run_finite(system, Tape(seed=seed), 300)
        assert result.status == SATISFIED
        for tree in trees_for_run(result.log, system):
            c = tree.canon()
            counts[c] = counts.get(c, 0) + 1
            trees.setdefault(c, tree)
    top = sorted(counts, key=counts.get, reverse=True)[:20]
    for canon in top:
        n = counts[canon]
        bound = tree_probability_bound(trees[canon], system)
        freq = F(n, trials)
        # exact comparison: freq <= bound + 3*sqrt(freq(1-freq)/trials)
        slack = freq - bound
        if slack <= 0:
            continue
        assert slack * slack * trials <= 9 * freq * (1 - freq)
