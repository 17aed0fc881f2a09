from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import product
from time import perf_counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_census
from lll_toolkit import exhaustive, witness
from lll_toolkit.corpus import toy_corpus
from lll_toolkit.engine import BUDGET_EXCEEDED, run_finite
from lll_toolkit.errors import BudgetRefused, EngineError, ModelError
from lll_toolkit.families import ChainCnfFamily
from lll_toolkit.galton_watson import check_mt_vs_gw
from lll_toolkit.layerwise import compute_assignment_prefix
from lll_toolkit.model import (ConstraintSystem, Event, LLLParams,
                               VariableSpec, clause_event, event_probability,
                               uniform_bit)
from lll_toolkit.tape import Sampler, Tape
from lll_toolkit.witness import tree_probability_bound
from test_properties import systems
from test_witness import BROKEN_BUILD_MESSAGE, BROKEN_BUILDS, broken_build

DIFFERENTIAL = settings(derandomize=True, database=None, max_examples=30,
                        deadline=None)


def test_run_ending_before_its_prefix_is_a_typed_error(chain2_system,
                                                       monkeypatch):
    # a run that ends without demanding every coin of its prefix would make
    # the enumerated branch weights wrong; it must raise, also under
    # `python -O`
    def run_ignoring_prefix(system, tape, max_steps):
        if tape.bits:
            tape = Tape(seed=0)
        return run_finite(system, tape, max_steps)

    monkeypatch.setattr(exhaustive, "run_finite", run_ignoring_prefix)
    with pytest.raises(EngineError, match="ended after 0 of its 1 coins"):
        list(exhaustive.enumerate_runs(chain2_system, 4))


def test_census_losing_mass_is_a_typed_error(chain2_system, monkeypatch):
    # a draw that forgets its cut-off coin paths leaves resolved plus
    # unresolved mass short of one
    draw_paths = exhaustive._draw_paths

    def dropping_cut_paths(slots, coins_left):
        settled, _ = draw_paths(slots, coins_left)
        return settled, 0

    monkeypatch.setattr(exhaustive, "_draw_paths", dropping_cut_paths)
    with pytest.raises(EngineError, match="census masses sum to"):
        exhaustive.census_runs(chain2_system, 4, want_trees=False)


@pytest.mark.parametrize("case", sorted(BROKEN_BUILDS))
def test_census_keeps_the_in_run_tree_checks(one_bit_system, monkeypatch,
                                             case):
    # the census builds each history's trees one step at a time; a history
    # of two resamples must still fail the check of its second tree. Every
    # history of the one event repeats it, so its second tree is regrown
    # from the first: both ways of building a tree are broken here.
    build = broken_build(case)
    monkeypatch.setattr(exhaustive, "tree_of_events",
                        lambda events, system: build(None, len(events), system))
    monkeypatch.setattr(exhaustive, "regrown_tree",
                        lambda tree, k: build(None, k, None))
    with pytest.raises(EngineError, match=BROKEN_BUILD_MESSAGE):
        exhaustive.census_runs(one_bit_system, 3)


@pytest.mark.parametrize("step_guard", [None, 1])
def test_census_checks_the_root_counts_of_hypothetical_steps(
        one_bit_system, monkeypatch, step_guard):
    # at 2 coins every unresolved run has resampled event 0 once. Without
    # a step guard the run is cut while resampling it again, the in-flight
    # step 2; with step guard 1 it stops there, and the pending filters
    # look at resampling it as step 2. A scan that finds the root alone
    # fails the multiplicity check either way.
    monkeypatch.setattr(exhaustive, "label_counts_of_events",
                        lambda events, system: {events[-1]: 1})
    with pytest.raises(EngineError, match="^step 2: root-label multiplicity"):
        exhaustive.census_runs(one_bit_system, 2, step_guard)


@pytest.mark.parametrize("want_trees", [False, True])
def test_branch_guard_refuses_past_the_visited_prefix_tree(
        chain2_system, want_trees):
    entry = next(e for e in toy_corpus() if e.name == "shared_pair")
    for system, budget in ((entry.system, entry.bit_budget),
                           (chain2_system, 10)):
        leaves = exhaustive.census_runs(system, budget,
                                        want_trees=want_trees).branch_count
        with pytest.raises(BudgetRefused, match="branch guard"):
            exhaustive.census_runs(system, budget,
                                   branch_guard=2 * leaves - 2,
                                   want_trees=want_trees)
        census = exhaustive.census_runs(system, budget,
                                        branch_guard=2 * leaves - 1,
                                        want_trees=want_trees)
        assert census.branch_count == leaves


@pytest.mark.parametrize("want_trees", [False, True])
def test_negative_budget_or_step_guard_is_a_model_error(chain2_system,
                                                        want_trees):
    with pytest.raises(ModelError, match="bit_budget"):
        exhaustive.census_runs(chain2_system, -1, want_trees=want_trees)
    with pytest.raises(ModelError, match="step_guard"):
        exhaustive.census_runs(chain2_system, 4, -1, want_trees=want_trees)
    for branch_guard in (0, -5):
        with pytest.raises(ModelError, match="branch_guard"):
            exhaustive.census_runs(chain2_system, 4, branch_guard=branch_guard,
                                   want_trees=want_trees)
        with pytest.raises(ModelError, match="branch_guard"):
            next(exhaustive.enumerate_runs(chain2_system, 4,
                                           branch_guard=branch_guard))


def output_view(census):
    return (census.output_mass, census.resolved_mass, census.unresolved_mass,
            census.branch_count)


@pytest.mark.parametrize("step_guard", [0, 1, 2, 3])
def test_step_guard_cuts_as_in_the_reference(step_guard):
    for entry in toy_corpus():
        args = (entry.system, entry.bit_budget, step_guard)
        assert (output_view(exhaustive.census_runs(*args, want_trees=False))
                == output_view(reference_census.census_runs(
                    *args, want_trees=False)))
        census = exhaustive.census_runs(*args)
        reference = reference_census.census_runs(*args)
        assert census.appearance_list() == reference.appearance_list()
        assert output_view(census) == output_view(reference)


def test_mid_resample_cut_matches_the_reference():
    # two_disjoint (uniform x0, x1; events x0 = 1 and x1 = 1) at 4 coins:
    # coins 1110 redraw x0 twice, then run out while redrawing x1 for
    # event 1. That resample completes before anything an extension logs,
    # so tree 1(1) can still first appear there, and the run's 1/16 stays
    # pending on it undiscounted: x1's second value is the one in flight.
    # Coins 1111, cut while redrawing x0 with x1 = 1, add 1/16 * 1/2.
    entry = next(e for e in toy_corpus() if e.name == "two_disjoint")
    branch = next(b for b in exhaustive.enumerate_runs(entry.system, 4)
                  if b.bits == "1110")
    assert (branch.log.events(), branch.in_flight_event) == ((0, 0), 1)
    census = exhaustive.census_runs(entry.system, 4)
    reference = reference_census.census_runs(entry.system, 4)
    assert census.appearance_list() == reference.appearance_list()
    assert output_view(census) == output_view(reference)
    pending = {a.tree.canonical_line(): a.pending
               for a in census.appearance_list()}
    assert pending == {"0": 0, "1": Fraction(1, 16), "0(0)": 0,
                       "1(1)": Fraction(3, 32)}


# small step guards cut runs whose coins would last longer
STEP_GUARDS = st.one_of(st.none(), st.integers(0, 6))


@given(systems(point_masses=True), st.integers(0, 10), STEP_GUARDS)
@DIFFERENTIAL
def test_output_census_matches_the_reference(system, budget, step_guard):
    census = exhaustive.census_runs(system, budget, step_guard,
                                    want_trees=False)
    reference = reference_census.census_runs(system, budget, step_guard,
                                             want_trees=False)
    assert output_view(census) == output_view(reference)
    assert all(isinstance(m, Fraction) for m in census.output_mass.values())


@given(systems(point_masses=True), st.integers(0, 10), STEP_GUARDS)
@DIFFERENTIAL
def test_tree_census_matches_the_reference(system, budget, step_guard):
    census = exhaustive.census_runs(system, budget, step_guard)
    reference = reference_census.census_runs(system, budget, step_guard)
    assert census.appearance_list() == reference.appearance_list()
    assert output_view(census) == output_view(reference)


def appearance_view(appearances):
    return {canon: (a.p_low, a.pending, a.bound)
            for canon, a in appearances.items()}


def listed_canons(appearances):
    return [a.tree.canon() for a in exhaustive.RunCensus.appearance_list(
        SimpleNamespace(appearances=appearances))]


@given(systems(point_masses=True), st.integers(0, 10),
       st.sampled_from([None, 2]))
@DIFFERENTIAL
def test_tree_tally_matches_the_reference_tally(system, budget, step_guard):
    # both tallies read the same tables, so any difference is the tally's:
    # the reference scans every reached history's tree from its sequence
    reached, cut = census_tables(system, budget, step_guard)
    tally = exhaustive._tree_tally(system, reached, cut, 1 << budget)
    reference = reference_census.tree_tally(system, reached, cut, 1 << budget)
    assert appearance_view(tally) == appearance_view(reference)
    assert listed_canons(tally) == listed_canons(reference)


@given(systems(point_masses=True), st.sampled_from([3, 6, 10]), STEP_GUARDS)
@DIFFERENTIAL
def test_reached_lists_every_history_after_its_prefix(system, budget,
                                                      step_guard):
    # the tally extends each history's entry from its prefix's in one step
    reached, _ = census_tables(system, budget, step_guard)
    seen = {()}
    for history in reached:
        assert history[:-1] in seen
        seen.add(history)


@st.composite
def wide_systems(draw):
    """Up to 3 variables of range 1, 2, 4 or 5, whose packed census fields
    are 0, 1, 2 and 3 bits wide; a range-5 field has codes 5-7 that stand
    for no value. Laws have integer weights over totals such as 3, 5 or 7,
    some of them zero, so most draws read a varying number of coins."""
    variables = []
    for v, size in enumerate(draw(st.lists(st.sampled_from([1, 2, 4, 5]),
                                           min_size=1, max_size=3))):
        weights = draw(st.lists(st.integers(0, 3), min_size=size,
                                max_size=size).filter(any))
        variables.append(VariableSpec(
            v, tuple(Fraction(w, sum(weights)) for w in weights)))
    events = []
    for i in range(draw(st.integers(1, 3))):
        vbl = tuple(sorted(draw(st.sets(
            st.integers(0, len(variables) - 1), min_size=1, max_size=3))))
        space = list(product(*(range(variables[v].range_size)
                               for v in vbl)))
        events.append(Event(i, vbl, frozenset(draw(st.sets(
            st.sampled_from(space), max_size=min(3, len(space)))))))
    return ConstraintSystem.build(variables, events)


@given(wide_systems(), st.integers(3, 12), STEP_GUARDS)
@settings(DIFFERENTIAL, max_examples=100)
def test_census_on_wide_fields_matches_the_reference(system, budget,
                                                     step_guard):
    census = exhaustive.census_runs(system, budget, step_guard,
                                    want_trees=False)
    reference = reference_census.census_runs(system, budget, step_guard,
                                             want_trees=False)
    assert output_view(census) == output_view(reference)
    census = exhaustive.census_runs(system, budget, step_guard)
    reference = reference_census.census_runs(system, budget, step_guard)
    assert census.appearance_list() == reference.appearance_list()
    assert output_view(census) == output_view(reference)


@given(st.lists(st.integers(0, 9), min_size=1, max_size=4).filter(any))
@DIFFERENTIAL
def test_a_draw_reads_at_most_its_depth(weights):
    # a dyadic law's draw settles within depth coins and not within one
    # fewer; a non-dyadic law leaves a path unsettled at every budget
    law = [Fraction(w, sum(weights)) for w in weights]
    sampler = Sampler(law)
    if any(p.denominator & (p.denominator - 1) for p in law):
        assert sampler.depth is None
        assert exhaustive._draw_paths(sampler, 12)[1] > 0
        return
    assert exhaustive._draw_paths(sampler, sampler.depth)[1] == 0
    if sampler.depth:
        assert exhaustive._draw_paths(sampler, sampler.depth - 1)[1] > 0


# x0 and x1 follow the law and x2 is a fair bit. The caps of the events'
# redraws, the most coins each reads, are 2, 5 and 2 for the depth-2 law
# and 0, 1 and 0 for the point mass, whose event 2 loops with no coin; the
# non-dyadic law has none. Budgets 0-7 hold cap - 1, cap and cap + 1 of
# every event.
CAPPED_LAWS = {"depth-2": ((Fraction(3, 4), Fraction(1, 4)), 2),
               "non-dyadic": ((Fraction(1, 3), Fraction(2, 3)), None),
               "point-mass": ((Fraction(1), Fraction(0)), 0)}


def capped_system(law):
    variables = [VariableSpec(0, law), VariableSpec(1, law), uniform_bit(2)]
    events = [Event(0, (0,), frozenset({(1,)})),
              Event(1, (0, 1, 2), frozenset({(0, 0, 1)})),
              Event(2, (1,), frozenset({(0,)}))]
    return ConstraintSystem.build(variables, events)


@pytest.mark.parametrize("name", sorted(CAPPED_LAWS))
@pytest.mark.parametrize("budget", range(8))
def test_census_around_each_cap_matches_the_reference(name, budget):
    law, depth = CAPPED_LAWS[name]
    system = capped_system(law)
    assert [s.depth for s in system.samplers] == [depth, depth, 1]
    for step_guard in (None, 3):
        args = (system, budget, step_guard)
        census = exhaustive.census_runs(*args, want_trees=False)
        reference = reference_census.census_runs(*args, want_trees=False)
        assert output_view(census) == output_view(reference)
        census = exhaustive.census_runs(*args)
        reference = reference_census.census_runs(*args)
        assert census.appearance_list() == reference.appearance_list()
        assert output_view(census) == output_view(reference)


def test_no_draw_is_built_again_past_its_depth(chain2_system, monkeypatch):
    # every variable is a fair bit, so a draw or a table with more coins
    # left than its cap is one the census has built: 12 and 20 coins build
    # the same draws
    draw_paths = exhaustive._draw_paths
    calls = []

    def recording_draw_paths(sampler, coins_left):
        calls.append(coins_left)
        return draw_paths(sampler, coins_left)

    monkeypatch.setattr(exhaustive, "_draw_paths", recording_draw_paths)
    built = []
    for budget in (12, 20):
        calls.clear()
        exhaustive.census_runs(chain2_system, budget, want_trees=False)
        built.append(sorted(calls))
    assert built[0] == built[1]
    assert max(built[0]) == 1


# The tree census pinned by hashes of its appearance lines, branch count and
# unresolved mass. The reference census shares the tree tally, so the
# differential tests cannot see a change to it; these hashes can. The
# corpus and chain hashes were taken before the tree census moved onto the
# level sweep, the in-flight one before the census keyed cut runs by their
# true events.
PINNED_CENSUS = {
    "one_bit": "45801716f4a99c13f330c61619953ed089e6500e3beb5494d319bb5d089d8b1b",
    "two_disjoint":
        "31f0d274fa4de6a60c84485a8387129906866234f1acf3ae5c94a28d16039039",
    "shared_pair":
        "162b2bcd800cb3b8e65bf9b892df3c110262f0dcd9bc44550945fc0d5e54e5d2",
    "overlap_triples":
        "7502362b85c3a1cbf078d813132f8df148bd66aa31ff743a365e974af9443d0c",
    "lopsided_bit":
        "2afd0d73e078598f9f40a2230702645b570bdcd1bd354a09024ab89b267dd631",
    "impossible_plus":
        "000411b7f502946864876ec79c29ed9549fb5e431f9c79e3647fb70b01fbaa83",
    "chain4_202@18":
        "3b83140b6f727ce9f61b5669ef81fdae7eb905430b2fc8d55494eb38318624db",
    "in_flight@7":
        "6f818a900b589eda37387280b58533247b89dcfe89fbe40e610d261de9efa85b",
    "coprime_fresh@8":
        "e5dd422414779e3de60ed42a79dba4999b08433ed618758f7402d873f0ed8924",
}


def _census_inputs():
    inputs = {e.name: (e.system, e.bit_budget) for e in toy_corpus()}
    inputs["chain4_202@18"] = (ChainCnfFamily(3, 1, 202).materialize(4), 18)
    # event 0 forbids x2 = 0, event 1 forbids (x0, x1) = (0, 0). Tree 1(1)
    # has p_low 1/32 and pending 13/512, of which 4/512 sits on runs that
    # reach root 1 only through the event in flight.
    inputs["in_flight@7"] = (ConstraintSystem.build(
        [uniform_bit(i) for i in range(3)],
        [clause_event(0, (2,), (0,)), clause_event(1, (0, 1), (0, 0))]), 7)
    inputs["coprime_fresh@8"] = (coprime_fresh_system(), 8)
    return inputs


def coprime_fresh_system():
    """x0 with law (1/3, 1/6, 1/2) and a uniform bit x1; event 0 forbids
    (x0, x1) = (1, 0), event 1 also (2, 1), event 2 forbids x1 = 0. The
    events have probabilities 1/12, 1/3 and 1/2."""
    return ConstraintSystem.build(
        [VariableSpec(0, (Fraction(1, 3), Fraction(1, 6), Fraction(1, 2))),
         uniform_bit(1)],
        [Event(0, (0, 1), frozenset({(1, 0)})),
         Event(1, (0, 1), frozenset({(1, 0), (2, 1)})),
         clause_event(2, (1,), (0,))])


def lemma_inputs():
    # event 0 has probability 4/5, so a label's multiplicity shows in the
    # numerator of a product as well
    inputs = _census_inputs()
    inputs["four_fifths@8"] = (ConstraintSystem.build(
        [VariableSpec(0, (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5))),
         uniform_bit(1)],
        [Event(0, (0,), frozenset({(1,), (2,)})),
         clause_event(1, (0, 1), (0, 1))]), 8)
    return inputs


@pytest.mark.parametrize("name", sorted(lemma_inputs()))
def test_lemma_bounds_are_the_label_products(name):
    # each appearance's bound is `tree_probability_bound`, and the product
    # of its labels' event probabilities taken vertex by vertex; the lemma
    # report lists the census's own appearances
    system, budget = lemma_inputs()[name]
    census = exhaustive.census_runs(system, budget)
    for appearance in census.appearance_list():
        per_vertex = Fraction(1)
        for label in appearance.tree.labels:
            per_vertex *= event_probability(system.events[label], system)
        assert appearance.bound == per_vertex
        assert appearance.bound == tree_probability_bound(appearance.tree,
                                                          system)
        assert appearance.holds_within_horizon == (appearance.p_low
                                                   <= per_vertex)
        assert appearance.certified == (appearance.p_low + appearance.pending
                                        <= per_vertex)
    report = exhaustive.check_tree_lemma(system, budget)
    assert report.entries == tuple(census.appearance_list())
    assert (report.unresolved_mass, report.branch_count) == (
        census.unresolved_mass, census.branch_count)


@pytest.mark.parametrize("name", sorted(PINNED_CENSUS))
def test_tree_census_is_pinned(name):
    system, budget = _census_inputs()[name]
    census = exhaustive.census_runs(system, budget)
    lines = [f"{a.tree.canonical_line()} {a.p_low} {a.pending}"
             for a in census.appearance_list()]
    lines.append(f"branches={census.branch_count} "
                 f"unresolved={census.unresolved_mass}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_CENSUS[name]


def test_pending_charges_add_over_the_lcm_of_coprime_denominators(
        monkeypatch):
    # at 8 coins trees 1(2(1(2))) and 1(2(2(1))) are each charged from two
    # consumption vectors, one leaving only a vertex of event 2 to fresh
    # coins (factor 1/2), the other only one of event 1 (factor 1/3). The
    # pinned census above sees their sum; over the larger denominator
    # instead of the lcm, 1/2 would count as 1/3.
    seen = []
    lcm = exhaustive.lcm

    def recording_lcm(*denominators):
        seen.append(sorted(denominators))
        return lcm(*denominators)

    monkeypatch.setattr(exhaustive, "lcm", recording_lcm)
    exhaustive.census_runs(coprime_fresh_system(), 8)
    assert seen.count([1, 1, 1, 2, 3]) == 2


def census_tables(system, budget, step_guard=None):
    """The `reached` and `cut` tables the tree census hands to its tally."""
    seen = []
    tally = exhaustive._tree_tally

    def recording_tally(system, reached, cut, total):
        seen.append((dict(reached), dict(cut)))
        return tally(system, reached, cut, total)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exhaustive, "_tree_tally", recording_tally)
        exhaustive.census_runs(system, budget, step_guard)
    (tables,) = seen
    return tables


def cut_keys(system, budget, step_guard=None):
    """The keys of the `cut` table the tree census hands to its tally."""
    return list(census_tables(system, budget, step_guard)[1])


def table_lines(reached, cut):
    """One line per entry of the two tables, sorted; true events sorted,
    histories in order, '-' for None."""
    def text(items):
        return "-" if items is None else ",".join(map(str, items))
    lines = [f"reached {text(history)} {units}"
             for history, units in reached.items()]
    lines += [f"cut {text(None if true is None else sorted(true))} "
              f"{text(history)} {'-' if event is None else event} {units}"
              for (true, history, event), units in cut.items()]
    return sorted(lines)


# The tables the tree census hands to its tally, pinned by hashes of their
# entries under the default step guard and under a guard of 2 steps. The
# appearance pins above see the tables only through the tally; these see
# every entry. The hashes were taken before the census credited a
# history's reached mass when its resample is drawn.
PINNED_TABLES = {
    ("one_bit", None):
        "42153f744a37cd5a8690753de2fc732c7d9fc3b70d20b506a532b5cf7f61af0e",
    ("one_bit", 2):
        "492cc79c9eb77b432a59b571aabac23f7b17862dd707d41ae859795ecd764ed0",
    ("two_disjoint", None):
        "9668631771b6d56bf241b67cd59e7d43a6728b0f275338c6a5b4317ed7427ef6",
    ("two_disjoint", 2):
        "6cb08594ae42fd16dd9cc387207fe438ca5100810d451d12cdbdb88ba14bc913",
    ("shared_pair", None):
        "5de877f5605438f59f54849de5df1da8d858e8250b37430e3f709ffced890d71",
    ("shared_pair", 2):
        "d366859aeafd39ee75f76f5af7d8858ac0150e4fd457d4d3643552e21dc4a345",
    ("overlap_triples", None):
        "5a323777edb61e52287773abf7780bfdfc5f814ac650b552e9ba61564ff03a6c",
    ("overlap_triples", 2):
        "5ff50ed091927bdba3b52efe1abbfda8724a378f54dad783d49d8f1b0f30b1b4",
    ("lopsided_bit", None):
        "af1cea663d2c331aa100a9fcbfa82fa1353fc9e4bdc93d4f71e13d4dd9be1bca",
    ("lopsided_bit", 2):
        "fcd01ed932c16d930b80bdd86649e0232885b1367d91f006b589163fa4e82b6b",
    ("impossible_plus", None):
        "0d06066f3928519c9adcc48750b8cd07e148adbfc2b37dce190e52d48b1e23f6",
    ("impossible_plus", 2):
        "f002d6f9910bb75b2027b9ffff9782364e889937da6c1d887968774311705df7",
    ("chain4_202@18", None):
        "2b4ec5287addaf8daa1bd924ab3c00d7c90bf86b069e3f95ecdd5643514a0901",
    ("chain4_202@18", 2):
        "7a7629d75d05c7df87901f6c488d02b0b1576acbc7c6378b9ba8b12c07e5442b",
    ("in_flight@7", None):
        "77ca7689d2ec1177806eb7eed0029e531d764977f1c17d010fc4746ff35d6b30",
    ("in_flight@7", 2):
        "61cd2c78457f8d1fa9278de3c6041c27109fec9f03ae6ed76871771ed9135e99",
    ("coprime_fresh@8", None):
        "5e101b4ad700cccd16b3cc2b770eab2bc5cf8de5a0e9182e3c3dad9d11181fcc",
    ("coprime_fresh@8", 2):
        "0e7aeae85f2e95859dc160c900c8f3e09236a464ea7617e3f7c089692bbd6f2c",
}


@pytest.mark.parametrize("name, step_guard", sorted(PINNED_TABLES, key=str))
def test_census_tables_are_pinned(name, step_guard):
    system, budget = _census_inputs()[name]
    lines = table_lines(*census_tables(system, budget, step_guard))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_TABLES[name, step_guard]


def assert_cuts_keyed_before_their_step(keys):
    # a run cut inside a resample is keyed by the assignment before it,
    # under which the event in flight is true; one the step guard stopped,
    # by an assignment under which some event is true
    for true, history, in_flight in keys:
        if history is None:
            assert true is None and in_flight is None  # cut initializing
        elif in_flight is None:
            assert true, history
        else:
            assert in_flight in true, (true, history, in_flight)


def partial_redraw_system():
    """x0 fixed at 0, a uniform bit x1, x2 with law (2/3, 1/3), and one
    event forbidding (0, 0, 0). Some runs are cut while redrawing x2 with
    x1 already redrawn to 1, where no event is true."""
    return ConstraintSystem.build(
        [VariableSpec(0, (Fraction(1),)), uniform_bit(1),
         VariableSpec(2, (Fraction(2, 3), Fraction(1, 3)))],
        [Event(0, (0, 1, 2), frozenset({(0, 0, 0)}))])


@pytest.mark.parametrize("name", sorted(PINNED_CENSUS) + ["partial_redraw@6"])
def test_cut_runs_are_keyed_by_the_state_before_their_step(name):
    inputs = {**_census_inputs(), "partial_redraw@6": (partial_redraw_system(),
                                                       6)}
    system, budget = inputs[name]
    keys = cut_keys(system, budget)
    assert keys
    assert_cuts_keyed_before_their_step(keys)


def test_both_cut_keys_give_the_same_pending_mass():
    # the reference keys its cut runs by the partly redrawn assignment, in
    # which no event need be true; tree 0(0) still gets pending 7/64 only
    # because the tally reaches the in-flight event's component
    system = partial_redraw_system()
    census = exhaustive.census_runs(system, 6)
    reference = reference_census.census_runs(system, 6)
    assert census.appearance_list() == reference.appearance_list()
    pending = {a.tree.canonical_line(): a.pending
               for a in census.appearance_list()}
    assert pending == {"0": Fraction(1, 32), "0(0)": Fraction(7, 64)}


@given(wide_systems(), st.integers(3, 12), STEP_GUARDS)
@settings(DIFFERENTIAL, max_examples=100)
def test_wide_census_cuts_are_keyed_by_the_state_before_their_step(
        system, budget, step_guard):
    assert_cuts_keyed_before_their_step(cut_keys(system, budget, step_guard))


def test_each_event_sequence_builds_its_tree_once(monkeypatch):
    # every built history is reached and built once, and the reached
    # histories not built are those that repeat their last event, whose
    # trees are regrown; the pending filters read their base trees' labels
    # by scan and build none
    built = []
    build = exhaustive.tree_of_events
    tally = exhaustive._tree_tally
    reached = []

    def recording_build(events, system):
        built.append(tuple(events))
        return build(events, system)

    def recording_tally(system, reached_mass, cut, total):
        reached.extend(reached_mass)
        assert any(history for _, history, _ in cut)
        return tally(system, reached_mass, cut, total)

    monkeypatch.setattr(exhaustive, "tree_of_events", recording_build)
    monkeypatch.setattr(exhaustive, "_tree_tally", recording_tally)
    exhaustive.census_runs(ChainCnfFamily(3, 1, 202).materialize(4), 18)
    repeats = {h for h in reached if len(h) > 1 and h[-1] == h[-2]}
    assert built and repeats
    assert len(built) == len(set(built))
    assert set(built) == set(reached) - repeats


def test_only_trees_built_from_a_sequence_are_positioned(monkeypatch):
    # a tree first met regrown takes its check, rows and counts from the
    # tree below it; the census behind the process comparison positions
    # exactly the kept trees it built, each once, and checks no other tree
    def recording(function, record, of_result):
        def wrapped(tree_or_events, *args):
            out = function(tree_or_events, *args)
            record.append(out if of_result else tree_or_events)
            return out
        return wrapped

    chain = ChainCnfFamily(3, 1, 202).materialize(4)
    for system, params, budget in (
            [(e.system, e.params, e.bit_budget) for e in toy_corpus()]
            + [(chain, LLLParams.constant(Fraction(1, 2), 4), 18)]):
        built, grown, positioned, checked = [], [], [], []
        for module, name, record, of_result in (
                (exhaustive, "tree_of_events", built, True),
                (exhaustive, "regrown_tree", grown, True),
                (exhaustive, "tape_positions_by_vertex", positioned, False),
                (witness, "_violations", checked, False)):
            monkeypatch.setattr(module, name, recording(
                getattr(module, name), record, of_result))
        report = check_mt_vs_gw(system, params, budget)
        monkeypatch.undo()
        # the records keep every tree alive, so ids name trees
        built_ids, grown_ids = set(map(id, built)), set(map(id, grown))
        kept = [entry.tree for entry in report.entries]
        assert (sorted(map(id, positioned))
                == sorted(id(t) for t in kept if id(t) in built_ids))
        assert checked == positioned
        assert all(id(t) in built_ids | grown_ids for t in kept)
    assert any(id(t) in grown_ids for t in kept)


def test_a_census_tree_keeps_only_its_fields_depths_and_regrown_canon(
        monkeypatch):
    # the tally keeps its trees' label counts and checks itself; reading
    # them again off a tree keeps nothing on it either
    grown = []
    regrow = exhaustive.regrown_tree

    def recording(tree, k):
        grown.append(regrow(tree, k))
        return grown[-1]

    monkeypatch.setattr(exhaustive, "regrown_tree", recording)
    chain = ChainCnfFamily(3, 1, 202).materialize(4)
    for system, params, budget in (
            [(e.system, e.params, e.bit_budget) for e in toy_corpus()]
            + [(chain, LLLParams.constant(Fraction(1, 2), 4), 18)]):
        for entry in check_mt_vs_gw(system, params, budget).entries:
            tree = entry.tree
            assert witness.validate_tree(tree, system).valid
            tree.label_counts()
            tree.canonical_line()
            kept = {"labels", "parents", "steps", "_depths"}
            if any(tree is t for t in grown):
                kept.add("_canon")
            assert set(vars(tree)) == kept
    assert grown


# The output path pinned the same way: the chain's output census at two
# budgets, and the exact prefix that budget deepening draws from it. The
# hashes were taken before the census packed its states into ints.
PINNED_OUTPUT_CENSUS = {
    18: "960a7a2a375a6fe9dc3b3f082340bbe7ae6b6269195cf4d3267b16b6c40e1f17",
    22: "8af67d663b8ab2fd20e8411aee9a6b5f4e2f4cb0a8a91c7d3b71d6991b248fc0",
}
PINNED_PREFIX = (
    "2e626138e56886897e4bc2a586381f76a1c9e2d68d543a71c0dfaf665f3c44c6")


@pytest.mark.parametrize("budget", sorted(PINNED_OUTPUT_CENSUS))
def test_output_census_is_pinned(budget):
    chain = ChainCnfFamily(3, 1, 202).materialize(4)
    census = exhaustive.census_runs(chain, budget, want_trees=False)
    lines = [f"{''.join(map(str, a))} {m}"
             for a, m in sorted(census.output_mass.items())]
    lines.append(f"branches={census.branch_count} "
                 f"resolved={census.resolved_mass} "
                 f"unresolved={census.unresolved_mass}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_OUTPUT_CENSUS[budget]


def test_exact_prefix_is_pinned():
    chain = ChainCnfFamily(3, 1, 202).materialize(4)
    result = compute_assignment_prefix(chain, None, len(chain.events),
                                       mode="exact", delta=Fraction(1, 16))
    line = (f"{''.join(map(str, result.values))} "
            f"{' '.join(map(str, result.cell_bounds))} "
            f"{result.interval[0]} {result.interval[1]}")
    assert hashlib.sha256(line.encode()).hexdigest() == PINNED_PREFIX


# --- lower budgets read off a census ----------------------------------------

def assert_reads_every_lower_budget(system, budget, step_guard=None,
                                    branch_guard=exhaustive.DEFAULT_BRANCH_GUARD,
                                    want_trees=False, prefix_cells=None):
    """Each lower budget's masses read off the census equal those of a
    census run at it: the prefix mass of every prefix of an output up to
    `prefix_cells` cells long (by default every prefix), of every full
    output, and at () the resolved and unresolved masses."""
    census = exhaustive.census_runs(system, budget, step_guard, branch_guard,
                                    want_trees)
    cells = len(system.variables) if prefix_cells is None else prefix_cells
    for b in range(budget + 1):
        fresh = exhaustive.census_runs(system, b, step_guard, branch_guard,
                                       want_trees=False)
        prefixes = ({a[:k] for a in fresh.output_mass
                     for k in range(cells + 1)}
                    | set(fresh.output_mass) | {()})
        assert all(census.prefix_mass(p, b) == fresh.prefix_mass(p)
                   for p in prefixes), b
        assert census.prefix_mass((), b) == fresh.resolved_mass, b
        assert 1 - census.prefix_mass((), b) == fresh.unresolved_mass, b
    return census


@pytest.mark.parametrize("name", [e.name for e in toy_corpus()])
@pytest.mark.parametrize("step_guard", [None, 0, 2])
def test_a_corpus_census_reads_every_lower_budget(name, step_guard):
    entry = next(e for e in toy_corpus() if e.name == name)
    assert_reads_every_lower_budget(entry.system, 16, step_guard,
                                    want_trees=step_guard == 2)


@pytest.mark.parametrize("clauses", [4, 5])
def test_a_chain_census_reads_every_lower_budget(clauses):
    # the chains have up to 2,334 prefixes of outputs; those of at most 4
    # cells keep the test quick
    chain = ChainCnfFamily(3, 1, 202).materialize(clauses)
    assert_reads_every_lower_budget(chain, 22, prefix_cells=4)


def test_a_looping_census_reads_every_lower_budget():
    # x1 is fixed at 0, so event 1 holds under every assignment. Runs
    # resample event 0 while x0 = 1, then event 1 forever without a coin;
    # the default guard stops them after as many coins as x0 took, a guard
    # that grows with the budget.
    system = ConstraintSystem.build(
        [uniform_bit(0), VariableSpec(1, (Fraction(1), Fraction(0)))],
        [clause_event(0, (0,), (1,)), clause_event(1, (1,), (0,))])
    assert_reads_every_lower_budget(system, 10)
    # no run resolves: at b coins the one path of b coins that keep x0 = 1
    # is cut by the budget, and every other leaf is a run the guard stopped
    for b in range(11):
        fresh = exhaustive.census_runs(system, b, want_trees=False)
        assert (fresh.branch_count, fresh.unresolved_mass) == (b + 1, 1), b
    stopped = [len(branch.bits)
               for branch in exhaustive.enumerate_runs(system, 10)
               if branch.status == BUDGET_EXCEEDED]
    assert sorted(stopped) == list(range(1, 11))


@given(wide_systems(), st.integers(0, 12))
@settings(DIFFERENTIAL, max_examples=100)
def test_a_wide_census_reads_every_lower_budget(system, budget):
    # point-mass laws make resamples that read no coin and loop; the
    # default guard stops them at a step count that grows with the budget
    for step_guard in (None, 0, 1, 2, 3, 6):
        assert_reads_every_lower_budget(system, budget, step_guard)


@given(wide_systems(), st.integers(0, 10), st.integers(0, 3))
@settings(DIFFERENTIAL, max_examples=100)
def test_integer_prefix_mass_is_the_direct_sum(system, budget, extra):
    # every prefix whose cells run one past each range: a value past a
    # range-5 field's last value is a dead code, one past a range-1, 2 or 4
    # field's does not fit in it; one cell more than the system has matches
    # nothing
    fresh = exhaustive.census_runs(system, budget, want_trees=False)
    above = exhaustive.census_runs(system, budget + extra)
    sizes = [var.range_size + 1 for var in system.variables]
    prefixes = [p for k in range(len(sizes) + 1)
                for p in product(*map(range, sizes[:k]))]
    prefixes.append((0,) * (len(sizes) + 1))
    for prefix in prefixes:
        direct = sum((m for a, m in fresh.output_mass.items()
                      if a[:len(prefix)] == prefix), Fraction(0))
        assert fresh.prefix_mass(prefix) == direct, prefix
        assert above.prefix_mass(prefix, budget) == direct, prefix
    assert fresh.prefix_mass(()) == fresh.resolved_mass
    assert above.prefix_mass((), budget) == fresh.resolved_mass


@pytest.mark.parametrize("want_trees", [False, True])
def test_branch_guard_refuses_a_wide_initialization_early(want_trees):
    # 30 free bits: initialization alone has 2^22 leaves at 22 coins. The
    # guard must stop it while its table is built, at 18 bits, not after.
    system = ConstraintSystem.build([uniform_bit(i) for i in range(30)], [])
    start = perf_counter()
    with pytest.raises(BudgetRefused, match="branch guard"):
        exhaustive.census_runs(system, 22, branch_guard=1 << 18,
                               want_trees=want_trees)
    assert perf_counter() - start < 1


def test_a_census_at_its_branch_guard_reads_its_lower_budgets(chain2_system):
    leaves = exhaustive.census_runs(chain2_system, 12,
                                    want_trees=False).branch_count
    census = assert_reads_every_lower_budget(chain2_system, 12,
                                             branch_guard=2 * leaves - 1)
    assert census.branch_count == leaves


def test_no_census_is_read_past_its_own_budget(chain2_system):
    census = exhaustive.census_runs(chain2_system, 6, want_trees=False)
    with pytest.raises(ModelError, match="at 7 coins off one at 6"):
        census.prefix_mass((), 7)
    with pytest.raises(ModelError, match="bit_budget must be >= 0"):
        census.prefix_mass((), -1)
