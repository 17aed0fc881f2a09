from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_witness
from lll_toolkit import galton_watson
from lll_toolkit.errors import ModelError
from lll_toolkit.model import (ConstraintSystem, Event, LLLParams,
                               VariableSpec, clause_event,
                               expected_steps_bound, uniform_bit)
from lll_toolkit.tape import Tape
from lll_toolkit.exhaustive import (LemmaReport, census_runs,
                                    check_tree_lemma)
from lll_toolkit.families import ChainCnfFamily
from lll_toolkit.witness import WitnessTree, validate_tree
from lll_toolkit.galton_watson import (check_mt_vs_gw, gw_sample,
                                       gw_tree_probability)
from lll_toolkit.corpus import toy_corpus
from test_properties import systems

F = Fraction


def star_system():
    """Root event 0 with neighbors {0,1,2}: 1 shares variable a, 2 shares b;
    1 and 2 are disjoint from each other."""
    variables = [uniform_bit(i) for i in range(2)]
    events = [Event(0, (0, 1), frozenset({(1, 1)})),
              clause_event(1, (0,), (1,)),
              clause_event(2, (1,), (1,))]
    return ConstraintSystem.build(variables, events)


def test_singleton_probability_formula():
    system = star_system()
    params = LLLParams((F(1, 2),) * 3)
    tree = WitnessTree((0,), (-1,))
    # no son for each of the three neighbor labels
    assert gw_tree_probability(tree, params, system) == F(1, 8)


def test_root_plus_son_probability_formula():
    system = star_system()
    params = LLLParams((F(1, 2),) * 3)
    tree = WitnessTree((0, 1), (-1, 0))
    # root: spawn 1, skip 0 and 2; son 1 (neighbors {0,1}): spawn nothing
    assert gw_tree_probability(tree, params, system) == F(1, 32)


def test_probability_rejects_invalid_tree():
    system = star_system()
    params = LLLParams((F(1, 2),) * 3)
    bad = WitnessTree((0, 1, 1), (-1, 0, 0))  # duplicate son labels
    with pytest.raises(ModelError):
        gw_tree_probability(bad, params, system)


def test_params_validation():
    with pytest.raises(ModelError):
        LLLParams((F(1),))  # z = 1 disallowed
    with pytest.raises(ModelError):
        LLLParams((F(1, 2),), F(0))
    params = LLLParams((F(1, 2),) * 3)
    for root in (-1, 3):
        # the root is refused before the depth budget
        with pytest.raises(ModelError,
                           match=f"^root {root} is not an event in 0..2$"):
            gw_sample(params, root, star_system(), Tape(seed=0), -1)


# --- expected steps bound ---------------------------------------------------

def test_expected_steps_bound_values():
    assert expected_steps_bound((F(1, 2),)) == 1
    assert expected_steps_bound(()) == 0
    assert expected_steps_bound((F(1, 3), F(1, 3))) == 1
    assert expected_steps_bound((F(1, 3), F(1, 3))[:1]) == F(1, 2)


# --- sampling ----------------------------------------------------------------

def test_depth_budget_zero_singleton_or_overflow():
    system = star_system()
    params = LLLParams((F(1, 2),) * 3)
    for seed in range(40):
        tree = gw_sample(params, 0, system, Tape(seed=seed), 0)
        assert tree is None or tree.size == 1


def test_small_z_mostly_singletons():
    system = star_system()
    z = F(1, 1000)
    params = LLLParams((z,) * 3)
    n = 2000
    singletons = 0
    for seed in range(n):
        tree = gw_sample(params, 0, system, Tape(seed=seed), 6)
        if tree is not None and tree.size == 1:
            singletons += 1
    expect = (1 - z) ** 3
    freq = F(singletons, n)
    # within 3 sigma of the exact singleton probability
    slack = abs(freq - expect)
    assert slack * slack * n <= 9 * expect * (1 - expect) + F(1, 1000)


def test_sample_replay_deterministic():
    system = star_system()
    params = LLLParams((F(1, 3),) * 3)
    a = gw_sample(params, 0, system, Tape(seed=77), 8)
    b = gw_sample(params, 0, system, Tape(seed=77), 8)
    assert (a is None and b is None) or a == b


def exact_gw_enumeration(params, system, max_depth, spawn_order):
    """Exact finite-tree law by enumerating spawn decisions level by level.

    Returns {canon: probability} for the trees rooted at event 0 that
    complete within max_depth; the remaining mass belongs to deeper or
    infinite trees.
    """
    out: dict = {}

    def expand(labels, parents, depths, frontier, prob):
        if not frontier:
            tree = WitnessTree(tuple(labels), tuple(parents))
            out[tree.canon()] = out.get(tree.canon(), F(0)) + prob
            return
        v, rest = frontier[0], frontier[1:]
        neighbor_list = sorted(system.neighbor_sets[labels[v]],
                               reverse=(spawn_order == "desc"))
        if depths[v] == max_depth:
            # only the no-spawn outcome completes within the depth cap
            for label in neighbor_list:
                prob *= 1 - params.z[label]
            expand(labels, parents, depths, rest, prob)
            return
        for combo in product((False, True), repeat=len(neighbor_list)):
            p = prob
            new_labels = list(labels)
            new_parents = list(parents)
            new_depths = list(depths)
            new_frontier = list(rest)
            for spawned, label in zip(combo, neighbor_list):
                z = params.z[label]
                p *= z if spawned else 1 - z
                if spawned:
                    new_labels.append(label)
                    new_parents.append(v)
                    new_depths.append(depths[v] + 1)
                    new_frontier.append(len(new_labels) - 1)
            expand(new_labels, new_parents, new_depths, new_frontier, p)

    expand([0], [-1], [0], [0], F(1))
    return out


def test_spawn_order_invariance_exact():
    system = star_system()
    params = LLLParams((F(1, 3), F(1, 2), F(1, 4)))
    asc = exact_gw_enumeration(params, system, 2, "asc")
    desc = exact_gw_enumeration(params, system, 2, "desc")
    assert asc == desc


def test_sampling_matches_exact_law():
    system = star_system()
    params = LLLParams((F(1, 3),) * 3)
    exact = exact_gw_enumeration(params, system, 2, "asc")
    n = 4000
    counts: dict = {}
    for seed in range(n):
        tree = gw_sample(params, 0, system, Tape(seed=seed), 2)
        if tree is None:
            continue
        counts[tree.canon()] = counts.get(tree.canon(), 0) + 1
    top = sorted(exact, key=exact.get, reverse=True)[:10]
    for canon in top:
        p = exact[canon]
        freq = F(counts.get(canon, 0), n)
        slack = abs(freq - p)
        assert slack * slack * n <= 9 * p * (1 - p) + F(1, 1000)


def test_gw_probability_matches_enumeration():
    # the spawning process can also emit trees outside the legal class
    # (same-depth cousins with neighboring labels); gw_tree_probability is
    # contracted to legal trees only, so compare on those
    system = star_system()
    params = LLLParams((F(1, 3), F(1, 2), F(1, 4)))
    exact = exact_gw_enumeration(params, system, 2, "asc")
    compared = 0
    for canon, p in exact.items():
        tree = rebuild_from_canon(canon)
        if not validate_tree(tree, system).valid:
            continue
        assert gw_tree_probability(tree, params, system) == p
        compared += 1
    assert compared >= 5


def uneven_z(system):
    # distinct z per label, none 1/2, so swapping z and 1 - z shows
    return tuple(F(1, l + 3) for l in range(len(system.events)))


def test_exponent_form_matches_the_per_vertex_product_on_samples():
    compared = 0
    for system in (star_system(), ChainCnfFamily(3, 1, 5).materialize(3)):
        z = uneven_z(system)
        for root in range(len(system.events)):
            params = LLLParams(z)
            for seed in range(60):
                tree = gw_sample(params, root, system, Tape(seed=seed), 3)
                if tree is None or not validate_tree(tree, system).valid:
                    continue
                assert (gw_tree_probability(tree, params, system)
                        == reference_witness.gw_tree_probability(tree, z,
                                                                 system))
                compared += tree.size > 1
    assert compared > 50


def test_exponent_form_matches_the_per_vertex_product_on_census_trees():
    inputs = [(e.system, e.bit_budget) for e in toy_corpus()]
    inputs.append((ChainCnfFamily(3, 1, 202).materialize(3), 10))
    compared = 0
    for system, budget in inputs:
        z = uneven_z(system)
        for appearance in census_runs(system, budget).appearance_list():
            tree = appearance.tree
            params = LLLParams(z)
            assert (gw_tree_probability(tree, params, system)
                    == reference_witness.gw_tree_probability(tree, z, system))
            compared += 1
    assert compared > 30


def rebuild_from_canon(canon):
    labels = []
    parents = []

    def walk(node, parent):
        label, children = node
        labels.append(label)
        parents.append(parent)
        me = len(labels) - 1
        for child in children:
            walk(child, me)

    walk(canon, -1)
    return WitnessTree(tuple(labels), tuple(parents))


# --- the comparison inequality ----------------------------------------------

def test_comparison_single_isolated_event(one_bit_system):
    params = LLLParams((F(3, 4),))
    report = check_mt_vs_gw(one_bit_system, params, 14)
    assert report.condition.holds
    assert report.holds_within_horizon
    assert report.certified
    assert report.gw_totals_ok
    # chains of length j: appearance probability 2^-j, bound (3/4)^j
    for entry in report.entries:
        j = entry.tree.size
        assert entry.p_mt <= F(1, 2 ** j)
        assert entry.bound == F(3, 4) ** j


def test_comparison_never_appearing_tree_trivial(one_bit_system):
    params = LLLParams((F(3, 4),))
    report = check_mt_vs_gw(one_bit_system, params, 10)
    seen_sizes = {e.tree.size for e in report.entries}
    assert all(size <= 10 for size in seen_sizes)


def test_gw_total_mass_at_most_one_per_root():
    for entry in toy_corpus():
        report = check_mt_vs_gw(entry.system, entry.params, entry.bit_budget)
        for root, total in report.gw_totals.items():
            assert total <= 1


def test_alpha_strengthening_shrinks_bounds(one_bit_system):
    plain = check_mt_vs_gw(one_bit_system, LLLParams((F(3, 4),)), 10)
    strong = check_mt_vs_gw(one_bit_system,
                            LLLParams((F(3, 4),), F(4, 5)), 10)
    plain_bounds = {e.tree.canon(): e.bound for e in plain.entries}
    for entry in strong.entries:
        alpha_factor = F(4, 5) ** entry.tree.size
        assert entry.bound == plain_bounds[entry.tree.canon()] * alpha_factor


def test_large_tree_tail_bound():
    """The certified mass of trees with size >= m, summed per root, stays
    within z/(1-z) * alpha^m (the factor is kept, never absorbed)."""
    for entry in toy_corpus():
        params = entry.params
        report = check_mt_vs_gw(entry.system, params, entry.bit_budget)
        roots = {e.tree.root_label for e in report.entries}
        sizes = {e.tree.size for e in report.entries}
        for root in roots:
            z = params.z[root]
            for m in sorted(sizes):
                mass = sum(e.p_mt + e.pending for e in report.entries
                           if e.tree.root_label == root and e.tree.size >= m)
                assert mass <= z / (1 - z) * params.alpha ** m


def test_exact_truncated_expectation_within_bound():
    """The exactly-enumerated expected resample count (truncated at the coin
    budget, hence a lower bound on the true expectation) never exceeds
    sum z/(1-z)."""
    from lll_toolkit.exhaustive import enumerate_runs
    for entry in toy_corpus():
        bound = expected_steps_bound(entry.params.z)
        truncated = F(0)
        for branch in enumerate_runs(entry.system, entry.bit_budget):
            if branch.log is not None:
                truncated += branch.weight * len(branch.log.steps)
        assert truncated <= bound


def test_tight_bound_is_not_certified():
    # a non-dyadic marginal keeps initialization mass unresolved right at
    # the forbidden boundary, so the tight z = Pr[A] bound never closes
    system = ConstraintSystem.build(
        [VariableSpec(0, (F(1, 3), F(2, 3)))],
        [clause_event(0, (0,), (1,))])
    params = LLLParams((F(2, 3),))
    report = check_mt_vs_gw(system, params, 10)
    assert report.condition.holds
    assert report.holds_within_horizon
    assert not report.certified


def test_no_tree_over_unresolved_mass_certifies_nothing(one_bit_system):
    # at 0 coins the initial draw is cut: no tree appears, yet any could
    # still appear in the unresolved mass
    report = check_mt_vs_gw(one_bit_system, LLLParams((F(1, 2),)), 0)
    assert (report.entries, report.unresolved_mass) == ((), 1)
    assert report.lemma.entries == ()
    assert not report.certified
    assert not report.lemma.certified
    # with every run resolved, no tree means nothing to bound
    point = ConstraintSystem.build([VariableSpec(0, (F(1), F(0)))],
                                   [clause_event(0, (0,), (1,))])
    report = check_mt_vs_gw(point, LLLParams((F(1, 2),)), 0)
    assert (report.entries, report.unresolved_mass) == ((), 0)
    assert report.certified and report.lemma.certified


# The comparison report pinned by hashes of its entry lines (canonical line,
# p_mt, pending, process probability, bound), its per-root process totals,
# branch count and unresolved mass, for the corpus at its budgets and the
# 4-clause chain at 18 coins. The hashes were taken before the tree tally
# priced its trees in integers.
PINNED_GW_REPORT = {
    "one_bit": "b988152c0de8117fc26e4eead417d2e7a4ae7105f504c1eaece14c325bd98121",
    "two_disjoint":
        "b741d6d9f7491e5d5de89561451e2059ea9d7e5e045aa17392ef238da675c931",
    "shared_pair":
        "dae3313f95244cedafe34020ca5f66a92dd11cc3ec85b0bd64d4ec92aef9b0d6",
    "overlap_triples":
        "5dae52b338161cfc9d90201e30ac969b6a206c54677d2045fe52e4cce01162d6",
    "lopsided_bit":
        "4ecc5ba4b3386b8f55bbf55748a59a15f3fbd0fab1c398c1867601ad3d3c371a",
    "impossible_plus":
        "3623d8289643c80e5d4a64208f43d432f3087422ac6fba241564adfa710ddb19",
    "chain4_202@18":
        "b7bb7f9ef140bcaa4266ec11a61691b69ce1a724c28a06d26ba6d2ee850d7f21",
}


def _gw_inputs():
    inputs = {e.name: (e.system, e.params, e.bit_budget)
              for e in toy_corpus()}
    inputs["chain4_202@18"] = (ChainCnfFamily(3, 1, 202).materialize(4),
                               LLLParams.constant(F(1, 2), 4), 18)
    return inputs


@pytest.mark.parametrize("name", sorted(PINNED_GW_REPORT))
def test_gw_report_is_pinned(name):
    report = check_mt_vs_gw(*_gw_inputs()[name])
    lines = [f"{e.tree.canonical_line()} {e.p_mt} {e.pending} "
             f"{e.gw_probability} {e.bound}" for e in report.entries]
    lines += [f"root {r} {t}" for r, t in sorted(report.gw_totals.items())]
    lines.append(f"branches={report.branch_count} "
                 f"unresolved={report.unresolved_mass}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_GW_REPORT[name]


def test_comparison_looks_up_its_census_at_call_time(monkeypatch):
    # the census_trees benchmark workload captures each comparison's census
    # by rebinding the module's `census_runs`
    system, params, budget = _gw_inputs()["shared_pair"]
    censuses = []

    def capture(*args, **kwargs):
        censuses.append(census_runs(*args, **kwargs))
        return censuses[-1]

    monkeypatch.setattr(galton_watson, "census_runs", capture)
    report = check_mt_vs_gw(system, params, budget)
    assert len(censuses) == 1
    assert ([(e.p_mt, e.pending) for e in report.entries]
            == [(a.p_low, a.pending) for a in censuses[0].appearance_list()])
    assert report.branch_count == censuses[0].branch_count
    assert report.lemma == LemmaReport.of(censuses[0])


@pytest.mark.parametrize("entry", toy_corpus(), ids=lambda e: e.name)
def test_comparison_carries_the_tree_lemma_of_its_census(entry):
    # one census serves both inequalities, so `lll selftest` runs one
    report = check_mt_vs_gw(entry.system, entry.params, entry.bit_budget)
    assert report.lemma == check_tree_lemma(entry.system, entry.bit_budget)


# --- the bound as one integer fraction --------------------------------------

def assert_bounds_are_the_fraction_formula(system, params, budget):
    """Each bound is z/(1 - z) * alpha^size * p_gw in `Fraction`
    arithmetic, p_gw the per-vertex product of the reference, and each
    root's total the sum of its trees' p_gw."""
    report = check_mt_vs_gw(system, params, budget)
    totals: dict = {}
    for entry in report.entries:
        root = entry.tree.root_label
        zi = params.z[root]
        p = reference_witness.gw_tree_probability(entry.tree, params.z,
                                                  system)
        assert entry.gw_probability == p
        size = entry.tree.size
        assert entry.bound == zi / (1 - zi) * params.alpha ** size * p
        assert isinstance(entry.bound, Fraction)
        totals[root] = totals.get(root, 0) + p
    assert report.gw_totals == totals
    return len(report.entries)


# five of the six entries have alpha < 1
@pytest.mark.parametrize("entry", toy_corpus(), ids=lambda e: e.name)
def test_corpus_bounds_are_the_fraction_formula(entry):
    assert assert_bounds_are_the_fraction_formula(
        entry.system, entry.params, entry.bit_budget) > 0


# weights over odd and mixed denominators, so few bounds are dyadic
NON_DYADIC_Z = st.sampled_from([3, 5, 6, 7, 9, 10]).flatmap(
    lambda d: st.integers(1, d - 1).map(lambda k: F(k, d)))


@given(systems(point_masses=True), st.data(), st.integers(0, 8))
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
def test_bounds_are_the_fraction_formula_on_generated_systems(system, data,
                                                              budget):
    z = tuple(data.draw(NON_DYADIC_Z) for _ in system.events)
    alpha = data.draw(st.sampled_from([F(1), F(2, 3), F(5, 7), F(9, 10)]))
    assert_bounds_are_the_fraction_formula(system, LLLParams(z, alpha),
                                           budget)
