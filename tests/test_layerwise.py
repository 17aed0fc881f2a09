from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from itertools import islice, product
from random import Random

import pytest

from lll_toolkit.errors import (BudgetRefused, ContractViolation,
                                ExtractionTimeout, ModelError)
from lll_toolkit.model import (ConstraintSystem, LLLParams, StreamParams,
                               VariableSpec, avoiding_assignments,
                               clause_event, uniform_bit)
from lll_toolkit.tape import Tape
from lll_toolkit.engine import SATISFIED, run_stream
from lll_toolkit.families import ChainCnfFamily
from lll_toolkit import layerwise
from lll_toolkit.corpus import toy_corpus
from lll_toolkit.exhaustive import RunCensus, census_runs
from lll_toolkit.layerwise import (SystemQOracle, TableQOracle,
                                   approx_output_distribution,
                                   compute_assignment_prefix,
                                   extract_from_positive_probability,
                                   extract_positive_branch,
                                   stability_horizon)

F = Fraction


# --- stability horizons -------------------------------------------------------

def chain_family():
    return ChainCnfFamily(4, overlap=1, polarity_seed=7)


def chain_params():
    return StreamParams.constant(F(1, 4), F(1, 2))


def test_horizon_tree_size_term():
    # z/(1-z) = 1/2 and alpha = 1/2: smallest m with 2^-1 * 2^-m <= 1/16 is 3
    family = chain_family()
    params = StreamParams.constant(F(1, 3), F(1, 2))
    cert = stability_horizon(family, params, cell=0, delta=F(1, 8))
    # delta/(2*|events touching cell 0|) = 1/16; cell 0 touches event 0 only
    assert cert.budget_share == F(1, 16)
    assert cert.terms[0].m == 3


def test_horizon_isolated_event_ball():
    family = ChainCnfFamily(3, overlap=0, polarity_seed=1)  # disjoint clauses
    params = chain_params()
    cert = stability_horizon(family, params, cell=1, delta=F(1, 8))
    term = cert.terms[0]
    # the ball around an isolated event is itself at any radius
    assert term.k == 1


def test_horizon_trivial_delta():
    cert = stability_horizon(chain_family(), chain_params(), 0, F(3, 2))
    assert cert.N == 0
    assert cert.terms == ()


def test_horizon_requires_alpha_below_one():
    family = chain_family()
    with pytest.raises(ModelError):
        stability_horizon(family, StreamParams.constant(F(1, 4), F(1)), 0,
                          F(1, 4))


def test_horizon_certificate_arithmetic():
    family = chain_family()
    params = chain_params()
    for delta in (F(1, 4), F(1, 16)):
        cert = stability_horizon(family, params, cell=0, delta=delta)
        assert cert.total_bound(params) <= delta
        assert cert.N == max(t.t for t in cert.terms)


def test_horizon_empirical_soundness():
    """Over 10^4 seeded runs, the frequency of the cell changing after step
    N stays within delta + 3*sigma."""
    family = chain_family()
    params = chain_params()
    active_k = 60
    trials = 10_000
    certs = {delta: stability_horizon(family, params, 0, delta)
             for delta in (F(1, 4), F(1, 16))}
    horizon_cap = max(c.N for c in certs.values())
    last_change: list[int] = []
    for seed in range(trials):
        result = run_stream(family, active_k, Tape(seed=seed), 10_000)
        assert result.status == SATISFIED
        last = 0
        value = result.log.initial[0]
        for step in result.log.steps:
            for v, _, x in step.draws:
                if v == 0 and x != value:
                    value = x
                    last = step.number
        last_change.append(last)
    for delta, cert in certs.items():
        changed = sum(1 for t in last_change if t > cert.N)
        freq = F(changed, trials)
        excess = freq - delta
        assert excess <= 0 or excess * excess * trials <= 9 * freq * (1 - freq)


# --- output distribution intervals --------------------------------------------

def test_interval_zero_event_system():
    system = ConstraintSystem.build([uniform_bit(0)], [])
    lo, hi = approx_output_distribution(system, (0,), F(1, 64))
    assert lo == hi == F(1, 2)


def test_interval_single_event_forces_zero(one_bit_system):
    delta = F(1, 64)
    lo, hi = approx_output_distribution(one_bit_system, (0,), delta)
    assert hi - lo <= delta
    assert lo >= 1 - delta
    lo1, hi1 = approx_output_distribution(one_bit_system, (1,), delta)
    assert hi1 <= delta


def test_interval_prefix_too_long(one_bit_system):
    with pytest.raises(ModelError):
        approx_output_distribution(one_bit_system, (0, 0), F(1, 4))


def test_interval_widths_shrink_with_delta(one_bit_system):
    widths = []
    for delta in (F(1, 4), F(1, 16), F(1, 256)):
        lo, hi = approx_output_distribution(one_bit_system, (0,), delta)
        widths.append(hi - lo)
        assert hi - lo <= delta
    assert widths == sorted(widths, reverse=True) or widths[0] == widths[-1]


def test_interval_contains_refined_value(chain2_system):
    coarse = approx_output_distribution(chain2_system, (0, 0), F(1, 8))
    fine = approx_output_distribution(chain2_system, (0, 0), F(1, 512))
    assert coarse[0] <= fine[0] and fine[1] <= coarse[1]


def test_interval_refuses_past_guard():
    system = ConstraintSystem.build(
        [VariableSpec(0, (F(1, 3), F(2, 3)))],
        [clause_event(0, (0,), (1,))])
    with pytest.raises(BudgetRefused):
        # thirds leave 2^-B undecided mass forever; a tiny delta with a tiny
        # guard must refuse rather than approximate
        SystemQOracle(system, bit_guard=16).interval((0,), F(1, 2 ** 30))


# --- extraction ----------------------------------------------------------------

def test_point_mass_extraction():
    q = TableQOracle({"01": F(1)})
    assert list(islice(extract_positive_branch(q), 6)) == [0, 1, 0, 1, 0, 1]


def test_heavy_branch_extraction():
    q = TableQOracle({"1": F(3, 5), "0": F(2, 5)})
    got = list(islice(extract_from_positive_probability(q, F(2, 5)), 5))
    assert got == [1, 1, 1, 1, 1]


def test_contract_violation_small_r():
    q = TableQOracle({"1": F(3, 5), "0": F(2, 5)})
    with pytest.raises(ContractViolation):
        list(islice(extract_from_positive_probability(q, F(1, 10)), 3))


@pytest.mark.parametrize("w,message", [((), "q(empty) exceeds 2r = 1/5"),
                                       ((0, 1), "q(01) exceeds 2r = 1/5")])
def test_contract_violation_names_the_heavy_prefix(w, message):
    # one child carries all the mass, so only the 2r watch can object
    q = TableQOracle({"01": F(1)})
    with pytest.raises(ContractViolation) as caught:
        next(extract_from_positive_probability(q, F(1, 10), w=w))
    assert str(caught.value) == message


class NonAdditiveOracle:
    """q_n(()) = 2/3 and q_n of each child 1/2, in every round: both
    children exceed r = 1/3 while the parent stays within 2r, which no
    additive measure allows."""

    def arity(self, position):
        return 2

    def guard(self, n):
        return None

    def lower_bound(self, prefix, n):
        return F(1, 2) if prefix else F(2, 3)


def test_two_winners_violation():
    with pytest.raises(ContractViolation) as caught:
        next(extract_from_positive_probability(NonAdditiveOracle(), F(1, 3)))
    assert str(caught.value) == "two children exceed r = 1/3 at prefix ()"


class HeavyChildOracle:
    """q_n(()) = 1/5 and q_n((0,)) = 1/2 in every round: the child outweighs
    its parent, which no measure allows."""

    def arity(self, position):
        return 2

    def guard(self, n):
        return None

    def lower_bound(self, prefix, n):
        return {(): F(1, 5), (0,): F(1, 2)}.get(tuple(prefix), F(0))


def test_a_winner_past_2r_is_a_violation():
    # the parent passes the 2r watch, so only the winner's own bound objects
    with pytest.raises(ContractViolation) as caught:
        next(extract_from_positive_probability(HeavyChildOracle(), F(1, 10)))
    assert str(caught.value) == "q(0) exceeds 2r = 1/5"


def test_the_2r_watch_rises_with_the_round(chain2_system):
    # q_1(0) = 595/1024 and q_2(0) = 2387/4096 straddle 2r = 291/500, and
    # no child of 0 passes r in round 1
    oracle = SystemQOracle(chain2_system)
    assert oracle.lower_bound((0,), 1) <= F(291, 500) < oracle.lower_bound(
        (0,), 2)
    with pytest.raises(ContractViolation) as caught:
        next(extract_from_positive_probability(oracle, F(291, 1000), w=(0,)))
    assert str(caught.value) == "q(0) exceeds 2r = 291/500"


def test_deterministic_machine_extraction():
    q = TableQOracle({"0101": F(1)})
    got = list(islice(extract_from_positive_probability(q, F(3, 5)), 4))
    assert got == [0, 1, 0, 1]


def test_extraction_from_starting_prefix():
    q = TableQOracle({"1": F(3, 5), "0": F(2, 5)})
    got = list(islice(
        extract_from_positive_probability(q, F(2, 5), w=(1, 1)), 3))
    assert got == [1, 1, 1]


def test_positive_branch_two_atoms_prefers_low_value():
    q = TableQOracle({"0": F(1, 2), "1": F(1, 2)})
    assert list(islice(extract_positive_branch(q), 4)) == [0, 0, 0, 0]


def test_positive_branch_unique_support():
    q = TableQOracle({"110": F(1, 3)})
    got = list(islice(extract_positive_branch(q), 6))
    assert got == [1, 1, 0, 1, 1, 0]


def test_extractors_agree_on_point_mass():
    q = TableQOracle({"10": F(1)})
    a = list(islice(extract_positive_branch(q), 6))
    b = list(islice(extract_from_positive_probability(q, F(3, 5)), 6))
    assert a == b


def test_positive_branch_records_bounds(chain2_system):
    # each cell's bound is a lower bound on the mass of the prefix it ends
    result = compute_assignment_prefix(chain2_system, None, 3, mode="exact")
    assert len(result.cell_bounds) == 3
    for i, bound in enumerate(result.cell_bounds):
        _, hi = approx_output_distribution(chain2_system,
                                           result.values[:i + 1], F(1, 64))
        assert 0 < bound <= hi


@pytest.mark.parametrize("atoms,message", [
    ({"": F(1)}, "atom pattern '' is not a non-empty string of 0s and 1s"),
    ({"012": F(1, 2)}, "atom pattern '012' is not a non-empty string"),
    ({"0": F(-1, 2), "1": F(3, 2)}, "atom 0 has negative mass -1/2"),
    ({"0": F(3, 2), "1": F(1, 2)}, "atom masses sum to 2, more than 1"),
])
def test_table_oracle_rejects_bad_atoms(atoms, message):
    with pytest.raises(ModelError, match=f"^{message}"):
        TableQOracle(atoms)


@pytest.mark.parametrize("atoms,message", [
    ([("0", F(1, 2)), ("0", F(-1, 4))], "atom 0 has negative mass -1/4"),
    ([("0", F(3, 4)), ("0", F(1, 2))], "atom masses sum to 5/4, more than 1"),
])
def test_table_oracle_checks_each_pair_and_their_sum(atoms, message):
    with pytest.raises(ModelError, match=f"^{message}"):
        TableQOracle(atoms)


def test_table_oracle_writes_a_mass_past_the_int_digit_limit_in_full():
    # a mass past CPython's int-to-string limit of 4,300 digits is written
    # in full; `decimal` writes the expected digits
    den = 7 ** 6000
    with pytest.raises(ModelError,
                       match=f"^atom 01 has negative mass -1/{Decimal(den)}$"):
        TableQOracle({"01": -F(1, den)})
    with pytest.raises(ModelError, match=(
            f"^atom masses sum to {Decimal(den + 1)}/{Decimal(den)}, "
            "more than 1$")):
        TableQOracle({"0": F(1), "1": F(1, den)})


def test_table_oracle_adds_the_masses_of_equal_patterns():
    q = TableQOracle([("0", F(1, 2)), ("1", F(1, 4)), ("0", F(1, 4))])
    assert q.atoms == {"0": F(3, 4), "1": F(1, 4)}


def _tiny_zero_system():
    # x0 = 0 has mass 2^-20 and reads 20 coins, and event 0 forbids x0 = 1,
    # so no run resolves within 19 coins
    tiny = F(1, 2 ** 20)
    return ConstraintSystem.build([VariableSpec(0, (tiny, 1 - tiny))],
                                  [clause_event(0, (0,), (1,))])


@pytest.mark.parametrize("make_stream,error,message", [
    (lambda: extract_positive_branch(
        SystemQOracle(_tiny_zero_system(), bit_guard=16)),
     BudgetRefused,
     "no child with positive lower bound within the coin guard of 16 coins "
     "at prefix ()"),
    (lambda: extract_from_positive_probability(
        SystemQOracle(_tiny_zero_system(), bit_guard=16), F(1, 2 ** 21)),
     BudgetRefused,
     "no child exceeded r = 1/2097152 within the coin guard of 16 coins "
     "at prefix ()"),
    (lambda: extract_positive_branch(TableQOracle({"0": F(0)})),
     ExtractionTimeout,
     "no child with positive lower bound within 256 rounds at prefix ()"),
    # q_n of each child is 1/2 * n/(n+1), which never exceeds r = 1/2
    (lambda: extract_from_positive_probability(
        TableQOracle({"0": F(1, 2), "1": F(1, 2)}), F(1, 2)),
     ExtractionTimeout,
     "no child exceeded r = 1/2 within 256 rounds at prefix ()"),
    (lambda: extract_from_positive_probability(
        TableQOracle({"0": F(1, 2), "1": F(1, 2)}), F(1, 2), w=(1, 1)),
     ExtractionTimeout,
     "no child exceeded r = 1/2 within 256 rounds at prefix (1, 1)"),
], ids=["positive-guard", "heavy-guard", "positive-timeout", "heavy-timeout",
        "heavy-timeout-from-w"])
def test_extraction_refusal_and_timeout_messages(make_stream, error, message):
    with pytest.raises(error) as caught:
        next(make_stream())
    assert str(caught.value) == message


# --- certified prefixes ---------------------------------------------------------

def test_prefix_zero_length(one_bit_system):
    result = compute_assignment_prefix(one_bit_system, None, 0)
    assert result.values == ()
    assert result.cell_bounds == ()
    # the empty prefix's interval encloses the mass of every output
    assert result.interval == approx_output_distribution(one_bit_system, (),
                                                         F(1, 64))
    lo, hi = result.interval
    assert 0 < lo <= hi <= 1 and hi - lo <= F(1, 64)


@pytest.mark.parametrize("length", [0, 1])
def test_prefix_rejects_an_unknown_mode(one_bit_system, length):
    with pytest.raises(ModelError, match="unknown mode 'bogus'"):
        compute_assignment_prefix(one_bit_system, None, length, mode="bogus")


def test_prefix_single_event_forces_zero(one_bit_system):
    result = compute_assignment_prefix(one_bit_system, None, 1,
                                       mode="exact", delta=F(1, 64))
    assert result.values == (0,)
    assert all(b > 0 for b in result.cell_bounds)
    lo, hi = result.interval
    assert lo > 0 and hi - lo <= F(1, 64)


def test_prefix_zero_event_system_all_zeros():
    system = ConstraintSystem.build([uniform_bit(i) for i in range(3)], [])
    result = compute_assignment_prefix(system, None, 3, mode="exact")
    assert result.values == (0, 0, 0)


def test_prefix_decided_events_false(chain2_system):
    result = compute_assignment_prefix(chain2_system, None, 5, mode="exact")
    for i in range(2):
        assert not chain2_system.is_true(i, result.values)


def test_prefix_extends_to_avoiding_assignment(chain2_system):
    # brute-force cross-validation: the certified prefix is a prefix of at
    # least one assignment avoiding every event
    result = compute_assignment_prefix(chain2_system, None, 4, mode="exact")
    avoiders = avoiding_assignments(chain2_system)
    assert any(a[:4] == result.values for a in avoiders)


def test_prefix_empirical_mode(chain3_system):
    params = LLLParams.constant(F(1, 2), len(chain3_system.events))
    result = compute_assignment_prefix(chain3_system, params, 3,
                                       mode="empirical", trials=300, seed=1)
    assert len(result.values) == 3
    assert len(result.frequencies) == 3
    assert all(0 < f <= 1 for f in result.frequencies)
    assert result.trials == 300


def test_prefix_of_a_materialized_family():
    system = chain_family().materialize(1)
    result = compute_assignment_prefix(system, None, 2, mode="exact")
    assert len(result.values) == 2
    assert any(a[:2] == result.values for a in avoiding_assignments(system))


def test_system_oracle_monotone(one_bit_system):
    oracle = SystemQOracle(one_bit_system)
    values = [oracle.lower_bound((0,), n) for n in range(1, 6)]
    assert values == sorted(values)
    assert values[-1] > 0


def recorded_censuses(monkeypatch, *modules) -> list[int]:
    """The budget of each census that `modules` (by default `layerwise`)
    run from here on, through their module global `census_runs`."""
    seen = []

    def recording(census_runs):
        def recording_census(system, bit_budget, *args, **kwargs):
            seen.append(bit_budget)
            return census_runs(system, bit_budget, *args, **kwargs)
        return recording_census

    for module in modules or (layerwise,):
        monkeypatch.setattr(module, "census_runs",
                            recording(module.census_runs))
    return seen


@pytest.mark.parametrize("system,delta,budgets", [
    (ChainCnfFamily(3, 1, 202).materialize(4), F(1, 16), [22]),
    (next(e.system for e in toy_corpus() if e.name == "two_disjoint"),
     F(1, 32), [12, 16])], ids=["chain4", "two_disjoint"])
def test_an_exact_prefix_runs_one_census_per_budget_rise(monkeypatch, system,
                                                         delta, budgets):
    # the interval reads its lower budgets (18 coins for the chain, 8 for
    # two_disjoint) off the oracle's highest census
    seen = recorded_censuses(monkeypatch)
    compute_assignment_prefix(system, None, len(system.variables),
                              delta=delta)
    assert seen == budgets


def test_an_exact_prefix_of_many_variables_reads_no_coin_past_the_guard(
        monkeypatch):
    # 21 variables put the interval's first budget at 42 coins, past the
    # default guard of 40; x0 = 0 is the one output, at every budget
    system = ConstraintSystem.build(
        [uniform_bit(0)] + [VariableSpec(i, (F(1),)) for i in range(1, 21)],
        [clause_event(0, (0,), (1,))])
    seen = recorded_censuses(monkeypatch)
    result = compute_assignment_prefix(system, None, 1)
    assert seen == [40]
    assert result.interval == (1 - F(1, 2 ** 40), 1)


def test_system_oracle_keeps_one_census(monkeypatch, chain2_system):
    # round n reads 10 + 4n coins: a census runs only when a round passes
    # the highest budget so far, and the oracle holds that census alone
    seen = recorded_censuses(monkeypatch)
    oracle = SystemQOracle(chain2_system)
    rounds = (2, 1, 3, 1, 2, 3)
    bounds = [oracle.lower_bound((0,), n) for n in rounds]
    assert seen == [18, 22]
    kept = [value for value in vars(oracle).values()
            if isinstance(value, RunCensus)
            or isinstance(value, dict) and any(
                isinstance(v, RunCensus) for v in value.values())]
    assert kept == [census_runs(chain2_system, 22, want_trees=False)]
    assert bounds == [census_runs(chain2_system, 10 + 4 * n,
                                  want_trees=False).prefix_mass((0,))
                      for n in rounds]


@pytest.mark.parametrize("name", [e.name for e in toy_corpus()]
                         + ["chain2_system", "chain3_system"])
def test_system_oracle_is_a_function_of_prefix_and_round(request, name):
    # q_n(u) of an oracle asked in any order is that of a fresh oracle asked
    # in rising n, for every prefix of up to 4 cells, and never falls as n
    # rises
    system = (request.getfixturevalue(name) if name.startswith("chain")
              else next(e.system for e in toy_corpus() if e.name == name))
    sizes = [var.range_size for var in system.variables[:4]]
    prefixes = [p for k in range(len(sizes) + 1)
                for p in product(*map(range, sizes[:k]))]
    fresh = SystemQOracle(system)
    rising = {(p, n): fresh.lower_bound(p, n)
              for n in range(1, 6) for p in prefixes}
    asked = list(rising)
    Random(name).shuffle(asked)
    shuffled = SystemQOracle(system)
    assert {key: shuffled.lower_bound(*key) for key in asked} == rising
    assert all(rising[p, n] <= rising[p, n + 1]
               for p in prefixes for n in range(1, 5))


@pytest.mark.parametrize("bit_guard,rounds", [(0, 1), (12, 1), (16, 2)])
def test_capped_coin_guard_refuses_after_its_first_futile_round(bit_guard,
                                                                rounds):
    # x0 = 0 has mass 2^-20 and reads 20 coins, and event 0 forbids x0 = 1,
    # so no run resolves within 19 coins. Round n runs the census at
    # min(guard, 8 + 4n) coins; from the first round at the guard on, no
    # lower bound can rise.
    tiny = F(1, 2 ** 20)
    system = ConstraintSystem.build([VariableSpec(0, (tiny, 1 - tiny))],
                                    [clause_event(0, (0,), (1,))])
    oracle = SystemQOracle(system, bit_guard=bit_guard)
    asked = []
    lower_bound = oracle.lower_bound
    oracle.lower_bound = lambda prefix, n: asked.append(n) or lower_bound(
        prefix, n)
    with pytest.raises(BudgetRefused, match=f"coin guard of {bit_guard} "):
        next(extract_positive_branch(oracle))
    assert max(asked) == rounds
    asked.clear()
    with pytest.raises(BudgetRefused, match=f"coin guard of {bit_guard} "):
        next(extract_from_positive_probability(oracle, tiny / 2))
    assert max(asked) == rounds
    # at 20 coins the third round finds the one resolved run
    assert next(extract_positive_branch(SystemQOracle(system,
                                                      bit_guard=20))) == 0
