from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lll_toolkit import fireworks
from lll_toolkit.errors import BudgetRefused, ModelError
from lll_toolkit.tape import Tape
from lll_toolkit.fireworks import (MAX_BUDGET, MAX_EXACT_GAME, MAX_UNIFORM,
                                   STALLED_TAKE,
                                   STALLED_TEST, TOOK, BeatResult,
                                   ConstantOracle,
                                   DivergeAtOracle, GameConfig,
                                   IdentityOracle, beat_function, beat_many,
                                   beat_with_k, cantor_pair, cantor_unpair,
                                   epsilon_to_n, loss_probability,
                                   ones_positions, play_game, play_with_k,
                                   sequential_take_distribution,
                                   win_probability_exact)

F = Fraction


def beats(result: BeatResult, oracle) -> bool:
    """Does some table entry strictly exceed f there, with f probed at
    budget MAX_BUDGET?"""
    for u, g in result.table.items():
        fv = oracle.evaluate(u, MAX_BUDGET)
        if fv is not None and g > fv:
            return True
    return False


def test_config_validation():
    with pytest.raises(ModelError):
        GameConfig(0, None)
    with pytest.raises(ModelError):
        GameConfig(3, -1)


def test_play_cases():
    # k < K: buyer takes a good one home after k tests
    out = play_with_k(GameConfig(10, 7), 3)
    assert out.outcome == "win" and out.tests_made == 3
    # k == K: the taken firework is the bad one
    out = play_with_k(GameConfig(10, 3), 3)
    assert out.outcome == "lose" and out.tests_made == 3
    # k > K: the bad firework explodes during testing
    out = play_with_k(GameConfig(10, 2), 6)
    assert out.outcome == "win" and out.tests_made == 3
    # all-good seller never wins
    out = play_with_k(GameConfig(10, None), 9)
    assert out.outcome == "win"


def test_seller_beyond_n_always_loses_to_buyer():
    for k in range(10):
        assert play_with_k(GameConfig(10, 12), k).outcome == "win"


def test_loss_probability_exact():
    # every seller choice below n loses with probability exactly 1/n
    for n in (1, 2, 10, 100):
        for K in list(range(min(2 * n, 25))) + [None]:
            expected = F(1, n) if (K is not None and K < n) else F(0)
            assert loss_probability(n, K) == expected


def test_win_probability_values():
    assert win_probability_exact(100) == F(99, 100)
    assert win_probability_exact(1) == F(0)
    assert win_probability_exact(2) == F(1, 2)


def test_the_game_value_traces_no_play(monkeypatch):
    # the value reads the outcome rule alone; a play's trace grows with k
    def traced(*args):
        raise AssertionError("a play was traced")

    monkeypatch.setattr(fireworks, "PlayOutcome", traced)
    assert win_probability_exact(MAX_EXACT_GAME) == 1 - F(1, MAX_EXACT_GAME)
    assert loss_probability(4, 2) == F(1, 4)


def test_an_exact_game_past_its_guard_is_refused_before_it_is_played(
        monkeypatch):
    played = []
    monkeypatch.setattr(fireworks, "loss_probability",
                        lambda *args: played.append(args))
    for n in (MAX_EXACT_GAME + 1, 2000):
        with pytest.raises(BudgetRefused,
                           match=f"over {n} test counts exceeds the guard "
                                 f"of {MAX_EXACT_GAME}$"):
            win_probability_exact(n)
    assert played == []


def test_single_atom_game():
    # n = 1: the buyer always picks k = 0 and loses exactly when K = 0
    assert play_with_k(GameConfig(1, 0), 0).outcome == "lose"
    assert play_with_k(GameConfig(1, 1), 0).outcome == "win"


def test_play_game_draws_from_tape():
    out = play_game(GameConfig(4, 1), Tape(bits="01"))
    assert out.k == 1  # uniform over 4 values reads two coins
    assert out.outcome == "lose"


def test_seller_sees_identical_prefixes():
    """The seller's observations before the take decision cannot depend on
    k: traces agree on every prefix shorter than both test counts."""
    n = 12
    for K in (None, 3, 8):
        traces = [play_with_k(GameConfig(n, K), k).trace for k in range(n)]
        for k1 in range(n):
            for k2 in range(k1 + 1, n):
                t = min(k1, k2)
                assert traces[k1][:t] == traces[k2][:t]


def test_sequential_description_equals_uniform():
    for n in range(1, 101):
        assert sequential_take_distribution(n) == (F(1, n),) * n


# --- function beating ---------------------------------------------------------

def test_epsilon_reduction():
    assert epsilon_to_n(F(1, 100)) == 100
    assert epsilon_to_n(F(2, 7)) == 4  # ceil(7/2)
    with pytest.raises(ModelError):
        epsilon_to_n(F(0))


def test_a_uniform_law_past_its_guard_is_refused_before_it_is_built():
    # the guard itself is drawn from; one more value is refused at once
    assert beat_function(IdentityOracle(), F(1, MAX_UNIFORM),
                         Tape(seed=1)).status == TOOK
    for run in (lambda: beat_function(IdentityOracle(),
                                      F(1, MAX_UNIFORM + 1), Tape(seed=1)),
                lambda: play_game(GameConfig(MAX_UNIFORM + 1, 3),
                                  Tape(seed=1)),
                lambda: beat_many([IdentityOracle()] * 17, F(1),
                                  Tape(seed=1))):
        with pytest.raises(BudgetRefused, match=f"guard of {MAX_UNIFORM}$"):
            run()


def test_take_immediately_beats_constant():
    result = beat_with_k(ConstantOracle(5), 0)
    assert result.status == TOOK
    assert result.table[0] == 6
    assert all(v == 0 for u, v in result.table.items() if u != 0)


def test_total_function_always_beaten():
    oracle = IdentityOracle()
    n = 4
    for k in range(n):
        result = beat_with_k(oracle, k)
        assert result.status == TOOK
        assert beats(result, oracle)
    # exact success probability over the uniform k: 1 >= 1 - 1/4
    successes = sum(1 for k in range(n)
                    if beat_with_k(oracle, k).status == TOOK)
    assert F(successes, n) >= 1 - F(1, n)


def test_divergent_input_taken_means_stall():
    oracle = DivergeAtOracle(frozenset({0}))
    result = beat_with_k(oracle, 0)
    assert result.status == STALLED_TAKE
    assert result.table.get(0, 0) == 0


def test_divergent_input_tested_means_zeros():
    oracle = DivergeAtOracle(frozenset({0}))
    result = beat_with_k(oracle, 3)
    assert result.status == STALLED_TEST
    assert set(result.table.values()) == {0}


def test_exact_success_probability_with_divergence():
    # f diverges at 0: only k = 0 (take the first firework) loses
    oracle = DivergeAtOracle(frozenset({0}))
    n = 8
    outcomes = [beat_with_k(oracle, k).status for k in range(n)]
    assert outcomes[0] == STALLED_TAKE
    assert all(s == STALLED_TEST for s in outcomes[1:])
    # stalled tests are fine: f is not total, so all-zero g is acceptable
    assert F(sum(1 for s in outcomes if s != STALLED_TAKE), n) == 1 - F(1, n)


class RecordingOracle:
    """Identity at the given cost, except on `diverge`; records every
    budget it is probed at."""

    def __init__(self, cost: int, diverge=frozenset()):
        self.cost = cost
        self.diverge = diverge
        self.budgets: list[int] = []

    def evaluate(self, i: int, budget: int):
        self.budgets.append(budget)
        if i in self.diverge or budget < self.cost:
            return None
        return i


@pytest.mark.parametrize("k", [0, 1, 3])
def test_no_probe_exceeds_the_largest_budget(k):
    # a computation that halts at MAX_BUDGET is tested and taken; one past
    # it stalls whether tested or taken, after a probe at MAX_BUDGET itself
    halts = RecordingOracle(MAX_BUDGET)
    result = beat_with_k(halts, k)
    assert result.status == TOOK
    assert result.table[result.frontier] == result.frontier + 1
    assert max(halts.budgets) == MAX_BUDGET
    late = RecordingOracle(2 * MAX_BUDGET)
    result = beat_with_k(late, k)
    assert result.status == (STALLED_TEST if k else STALLED_TAKE)
    assert max(late.budgets) == MAX_BUDGET
    # a stalled test writes one zero and one more per failed probe: 18
    assert len(result.table) == (MAX_BUDGET.bit_length() + 1 if k else 0)
    diverges = RecordingOracle(1, frozenset({1, 2}))
    beat_with_k(diverges, k)
    assert max(diverges.budgets) <= MAX_BUDGET


def test_beat_function_via_tape():
    result = beat_function(IdentityOracle(), F(1, 4), Tape(seed=5))
    assert result.status == TOOK


def test_beats_helper_checks_strict_excess():
    result = BeatResult(TOOK, {0: 1, 3: 7}, 0, 0, 3)
    assert beats(result, ConstantOracle(5))      # 7 > 5 at u = 3
    assert not beats(result, ConstantOracle(7))  # nothing exceeds 7


def test_derived_bit_sequence_positions():
    # table g: 1 followed by g(k) zeros per entry
    positions = ones_positions([2, 0, 1])
    assert positions == [0, 3, 4]


def test_success_trace_positions_beat_oracle():
    # the derived sequence "1, g(0) zeros, 1, g(1) zeros, ..." must place
    # some 1 later than the oracle allows (g is total: zeros past the table)
    oracle = IdentityOracle()
    for k in range(4):
        result = beat_with_k(oracle, k)
        assert result.status == TOOK
        values = [result.value(u) for u in range(result.frontier + 6)]
        positions = ones_positions(values)
        assert any(positions[u] > u for u in range(len(positions)))


# --- pairing and rows -----------------------------------------------------------

def test_cantor_pairing_bijection():
    seen = {}
    for a in range(20):
        for b in range(20):
            z = cantor_pair(a, b)
            assert z not in seen
            seen[z] = (a, b)
            assert cantor_unpair(z) == (a, b)


def test_beat_many_single_oracle_matches_single_run():
    tape = Tape(seed=13)
    many = beat_many([IdentityOracle()], F(1, 4), tape)
    k = many.rows[0].k
    single = beat_with_k(IdentityOracle(), k)
    assert many.rows[0].table == single.table
    assert many.rows[0].status == single.status


def test_beat_many_two_total_oracles():
    oracles = [IdentityOracle(), ConstantOracle(9)]
    result = beat_many(oracles, F(1, 4), Tape(seed=21))
    assert all(r.status == TOOK for r in result.rows)
    assert result.row_ns == (8, 16)  # shares epsilon/2, epsilon/4
    for i, oracle in enumerate(oracles):
        assert beats(result.rows[i], oracle)
    # the combined table routes through the pairing bijection
    for i, row in enumerate(result.rows):
        for u, v in row.table.items():
            assert result.g(cantor_pair(i, u)) == v


def test_beat_many_exact_success_product():
    """With independent per-row draws, success probability over all draw
    combinations is at least prod_i (1 - 1/n_i) >= 1 - sum of shares
    >= 1 - epsilon."""
    oracles = [DivergeAtOracle(frozenset({0})),
               DivergeAtOracle(frozenset({1}))]
    epsilon = F(1, 2)
    ns = [epsilon_to_n(epsilon / 2), epsilon_to_n(epsilon / 4)]
    good = 0
    total = 0
    for k0 in range(ns[0]):
        for k1 in range(ns[1]):
            total += 1
            r0 = beat_with_k(oracles[0], k0)
            r1 = beat_with_k(oracles[1], k1)
            # a row fails only by taking its divergent firework
            if r0.status != STALLED_TAKE and r1.status != STALLED_TAKE:
                good += 1
    success = F(good, total)
    assert success == (1 - F(1, ns[0])) * (1 - F(1, ns[1]))
    assert success >= 1 - epsilon


COSTS = st.sampled_from([1, 2, 5, MAX_BUDGET // 2, MAX_BUDGET - 1,
                          MAX_BUDGET, MAX_BUDGET + 1, 2 * MAX_BUDGET,
                          2 * MAX_BUDGET + 1])


@given(st.lists(st.tuples(COSTS, st.frozensets(st.integers(0, 9),
                                               max_size=3)), max_size=4),
       st.sampled_from([F(1), F(1, 2), F(1, 3), F(1, 10)]),
       st.integers(0, 2 ** 16))
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
def test_beat_many_rows_are_single_runs(specs, epsilon, seed):
    # each row is the protocol run once at its k, drawn from stream i
    oracles = [DivergeAtOracle(diverge, IdentityOracle(cost))
               for cost, diverge in specs]
    result = beat_many(oracles, epsilon, Tape(seed=seed))
    tape = Tape(seed=seed)
    assert len(result.rows) == len(oracles)
    for i, (oracle, row) in enumerate(zip(oracles, result.rows)):
        n = epsilon_to_n(epsilon / 2 ** (i + 1))
        assert result.row_ns[i] == n
        assert row == beat_with_k(oracle, tape.draw(i, (F(1, n),) * n))


def test_beat_many_empty_list():
    result = beat_many([], F(1, 2), Tape(seed=1))
    assert result.rows == ()
    assert result.g(5) == 0
