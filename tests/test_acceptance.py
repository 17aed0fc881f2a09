"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see the
report). Tolerances and budgets are fixed here, not tuned at runtime."""
from __future__ import annotations

import time
from fractions import Fraction
from itertools import islice

from lll_toolkit.model import (ConstraintSystem, Event, LLLParams,
                               StreamParams, avoiding_assignments, check_lll,
                               clause_event, expected_steps_bound,
                               uniform_bit)
from lll_toolkit.tape import Tape
from lll_toolkit.engine import SATISFIED, log_from_event_sequence, run_finite, run_stream
from lll_toolkit.witness import WitnessTree, build_witness_tree
from lll_toolkit.exhaustive import check_tree_lemma
from lll_toolkit.galton_watson import check_mt_vs_gw, gw_tree_probability
from lll_toolkit.layerwise import (TableQOracle, compute_assignment_prefix,
                                   extract_from_positive_probability,
                                   extract_positive_branch, stability_horizon)
from lll_toolkit.corollaries import (build_avoiding_sequence, compute_beta_M,
                                     _master_rhs_interval, _tail_interval,
                                     scan_for_substrings)
from lll_toolkit.intervals import pow2_interval
from lll_toolkit.fireworks import (loss_probability,
                                   sequential_take_distribution,
                                   win_probability_exact)
from lll_toolkit.families import ChainCnfFamily
from lll_toolkit.errors import ContractViolation
from lll_toolkit.corpus import toy_corpus


F = Fraction


def _verdict(name: str, ok: bool) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_01_witness_tree_golden(paper_example_system):
    """Worked reverse-scan example: resamplings 2,1,3,4,2 give root 2 with
    depth-1 sons {1,3}, the final 2 at depth 2 under label 1; 4 skipped."""
    system = paper_example_system
    log = log_from_event_sequence(system, [2, 1, 3, 4, 2])
    elapsed = []
    for _ in range(5):
        t0 = time.perf_counter()
        tree = build_witness_tree(log, 5, system)
        elapsed.append(time.perf_counter() - t0)
    ok = (tree.root_label == 2
          and tree.labels == (2, 3, 1, 2)
          and tree.parents == (-1, 0, 0, 2)
          and tree.depths() == (0, 1, 1, 2)
          and tree.labels[tree.parents[3]] == 1
          and 4 not in tree.labels
          and min(elapsed) < 0.001)
    _verdict("ACCEPT-01 witness-tree-golden", ok)


def test_02_gw_formula_goldens():
    """Process-law formulas at z = 1/2: singleton (1-z)^3 = 1/8 and
    root-plus-son z(1-z)^2 * (1-z)^2 = 1/32."""
    variables = [uniform_bit(i) for i in range(2)]
    events = [Event(0, (0, 1), frozenset({(1, 1)})),
              clause_event(1, (0,), (1,)),
              clause_event(2, (1,), (1,))]
    system = ConstraintSystem.build(variables, events)
    params = LLLParams((F(1, 2),) * 3)
    singleton = gw_tree_probability(WitnessTree((0,), (-1,)), params, system)
    two_vertex = gw_tree_probability(WitnessTree((0, 1), (-1, 0)), params,
                                     system)
    ok = singleton == F(1, 8) and two_vertex == F(1, 32)
    _verdict("ACCEPT-02 gw-formula-goldens", ok)


def test_03_exhaustive_tree_bound():
    """Every witness tree appearing in any enumerated branch of every corpus
    system obeys the label-product bound, exactly, with the unresolved mass
    fully accounted; runtime under two minutes."""
    t0 = time.perf_counter()
    ok = True
    systems = 0
    trees = 0
    for entry in toy_corpus():
        assert len(entry.system.events) <= 3
        assert len(entry.system.variables) <= 4
        assert entry.bit_budget <= 20
        report = check_tree_lemma(entry.system, entry.bit_budget)
        ok = ok and report.holds_within_horizon and report.certified
        systems += 1
        trees += len(report.entries)
    elapsed = time.perf_counter() - t0
    ok = ok and systems >= 5 and trees >= 40 and elapsed <= 120
    _verdict("ACCEPT-03 exhaustive-tree-bound", ok)


def test_04_exhaustive_process_comparison():
    """Same corpus with valid weights: exact appearance probability of every
    tree is at most z/(1-z) * alpha^size * process probability, and the
    process law sums to at most 1 per root."""
    ok = True
    for entry in toy_corpus():
        params = entry.params
        condition = check_lll(entry.system, params)
        report = check_mt_vs_gw(entry.system, params, entry.bit_budget)
        ok = (ok and condition.holds and report.holds_within_horizon
              and report.certified and report.gw_totals_ok)
    _verdict("ACCEPT-04 exhaustive-process-comparison", ok)


def test_05_expected_steps_bound():
    """Chain 3-CNFs with pseudo-random polarities, sizes up to 10^4 clauses:
    seeded trials stay within the expected-steps bound (plus 3 standard
    errors) and every returned assignment satisfies every clause."""
    t0 = time.perf_counter()
    ok = True
    plan = [(100, 10_000, 101), (1_000, 300, 202), (10_000, 12, 303)]
    total_trials = 0
    for n_clauses, trials, gen_seed in plan:
        system = ChainCnfFamily(3, 1, gen_seed).materialize(n_clauses)
        params = LLLParams.constant(F(1, 2), n_clauses)
        assert check_lll(system, params).holds
        bound = expected_steps_bound(params.z)
        max_steps = 10 * n_clauses
        counts = []
        for seed in range(trials):
            result = run_finite(system, Tape(seed=seed), max_steps)
            ok = ok and result.status == SATISFIED
            ok = ok and not any(
                system.is_true(i, result.assignment)
                for i in range(n_clauses))
            counts.append(result.resample_count)
        total_trials += trials
        mean = F(sum(counts), len(counts))
        excess = mean - bound
        if excess > 0:
            # exact form of mean <= bound + 3 * sqrt(variance / trials)
            var = (F(sum(c * c for c in counts), trials) - mean * mean)
            ok = ok and excess * excess * trials <= 9 * var
    elapsed = time.perf_counter() - t0
    ok = ok and total_trials >= 10_000 and elapsed <= 300
    _verdict("ACCEPT-05 expected-steps-bound", ok)


def test_06_stability_certificates():
    """Horizon certificates at delta in {1/4, 1/16}: over 10^4 seeded runs
    the cells change after their certified step counts no more often than
    delta plus 3 standard errors."""
    family = ChainCnfFamily(4, overlap=1, polarity_seed=7)
    params = StreamParams.constant(F(1, 4), F(1, 2))
    cells = (0, 5)
    deltas = (F(1, 4), F(1, 16))
    certs = {(cell, delta): stability_horizon(family, params, cell, delta)
             for cell in cells for delta in deltas}
    active_k = 60
    trials = 10_000
    last_change = {cell: [] for cell in cells}
    for seed in range(trials):
        result = run_stream(family, active_k, Tape(seed=seed), 10_000)
        assert result.status == SATISFIED
        for cell in cells:
            last = 0
            value = result.log.initial[cell]
            for step in result.log.steps:
                for v, _, x in step.draws:
                    if v == cell and x != value:
                        value = x
                        last = step.number
            last_change[cell].append(last)
    ok = True
    for (cell, delta), cert in certs.items():
        changed = sum(1 for t in last_change[cell] if t > cert.N)
        freq = F(changed, trials)
        excess = freq - delta
        if excess > 0:
            ok = ok and excess * excess * trials <= 9 * freq * (1 - freq)
        ok = ok and cert.total_bound(params) <= delta
    _verdict("ACCEPT-06 stability-certificates", ok)


def test_07_computable_prefix_exactness(chain2_system):
    """Exact prefixes on toy systems: decided events false, positive
    recorded mass bounds, and each prefix extends to a brute-force avoider."""
    ok = True
    targets = [entry.system for entry in toy_corpus()] + [chain2_system]
    for system in targets:
        length = len(system.variables)
        result = compute_assignment_prefix(system, None, length,
                                           mode="exact", delta=F(1, 32))
        decided = [i for i, ev in enumerate(system.events)
                   if ev.vbl[-1] < length]
        ok = ok and not any(system.is_true(i, result.values)
                            for i in decided)
        ok = ok and all(b > 0 for b in result.cell_bounds)
        ok = ok and result.interval[0] > 0
        avoiders = avoiding_assignments(system)
        ok = ok and any(a[:length] == result.values for a in avoiders)
    _verdict("ACCEPT-07 computable-prefix-exactness", ok)


def test_08_avoiding_sequence_pipeline():
    """Runs of both polarities, lengths 2..12, gamma = 1/2, alpha = 0.99:
    beta = 3/4, M certified at M and refuted at M-1, and a length-10^4
    empirical prefix passes the independent substring scan in under a
    minute."""
    t0 = time.perf_counter()
    gamma, alpha = F(1, 2), F(99, 100)
    bm = compute_beta_M(gamma, alpha)
    power = pow2_interval(-bm.beta, 64)
    tail = _tail_interval(gamma, bm.beta, 64)
    lo_at_m, _ = _master_rhs_interval(alpha, power, tail, bm.M)
    _, hi_prev = _master_rhs_interval(alpha, power, tail, bm.M - 1)
    patterns = [c * m for m in range(2, 13) for c in "01"]
    result = build_avoiding_sequence(patterns, gamma, 10_000,
                                     mode="empirical", alpha=alpha, seed=17)
    rescan = scan_for_substrings(result.bits, patterns, result.M)
    elapsed = time.perf_counter() - t0
    ok = (bm.beta == F(3, 4)
          and lo_at_m >= F(1, 2)
          and hi_prev < F(1, 2)
          and bm.previous_fails
          and len(result.bits) == 10_000
          and result.scan_ok
          and rescan == []
          and elapsed <= 60)
    _verdict("ACCEPT-08 avoiding-sequence-pipeline", ok)


def test_09_fireworks_exactness():
    """Game values: worst-case win probability 99/100 at n = 100, the full
    seller sweep at n in {1,2,10,100}, and the stepwise take/test law equals
    the uniform law for every n up to 100."""
    ok = win_probability_exact(100) == F(99, 100)
    for n in (1, 2, 10, 100):
        for K in list(range(2 * n)) + [None]:
            expected = F(1, n) if (K is not None and K < n) else F(0)
            ok = ok and loss_probability(n, K) == expected
    for n in range(1, 101):
        ok = ok and sequential_take_distribution(n) == (F(1, n),) * n
    _verdict("ACCEPT-09 fireworks-exactness", ok)


def test_10_branch_extraction():
    """Toy measures: the heavy branch is recovered for a valid threshold,
    invalid thresholds trip the contract guard, and the positive-branch
    walker finds the unique supported branch."""
    heavy = TableQOracle({"1": F(3, 5), "0": F(2, 5)})
    got = list(islice(extract_from_positive_probability(heavy, F(2, 5)), 6))
    ok = got == [1] * 6
    try:
        list(islice(extract_from_positive_probability(heavy, F(1, 10)), 2))
        ok = False
    except ContractViolation:
        pass
    point = TableQOracle({"010": F(1)})
    ok = ok and list(islice(extract_positive_branch(point), 6)) == [0, 1, 0,
                                                                    0, 1, 0]
    unique = TableQOracle({"11": F(1, 4)})
    ok = ok and list(islice(extract_positive_branch(unique), 4)) == [1] * 4
    two_atom = TableQOracle({"0": F(1, 2), "1": F(1, 2)})
    ok = ok and list(islice(extract_positive_branch(two_atom), 3)) == [0] * 3
    _verdict("ACCEPT-10 branch-extraction", ok)
