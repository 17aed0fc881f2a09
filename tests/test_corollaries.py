from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lll_toolkit.errors import FamilyError, ModelError
from lll_toolkit.families import (ChainCnfFamily, FiniteFamily,
                                  ForbiddenSubstringFamily, TrimmedFamily)
from lll_toolkit.intervals import pow2_interval
from lll_toolkit.corollaries import (_master_rhs_interval,
                                     audit_pattern_counts,
                                     build_avoiding_sequence, clause_weight,
                                     compute_beta_M, degree_audit,
                                     fixed_cnf_params,
                                     forbidden_substrings_to_family,
                                     scan_for_substrings, trim_clauses,
                                     verify_dyadic_weights)

F = Fraction


# --- interval arithmetic -----------------------------------------------------

def test_pow2_interval_integer_exponents_exact():
    assert pow2_interval(F(3)) == (F(8), F(8))
    assert pow2_interval(F(-2)) == (F(1, 4), F(1, 4))
    assert pow2_interval(F(0)) == (F(1), F(1))


def test_pow2_interval_encloses_known_values():
    lo, hi = pow2_interval(F(1, 2), 48)
    assert lo < hi
    assert hi - lo <= F(2, 2 ** 48)
    assert lo * lo <= 2 <= hi * hi
    lo, hi = pow2_interval(F(-3, 4), 48)
    # 2^(3/4) in [1.68, 1.69]: the reciprocal must straddle it
    assert (1 / hi) ** 4 <= 8 <= (1 / lo) ** 4


# --- fixed clause size --------------------------------------------------------

def test_fixed_cnf_m3_alpha_one_equality():
    report = fixed_cnf_params(3, F(1))
    assert report.z == F(1, 2)
    assert report.lhs == F(1, 8)
    assert report.rhs == F(1, 8)
    assert report.holds


def test_fixed_cnf_m3_strengthened_fails():
    # the m=3 equality has no room for any alpha < 1; the report says so
    report = fixed_cnf_params(3, F(99, 100))
    assert not report.holds


def test_fixed_cnf_m4_strengthened_holds():
    report = fixed_cnf_params(4, F(99, 100))
    assert report.z == F(1, 4)
    assert report.lhs == F(1, 16)
    assert report.rhs == F(99, 100) * F(1, 4) * F(3, 4) ** 4
    assert report.holds


def test_fixed_cnf_neighbor_audit():
    family = ChainCnfFamily(4, overlap=1, polarity_seed=3)
    system = family.materialize(6)
    report = fixed_cnf_params(4, F(99, 100), system)
    assert report.neighbor_audit is not None
    assert max(report.neighbor_audit) <= 2


def test_fixed_cnf_rejects_oversized_neighborhoods():
    # every clause shares a variable with every other: 3 > 2^(3-2) = 2
    from lll_toolkit.model import ConstraintSystem, clause_event, uniform_bit
    variables = [uniform_bit(i) for i in range(9)]
    events = [clause_event(0, (0, 1, 2), (1, 1, 1)),
              clause_event(1, (0, 3, 4), (1, 1, 1)),
              clause_event(2, (0, 5, 6), (1, 1, 1)),
              clause_event(3, (0, 7, 8), (1, 1, 1))]
    system = ConstraintSystem.build(variables, events)
    with pytest.raises(ModelError):
        fixed_cnf_params(3, F(1), system)


# --- beta / M ------------------------------------------------------------------

def test_beta_formula():
    assert compute_beta_M(F(1, 2), F(99, 100)).beta == F(3, 4)
    assert compute_beta_M(F(1, 3), F(9, 10)).beta == F(2, 3)


def test_beta_M_reference_value():
    # gamma = 1/2, alpha = 0.99: the tail 2^(-M/4)/(1 - 2^(-1/4)) first
    # drops below the required margin at M = 22
    bm = compute_beta_M(F(1, 2), F(99, 100))
    assert bm.M == 22
    assert bm.margin_lo > 0
    assert bm.previous_fails


def test_beta_M_monotone_in_alpha_and_gamma():
    # alpha must exceed 2^beta / 2 for feasibility; stay above that floor
    alphas = [F(86, 100), F(9, 10), F(95, 100), F(99, 100)]
    ms = [compute_beta_M(F(1, 2), a).M for a in alphas]
    assert ms == sorted(ms, reverse=True)  # larger alpha, smaller M
    gammas = [F(1, 4), F(1, 2), F(2, 3), F(3, 4)]
    ms = [compute_beta_M(g, F(99, 100)).M for g in gammas]
    assert ms == sorted(ms)  # larger gamma, larger M


def test_beta_M_incompatible_parameters():
    # alpha * 2^-beta < 1/2 already without a tail
    with pytest.raises(ModelError):
        compute_beta_M(F(9, 10), F(51, 100))


# sha256 of one line per (gamma, alpha) of the grid below: beta, M, the
# margin and whether M - 1 fails, or the refusal's message
BETA_M_GRID_DIGEST = (
    "9cf5c32b45a8b1836f69f4b8a9011e5ae080d8b9ce1702ede1a6c33469a79efb")


def test_beta_M_grid_is_pinned():
    lines = []
    for gamma in (F(1, 16), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4),
                  F(9, 10)):
        for alpha in (F(1, 2), F(3, 4), F(86, 100), F(9, 10), F(99, 100),
                      F(999, 1000)):
            try:
                bm = compute_beta_M(gamma, alpha)
            except ModelError as exc:
                lines.append(f"{gamma} {alpha} error {exc}\n")
                continue
            lines.append(f"{gamma} {alpha} {bm.beta} {bm.M} {bm.margin_lo} "
                         f"{bm.previous_fails}\n")
    text = "".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == BETA_M_GRID_DIGEST, \
        text


def test_a_tail_ratio_not_below_one_is_refused_at_each_precision():
    # beta = gamma makes the tail's ratio 2^0 = 1: no geometric sum
    for enclose, bits in (
            (lambda: _master_rhs_interval(F(1, 2), F(99, 100), F(1, 2), 3),
             64),
            (lambda: verify_dyadic_weights(F(1, 2), F(99, 100), F(1, 2), 3,
                                           [4]), 48)):
        with pytest.raises(ModelError, match=f"^tail ratio enclosure not "
                                             f"below 1 at {bits} bits$"):
            enclose()


def test_dyadic_weights_verify_at_reference_point():
    bm = compute_beta_M(F(1, 2), F(99, 100))
    sizes = range(bm.M, bm.M + 20)
    report = verify_dyadic_weights(F(1, 2), F(99, 100), bm.beta, bm.M, sizes)
    assert all(report.values())


def test_clause_weight_is_dyadic_floor():
    beta = F(3, 4)
    assert clause_weight(beta, 4) == F(1, 8)      # 2^-3
    assert clause_weight(beta, 22) == F(1, 2 ** 17)
    assert clause_weight(beta, 23) == F(1, 2 ** 18)  # ceil(17.25) = 18


# --- substring families ---------------------------------------------------------

def runs_patterns(max_len):
    return [c * m for m in range(2, max_len + 1) for c in "01"]


def test_substring_family_events():
    family = forbidden_substrings_to_family(["000", "111"], F(1, 2), 3)
    e0 = family.event(0)
    e1 = family.event(1)
    assert e0.vbl == (0, 1, 2)
    assert e1.vbl == (0, 1, 2)
    assert {tuple(t) for ev in (e0, e1) for t in ev.forbidden} == \
        {(0, 0, 0), (1, 1, 1)}


def test_substring_family_positions():
    family = forbidden_substrings_to_family(["0011"], F(1, 2), 2)
    for index in range(6):
        ev = family.event(index)
        assert ev.vbl == tuple(range(index, index + 4))


def test_substring_family_rejects_short_patterns():
    family = forbidden_substrings_to_family(["01", "0000"], F(1, 2), 3)
    assert family.rejected_patterns == ("01",)
    assert family.patterns == ("0000",)


def test_substring_family_index_roundtrip():
    family = forbidden_substrings_to_family(runs_patterns(6), F(1, 2), 2)
    for index in range(60):
        ev = family.event(index)
        pattern = "".join(str(x) for x in sorted(ev.forbidden)[0])
        assert family.index_of(ev.vbl[0], pattern) == index


# sha256 of the "position pattern" lines of the first n events, taken when
# the numbering walked each diagonal position by position: demo 05's family
# (runs of length 22..30) and one with gaps between lengths
PINNED_NUMBERING = {
    "demo_05": (7000,
                "08f8c6b225348fe46b67f94314e69b1489b89e5177e282314a4174e92f758ae1"),
    "mixed": (2000,
              "62d3cb785da1927734fd94f46974721baf6caad9f4af1dbcb558d646cc0af1a4"),
}


@pytest.mark.parametrize("name", sorted(PINNED_NUMBERING))
def test_substring_family_numbering_is_pinned(name):
    family = {
        "demo_05": ForbiddenSubstringFamily(runs_patterns(30), F(1, 2), 22),
        "mixed": ForbiddenSubstringFamily(
            ["01", "10", "111", "00110", "10101", "000000"], F(1, 2), 2),
    }[name]
    n, digest = PINNED_NUMBERING[name]
    pairs = [family._enumeration(i) for i in range(n)]
    lines = "".join(f"{p} {f}\n" for p, f in pairs)
    assert hashlib.sha256(lines.encode()).hexdigest() == digest
    for i, pair in enumerate(pairs):
        assert family.index_of(*pair) == i


@given(st.lists(st.text("01", min_size=1, max_size=6), max_size=6),
       st.integers(1, 3), st.integers(-3, 25))
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
def test_window_is_every_occurrence_inside_it(patterns, min_len, length):
    family = ForbiddenSubstringFamily(patterns, F(1, 2), min_len)
    occurrences = sorted(family.index_of(p, f) for f in family.patterns
                         for p in range(length - len(f) + 1))
    assert list(family.events_in_window(length)) == occurrences


def test_substring_family_enumeration_repeatable():
    family = forbidden_substrings_to_family(runs_patterns(5), F(1, 2), 2)
    first = [family.event(i) for i in range(30)]
    family2 = forbidden_substrings_to_family(runs_patterns(5), F(1, 2), 2)
    second = [family2.event(i) for i in range(30)]
    assert first == second


def test_substring_family_events_of_variable():
    family = forbidden_substrings_to_family(["00", "11"], F(1, 2), 2)
    touching = family.events_of_variable(3)
    for idx in touching:
        ev = family.event(idx)
        assert 3 in ev.vbl
    # position 3 lies in occurrences starting at 2 and 3 for each pattern
    assert len(touching) == 4


def test_pattern_count_audit():
    family = ForbiddenSubstringFamily(runs_patterns(12), F(1, 2), 2)
    counts = audit_pattern_counts(family)
    assert counts[2][0] == 2  # exactly 2^(gamma*2) = 2: equality certifies
    too_many = ForbiddenSubstringFamily(["00", "01", "10", "11"], F(1, 2), 2)
    with pytest.raises(ModelError):
        audit_pattern_counts(too_many)


def test_degree_audit_on_substring_family():
    family = forbidden_substrings_to_family(runs_patterns(8), F(1, 2), 4)
    counts = degree_audit(family, var_limit=12)
    for (var, size), n in counts.items():
        # at most one occurrence window per offset and polarity
        assert n <= size * 2


def test_degree_audit_rejects_violations():
    # declare a much smaller exponent than the family actually has
    family = ForbiddenSubstringFamily(runs_patterns(8), F(1, 100), 4)
    with pytest.raises(ModelError):
        degree_audit(family, var_limit=12, min_size=4)


def test_degree_audit_refuses_a_family_declaring_no_bound():
    with pytest.raises(FamilyError, match="declares no incidence exponent"):
        degree_audit(ChainCnfFamily(3, 1, 0), var_limit=4)


def test_degree_audit_on_trimmed_family():
    family = forbidden_substrings_to_family(runs_patterns(8), F(1, 2), 4)
    trimmed, _ = trim_clauses(family, F(1, 4))
    degree_audit(trimmed, var_limit=12, min_size=3)


# --- trimming -------------------------------------------------------------------

def test_trim_drops_lowest_indices():
    family = forbidden_substrings_to_family(["0011"], F(1, 2), 4)
    trimmed, gamma_new = trim_clauses(family, F(1, 4))
    ev = trimmed.event(0)
    base = family.event(0)
    assert ev.vbl == base.vbl[1:]  # ceil(4/4) = 1 variable dropped
    assert sorted(ev.forbidden)[0] == sorted(base.forbidden)[0][1:]
    assert F(1, 2) < gamma_new < 1


def test_trim_noop_for_tiny_rho():
    family = forbidden_substrings_to_family(["0011"], F(1, 2), 4)
    trimmed, _ = trim_clauses(family, F(1, 100))
    # ceil(4/100) = 1 still drops one variable; rho below 1/s keeps all
    ev = trimmed.event(0)
    assert len(ev.vbl) == 3


def test_trim_requires_clause_events():
    from lll_toolkit.model import ConstraintSystem, Event, uniform_bit
    system = ConstraintSystem.build(
        [uniform_bit(0), uniform_bit(1)],
        [Event(0, (0, 1), frozenset({(0, 0), (1, 1)}))])
    trimmed = TrimmedFamily(FiniteFamily(system), F(1, 2))
    with pytest.raises(FamilyError):
        trimmed.event(0)


def test_trim_rejects_rho_crowding_gamma():
    family = forbidden_substrings_to_family(["0011"], F(1, 2), 4)
    with pytest.raises(ModelError):
        trim_clauses(family, F(3, 4))  # needs rho < 1 - gamma = 1/2


def test_trimmed_satisfaction_implies_original():
    family = forbidden_substrings_to_family(["0011", "1100"], F(1, 2), 4)
    trimmed, _ = trim_clauses(family, F(1, 4))
    base_system = family.materialize(6)
    trim_system = trimmed.materialize(6)
    for assignment in trim_system.assignments():
        trim_ok = not any(trim_system.is_true(i, assignment)
                          for i in range(6))
        if trim_ok:
            padded = tuple(assignment) + (0,) * (
                len(base_system.variables) - len(assignment))
            assert not any(base_system.is_true(i, padded) for i in range(6))


def test_trim_variable_vanishes_from_large_clauses():
    patterns = ["0" * m for m in (4, 8, 12)]
    family = forbidden_substrings_to_family(patterns, F(1, 3), 4)
    trimmed, _ = trim_clauses(family, F(1, 4))
    horizon = 40
    sizes_with_var0 = set()
    for idx in trimmed.events_of_variable(0):
        sizes_with_var0.add(len(trimmed.event(idx).vbl))
    # variable 0 survives only in clauses whose trimmed window still starts
    # at 0; large clauses lose their lowest indices
    assert sizes_with_var0 <= {3, 6, 9}
    assert all(s <= 9 for s in sizes_with_var0)


# --- chain family ----------------------------------------------------------------

def test_chain_family_materialization_consistent():
    family = ChainCnfFamily(3, overlap=1, polarity_seed=9)
    a = family.materialize(5)
    b = family.materialize(5)
    assert a is b  # cached
    fresh = ChainCnfFamily(3, overlap=1, polarity_seed=9).materialize(5)
    assert fresh.events == a.events


def test_chain_family_events_of_variable():
    family = ChainCnfFamily(3, overlap=1, polarity_seed=0)
    # clause t covers 2t..2t+2: variable 4 sits in clauses 1 and 2
    assert family.events_of_variable(4) == (1, 2)
    assert family.events_of_variable(0) == (0,)


def test_chain_family_neighbor_counts():
    family = ChainCnfFamily(3, overlap=1, polarity_seed=0)
    for t in range(1, 6):
        nbrs = family.neighbors_of_event(t)
        assert set(nbrs) <= {t - 1, t, t + 1}


# --- end to end -------------------------------------------------------------------

def test_scan_is_an_independent_verifier():
    hits = scan_for_substrings("0011000", ["000", "11"], 2)
    assert (4, "000") in hits
    assert (2, "11") in hits
    assert scan_for_substrings("0101", ["000"], 3) == []
    # patterns below the length floor are ignored
    assert scan_for_substrings("0000", ["00"], 3) == []


def test_avoiding_sequence_vacuous_window():
    result = build_avoiding_sequence(runs_patterns(12), F(1, 2), 300,
                                     mode="empirical", seed=5)
    assert result.M == 22
    assert result.beta == F(3, 4)
    assert result.event_count == 0  # no pattern reaches length 22
    assert len(result.bits) == 300
    assert result.scan_ok


def test_avoiding_sequence_nonvacuous_window():
    patterns = runs_patterns(30)
    result = build_avoiding_sequence(patterns, F(1, 2), 150,
                                     mode="empirical", seed=11)
    assert result.event_count > 0
    assert result.scan_ok
    assert result.condition is not None and result.condition.holds
    # independent re-scan
    assert scan_for_substrings(result.bits, patterns, result.M) == []


# sha256 of "index lhs rhs" lines (rationals as hex num/den) plus alpha and
# avoid_bound, for the window above; taken before the right-hand sides were
# memoized per neighbourhood signature
PINNED_WINDOW_CONDITION = (
    2250, "9542eba585f7c8245abc557921af9aa55d5022193a8ad20dc32a5babecfe76ba")


def test_avoiding_window_condition_is_pinned():
    def hexq(x):
        return f"{x.numerator:x}/{x.denominator:x}"

    result = build_avoiding_sequence(runs_patterns(30), F(1, 2), 150,
                                     mode="empirical", seed=11)
    report = result.condition
    lines = "".join(f"{e.index} {hexq(e.lhs)} {hexq(e.rhs)}\n"
                    for e in report.entries)
    lines += (f"alpha {hexq(report.alpha)} "
              f"avoid_bound {hexq(report.avoid_bound)}\n")
    assert (len(report.entries),
            hashlib.sha256(lines.encode()).hexdigest()) == PINNED_WINDOW_CONDITION


def test_avoiding_sequence_short_window_vacuous():
    result = build_avoiding_sequence(runs_patterns(30), F(1, 2), 10,
                                     mode="empirical", seed=2)
    assert len(result.bits) == 10
    assert result.scan_ok


def test_avoiding_sequence_empty_patterns():
    result = build_avoiding_sequence([], F(1, 2), 40, mode="empirical",
                                     seed=0)
    assert len(result.bits) == 40
    assert result.event_count == 0
    assert result.scan_ok


def test_avoiding_sequence_exact_mode_tiny():
    result = build_avoiding_sequence(["11"], F(1, 2), 3, mode="exact",
                                     seed=0)
    assert result.scan_ok
    assert len(result.bits) == 3
