"""Applications: infinite CNFs with fixed or variable clause sizes and
forbidden-substring avoidance.

For fixed clause size m the canonical weights are z = 2^-(m-2). For variable
sizes the weights are z = 2^(-beta*k) for size-k clauses with
beta = (1+gamma)/2, and a threshold M is computed so that clauses of size >= M
satisfy the strengthened per-event condition; the defining inequality is
decided with exact rational enclosures of the irrational powers involved.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Optional, Sequence

from .errors import FamilyError, ModelError, VerificationError
from .model import (ConditionReport, ConstraintSystem, LLLParams, ONE, ZERO,
                    as_fraction, check_lll)
from .tape import Tape
from .engine import SATISFIED, run_finite, suggested_max_steps
from .families import ForbiddenSubstringFamily, InfiniteFamily, TrimmedFamily
from .intervals import pow2_interval


@dataclass(frozen=True)
class FixedCnfReport:
    m: int
    z: Fraction
    alpha: Fraction
    lhs: Fraction
    rhs: Fraction
    holds: bool
    neighbor_audit: Optional[tuple[int, ...]] = None  # per-event proper-neighbor counts


def fixed_cnf_params(m: int, alpha: Fraction = ONE,
                     system: ConstraintSystem | None = None) -> FixedCnfReport:
    """Weights and condition check for m-variable clauses with <= 2^(m-2)
    neighbors each.

    The exact inequality 2^-m <= alpha * 2^-(m-2) * (1 - 2^-(m-2))^(2^(m-2))
    is evaluated for the supplied alpha; feasibility per m is reported, never
    assumed (at m = 3 it holds with equality only for alpha = 1). If a
    materialized prefix is supplied, its proper-neighbor counts are audited
    against 2^(m-2).
    """
    if m < 2:
        raise ModelError("clause size must be >= 2")
    alpha = as_fraction(alpha)
    z = Fraction(1, 2 ** (m - 2))  # = 1 at m == 2, where the check must fail
    d = 2 ** (m - 2)
    lhs = Fraction(1, 2 ** m)
    rhs = alpha * z * (ONE - z) ** d
    audit = None
    if system is not None:
        counts = []
        for i, ev in enumerate(system.events):
            if len(ev.vbl) != m:
                raise ModelError(f"event {i} has size {len(ev.vbl)}, not {m}")
            counts.append(len(system.neighbor_sets[i]) - 1)
        audit = tuple(counts)
        if any(c > d for c in counts):
            raise ModelError(
                f"some clause has more than {d} proper neighbors")
    return FixedCnfReport(m, z, alpha, lhs, rhs, lhs <= rhs, audit)


_MAX_M = 100_000


@dataclass(frozen=True)
class BetaM:
    beta: Fraction
    M: int
    margin_lo: Fraction   # certified lower bound of rhs - 1/2 at M
    previous_fails: bool  # the inequality certifiably fails at M - 1


def _tail_interval(gamma: Fraction, beta: Fraction, M: int,
                   bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of the geometric tail sum_{m>=M} 2^((gamma-beta)m) =
    2^((gamma-beta)M) / (1 - 2^(gamma-beta)), gamma < beta, from
    `bits`-bit enclosures of the powers."""
    r_lo, r_hi = pow2_interval(gamma - beta, bits)
    t_lo, t_hi = pow2_interval((gamma - beta) * M, bits)
    if r_hi >= ONE:
        raise ModelError(f"tail ratio enclosure not below 1 at {bits} bits")
    return t_lo / (ONE - r_lo), t_hi / (ONE - r_hi)


def _master_rhs_interval(gamma: Fraction, alpha: Fraction, beta: Fraction,
                         M: int) -> tuple[Fraction, Fraction]:
    """Enclosure of alpha * 2^-beta * (1 - sum_{m>=M} 2^((gamma-beta)m)),
    from 64-bit enclosures of the powers."""
    tail_lo, tail_hi = _tail_interval(gamma, beta, M, 64)
    p_lo, p_hi = pow2_interval(-beta, 64)
    products = [p_lo * (ONE - tail_hi), p_lo * (ONE - tail_lo),
                p_hi * (ONE - tail_hi), p_hi * (ONE - tail_lo)]
    return alpha * min(products), alpha * max(products)


def compute_beta_M(gamma, alpha) -> BetaM:
    """beta = (1+gamma)/2 and the least M certifying the master inequality

        1/2 <= alpha * 2^-beta * (1 - sum_{m>=M} 2^(gamma*m) * 2^(-beta*m)).

    M (at most 100000) is the least at which the inequality certifiably
    holds, by 64-bit interval evaluation; the enclosures at M and M-1 come
    from the search itself, and `previous_fails` says whether the one at M-1
    certifiably fails (the tail is monotone).
    """
    gamma = as_fraction(gamma)
    alpha = as_fraction(alpha)
    if not ZERO < gamma < ONE:
        raise ModelError("gamma must lie strictly between 0 and 1")
    if not ZERO < alpha < ONE:
        raise ModelError("alpha must lie strictly between 0 and 1")
    beta = (ONE + gamma) / 2
    half = Fraction(1, 2)
    # even with zero tail the inequality needs alpha * 2^-beta >= 1/2
    p_lo, p_hi = pow2_interval(-beta, 64)
    if alpha * p_hi < half:
        raise ModelError(
            "alpha/gamma incompatible: alpha * 2^-beta < 1/2 even with no tail")
    hi_prev = None  # the upper enclosure at M - 1
    for M in range(1, _MAX_M + 1):
        lo, hi = _master_rhs_interval(gamma, alpha, beta, M)
        if lo >= half:
            return BetaM(beta, M, lo - half,
                         hi_prev is not None and hi_prev < half)
        hi_prev = hi
    raise ModelError(f"no certifiable M found up to {_MAX_M}")


def clause_weight(beta: Fraction, size: int) -> Fraction:
    """Dyadic stand-in 2^-ceil(beta*k) for the irrational 2^(-beta*k).

    Downstream arithmetic needs rational weights. Rounding the exponent up
    only shrinks z, which can break the condition as well as mend it, so
    the substituted weights are checked again: `build_avoiding_sequence`
    checks its window's condition exactly with them (`check_lll`), and
    `verify_dyadic_weights` checks the per-size inequality.
    """
    return Fraction(1, 2 ** ceil(beta * size))


def verify_dyadic_weights(gamma, alpha, beta: Fraction, M: int,
                          sizes: Sequence[int]) -> dict[int, bool]:
    """Per-size condition check with the substituted dyadic weights.

    For a clause of size k, a variable lies in at most 2^(gamma*m) clauses of
    size m, so there are at most k*2^(gamma*m) size-m neighbors and

        2^-k <= alpha * z_k * (1 - sum_{m>=M} 2^(gamma*m) * z_m)^k

    is sufficient. The tail is bounded above by the geometric enclosure
    (z_m <= 2^(-beta*m)), from 48-bit enclosures of the powers; everything
    else is exact rational arithmetic.
    """
    gamma = as_fraction(gamma)
    alpha = as_fraction(alpha)
    _, tail_hi = _tail_interval(gamma, beta, M, 48)
    out = {}
    for k in sizes:
        zk = clause_weight(beta, k)
        lhs = Fraction(1, 2 ** k)
        rhs = alpha * zk * (ONE - tail_hi) ** k if tail_hi < ONE else ZERO
        out[k] = lhs <= rhs
    return out


def trim_clauses(family: InfiniteFamily, rho) -> tuple[TrimmedFamily, Fraction]:
    """Drop each clause's ceil(rho*s) lowest-index variables.

    Returns the trimmed family plus the new per-variable-per-size exponent
    gamma' in (gamma, 1) that the trimmed incidence obeys; requires
    rho < 1 - gamma so that gamma/(1-rho) stays below 1.
    """
    rho = as_fraction(rho)
    gamma = getattr(family, "gamma", None)
    if gamma is None:
        raise FamilyError("base family does not declare a gamma exponent")
    gamma = as_fraction(gamma)
    if rho >= ONE - gamma:
        raise ModelError(
            f"rho={rho} too large for gamma={gamma}: need rho < 1 - gamma")
    scaled = gamma / (ONE - rho)
    gamma_new = (scaled + ONE) / 2
    trimmed = TrimmedFamily(family, rho)
    trimmed.gamma = gamma_new
    return trimmed, gamma_new


def forbidden_substrings_to_family(patterns: Sequence[str], gamma,
                                   min_len: int) -> ForbiddenSubstringFamily:
    """One clause per (pattern of length >= min_len, start position).

    Patterns shorter than min_len are kept on the family's
    `rejected_patterns` for diagnostics. The per-length pattern counts are
    validated against 2^(gamma*m) with certified enclosures.
    """
    family = ForbiddenSubstringFamily(patterns, as_fraction(gamma), min_len)
    audit_pattern_counts(family)
    return family


def audit_pattern_counts(family: ForbiddenSubstringFamily
                         ) -> dict[int, tuple[int, Fraction]]:
    """Certify |patterns of length l| <= 2^(gamma*l) for every length present,
    against 64-bit enclosures."""
    out = {}
    for l, fs in sorted(family._by_length.items()):
        lo, hi = pow2_interval(family.gamma * l, 64)
        if Fraction(len(fs)) > lo:
            if Fraction(len(fs)) > hi:
                raise ModelError(
                    f"{len(fs)} patterns of length {l} exceed 2^(gamma*{l})")
            raise ModelError(
                f"pattern count at length {l} not certifiable at 64 bits")
        out[l] = (len(fs), lo)
    return out


def degree_audit(family: InfiniteFamily, var_limit: int,
                 min_size: int = 0) -> dict[tuple[int, int], int]:
    """Count events per (variable, size) on a prefix and certify them
    against the family's declared incidence bound.

    Sizes below `min_size` are counted but not certified (the declared
    exponent bounds are asymptotic and may only hold from some size on).
    """
    counts: dict[tuple[int, int], int] = {}
    for var in range(var_limit):
        for idx in family.events_of_variable(var):
            size = len(family.event(idx).vbl)
            counts[(var, size)] = counts.get((var, size), 0) + 1
    for (var, size), n in counts.items():
        if size < min_size:
            continue
        bound = family.degree_bound(size)
        if Fraction(n) > bound:
            raise ModelError(
                f"variable {var}: {n} events of size {size} exceed the "
                f"certified incidence bound {bound}")
    return counts


def scan_for_substrings(bits: str, patterns: Sequence[str],
                        min_len: int) -> list[tuple[int, str]]:
    """Occurrences of any pattern with length >= min_len; the independent
    verifier for avoidance outputs."""
    hits = []
    for f in patterns:
        if len(f) < min_len:
            continue
        start = bits.find(f)
        while start != -1:
            hits.append((start, f))
            start = bits.find(f, start + 1)
    return sorted(hits)


@dataclass(frozen=True)
class AvoidResult:
    bits: str
    beta: Fraction
    M: int
    mode: str
    event_count: int          # materialized events inside the window
    resamples: int
    scan_hits: tuple[tuple[int, str], ...]
    condition: Optional[ConditionReport] = None  # exact check on the window

    @property
    def scan_ok(self) -> bool:
        return not self.scan_hits


def build_avoiding_sequence(patterns: Sequence[str], gamma, length: int,
                            mode: str = "empirical", alpha=Fraction(99, 100),
                            seed: int = 0) -> AvoidResult:
    """A bit prefix of the requested length avoiding all long-enough patterns.

    Computes (beta, M), builds the occurrence family for patterns of length
    >= M, solves the events inside the window, and scans the result with the
    independent substring verifier before returning it. The solver stops at
    `suggested_max_steps`; the exact prefix is certified to width 1/64.
    """
    if length < 0:
        raise ModelError(f"length {length}: must be >= 0")
    gamma = as_fraction(gamma)
    alpha = as_fraction(alpha)
    bm = compute_beta_M(gamma, alpha)
    family = forbidden_substrings_to_family(patterns, gamma, bm.M)
    # the window's events are the family's first ones, so they keep their
    # indices in the finite system over the window variables
    events = [family.event(i) for i in family.events_in_window(length)]
    variables = [family.variable_spec(v) for v in range(length)]
    system = ConstraintSystem.build(variables, events)

    condition = None
    cap = 1
    if events:
        z = tuple(clause_weight(bm.beta, len(ev.vbl)) for ev in events)
        params = LLLParams(z, alpha)
        condition = check_lll(system, params)
        cap = suggested_max_steps(params)

    if mode == "empirical":
        result = run_finite(system, Tape(seed=seed), cap)
        if result.status != SATISFIED:
            raise VerificationError(
                f"solver did not satisfy the window within {cap} steps")
        bits = "".join(str(v) for v in result.assignment)
        resamples = result.resample_count
    elif mode == "exact":
        from .layerwise import PREFIX_BRANCH_GUARD, compute_assignment_prefix
        prefix = compute_assignment_prefix(system, None, length,
                                           mode="exact", delta=Fraction(1, 64),
                                           branch_guard=PREFIX_BRANCH_GUARD)
        bits = "".join(str(v) for v in prefix.values)
        resamples = 0
    else:
        raise ModelError(f"unknown mode {mode!r}")

    hits = scan_for_substrings(bits, patterns, bm.M)
    if hits:
        raise VerificationError(
            f"internal: output contains forbidden substrings at {hits[:3]}")
    return AvoidResult(bits, bm.beta, bm.M, mode, len(events), resamples,
                       tuple(hits), condition)
