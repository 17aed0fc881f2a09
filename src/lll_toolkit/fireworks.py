"""The fireworks game and the function-beating protocol built on it.

A buyer tests fireworks one by one and must either catch a bad one during a
test or take a good one home. Choosing a uniformly random test count k in
0..n-1 wins against every seller strategy with probability exactly 1 - 1/n,
because the seller learns nothing from watching tests happen.

The same schedule drives a total-function construction: treat evaluations
f(0), f(1), ... of a budgeted oracle as fireworks (good = the computation
halts), test them while writing zeros into a growing table, and on the
take step write f(u)+1, beating f at u whenever f is total.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Optional, Protocol, Sequence

from .errors import BudgetRefused, ModelError
from .formats import format_rational
from .intervals import least
from .model import ONE, ZERO, as_fraction
from .tape import Tape


@dataclass(frozen=True)
class GameConfig:
    """n-way uniform test count; seller_k is the number of good fireworks
    sold before the bad one (None means every firework is good)."""

    n: int
    seller_k: Optional[int]

    def __post_init__(self):
        if self.n < 1:
            raise ModelError("n must be >= 1")
        if self.seller_k is not None and self.seller_k < 0:
            raise ModelError("seller_k must be >= 0 (or None)")


@dataclass(frozen=True)
class PlayOutcome:
    outcome: str              # "win" | "lose"
    k: int
    tests_made: int
    trace: tuple[str, ...]    # what the seller observes, in order


# the most values of a uniform law the game and the protocol draw from: the
# law is an n-tuple, and its sampler keeps n bounds
MAX_UNIFORM = 1 << 16


# the largest n whose exact game value is worked out: it reads the outcome
# of each of 2n + 1 sellers against each of n test counts, no play traced,
# O(n^2) in all: 0.02 s at n = 256 and 0.07 s at 512 (2 vCPUs, Python 3.11)
MAX_EXACT_GAME = 256


def _uniform(n: int) -> tuple[Fraction, ...]:
    """The uniform law on 0..n-1; `BudgetRefused` past `MAX_UNIFORM`."""
    if n > MAX_UNIFORM:
        raise BudgetRefused(f"a uniform law on {format_rational(n)} values "
                            f"exceeds the guard of {MAX_UNIFORM}")
    return (Fraction(1, n),) * n


def _loses(seller_k: Optional[int], k: int) -> bool:
    """The one outcome rule: after k clean tests the buyer takes the next
    firework home, and loses iff it is the bad one; a bad one met sooner
    explodes in its test and the buyer wins."""
    return seller_k == k


def play_with_k(config: GameConfig, k: int) -> PlayOutcome:
    """Deterministic outcome for a fixed test count k."""
    bad = config.seller_k
    outcome = "lose" if _loses(bad, k) else "win"
    if bad is None or bad >= k:
        # k clean tests, then take the next firework home
        return PlayOutcome(outcome, k, k, ("test",) * k + ("take",))
    # the bad firework explodes during test number bad + 1
    return PlayOutcome(outcome, k, bad + 1, ("test",) * (bad + 1) + ("sue",))


def play_game(config: GameConfig, tape: Tape) -> PlayOutcome:
    """Draw k uniformly from the tape and play."""
    k = tape.draw(0, _uniform(config.n))
    return play_with_k(config, k)


def loss_probability(n: int, seller_k: Optional[int]) -> Fraction:
    """Exact loss probability against a fixed seller, summed over k."""
    GameConfig(n, seller_k)  # refuses n < 1 and seller_k < 0, as a play does
    return Fraction(sum(_loses(seller_k, k) for k in range(n)), n)


def win_probability_exact(n: int) -> Fraction:
    """1 - 1/n: the worst case over all seller strategies, exactly.
    `BudgetRefused` past `MAX_EXACT_GAME`."""
    if n < 1:
        raise ModelError("n must be >= 1")
    if n > MAX_EXACT_GAME:
        raise BudgetRefused(f"an exact game value over {format_rational(n)} "
                            f"test counts exceeds the guard of "
                            f"{MAX_EXACT_GAME}")
    return ONE - max(loss_probability(n, K) for K in (*range(2 * n), None))


def sequential_take_distribution(n: int) -> tuple[Fraction, ...]:
    """Take-time law of the stepwise strategy: take the first firework with
    probability 1/n, else test, then take the next with 1/(n-1), and so on.

    Equals the uniform law on 0..n-1 exactly; ACCEPT-09 checks that.
    """
    if n < 1:
        raise ModelError("n must be >= 1")
    probs = []
    carried = ONE
    for j in range(n):
        take = Fraction(1, n - j)
        probs.append(carried * take)
        carried *= ONE - take
    return tuple(probs)


class FnOracle(Protocol):
    """Budgeted evaluator: value of f(i), or None if it has not halted yet.

    Must be deterministic per (i, budget) and stable: once a value is
    returned at some budget it is returned at every larger budget.
    """

    def evaluate(self, i: int, budget: int) -> Optional[int]: ...


@dataclass(frozen=True)
class ConstantOracle:
    value: int
    cost: int = 1

    def evaluate(self, i: int, budget: int) -> Optional[int]:
        return self.value if budget >= self.cost else None


@dataclass(frozen=True)
class IdentityOracle:
    cost: int = 1

    def evaluate(self, i: int, budget: int) -> Optional[int]:
        return i if budget >= self.cost else None


@dataclass(frozen=True)
class DivergeAtOracle:
    """Behaves like `base` except on the listed inputs, where it never halts."""

    diverge: frozenset
    base: FnOracle = IdentityOracle()

    def evaluate(self, i: int, budget: int) -> Optional[int]:
        if i in self.diverge:
            return None
        return self.base.evaluate(i, budget)


TOOK = "took_good"            # some g(u) = f(u) + 1 is set
STALLED_TAKE = "stalled_take"  # took a firework that has not halted yet
STALLED_TEST = "stalled_test"  # testing a computation that has not halted yet
MAX_BUDGET = 1 << 16  # the largest budget a probe is run with


@dataclass(frozen=True)
class BeatResult:
    status: str
    table: dict
    k: int
    tests_completed: int
    frontier: int

    def value(self, u: int) -> int:
        return self.table.get(u, 0)


def _probe(oracle: FnOracle, i: int) -> tuple[Optional[int], int]:
    """f(i) from doubling budgets 1, 2, ..., MAX_BUDGET, and the number of
    probes that failed before it; None and every probe when none halts."""
    budget = 1
    failed = 0
    while budget <= MAX_BUDGET:
        value = oracle.evaluate(i, budget)
        if value is not None:
            return value, failed
        failed += 1
        budget *= 2
    return None, failed


def beat_with_k(oracle: FnOracle, k: int) -> BeatResult:
    """Deterministic take/test protocol for a fixed test count k.

    Testing the firework at position v probes f(v) with doubling budgets,
    writing zeros g(v), g(v+1), ..., one at v and one more per failed
    probe; when the probe halts, the next firework sits just past the
    zeros. Taking runs the probe the same way and writes g(v) = f(v) + 1 on
    success.
    """
    table: dict[int, int] = {}
    frontier = 0
    tests = 0
    while tests < k:
        value, failed = _probe(oracle, frontier)
        table.update(dict.fromkeys(range(frontier, frontier + failed + 1), 0))
        if value is None:
            return BeatResult(STALLED_TEST, table, k, tests, frontier)
        frontier += failed + 1
        tests += 1
    value, _ = _probe(oracle, frontier)
    if value is None:
        return BeatResult(STALLED_TAKE, table, k, tests, frontier)
    table[frontier] = value + 1
    return BeatResult(TOOK, table, k, tests, frontier)


def beat_function(oracle: FnOracle, epsilon, tape: Tape) -> BeatResult:
    """Beat a (total) oracle with probability at least 1 - epsilon.

    epsilon is reduced to 1/n with n = ceil(1/epsilon); k is drawn uniformly
    from the tape and handed to the deterministic protocol.
    """
    n = epsilon_to_n(epsilon)
    k = tape.draw(0, _uniform(n))
    return beat_with_k(oracle, k)


def epsilon_to_n(epsilon) -> int:
    epsilon = as_fraction(epsilon)
    if not ZERO < epsilon <= ONE:
        raise ModelError("epsilon must lie in (0, 1]")
    return max(1, ceil(ONE / epsilon))


def cantor_pair(row: int, column: int) -> int:
    """The index of (row, column) in the pairing that `BeatManyResult.g`
    inverts (`cantor_unpair`) to read one table out of the rows."""
    s = row + column
    return s * (s + 1) // 2 + column


def cantor_unpair(z: int) -> tuple[int, int]:
    s = least(lambda s: (s + 1) * (s + 2) // 2 > z)
    column = z - s * (s + 1) // 2
    return s - column, column


@dataclass(frozen=True)
class BeatManyResult:
    rows: tuple[BeatResult, ...]
    row_ns: tuple[int, ...]

    def g(self, index: int) -> int:
        """The combined table through the pairing bijection."""
        row, column = cantor_unpair(index)
        if row < len(self.rows):
            return self.rows[row].value(column)
        return 0


def beat_many(oracles: Sequence[FnOracle], epsilon,
              tape: Tape) -> BeatManyResult:
    """One row per oracle: row i gets error share epsilon * 2^-(i+1), so the
    shares sum to at most epsilon over all rows.

    Each row runs its protocol once, with its own k drawn from stream i of
    the tape.
    """
    epsilon = as_fraction(epsilon)
    ns = []
    rows = []
    for i, oracle in enumerate(oracles):
        n_i = epsilon_to_n(epsilon * Fraction(1, 2 ** (i + 1)))
        ns.append(n_i)
        rows.append(beat_with_k(oracle, tape.draw(i, _uniform(n_i))))
    return BeatManyResult(tuple(rows), tuple(ns))


def ones_positions(table_values: Sequence[int]) -> list[int]:
    """Positions of the 1s in the bit sequence '1, g(0) zeros, 1, g(1)
    zeros, ...' derived from a table prefix: the encoding of a table g as
    a bit sequence, whose 1 number u sits at u + g(0) + ... + g(u-1)."""
    positions = []
    cursor = 0
    for g in table_values:
        positions.append(cursor)
        cursor += 1 + g
    return positions
