from __future__ import annotations

import random
from contextlib import nullcontext
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lll_toolkit.corpus import toy_corpus
from lll_toolkit.errors import ModelError, TapeExhausted
from lll_toolkit.engine import run_finite
from lll_toolkit.model import ConstraintSystem, Event, VariableSpec
from lll_toolkit.tape import _GAMMA, Tape, _mix64, sampler_for
from reference_tape import GAMMA, ReferenceTape, mix64, word

F = Fraction


def test_exactly_one_mode():
    with pytest.raises(ModelError):
        Tape()
    with pytest.raises(ModelError):
        Tape(seed=1, bits="01")
    with pytest.raises(ModelError):
        Tape(bits="012")


def test_uniform_bit_consumes_one_coin():
    tape = Tape(bits="0")
    assert tape.draw(0, (F(1, 2), F(1, 2))) == 0
    assert tape.bits_consumed == 1


def test_lopsided_value_one_needs_two_coins():
    tape = Tape(bits="11")
    assert tape.draw(0, (F(3, 4), F(1, 4))) == 1
    assert tape.bits_consumed == 2


def test_lopsided_value_zero_after_one_coin():
    tape = Tape(bits="0")
    assert tape.draw(0, (F(3, 4), F(1, 4))) == 0
    assert tape.bits_consumed == 1


def test_point_mass_consumes_nothing():
    tape = Tape(bits="")
    assert tape.draw(0, (F(1),)) == 0
    assert tape.bits_consumed == 0


def test_explicit_exhaustion_raises():
    tape = Tape(bits="1")
    with pytest.raises(TapeExhausted):
        tape.draw(0, (F(3, 4), F(1, 4)))  # "1" alone cannot decide


def test_consumption_counters_per_stream():
    tape = Tape(seed=1)
    dist = (F(1, 2), F(1, 2))
    tape.draw(5, dist)
    tape.draw(5, dist)
    tape.draw(2, dist)
    assert tape.consumed.get(5, 0) == 2
    assert tape.consumed.get(2, 0) == 1
    assert tape.consumed == {5: 2, 2: 1}


def test_seeded_replay_is_deterministic():
    dist = (F(1, 3), F(1, 3), F(1, 3))
    a = [Tape(seed=42).draw(0, dist) for _ in range(1)]
    for _ in range(3):
        b = [Tape(seed=42).draw(0, dist) for _ in range(1)]
        assert a == b
    runs = []
    for _ in range(2):
        tape = Tape(seed=9)
        runs.append([tape.draw(v, dist) for v in (0, 1, 0, 2, 1)])
    assert runs[0] == runs[1]


def test_stream_draws_independent_of_interleaving():
    # a stream's j-th value must not depend on what other streams drew first
    dist = (F(1, 2), F(1, 2))
    t1 = Tape(seed=7)
    seq_a = [t1.draw(3, dist) for _ in range(8)]
    t2 = Tape(seed=7)
    for _ in range(5):
        t2.draw(11, dist)  # noise on another stream
    seq_b = [t2.draw(3, dist) for _ in range(8)]
    assert seq_a == seq_b


@pytest.mark.parametrize("distribution,depth", [
    ((F(1, 2), F(1, 2)), 1),
    ((F(3, 4), F(1, 4)), 2),
    ((F(1, 4), F(1, 4), F(1, 2)), 2),
    ((F(5, 8), F(3, 8)), 3),
])
def test_dyadic_distributions_reproduced_exactly(distribution, depth):
    # dyadic distributions settle within a fixed depth: enumerate all coin
    # strings and check each value's weight equals its probability
    weights = {v: F(0) for v in range(len(distribution))}
    for combo in product("01", repeat=depth):
        tape = Tape(bits="".join(combo))
        v = tape.draw(0, distribution)
        weights[v] += F(1, 2 ** depth)
    for v, p in enumerate(distribution):
        assert weights[v] == p


def test_non_dyadic_distribution_converges_from_below():
    # thirds never settle exactly: exactly one depth-12 dyadic interval
    # straddles 1/3, so the undecided mass is 2^-12 and each value's decided
    # mass approaches its probability from below
    dist = (F(1, 3), F(2, 3))
    decided = {0: F(0), 1: F(0)}
    depth = 12
    for combo in product("01", repeat=depth):
        tape = Tape(bits="".join(combo))
        try:
            v = tape.draw(0, dist)
        except TapeExhausted:
            continue
        decided[v] += F(1, 2 ** depth)
    assert decided[0] <= F(1, 3)
    assert decided[1] <= F(2, 3)
    assert decided[0] + decided[1] == 1 - F(1, 2 ** depth)


def test_hex_round_trip():
    for bits in ("", "1", "0110", "10101", "1" * 9):
        tape = Tape(bits=bits)
        again = Tape.from_hex(tape.to_hex())
        assert again.bits == bits
    assert Tape.from_hex("8:0F").bits == "00001111"
    with pytest.raises(ModelError):
        Tape(seed=1).to_hex()


@pytest.mark.parametrize("text", ["1:f", "3:8", "0:1", "zz", "8:zz", "-3:0",
                                  "2:", "2:x", "2:_1", " 2:1", ":1"])
def test_from_hex_rejects_malformed_text(text):
    with pytest.raises(ModelError):
        Tape.from_hex(text)


@pytest.mark.parametrize("distribution", [
    [F(1, 4)],                      # the tail mass fits no slot
    [0.5, 0.5],                     # floats are not exact
    [F(3, 2), F(-1, 2)],            # sums to 1 through a negative mass
    [F(1, 2), "1/2"],               # a string is not a mass
    [],
])
def test_invalid_law_is_refused(distribution):
    for tape in (Tape(seed=1), Tape(bits="0101")):
        with pytest.raises(ModelError):
            tape.draw(0, distribution)
        assert tape.consumed.get(0, 0) == 0
        assert tape.bits_consumed == 0


def test_float_law_is_refused_after_its_equal_fraction_law():
    tape = Tape(seed=1)
    tape.draw(0, (F(1, 2), F(1, 2)))
    with pytest.raises(ModelError):
        tape.draw(0, (0.5, 0.5))
    assert sampler_for((F(1, 2), F(1, 2))).fair
    assert not sampler_for((F(1, 2), F(1, 4), F(1, 4))).fair


# --- differential tests against the reference tape ----------------------

LAWS = sorted(
    {var.distribution for entry in toy_corpus()
     for var in entry.system.variables}
    | {(F(1, 3), F(2, 3)), (F(1, 5),) * 5, (F(1, 3), F(0), F(2, 3)),
       (F(1),), (F(0), F(1)), (F(1), F(0)), (F(1, 2), F(1, 2))})
DEPTH = 16


def _state(tape, stream):
    return (tape.bit_cursor, tape.bits_consumed, tape.consumed.get(stream, 0))


def _outcome(tape, stream, law):
    try:
        value = tape.draw(stream, law)
    except TapeExhausted:
        value = "exhausted"
    return value, _state(tape, stream)


@pytest.mark.parametrize("law", LAWS, ids=lambda law: ",".join(map(str, law)))
def test_draw_matches_reference_on_every_coin_string(law):
    sampler = sampler_for(law)
    for length in range(DEPTH + 1):
        for number in range(1 << length):
            bits = format(number, f"0{length}b") if length else ""
            expected = _outcome(ReferenceTape(bits=bits), 0, law)
            assert _outcome(Tape(bits=bits), 0, sampler) == expected, bits
    # plain sequences compile to the same draw; after exhaustion the next
    # draw of the stream still takes x^0
    tape, ref = Tape(bits="1"), ReferenceTape(bits="1")
    for _ in range(3):
        assert _outcome(tape, 5, law) == _outcome(ref, 5, law)


@pytest.mark.parametrize("seed", [0, 1, 7, -3, 2 ** 70 + 5])
def test_seeded_draws_match_reference(seed):
    tape, ref = Tape(seed=seed), ReferenceTape(seed=seed)
    for round_ in range(12):
        for stream in (0, 3, 1000, 2 ** 40):
            law = LAWS[(round_ + stream) % len(LAWS)]
            assert tape.draw(stream, law) == ref.draw(stream, law)
            assert tape.bits_consumed == ref.bits_consumed


@pytest.mark.parametrize("seed,stream,depth", [
    (1, 0, 64), (1, 0, 70), (5, 9, 128), (123, 2, 140)])
def test_seeded_draw_across_coin_blocks_matches_reference(seed, stream,
                                                          depth):
    # a law whose slot boundary splits the interval of the draw's first
    # `depth` coins makes that draw read depth + 1 coins, through every
    # 64-coin block on the way
    draw_index = 2
    a = 0
    for position in range(depth):
        a = (a << 1) | ((word(seed, stream, draw_index, position >> 6)
                         >> (63 - (position & 63))) & 1)
    cut = F(2 * a + 1, 2 ** (depth + 1))
    law = (cut, 1 - cut)
    tape, ref = Tape(seed=seed), ReferenceTape(seed=seed)
    coins = []
    for _ in range(draw_index + 2):
        before = ref.bits_consumed
        assert tape.draw(stream, law) == ref.draw(stream, law)
        assert tape.bits_consumed == ref.bits_consumed
        coins.append(ref.bits_consumed - before)
    assert coins[draw_index] == depth + 1


def test_seeded_solve_hashes_no_fraction(monkeypatch):
    variables = [VariableSpec(0, (F(1, 3), F(2, 3))),
                 VariableSpec(1, (F(1, 5),) * 5),
                 VariableSpec(2, (F(1, 2),) * 2)]
    system = ConstraintSystem.build(
        variables, [Event(0, (0, 1), frozenset({(1, 0), (1, 4)})),
                    Event(1, (1, 2), frozenset({(2, 1), (3, 0)}))])
    run_finite(system, Tape(seed=0), 100)    # compiles the samplers
    hashed = []
    original = Fraction.__hash__

    def counting_hash(self):
        hashed.append(self)
        return original(self)
    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    for seed in range(20):
        run_finite(system, Tape(seed=seed), 100)
    assert hashed == []


# --- splitmix64 and the packed initial draw ------------------------------

# the first outputs of the splitmix64 generator (state += gamma, then the
# finalizer) from states 0 and 1234567
SPLITMIX64 = [
    (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
    (1234567, [6457827717110365317, 3203168211198807973,
               9817491932198370423, 4593380528125082431,
               16408922859458223821]),
]


@pytest.mark.parametrize("mix", [_mix64, mix64], ids=["tape", "reference"])
def test_mix64_is_the_splitmix64_finalizer(mix):
    assert _GAMMA == GAMMA
    for state, outputs in SPLITMIX64:
        assert [mix(state + k * GAMMA)
                for k in range(1, len(outputs) + 1)] == outputs


FAIR = (F(1, 2), F(1, 2))
INITIAL_LAWS = [FAIR, (F(1),), (F(3, 4), F(1, 4)), (F(1, 3), F(2, 3)),
                (F(1, 4),) * 4]


class CountingTape(Tape):
    """A tape that counts its per-value draws."""

    __slots__ = ("draws",)

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.draws = 0

    def draw(self, stream, distribution):
        self.draws += 1
        return super().draw(stream, distribution)


@st.composite
def initial_draws(draw):
    """(laws by stream, Tape keyword arguments, draws made before)."""
    n = draw(st.one_of(st.sampled_from([0, 1, 2, 2001]), st.integers(0, 24)))
    if draw(st.booleans()):
        laws = [FAIR] * n
    else:
        # mixed, constant and unfair laws, repeating over the streams
        cycle = draw(st.lists(st.sampled_from(INITIAL_LAWS), min_size=1,
                              max_size=4))
        laws = [cycle[v % len(cycle)] for v in range(n)]
    if draw(st.booleans()):
        # negative seeds and seeds of 64 bits and more
        kwargs = {"seed": draw(st.integers(-3, 3)) << 64
                  | draw(st.integers(0, 2 ** 64 - 1))}
    else:
        # coin strings long enough for some initializations, not for others
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        length = draw(st.integers(0, 2 * n + 2))
        kwargs = {"bits": "".join(rng.choice("01") for _ in range(length))}
    before = draw(st.lists(st.tuples(st.integers(0, n + 1),
                                     st.sampled_from(INITIAL_LAWS)),
                           max_size=3))
    return laws, kwargs, before


def _check_draw_initial(laws, kwargs, before=()):
    samplers = [sampler_for(law) for law in laws]
    tape, ref = CountingTape(**kwargs), Tape(**kwargs)
    for stream, law in before:
        assert _outcome(tape, stream, law) == _outcome(ref, stream, law)
    tape.draws = 0
    expected, cut = [], False
    try:
        for v, sampler in enumerate(samplers):
            expected.append(ref.draw(v, sampler))
    except TapeExhausted:
        cut = True
    got: list[int] = []
    with pytest.raises(TapeExhausted) if cut else nullcontext():
        tape.draw_initial(samplers, got)
    assert got == expected
    assert tape.consumed == ref.consumed
    assert tape.bits_consumed == ref.bits_consumed
    assert tape.bit_cursor == ref.bit_cursor
    packed = "seed" in kwargs and not before and set(laws) <= {FAIR}
    assert tape.draws == (0 if packed else len(got) + cut)
    # the next two draws of every stream, and of two streams not drawn
    for v, law in enumerate(laws + [FAIR, FAIR]):
        for _ in range(2):
            assert _outcome(tape, v, law) == _outcome(ref, v, law)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(initial_draws())
def test_draw_initial_matches_the_per_draw_loop(case):
    _check_draw_initial(*case)


@pytest.mark.parametrize("seed", [-2 ** 64 - 3, -1, 0, 2 ** 64, 2 ** 70 + 5])
def test_packed_initial_draw_matches_the_per_draw_loop(seed):
    for n in (0, 1, 2, 3, 17, 2001):
        _check_draw_initial([FAIR] * n, {"seed": seed})


def test_run_cut_during_initialization_keeps_the_values_drawn():
    # x0 and x1 read one coin each, x2 (thirds) cannot settle on one coin
    system = ConstraintSystem.build(
        [VariableSpec(0, FAIR), VariableSpec(1, (F(3, 4), F(1, 4))),
         VariableSpec(2, (F(1, 3), F(2, 3)))],
        [Event(0, (0, 2), frozenset({(1, 1)}))])
    with pytest.raises(TapeExhausted) as cut:
        run_finite(system, Tape(bits="100"), 10)
    assert cut.value.partial_assignment == (1, 0)
    assert cut.value.partial_log is None
    assert cut.value.in_flight_event is None


# --- the packed resample draw --------------------------------------------

SEEDS = [-2 ** 64 - 3, -1, 0, 2 ** 64, 2 ** 70 + 5]


def _check_redraw(laws, kwargs, initial, before, rounds, tell_fair):
    """`Tape.redraw` of each round's streams against the per-draw loop on a
    twin tape: the draws, the assignment written (also when the tape runs
    out inside a round), and the tape state. With `initial`, the tape
    draws x^0 of every stream with `draw_initial` first, and the twin with
    the per-draw loop, so it computes every stream key itself."""
    samplers = [sampler_for(law) for law in laws]
    tape, ref = CountingTape(**kwargs), Tape(**kwargs)
    got, want = [None] * len(laws), [None] * len(laws)
    if initial:
        drawn: list[int] = []
        try:
            tape.draw_initial(samplers, drawn)
        except TapeExhausted:
            return
        got[:] = drawn
        want[:] = [ref.draw(v, sampler) for v, sampler in enumerate(samplers)]
    for stream, law in before:
        assert _outcome(tape, stream, law) == _outcome(ref, stream, law)
    for streams in rounds:
        tape.draws = 0
        expected, cut = [], False
        try:
            for v in streams:
                position = ref.consumed.get(v, 0)
                want[v] = ref.draw(v, samplers[v])
                expected.append((v, position, want[v]))
        except TapeExhausted:
            cut = True
        fair = all(samplers[v].fair for v in streams)
        with pytest.raises(TapeExhausted) if cut else nullcontext():
            draws = tape.redraw(streams, samplers, got,
                                fair if tell_fair else None)
            assert draws == tuple(expected)
        assert got == want
        assert tape.consumed == ref.consumed
        assert [tape.consumed.get(v, 0) for v in streams] \
            == [ref.consumed.get(v, 0) for v in streams]
        assert tape.bits_consumed == ref.bits_consumed
        assert tape.bit_cursor == ref.bit_cursor
        packed = "seed" in kwargs and fair
        assert tape.draws == (0 if packed else len(expected) + cut)
        if cut:
            return


@st.composite
def redraws(draw):
    """The arguments of `_check_redraw`: laws by stream, Tape keyword
    arguments, whether `draw_initial` runs first, scalar draws made before,
    the streams of each redraw, and whether the caller passes `fair`."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        laws = [FAIR] * n
    else:
        cycle = draw(st.lists(st.sampled_from(INITIAL_LAWS), min_size=1,
                              max_size=4))
        laws = [cycle[v % len(cycle)] for v in range(n)]
    if draw(st.booleans()):
        kwargs = {"seed": draw(st.one_of(st.sampled_from(SEEDS),
                                         st.integers(-2 ** 70, 2 ** 70)))}
    else:
        # coin strings that run out in some rounds, not in others
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        length = draw(st.integers(0, 3 * n + 6))
        kwargs = {"bits": "".join(rng.choice("01") for _ in range(length))}
    before = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.sampled_from(INITIAL_LAWS)),
                           max_size=3))
    rounds = draw(st.lists(st.lists(st.integers(0, n - 1), unique=True,
                                    max_size=min(n, 5)),
                           min_size=1, max_size=4))
    return (laws, kwargs, draw(st.booleans()), before, rounds,
            draw(st.booleans()))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(redraws())
def test_redraw_matches_the_per_draw_loop(case):
    _check_redraw(*case)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("initial", [False, True], ids=["cold", "kept"])
def test_packed_redraw_matches_the_per_draw_loop(seed, initial):
    # stream keys kept by the initial pass, or computed and kept by redraw
    rounds = [[], [3], [0, 1, 2], [2, 4, 6, 8, 9], [9, 0, 5], [1, 2, 3, 4, 5]]
    _check_redraw([FAIR] * 10, {"seed": seed}, initial, [], rounds, True)
    _check_redraw([FAIR] * 10, {"seed": seed}, initial, [(4, FAIR)],
                  rounds, False)


def test_a_redraw_cut_inside_a_resample_keeps_the_values_drawn():
    # x1 redraws 0 from the last coin, x2 (thirds) cannot settle on none
    laws = [FAIR, FAIR, (F(1, 3), F(2, 3))]
    tape = Tape(bits="010")
    assignment: list[int] = []
    tape.draw_initial([sampler_for(law) for law in laws[:2]], assignment)
    assert assignment == [0, 1]
    assignment.append(None)
    with pytest.raises(TapeExhausted):
        tape.redraw((1, 2), [sampler_for(law) for law in laws], assignment)
    assert assignment == [0, 0, None]
    assert tape.consumed == {0: 1, 1: 2}
