from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lll_toolkit import model, tape
from lll_toolkit.corpus import toy_corpus
from lll_toolkit.errors import ModelError
from lll_toolkit.families import ChainCnfFamily
from lll_toolkit.model import (Event, LLLParams, VariableSpec, clause_event,
                               event_probability, uniform_bit)
from lll_toolkit.tape import Tape
from lll_toolkit.engine import run_finite
from lll_toolkit.formats import (FormatError, format_rational, log_from_text,
                                 log_to_text, parse_rational, read_dimacs,
                                 read_patterns, read_system, write_system)

F = Fraction

DIMACS = """\
c a 3-clause instance
p cnf 4 3
1 -2 3 0
2 4 0
-1 -4 0
"""


def test_dimacs_basic():
    system = read_dimacs(DIMACS)
    assert len(system.variables) == 4
    assert len(system.events) == 3
    # clause (1 or not 2 or 3) is falsified exactly by x1=0, x2=1, x3=0
    ev = system.events[0]
    assert ev.vbl == (0, 1, 2)
    assert ev.forbidden == frozenset({(0, 1, 0)})
    assert event_probability(ev, system) == F(1, 8)


def test_dimacs_tautologies_dropped():
    system = read_dimacs("p cnf 2 2\n1 -1 0\n2 0\n")
    assert len(system.events) == 1
    assert system.events[0].vbl == (1,)


def test_dimacs_errors_carry_line_numbers():
    with pytest.raises(FormatError) as info:
        read_dimacs("p cnf 2 1\n5 0\n")
    assert info.value.line_number == 2
    with pytest.raises(FormatError):
        read_dimacs("1 2 0\n")


def test_rational_round_trip():
    # past 4,300 digits, CPython's default int-to-string limit, too
    for value in (F(1, 2), F(-3, 7), F(5), F(0), F(3, 4) ** 7200,
                  F(-(10 ** 5000) - 7), F(1, 7 ** 6000)):
        assert parse_rational(format_rational(value)) == value
    with pytest.raises(Exception):
        parse_rational("0.5x")


def chain_cnf(clauses: int) -> str:
    """A chain 3-CNF: clause t holds variables 2t+1, 2t+2 and 2t+3, its
    signs set by the bits of t."""
    lines = [f"p cnf {2 * clauses + 1} {clauses}"]
    for t in range(clauses):
        lines.append(" ".join(str(v if t >> k & 1 else -v) for k, v in
                              enumerate((2 * t + 1, 2 * t + 2, 2 * t + 3)))
                     + " 0")
    return "\n".join(lines) + "\n"


def test_a_ten_thousand_clause_chain_checks_its_one_law_once(monkeypatch):
    checked = []
    check_law = tape.check_law

    def counting_check_law(distribution, where=""):
        checked.append(distribution)
        check_law(distribution, where)
    monkeypatch.setattr(tape, "check_law", counting_check_law)
    monkeypatch.setattr(model, "check_law", counting_check_law)
    tape._compiled.cache_clear()
    system = read_dimacs(chain_cnf(10_000))
    assert all(s.fair for s in system.samplers)
    # one distinct law, the fair bit's, so at most one check (to compile it)
    assert len(checked) <= 1
    assert len(system.variables) == 20_001


@pytest.mark.parametrize("token, value", [
    ("3/4", F(3, 4)), ("-2", F(-2)), ("+6/8", F(3, 4)), ("007", F(7))])
def test_rationals_are_integers_or_num_den(token, value):
    assert parse_rational(token) == value


# decimals, exponents and digit separators went through `Fraction`, which
# expands an exponent in full; Unicode digits and whitespace did too
@pytest.mark.parametrize("token, why", [
    ("0.5", "not an integer or num/den"),
    ("1e3", "not an integer or num/den"),
    ("1e-9", "not an integer or num/den"),
    ("1_0", "not an integer or num/den"),
    ("1/2_0", "not an integer or num/den"),
    (".5", "not an integer or num/den"),
    (" 1/2", "not an integer or num/den"),
    ("1/-2", "not an integer or num/den"),
    ("\u0663", "not an integer or num/den"),
    ("1/0", "Fraction(1, 0)"),
])
def test_other_rational_forms_are_refused(token, why):
    message = "^" + re.escape(f"bad rational {token!r}: {why}") + "$"
    with pytest.raises(ModelError, match=message):
        parse_rational(token)
    with pytest.raises(ModelError, match=message):
        LLLParams((token,))


@pytest.mark.parametrize("text, line", [
    ("var 0 2 0.5 1/2\nevent 0 vbl 0 forbid 1\n", 1),
    ("var 0 2 1/2 1/2\nevent 0 vbl 0 forbid 1\nz 0 1e-1\n", 3),
    ("var 0 2 1/2 1/2\nevent 0 vbl 0 forbid 1\nz 0 1/2\nalpha 1_0/1_1\n",
     4),
])
def test_a_system_names_the_line_of_a_bad_rational(text, line):
    with pytest.raises(FormatError, match=f"^line {line}: bad rational "):
        read_system(text)


def test_system_format_round_trip():
    variables = [uniform_bit(0), VariableSpec(1, (F(3, 4), F(1, 4))),
                 uniform_bit(2)]
    events = [Event(0, (0, 1), frozenset({(1, 1), (0, 0)})),
              clause_event(1, (2,), (1,))]
    from lll_toolkit.model import ConstraintSystem
    system = ConstraintSystem.build(variables, events)
    params = LLLParams((F(1, 2), F(1, 3)), F(9, 10))
    text = write_system(system, params)
    system2, params2 = read_system(text)
    assert system2.variables == system.variables
    assert system2.events == system.events
    assert params2 == params


def test_system_format_without_params():
    text = "var 0 2 1/2 1/2\nevent 0 vbl 0 forbid 1\n"
    system, params = read_system(text)
    assert params is None
    assert system.events[0].forbidden == frozenset({(1,)})


def test_system_format_comments_and_blanks():
    text = "# comment\n\nvar 0 2 1/2 1/2   # trailing\nevent 0 vbl 0 forbid 0\n"
    system, _ = read_system(text)
    assert len(system.variables) == 1


def test_system_format_bad_lines():
    with pytest.raises(FormatError) as info:
        read_system("var 0 2 1/2\n")
    assert info.value.line_number == 1
    with pytest.raises(FormatError):
        read_system("var 0 2 1/2 1/2\nevent 0 vbl 0 forbid 0 1\n")
    with pytest.raises(FormatError):
        read_system("bogus 1 2\n")


def test_log_round_trip(chain3_system):
    result = run_finite(chain3_system, Tape(seed=6), 100)
    text = log_to_text(result.log)
    log = log_from_text(text)
    assert log == result.log


def test_log_text_errors():
    with pytest.raises(FormatError):
        log_from_text("step 1 event 0 draws 0:1:0\n")  # missing init
    with pytest.raises(FormatError):
        log_from_text("init 0\nwhat 1\n")


ONE_EVENT = "var 0 2 1/2 1/2\nevent 0 vbl 0 forbid 1\n"


@pytest.mark.parametrize("text, message", [
    ("var 0 2 1/2 1/2\nvar 0 2 1/3 2/3\nevent 0 vbl 0 forbid 1\n",
     "line 2: var 0 is already given on line 1"),
    (ONE_EVENT + "event 0 vbl 0 forbid 0\n",
     "line 3: event 0 is already given on line 2"),
    (ONE_EVENT + "z 0 1/2\n# again\nz 0 1/3\n",
     "line 5: z 0 is already given on line 3"),
    (ONE_EVENT + "alpha 1\nz 0 1/2\nalpha 1/2\n",
     "line 5: alpha is already given on line 3"),
])
def test_a_repeated_directive_names_its_first_line(text, message):
    # a second directive for the same index would silently replace the first
    with pytest.raises(FormatError, match=f"^{message}$"):
        read_system(text)


@pytest.mark.parametrize("text, line, message", [
    # a gap is named at the directive with the least index past it
    ("var 0 2 1/2 1/2\nvar 2 2 1/2 1/2\nevent 0 vbl 0 forbid 1\n", 2,
     "variable indices must be 0..n-1, and no line gives var 1"),
    ("var 3 2 1/2 1/2\nvar 0 2 1/2 1/2\nvar 2 2 1/2 1/2\n"
     "event 0 vbl 0 forbid 1\n", 3,
     "variable indices must be 0..n-1, and no line gives var 1"),
    (ONE_EVENT + "event 3 vbl 0 forbid 0\nevent 2 vbl 0 forbid 0\n", 4,
     "event indices must be 0..m-1, and no line gives event 1"),
    (ONE_EVENT + "event 1 vbl 0 forbid 0\nevent 2 vbl 0 forbid 0\n"
     "z 0 1/2\nz 2 1/2\n", 6,
     "z directives must cover events 0..m-1, and no line gives z 1"),
    # a missing z with none past it: the line of its event
    (ONE_EVENT + "event 1 vbl 0 forbid 0\nz 0 1/2\n", 3,
     "z directives must cover events 0..m-1, and no line gives z 1"),
    (ONE_EVENT + "alpha 1/2\n", 2,
     "z directives must cover events 0..m-1, and no line gives z 0"),
    (ONE_EVENT + "z 0 1/2\nz 7 1/2\n", 4,
     "z directives must cover events 0..m-1, and there is no event 7"),
    # an event that does not fit its variables: the event's line
    ("var 0 2 1/2 1/2\n# no variable 5\nevent 0 vbl 5 forbid 1\n", 3,
     "event 0 uses unknown variable 5"),
    (ONE_EVENT + "event 1 vbl 0 forbid 2\n", 3,
     r"event 1: tuple \(2,\) out of variable range"),
    # a value out of range: its own line
    (ONE_EVENT + "z 0 1/2\nalpha 0\n", 4, r"alpha must lie in \(0, 1\]"),
    (ONE_EVENT + "event 1 vbl 0 forbid 0\nz 1 1/2\nz 0 1\n", 5,
     "every z must lie strictly between 0 and 1"),
])
def test_whole_file_errors_name_the_line_they_concern(text, line, message):
    with pytest.raises(FormatError, match=f"^line {line}: {message}$"):
        read_system(text)


@pytest.mark.parametrize("text, message", [
    (ONE_EVENT + "alpha\n", "line 3: alpha is missing its value"),
    (ONE_EVENT + "z 0\n", "line 3: z 0 is missing its value"),
    ("var 0 2 1/2 1/2\nevent 0 vbl 0\n", "line 2: event 0 is missing 'forbid'"),
])
def test_a_directive_short_of_a_field_names_what_is_missing(text, message):
    with pytest.raises(FormatError, match=f"^{message}$"):
        read_system(text)


@pytest.mark.parametrize("text, message", [
    ("step 1 event\n", "line 2: step 1 is missing its event"),
    ("step 1\n", "line 2: step 1 is missing 'event'"),
    ("step 1 event 0 draws\n", "line 2: step 1 is missing its draws"),
    ("step 1 event 0 draws 0:1\n",
     "line 2: step 1 draw 0:1 is missing its value"),
    # a step's number restates its position in the log
    ("step 5 event 0 draws 0:1:0\n", "line 2: step 5 is the log's step 1"),
    ("step 1 event 0 draws 0:1:0\nstep 1 event 0 draws 0:2:0\n",
     "line 3: step 1 is the log's step 2"),
])
def test_a_bad_step_line_names_the_field_at_fault(text, message):
    with pytest.raises(FormatError, match=f"^{message}$"):
        log_from_text("init 0\n" + text)


@pytest.mark.parametrize("problem", ["p cnf -3 0", "p cnf 2 -1"])
def test_dimacs_refuses_a_negative_count(problem):
    with pytest.raises(FormatError,
                       match=f"^line 1: bad problem line '{problem}'$"):
        read_dimacs(problem + "\n")


@pytest.mark.parametrize("text, message", [
    # a second init would replace the first; one after the steps would
    # give them an initial state they never started from
    ("init 0 1\ninit 1\nstep 1 event 0 draws 0:1:0\n",
     "line 2: init is already given on line 1"),
    ("init 0\nstep 1 event 0 draws 0:1:0\n\ninit 1\n",
     "line 4: init is already given on line 1"),
    ("\nstep 1 event 0 draws 0:1:0\ninit 1\n",
     "line 3: init comes after step 1 on line 2"),
])
def test_a_misplaced_init_names_the_line_before_it(text, message):
    with pytest.raises(FormatError, match=f"^{message}$"):
        log_from_text(text)


@pytest.mark.parametrize("text, message", [
    # too few clauses: the problem line; a tautology counts as a clause
    ("p cnf 2 5\n1 0\n", "line 1: the problem line declares 5 clauses, "
     "the file has 1"),
    ("c two of three\np cnf 2 3\n1 -1 0\n2 0\n",
     "line 2: the problem line declares 3 clauses, the file has 2"),
    # too many: the line where the first surplus clause starts
    ("p cnf 2 1\n1 0\n2 0\n",
     "line 3: clause 2 is past the problem line's count"),
    ("p cnf 2 1\n1\n-2 0 2\n",
     "line 3: clause 2 is past the problem line's count"),
    ("p cnf 2 0\n1 0\n",
     "line 2: clause 1 is past the problem line's count"),
])
def test_dimacs_clauses_must_number_as_declared(text, message):
    with pytest.raises(FormatError, match=f"^{message}$"):
        read_dimacs(text)


@pytest.mark.parametrize("text, message", [
    # a second problem line, even one that agrees, after a clause or not
    ("p cnf 4 2\n4 0\np cnf 2 2\n1 0\n",
     "line 3: the problem line is already given on line 1"),
    ("c\np cnf 1 1\np cnf 1 1\n1 0\n",
     "line 3: the problem line is already given on line 2"),
])
def test_dimacs_has_one_problem_line(text, message):
    with pytest.raises(FormatError, match=f"^{message}$"):
        read_dimacs(text)


@pytest.mark.parametrize("index", [-1, -2])
def test_a_negative_variable_of_an_event_names_its_line(index):
    # -1 read the last variable, and -2 raised a bare IndexError
    text = f"var 0 2 1/2 1/2\nevent 0 vbl {index} forbid 1\n"
    with pytest.raises(FormatError, match=f"^line 2: event 0 uses unknown "
                       f"variable {index}$"):
        read_system(text)


# --- fuzz: every failure of a reader is a FormatError naming a file line ----

FUZZ_CHAIN = ChainCnfFamily(3, 1, 5).materialize(3)  # the system of the log


def _fuzz_seeds():
    """Well-formed inputs of each reader: every corpus system written by
    `write_system`, with and without its params, two DIMACS files, a
    seeded log of a chain and a pattern file."""
    log = run_finite(FUZZ_CHAIN, Tape(seed=3), 50).log
    return {
        read_system: [write_system(e.system, params)
                      for e in toy_corpus() for params in (None, e.params)],
        read_dimacs: [DIMACS, "p cnf 3 2\n1 -2 0\n2 3 -1 0\n"],
        log_from_text: [log_to_text(log)],
        read_patterns: ["0101\n\n11\n0\n"],
    }


FUZZ_SEEDS = _fuzz_seeds()
FUZZ_LINES = [line for texts in FUZZ_SEEDS.values() for text in texts
              for line in text.splitlines()]
# tokens that the readers give meaning to, and a few they refuse; every
# integer is small, so no mutation declares a large count
FUZZ_TOKENS = ["0", "1", "2", "3", "-1", "-2", "1/2", "2/3", "1/0", "0/1",
               "5/4", "0.5", "x", ";", "#", ",", ":", "vbl", "forbid", "var",
               "event", "z", "alpha", "p", "cnf", "c", "init", "step",
               "draws", "1:1", "0:1:1", "0:1:1:1", "01", ""]
FUZZ_CHARS = "01-/:;,# \nx"


@st.composite
def mutated_inputs(draw):
    """A reader and one of its seeds, with one to four edits of its lines,
    tokens or characters: an inserted line may come from any reader's
    seed, and an integer may move by one or two."""
    reader = draw(st.sampled_from(list(FUZZ_SEEDS)))
    text = draw(st.sampled_from(FUZZ_SEEDS[reader]))
    for _ in range(draw(st.integers(1, 4))):
        lines = text.splitlines() or [""]
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "swap", "foreign",
                                     "token", "number", "char"]))
        if edit == "drop":
            del lines[at]
        elif edit == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[at])
        elif edit == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
        elif edit == "foreign":
            lines.insert(at, draw(st.sampled_from(FUZZ_LINES)))
        elif edit == "token":
            tokens = lines[at].split() or [""]
            where = draw(st.integers(0, len(tokens)))
            new = draw(st.sampled_from(FUZZ_TOKENS))
            if where < len(tokens) and draw(st.booleans()):
                tokens[where] = new
            else:
                tokens.insert(where, new)
            lines[at] = " ".join(tokens)
        elif edit == "number":
            tokens = lines[at].split()
            numbers = [i for i, t in enumerate(tokens)
                       if t.lstrip("-").isdigit()]
            if numbers:
                where = draw(st.sampled_from(numbers))
                tokens[where] = str(int(tokens[where])
                                    + draw(st.sampled_from([-2, -1, 1, 2])))
                lines[at] = " ".join(tokens)
        else:
            line = lines[at]
            where = draw(st.integers(0, len(line)))
            new = draw(st.sampled_from(["", *FUZZ_CHARS]))
            lines[at] = line[:where] + new + line[where + 1:]
        text = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    return reader, text


@given(mutated_inputs())
@settings(derandomize=True, database=None, max_examples=1500, deadline=None)
def test_every_reader_failure_names_a_line_of_the_file(case):
    reader, text = case
    try:
        reader(text)
    except FormatError as exc:
        # an empty file has one empty line
        assert 1 <= exc.line_number <= max(1, len(text.splitlines())), text
