"""File formats: DIMACS CNF, the system format, pattern files and log dumps.

The system format, one directive per line (`#` comments allowed):

    var <index> <range> <p_0> ... <p_{range-1}>
    event <index> vbl <v1> ... <vk> forbid <t1> ... <tk> ; <t1> ... <tk> ; ...
    z <index> <num/den>
    alpha <num/den>

Rationals are written `num/den` or as a bare integer, each with an optional
sign and any number of digits; decimals, exponents and underscores are
rejected.
"""
from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import Optional

from .errors import EngineError, ModelError
from .model import (ConstraintSystem, Event, LLLParams, VariableSpec,
                    as_fraction, clause_event, uniform_bit)
from .engine import ResampleLog, Step, _walk


class FormatError(ModelError):
    """Malformed input file; carries a 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def parse_rational(token: str) -> Fraction:
    """A rational token, `[+-]digits[/digits]`, as `as_fraction` reads it;
    any other form raises a `bad rational` `ModelError`."""
    return as_fraction(token)


def format_rational(value: Fraction) -> str:
    """`num/den`, or the bare integer, with every digit, however many."""
    value = Fraction(value)
    if value.denominator == 1:
        return _digits(value.numerator)
    return f"{_digits(value.numerator)}/{_digits(value.denominator)}"


def _digits(n: int) -> str:
    """`str(n)` of any length: past the interpreter's int-to-string digit
    limit, `decimal` writes it, as it has no such limit."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def read_dimacs(text: str) -> ConstraintSystem:
    """A DIMACS CNF as a system over uniform bits.

    Clause (l1 .. lk) becomes one event forbidding the unique assignment
    falsifying every literal; value 1 means the variable is set true. The
    one problem line comes first, and the clauses, tautologies included,
    must number as it says.
    """
    n_vars = None
    clauses: list[list[int]] = []
    pending: list[int] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n_vars is not None:
                raise FormatError(number, "the problem line is already "
                                  f"given on line {problem_line}")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormatError(number, f"bad problem line {line!r}")
            try:
                n_vars, n_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                n_vars = n_clauses = -1
            if n_vars < 0 or n_clauses < 0:
                raise FormatError(number, f"bad problem line {line!r}")
            problem_line = number
            continue
        if n_vars is None:
            raise FormatError(number, "clause before the problem line")
        try:
            literals = [int(tok) for tok in line.split()]
        except ValueError:
            raise FormatError(number, f"bad clause line {line!r}") from None
        for lit in literals:
            if lit == 0:
                if pending:
                    clauses.append(pending)
                    pending = []
            else:
                if not pending and len(clauses) == n_clauses:
                    raise FormatError(number, f"clause {n_clauses + 1} is "
                                      "past the problem line's count")
                if abs(lit) > n_vars:
                    raise FormatError(
                        number, f"literal {lit} out of range 1..{n_vars}")
                pending.append(lit)
    if pending:
        clauses.append(pending)
    if n_vars is None:
        raise FormatError(1, "missing problem line")
    if len(clauses) < n_clauses:
        raise FormatError(problem_line, f"the problem line declares "
                          f"{n_clauses} clauses, the file has {len(clauses)}")
    variables = [uniform_bit(i) for i in range(n_vars)]
    events = []
    for index, clause in enumerate(clauses):
        seen = {}
        for lit in clause:
            v = abs(lit) - 1
            want = 0 if lit > 0 else 1  # the value falsifying this literal
            if v in seen and seen[v] != want:
                seen = None  # tautological clause: never false
                break
            if seen is not None:
                seen[v] = want
        if seen is None:
            continue
        vbl = tuple(sorted(seen))
        events.append(clause_event(len(events), vbl,
                                   tuple(seen[v] for v in vbl)))
    return ConstraintSystem.build(variables, events)


def _gap(lines: dict, kind: str, count: int) -> Optional[tuple]:
    """The least index below `count` that no `kind` directive gives, and
    the line of the `kind` directive with the least index past it (None
    when there is none), or None when no index is missing."""
    for gap in range(count):
        if (kind, gap) not in lines:
            past = [(i, line) for (k, i), line in lines.items()
                    if k == kind and i > gap]
            return gap, min(past)[1] if past else None
    return None


def _need(parts: list[str], count: int, name: str, what: str) -> None:
    """Refuse a directive of fewer than `count` fields: `name` (its kind
    and index) is missing `what`."""
    if len(parts) < count:
        raise ModelError(f"{name} is missing {what}")


def read_system(text: str) -> tuple[ConstraintSystem, Optional[LLLParams]]:
    """Parse the line-oriented system format; params are returned when any
    z/alpha directives are present.

    Each `var`, `event` and `z` index, and `alpha`, may be given on one
    line only. Every error names a line. A missing index names the line of
    the least index past it; a missing z with none past it names its
    event's line. An event that does not fit its variables, and a z or
    alpha out of range, name their own line.
    """
    variables: dict[int, VariableSpec] = {}
    events: dict[int, Event] = {}
    z_values: dict[int, Fraction] = {}
    alpha: Optional[Fraction] = None
    lines: dict = {}  # (directive, index or None for alpha) -> its line
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind not in ("var", "event", "z", "alpha"):
                raise ModelError(f"unknown directive {kind!r}")
            _need(parts, 2, kind, "its value" if kind == "alpha"
                  else "its index")
            index = None if kind == "alpha" else int(parts[1])
            name = kind if index is None else f"{kind} {index}"
            if (kind, index) in lines:
                raise ModelError(f"{name} is already given on line "
                                 f"{lines[kind, index]}")
            lines[kind, index] = number
            if kind == "var":
                _need(parts, 3, name, "its range")
                n = int(parts[2])
                probs = [parse_rational(tok) for tok in parts[3:]]
                if len(probs) != n:
                    raise ModelError(
                        f"expected {n} probabilities, got {len(probs)}")
                variables[index] = VariableSpec(index, tuple(probs))
            elif kind == "event":
                _need(parts, 3, name, "'vbl'")
                if parts[2] != "vbl":
                    raise ModelError("expected 'vbl'")
                if "forbid" not in parts:
                    raise ModelError(f"{name} is missing 'forbid'")
                cut = parts.index("forbid")
                vbl = tuple(int(tok) for tok in parts[3:cut])
                tail = parts[cut + 1:]
                tuples = []
                current: list[int] = []
                for tok in tail + [";"]:
                    if tok == ";":
                        if current:
                            if len(current) != len(vbl):
                                raise ModelError(
                                    f"tuple {tuple(current)} has arity "
                                    f"{len(current)}, expected {len(vbl)}")
                            tuples.append(tuple(current))
                            current = []
                    else:
                        current.append(int(tok))
                events[index] = Event(index, vbl, frozenset(tuples))
            elif kind == "z":
                _need(parts, 3, name, "its value")
                z_values[index] = parse_rational(parts[2])
                LLLParams((z_values[index],))  # refuses a z outside (0, 1)
            else:
                alpha = parse_rational(parts[1])
                LLLParams((), alpha)  # refuses an alpha outside (0, 1]
        except (ModelError, ValueError, IndexError) as exc:
            raise FormatError(number, str(exc)) from None
    for kind, count, what in (
            ("var", len(variables), "variable indices must be 0..n-1"),
            ("event", len(events), "event indices must be 0..m-1")):
        missing = _gap(lines, kind, count)
        if missing:
            gap, line = missing
            raise FormatError(line, f"{what}, and no line gives {kind} {gap}")
    var_list = [variables[i] for i in range(len(variables))]
    event_list = [events[i] for i in range(len(events))]
    for ev in event_list:
        try:
            ev.check_fits(var_list)
        except ModelError as exc:
            raise FormatError(lines["event", ev.index], str(exc)) from None
    system = ConstraintSystem.build(var_list, event_list)
    params = None
    if z_values or alpha is not None:
        what = "z directives must cover events 0..m-1"
        for i in z_values:
            if not 0 <= i < len(event_list):
                raise FormatError(lines["z", i],
                                  f"{what}, and there is no event {i}")
        missing = _gap(lines, "z", len(event_list))
        if missing:
            gap, line = missing
            raise FormatError(line or lines["event", gap],
                              f"{what}, and no line gives z {gap}")
        params = LLLParams(tuple(z_values[i] for i in sorted(z_values)),
                           alpha if alpha is not None else Fraction(1))
    return system, params


def write_system(system: ConstraintSystem,
                 params: Optional[LLLParams] = None) -> str:
    lines = []
    for var in system.variables:
        probs = " ".join(format_rational(p) for p in var.distribution)
        lines.append(f"var {var.index} {var.range_size} {probs}")
    for ev in system.events:
        vbl = " ".join(str(v) for v in ev.vbl)
        tuples = " ; ".join(" ".join(str(x) for x in t)
                            for t in sorted(ev.forbidden))
        lines.append(f"event {ev.index} vbl {vbl} forbid {tuples}")
    if params is not None:
        for i, z in enumerate(params.z):
            lines.append(f"z {i} {format_rational(z)}")
        lines.append(f"alpha {format_rational(params.alpha)}")
    return "\n".join(lines) + "\n"


def read_patterns(text: str) -> list[str]:
    """A pattern file: one 0/1 string per line, blank lines skipped."""
    lines = [line.strip() for line in text.splitlines()]
    for number, line in enumerate(lines, start=1):
        if line.strip("01"):
            raise FormatError(number, f"pattern {line!r} is not a bit string")
    return [line for line in lines if line]


def log_to_text(log: ResampleLog) -> str:
    lines = ["init " + " ".join(str(v) for v in log.initial)]
    for step in log.steps:
        draws = ",".join(f"{v}:{p}:{x}" for v, p, x in step.draws)
        lines.append(f"step {step.number} event {step.event} draws {draws}")
    return "\n".join(lines) + "\n"


# what a step line or a draw short of a field lacks, by how many it has
_STEP_FIELDS = ("its number", "'event'", "its event", "'draws'", "its draws")
_DRAW_FIELDS = ("its position", "its value")


def log_from_text(text: str) -> ResampleLog:
    """Parse `log_to_text`'s format. Each step line must carry its position
    in the log as its number; a short line or draw names what it lacks.
    The one `init` line comes before every step."""
    return _parse_log(text)[0]


def read_log(text: str, system: ConstraintSystem) -> ResampleLog:
    """`log_from_text(text)`, replayed against `system` with the checks of
    `engine.replay`, each value's range included; a refused log raises
    `FormatError` at the line of the init or step at fault."""
    log, lines = _parse_log(text)
    walked = 0  # the init and steps replayed so far
    try:
        for _ in _walk(system, log):
            walked += 1
    except EngineError as exc:
        raise FormatError(lines[walked], str(exc)) from None
    return log


def _parse_log(text: str) -> tuple[ResampleLog, list[int]]:
    """The log of `log_from_text` and the lines of its init and steps."""
    initial: Optional[tuple[int, ...]] = None
    lead = None  # (line, why) of the first init or step, which bars an init
    steps = []
    lines = [0]  # the init's line, then each step's
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "init":
                if lead:
                    raise ModelError(f"init {lead[1]} on line {lead[0]}")
                lead = number, "is already given"
                initial = tuple(int(tok) for tok in parts[1:])
                lines[0] = number
            elif parts[0] == "step":
                name = " ".join(parts[:2])
                if len(parts) < 6:
                    raise ModelError(
                        f"{name} is missing {_STEP_FIELDS[len(parts) - 1]}")
                if parts[2] != "event" or parts[4] != "draws":
                    raise ModelError("bad step line")
                if int(parts[1]) != len(steps) + 1:
                    raise ModelError(
                        f"{name} is the log's step {len(steps) + 1}")
                draws = []
                for item in parts[5].split(","):
                    fields = item.split(":")
                    if len(fields) < 3:
                        raise ModelError(f"{name} draw {item} is missing "
                                         f"{_DRAW_FIELDS[len(fields) - 1]}")
                    if len(fields) > 3:
                        raise ModelError(f"{name} draw {item} has more than "
                                         "variable:position:value")
                    draws.append(tuple(map(int, fields)))
                steps.append(Step(int(parts[1]), int(parts[3]), tuple(draws)))
                lines.append(number)
                lead = lead or (number, "comes after step 1")
            else:
                raise ModelError(f"unknown directive {parts[0]!r}")
        except (ValueError, IndexError, ModelError) as exc:
            raise FormatError(number, str(exc)) from None
    if initial is None:
        raise FormatError(1, "missing init line")
    return ResampleLog(initial, tuple(steps)), lines
