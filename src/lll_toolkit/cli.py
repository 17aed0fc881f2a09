"""Batch front-end: every subcommand reads files, runs one module operation,
and returns stable line-oriented `key=value` report lines, with exact
rationals rendered as num/den plus a decimal rendering. `dispatch` alone
prints: the manifest line and those lines once the command has finished, or
only a `refused:`, `failed:` or `error:` line on stderr if it raised.

Exit codes: 0 success / condition holds, 1 condition or verification fails,
2 usage or input error, 3 budget refusal.
"""
from __future__ import annotations

import argparse
import os
import re
import shlex
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice

from . import __version__
from .errors import (BudgetRefused, ContractViolation, ExtractionTimeout,
                     FamilyError, ModelError, TapeExhausted, VerificationError)
from .model import LLLParams, StreamParams, check_lll
from .tape import Tape
from .engine import (SATISFIED, run_finite, run_stream, stable_times,
                     suggested_max_steps)
from .witness import build_witness_tree
from .galton_watson import check_mt_vs_gw, gw_sample
from .families import ChainCnfFamily, ForbiddenSubstringFamily
from .layerwise import (DEFAULT_BIT_GUARD, PREFIX_BRANCH_GUARD, TableQOracle,
                        compute_assignment_prefix,
                        extract_from_positive_probability,
                        extract_positive_branch, stability_horizon)
from .corollaries import build_avoiding_sequence
from .fireworks import (ConstantOracle, DivergeAtOracle, GameConfig,
                        IdentityOracle, beat_function, play_game,
                        win_probability_exact)
from .corpus import toy_corpus
from .formats import (format_rational, log_to_text, parse_rational,
                      read_dimacs, read_log, read_patterns, read_system)

OK, FAIL, USAGE, REFUSED = 0, 1, 2, 3


def q(value: Fraction) -> str:
    """Exact plus decimal rendering, e.g. `1/8(0.125)`. The decimal is the
    float's, to 6 digits; past the float range (about 1.8e308) it is
    rounded to 6 digits by `decimal`, in the same form."""
    try:
        approx = format(float(value), '.6g')
    except OverflowError:
        with localcontext(prec=6):
            rounded = Decimal(value.numerator) / value.denominator
            approx = format(rounded.normalize(), 'g')
    return f"{format_rational(value)}({approx})"


def _manifest(args) -> str:
    """The manifest line. It names every parsed option but the output files
    and unset ones, a set flag as `=true`, so re-running it reproduces the
    run. Each value is quoted as a shell word (`shlex.quote`), so a path
    that holds a space reads back with `shlex.split`; a plain value is
    written as it is."""
    fields = {"subcommand": args.command, "version": __version__}
    for key, value in vars(args).items():
        if key not in ("func", "command", "manifest_out", "log_out") \
                and value is not None and value is not False:
            fields[key] = "true" if value is True else value
    return "manifest " + " ".join(f"{k}={shlex.quote(str(v))}"
                                  for k, v in sorted(fields.items()))


def _verdict(holds: bool) -> int:
    return OK if holds else FAIL


def _true(flag: bool) -> str:
    return str(flag).lower()


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _write_log(args, log) -> None:
    if args.log_out:
        with open(args.log_out, "w") as handle:
            handle.write(log_to_text(log))


def _load_system(path: str, z_all: str | None, alpha: str | None):
    text = _read(path)
    stripped = text.lstrip()
    if stripped.startswith("p cnf") or stripped.startswith("c") \
            and "p cnf" in text:
        system, params = read_dimacs(text), None
    else:
        system, params = read_system(text)
    if z_all is not None:
        params = LLLParams((parse_rational(z_all),) * len(system.events),
                           params.alpha if params else Fraction(1))
    if alpha is not None:
        base_z = params.z if params else None
        if base_z is None:
            raise ModelError("alpha override needs z values (z lines or --z-all)")
        params = LLLParams(base_z, parse_rational(alpha))
    return system, params


def _integer(what: str, token: str) -> int:
    if not re.fullmatch(r"-?[0-9]+", token):
        raise ModelError(f"{what}: {token!r} is not an integer")
    return int(token)


def _bits(what: str, word: str) -> str:
    if not re.fullmatch(r"[01]+", word):
        raise ModelError(f"{what}: {word!r} is not a string of 0s and 1s")
    return word


def _seed(args) -> int:
    """The run's seed: --seed, else env LLL_SEED, else 0. It is stored back
    in `args`, so the manifest of a seeded run names it."""
    if args.seed is None:
        args.seed = _integer("LLL_SEED", os.environ.get("LLL_SEED", "0"))
    return args.seed


def _tape_from_args(args) -> Tape:
    if args.tape_hex:
        return Tape.from_hex(args.tape_hex)
    return Tape(seed=_seed(args))


def _spec(what: str, spec: str, kinds: dict):
    """Read `spec` as `kind:rest`: `kinds[kind](rest, name)`, with `name`
    naming the spec in the errors it raises."""
    kind, _, rest = spec.partition(":")
    if kind not in kinds:
        raise ModelError(f"unknown {what} spec {spec!r}")
    return kinds[kind](rest, f"{what} spec {spec!r}")


def _chain(rest: str, what: str):
    fields = {"m": "3", "overlap": "1", "polarity": "0"}
    for item in filter(None, rest.split(",")):
        key, _, value = item.partition("=")
        if key not in fields or not re.fullmatch(r"-?[0-9]+", value):
            raise ModelError(f"{what}: expected "
                             "chain:m=<int>,overlap=<int>,polarity=<int>")
        fields[key] = value
    return ChainCnfFamily(*(int(value) for value in fields.values()))


def _substrings(rest: str, what: str):
    path, _, tail = rest.partition(":")
    gamma, _, min_len = tail.partition(":")
    gamma, min_len = parse_rational(gamma or "1/2"), min_len or "1"
    if not re.fullmatch(r"[0-9]+", min_len):
        raise ModelError(f"{what}: min length {min_len!r} is not an integer")
    return ForbiddenSubstringFamily(read_patterns(_read(path)), gamma,
                                    int(min_len))


def _pair(rest: str, what: str):
    fields = rest.split(":")
    if len(fields) != 4:
        raise ModelError(f"{what}: expected pair:<bits>:<mass>:<bits>:<mass>")
    w1, p1, w2, p2 = fields
    return TableQOracle([(_bits(what, w1), parse_rational(p1)),
                         (_bits(what, w2), parse_rational(p2))])


# what each kind of a `kind:rest` spec builds from its rest
FAMILIES = {"chain": _chain, "substrings": _substrings}
MEASURE_ORACLES = {
    "point": lambda rest, what: TableQOracle({_bits(what, rest): Fraction(1)}),
    "pair": _pair}
FUNCTION_ORACLES = {
    "const": lambda rest, what: ConstantOracle(_integer(what, rest)),
    "identity": lambda rest, what: IdentityOracle(),
    "diverge": lambda rest, what: DivergeAtOracle(frozenset(
        _integer(what, token) for token in rest.split(",") if token))}


def _run_lines(result) -> list[str]:
    return ["assignment=" + ",".join(str(v) for v in result.assignment),
            f"resamples={result.resample_count} status={result.status}"]


def _cmd_check(args):
    system, params = _load_system(args.input, args.z_all, args.alpha)
    if params is None:
        raise ModelError("no z values given (z lines or --z-all)")
    report = check_lll(system, params)
    lines = [f"event={entry.index} lhs={q(entry.lhs)} rhs={q(entry.rhs)} "
             f"holds={_true(entry.holds)}" for entry in report.entries]
    lines.append(f"avoid_bound={q(report.avoid_bound)} "
                 f"alpha={q(report.alpha)} holds={_true(report.holds)}")
    return _verdict(report.holds), lines


def _cmd_solve(args):
    system, params = _load_system(args.input, args.z_all, args.alpha)
    tape = _tape_from_args(args)
    if args.max_steps is None:  # stored back, so the manifest names it
        if params is None:
            raise ModelError("give --max-steps or z values for the default")
        args.max_steps = suggested_max_steps(params)
    result = run_finite(system, tape, args.max_steps)
    _write_log(args, result.log)
    return _verdict(result.status == SATISFIED), _run_lines(result)


def _cmd_stream(args):
    family = _spec("family", args.family, FAMILIES)
    lines = []
    if args.certify_cell is not None:
        if args.z_all is None or args.alpha is None:
            raise ModelError("--certify-cell needs --z-all and --alpha")
        params = StreamParams.constant(parse_rational(args.z_all),
                                       parse_rational(args.alpha))
        lines.append(stability_horizon(family, params, args.certify_cell,
                                       parse_rational(args.delta)).to_line())
    tape = _tape_from_args(args)
    result = run_stream(family, args.k, tape, args.max_steps)
    times = stable_times(result.log, family.materialize(args.k))
    _write_log(args, result.log)
    lines += _run_lines(result)
    lines += [f"stable_time k={k} t={'none' if t is None else t}"
              for k, t in enumerate(times)]
    return _verdict(result.status == SATISFIED), lines


def _cmd_witness(args):
    system, _ = _load_system(args.input, None, None)
    log = read_log(_read(args.log), system)
    steps = [args.step] if args.step is not None \
        else range(1, len(log.steps) + 1)
    lines = []
    for k in steps:
        tree = build_witness_tree(log, k, system)
        lines.append(f"step={k} tree={tree.canonical_line()}")
        if args.indent:
            lines.append(tree.to_indented())
    return OK, lines


def _cmd_gw(args):
    system, params = _load_system(args.input, args.z_all, args.alpha)
    if params is None:
        raise ModelError("gw needs z values (z lines or --z-all)")
    if args.sample:
        if args.samples < 1:
            raise ModelError(f"--samples {args.samples}: must be >= 1")
        tape = _tape_from_args(args)
        trees = [gw_sample(params, args.root, system, tape,
                           args.depth_budget) for _ in range(args.samples)]
        return OK, [f"sample={i} tree="
                    + ("overflow" if tree is None else tree.canonical_line())
                    for i, tree in enumerate(trees)]
    report = check_mt_vs_gw(system, params, args.bit_budget)
    lines = [f"tree={entry.tree.canonical_line()} p_mt={q(entry.p_mt)} "
             f"pending={q(entry.pending)} bound={q(entry.bound)} "
             f"ok={_true(entry.certified)}" for entry in report.entries]
    lines += [f"gw_total root={root} sum={q(total)} ok={_true(total <= 1)}"
              for root, total in sorted(report.gw_totals.items())]
    lines.append(f"condition={_true(report.condition.holds)} "
                 f"certified={_true(report.certified)}")
    return _verdict(report.certified and report.gw_totals_ok
                    and report.condition.holds), lines


def _cmd_extract(args):
    oracle = _spec("oracle", args.oracle, MEASURE_ORACLES)
    w = tuple(int(c) for c in _bits("--w", args.w)) if args.w else ()
    if args.count < 1:
        raise ModelError(f"--count {args.count}: must be >= 1")
    if args.r is not None:
        stream = extract_from_positive_probability(
            oracle, parse_rational(args.r), w)
    else:
        stream = extract_positive_branch(oracle)
    return OK, ["cells=" + "".join(str(v) for v in islice(stream, args.count))]


def _cmd_prefix(args):
    system, params = _load_system(args.input, args.z_all, args.alpha)
    if args.mode == "exact":
        result = compute_assignment_prefix(
            system, None, args.length, mode="exact",
            delta=parse_rational(args.delta),
            bit_guard=args.bit_guard, branch_guard=args.branch_guard)
        lo, hi = result.interval
        lines = [f"cell={i} lower_bound={q(bound)}"
                 for i, bound in enumerate(result.cell_bounds)]
        lines.append(f"interval lo={q(lo)} hi={q(hi)}")
    else:
        result = compute_assignment_prefix(
            system, params, args.length, mode="empirical",
            trials=args.trials, seed=_seed(args),
            max_steps=args.max_steps)
        lines = [f"cell={i} frequency={q(freq)}"
                 for i, freq in enumerate(result.frequencies)]
    return OK, ["cells=" + "".join(str(v) for v in result.values), *lines]


def _cmd_avoid(args):
    patterns = read_patterns(_read(args.forbidden))
    result = build_avoiding_sequence(
        patterns, parse_rational(args.gamma), args.length, mode=args.mode,
        alpha=parse_rational(args.alpha),
        seed=_seed(args) if args.mode == "empirical" else 0)
    return _verdict(result.scan_ok), [
        f"beta={q(result.beta)} M={result.M} events={result.event_count} "
        f"resamples={result.resamples}",
        "prefix=" + result.bits, f"scan_ok={_true(result.scan_ok)}"]


def _cmd_fireworks(args):
    if args.beat:
        oracle = _spec("oracle", args.oracle, FUNCTION_ORACLES)
        result = beat_function(oracle, parse_rational(args.epsilon),
                               _tape_from_args(args))
        table = " ".join(f"{u}:{v}" for u, v in sorted(result.table.items()))
        return OK, [f"status={result.status} k={result.k} table={table}"]
    lines = []
    if args.seller_k is not None:
        game = GameConfig(args.n, args.seller_k)
        outcome = play_game(game, _tape_from_args(args))
        lines.append(f"outcome={outcome.outcome} k={outcome.k} "
                     f"tests={outcome.tests_made}")
    return OK, [f"win_probability={q(win_probability_exact(args.n))}",
                *lines]


def _cmd_selftest(args):
    lines, all_ok = [], True
    for entry in toy_corpus():
        gw = check_mt_vs_gw(entry.system, entry.params, entry.bit_budget)
        ok = (gw.condition.holds and gw.lemma.certified and gw.certified
              and gw.gw_totals_ok)
        all_ok = all_ok and ok
        lines.append(f"system={entry.name} "
                     f"condition={_true(gw.condition.holds)} "
                     f"lemma={_true(gw.lemma.certified)} "
                     f"gw={_true(gw.certified)} ok={_true(ok)}")
    lines.append(f"selftest={'pass' if all_ok else 'fail'}")
    return _verdict(all_ok), lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lll",
        description="exact resampling toolkit: solve, certify, extract")
    parser.add_argument("--version", action="version",
                        version=f"lll-toolkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def group(flag, **keywords) -> argparse.ArgumentParser:
        """A parent parser holding the option `flag`, for the commands that
        share it."""
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(flag, **keywords)
        return parent

    system = group("--input", required=True)
    weights = group("--z-all", help="one z for every event")
    weights.add_argument("--alpha")
    seed = group("--seed", type=int,
                 help="tape seed (default: env LLL_SEED or 0)")
    tape = group("--tape-hex", help="explicit tape as <bits>:<hex>")
    steps = group("--max-steps", type=int)
    log = group("--log-out")
    out = group("--manifest-out",
                help="also write the manifest line to this file")

    p = sub.add_parser("check", help="exact per-event condition check",
                       parents=[system, weights, out])
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="run the resampler on a finite system",
                       parents=[system, weights, seed, tape, steps, log, out])
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("stream", help="run on a prefix of an event family",
                       parents=[weights, seed, tape, log, out])
    p.add_argument("--family", required=True,
                   help="chain:m=3,overlap=1,polarity=0 or substrings:file:gamma:minlen")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--certify-cell", type=int, default=None,
                   help="emit a stability certificate for this cell")
    p.add_argument("--delta", default="1/16")
    p.add_argument("--max-steps", type=int, required=True)
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("witness", help="render witness trees for a log",
                       parents=[system, out])
    p.add_argument("--log", required=True)
    p.add_argument("--step", type=int, default=None)
    p.add_argument("--indent", action="store_true")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("gw", help="process-comparison check or sampling",
                       parents=[system, weights, seed, tape, out])
    p.add_argument("--bit-budget", type=int, default=16)
    p.add_argument("--sample", action="store_true")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--depth-budget", type=int, default=8)
    p.set_defaults(func=_cmd_gw)

    p = sub.add_parser("extract", help="extract a branch from a toy oracle",
                       parents=[out])
    p.add_argument("--oracle", required=True,
                   help="point:<pattern> or pair:<w1>:<p1>:<w2>:<p2>")
    p.add_argument("--r", default=None,
                   help="threshold for heavy-branch extraction")
    p.add_argument("--w", default=None, help="starting prefix, e.g. 01")
    p.add_argument("--count", type=int, default=8)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("prefix", help="certified assignment prefix",
                       parents=[system, weights, seed, steps, out])
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "empirical"), default="exact")
    p.add_argument("--delta", default="1/64")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--bit-guard", type=int, default=DEFAULT_BIT_GUARD,
                   help="refuse exact enumeration past this coin depth")
    p.add_argument("--branch-guard", type=int, default=PREFIX_BRANCH_GUARD,
                   help="refuse exact enumeration past this many branches")
    p.set_defaults(func=_cmd_prefix)

    p = sub.add_parser("avoid", help="substring-avoiding bit prefix",
                       parents=[seed, out])
    p.add_argument("--forbidden", required=True,
                   help="file with one pattern per line")
    p.add_argument("--gamma", required=True)
    p.add_argument("--alpha", default="99/100")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "empirical"),
                   default="empirical")
    p.set_defaults(func=_cmd_avoid)

    p = sub.add_parser("fireworks", help="game values and function beating",
                       parents=[seed, tape, out])
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seller-k", type=int, default=None)
    p.add_argument("--beat", action="store_true")
    p.add_argument("--oracle", default="identity",
                   help="const:<c>, identity, or diverge:<i,j,...>")
    p.add_argument("--epsilon", default="1/100")
    p.set_defaults(func=_cmd_fireworks)

    p = sub.add_parser("selftest", help="exhaustive toy-scale certification",
                       parents=[out])
    p.set_defaults(func=_cmd_selftest)
    return parser


def dispatch(argv) -> int:
    """Run one command and print its report: the manifest line, then the
    command's lines, once the command has finished and written its output
    files. A run that raises prints only its `refused:`, `failed:` or
    `error:` line, on stderr."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    try:
        code, lines = args.func(args)
        manifest = _manifest(args)
        if args.manifest_out:
            with open(args.manifest_out, "w") as handle:
                handle.write(manifest + "\n")
    except BudgetRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return REFUSED
    except (VerificationError, ContractViolation, ExtractionTimeout,
            TapeExhausted) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return FAIL
    except (ModelError, FamilyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    print(manifest, *lines, sep="\n")
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
