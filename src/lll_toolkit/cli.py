"""Batch front-end: every subcommand reads files, runs one module operation,
and prints stable line-oriented `key=value` reports with exact rationals
rendered as num/den plus a decimal rendering.

Exit codes: 0 success / condition holds, 1 condition or verification fails,
2 usage or input error, 3 budget refusal.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from itertools import islice

from . import __version__
from .errors import (BudgetRefused, ContractViolation, EngineError,
                     ExtractionTimeout, FamilyError, ModelError, TapeExhausted,
                     VerificationError)
from .model import LLLParams, check_lll
from .tape import Tape
from .engine import (SATISFIED, replay, run_finite, run_stream, stable_times,
                     suggested_max_steps)
from .witness import build_witness_tree
from .galton_watson import check_mt_vs_gw, gw_sample
from .layerwise import (PREFIX_BRANCH_GUARD, TableQOracle,
                        compute_assignment_prefix,
                        extract_from_positive_probability,
                        extract_positive_branch)
from .corollaries import build_avoiding_sequence
from .fireworks import (ConstantOracle, DivergeAtOracle, GameConfig,
                        IdentityOracle, beat_function, epsilon_to_n,
                        play_game, win_probability_exact)
from .corpus import toy_corpus
from .formats import (format_rational, log_from_text, log_to_text,
                      parse_rational, read_dimacs, read_patterns, read_system)

OK, FAIL, USAGE, REFUSED = 0, 1, 2, 3


def q(value: Fraction) -> str:
    """Exact plus decimal rendering, e.g. `1/8(0.125)`."""
    return f"{format_rational(value)}({format(float(value), '.6g')})"


def _emit_manifest(args, **extra) -> None:
    """Print the manifest line, after writing it to `--manifest-out`. Each
    output file is written before the first line is printed, so a path
    that cannot be written exits 2 with nothing on stdout."""
    fields = {"subcommand": args.command, "version": __version__}
    for key in ("input", "seed", "max_steps", "bit_budget", "length",
                "trials", "alpha", "gamma", "mode", "k", "n", "r",
                "delta", "epsilon", "forbidden"):
        if hasattr(args, key) and getattr(args, key) is not None:
            fields[key] = getattr(args, key)
    fields.update(extra)
    line = "manifest " + " ".join(f"{k}={v}" for k, v in sorted(fields.items()))
    if getattr(args, "manifest_out", None):
        with open(args.manifest_out, "w") as handle:
            handle.write(line + "\n")
    print(line)


def _write_log(args, log) -> None:
    if args.log_out:
        with open(args.log_out, "w") as handle:
            handle.write(log_to_text(log))


def _load_system(path: str, z_all: str | None, alpha: str | None):
    with open(path) as handle:
        text = handle.read()
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


def _cmd_check(args) -> int:
    system, params = _load_system(args.input, args.z_all, args.alpha)
    if params is None:
        raise ModelError("no z values given (z lines or --z-all)")
    report = check_lll(system, params)
    _emit_manifest(args)
    for entry in report.entries:
        print(f"event={entry.index} lhs={q(entry.lhs)} rhs={q(entry.rhs)} "
              f"holds={str(entry.holds).lower()}")
    print(f"avoid_bound={q(report.avoid_bound)} "
          f"alpha={q(report.alpha)} holds={str(report.holds).lower()}")
    return OK if report.holds else FAIL


def _cmd_solve(args) -> int:
    system, params = _load_system(args.input, args.z_all, args.alpha)
    tape = _tape_from_args(args)
    max_steps = args.max_steps
    if max_steps is None:
        if params is None:
            raise ModelError("give --max-steps or z values for the default")
        max_steps = suggested_max_steps(params)
    result = run_finite(system, tape, max_steps)
    _write_log(args, result.log)
    _emit_manifest(args, max_steps=max_steps)
    print("assignment=" + ",".join(str(v) for v in result.assignment))
    print(f"resamples={result.resample_count} status={result.status}")
    return OK if result.status == SATISFIED else FAIL


def _cmd_stream(args) -> int:
    family = _family_from_args(args)
    cert = None
    if args.certify_cell is not None:
        from .model import StreamParams
        from .layerwise import stability_horizon
        if args.z_all is None or args.alpha is None:
            raise ModelError("--certify-cell needs --z-all and --alpha")
        params = StreamParams.constant(parse_rational(args.z_all),
                                       parse_rational(args.alpha))
        cert = stability_horizon(family, params, args.certify_cell,
                                 parse_rational(args.delta))
    tape = _tape_from_args(args)
    result = run_stream(family, args.k, tape, args.max_steps)
    system = family.materialize(args.k)
    _write_log(args, result.log)
    _emit_manifest(args)
    if cert is not None:
        print(cert.to_line())
    print("assignment=" + ",".join(str(v) for v in result.assignment))
    print(f"resamples={result.resample_count} status={result.status}")
    for k, t in enumerate(stable_times(result.log, system)):
        print(f"stable_time k={k} t={'none' if t is None else t}")
    return OK if result.status == SATISFIED else FAIL


def _family_from_args(args):
    from .families import ChainCnfFamily, ForbiddenSubstringFamily
    spec = args.family
    kind, _, rest = spec.partition(":")
    if kind == "chain":
        fields = {"m": "3", "overlap": "1", "polarity": "0"}
        for item in filter(None, rest.split(",")):
            key, _, value = item.partition("=")
            if key not in fields or not re.fullmatch(r"-?[0-9]+", value):
                raise ModelError(f"family spec {spec!r}: expected "
                                 "chain:m=<int>,overlap=<int>,polarity=<int>")
            fields[key] = value
        return ChainCnfFamily(*(int(value) for value in fields.values()))
    if kind == "substrings":
        path, _, tail = rest.partition(":")
        gamma = parse_rational(tail.partition(":")[0] or "1/2")
        min_len = tail.partition(":")[2] or "1"
        if not re.fullmatch(r"[0-9]+", min_len):
            raise ModelError(
                f"family spec {spec!r}: min length {min_len!r} is not an integer")
        with open(path) as handle:
            patterns = read_patterns(handle.read())
        return ForbiddenSubstringFamily(patterns, gamma, int(min_len))
    raise ModelError(f"unknown family spec {spec!r}")


def _cmd_witness(args) -> int:
    system, _ = _load_system(args.input, None, None)
    with open(args.log) as handle:
        log = log_from_text(handle.read())
    try:
        replay(system, log)
    except EngineError as exc:
        raise ModelError(f"log {args.log}: {exc}") from None
    if args.step is not None:
        steps = [args.step]
    else:
        steps = range(1, len(log.steps) + 1)
    trees = [(k, build_witness_tree(log, k, system)) for k in steps]
    _emit_manifest(args)
    for k, tree in trees:
        print(f"step={k} tree={tree.canonical_line()}")
        if args.indent:
            print(tree.to_indented())
    return OK


def _cmd_gw(args) -> int:
    system, params = _load_system(args.input, args.z_all, args.alpha)
    if params is None:
        raise ModelError("gw needs z values (z lines or --z-all)")
    if args.sample:
        if args.samples < 1:
            raise ModelError(f"--samples {args.samples}: must be >= 1")
        tape = _tape_from_args(args)
        trees = [gw_sample(params, args.root, system, tape,
                           args.depth_budget)
                 for _ in range(args.samples)]
        _emit_manifest(args)
        for i, tree in enumerate(trees):
            line = "overflow" if tree is None else tree.canonical_line()
            print(f"sample={i} tree={line}")
        return OK
    report = check_mt_vs_gw(system, params, args.bit_budget)
    _emit_manifest(args)
    for entry in report.entries:
        ok = entry.certified
        print(f"tree={entry.tree.canonical_line()} p_mt={q(entry.p_mt)} "
              f"pending={q(entry.pending)} bound={q(entry.bound)} "
              f"ok={str(ok).lower()}")
    for root, total in sorted(report.gw_totals.items()):
        print(f"gw_total root={root} sum={q(total)} "
              f"ok={str(total <= 1).lower()}")
    good = report.certified and report.gw_totals_ok and report.condition.holds
    print(f"condition={str(report.condition.holds).lower()} "
          f"certified={str(report.certified).lower()}")
    return OK if good else FAIL


def _bits(what: str, word: str) -> str:
    if not re.fullmatch(r"[01]+", word):
        raise ModelError(f"{what}: {word!r} is not a string of 0s and 1s")
    return word


def _oracle_from_spec(spec: str):
    kind, _, rest = spec.partition(":")
    what = f"oracle spec {spec!r}"
    if kind == "point":
        return TableQOracle({_bits(what, rest): Fraction(1)})
    if kind == "pair":
        fields = rest.split(":")
        if len(fields) != 4:
            raise ModelError(
                f"{what}: expected pair:<bits>:<mass>:<bits>:<mass>")
        w1, p1, w2, p2 = fields
        return TableQOracle([(_bits(what, w1), parse_rational(p1)),
                             (_bits(what, w2), parse_rational(p2))])
    raise ModelError(f"unknown oracle spec {spec!r}")


def _cmd_extract(args) -> int:
    oracle = _oracle_from_spec(args.oracle)
    w = tuple(int(c) for c in _bits("--w", args.w)) if args.w else ()
    if args.count < 1:
        raise ModelError(f"--count {args.count}: must be >= 1")
    if args.r is not None:
        stream = extract_from_positive_probability(
            oracle, parse_rational(args.r), w)
    else:
        stream = extract_positive_branch(oracle)
    _emit_manifest(args)
    values = islice(stream, args.count)
    print("cells=" + "".join(str(v) for v in values))
    return OK


def _cmd_prefix(args) -> int:
    system, params = _load_system(args.input, args.z_all, args.alpha)
    if args.mode == "exact":
        result = compute_assignment_prefix(
            system, None, args.length, mode="exact",
            delta=parse_rational(args.delta),
            bit_guard=args.bit_guard, branch_guard=args.branch_guard)
        _emit_manifest(args)
        print("cells=" + "".join(str(v) for v in result.values))
        for i, bound in enumerate(result.cell_bounds):
            print(f"cell={i} lower_bound={q(bound)}")
        lo, hi = result.interval
        print(f"interval lo={q(lo)} hi={q(hi)}")
        return OK
    result = compute_assignment_prefix(
        system, params, args.length, mode="empirical",
        trials=args.trials, seed=_seed(args),
        max_steps=args.max_steps)
    _emit_manifest(args)
    print("cells=" + "".join(str(v) for v in result.values))
    for i, freq in enumerate(result.frequencies):
        print(f"cell={i} frequency={q(freq)}")
    return OK


def _cmd_avoid(args) -> int:
    with open(args.forbidden) as handle:
        patterns = read_patterns(handle.read())
    result = build_avoiding_sequence(
        patterns, parse_rational(args.gamma), args.length, mode=args.mode,
        alpha=parse_rational(args.alpha),
        seed=_seed(args) if args.mode == "empirical" else 0)
    _emit_manifest(args)
    print(f"beta={q(result.beta)} M={result.M} events={result.event_count} "
          f"resamples={result.resamples}")
    print("prefix=" + result.bits)
    print(f"scan_ok={str(result.scan_ok).lower()}")
    return OK if result.scan_ok else FAIL


def _cmd_fireworks(args) -> int:
    if args.beat:
        oracle = _fn_oracle_from_spec(args.oracle)
        epsilon = parse_rational(args.epsilon)
        epsilon_to_n(epsilon)  # refuses an epsilon outside (0, 1]
        tape = _tape_from_args(args)
        _emit_manifest(args)
        result = beat_function(oracle, epsilon, tape)
        table = " ".join(f"{u}:{v}" for u, v in sorted(result.table.items()))
        print(f"status={result.status} k={result.k} table={table}")
        return OK
    game = (GameConfig(args.n, args.seller_k)
            if args.seller_k is not None else None)
    tape = _tape_from_args(args) if game is not None else None
    win = win_probability_exact(args.n)
    _emit_manifest(args)
    print(f"win_probability={q(win)}")
    if game is not None:
        outcome = play_game(game, tape)
        print(f"outcome={outcome.outcome} k={outcome.k} "
              f"tests={outcome.tests_made}")
    return OK


def _integer(what: str, token: str) -> int:
    if not re.fullmatch(r"-?[0-9]+", token):
        raise ModelError(f"{what}: {token!r} is not an integer")
    return int(token)


def _fn_oracle_from_spec(spec: str):
    kind, _, rest = spec.partition(":")
    what = f"oracle spec {spec!r}"
    if kind == "const":
        return ConstantOracle(_integer(what, rest))
    if kind == "identity":
        return IdentityOracle()
    if kind == "diverge":
        where = frozenset(_integer(what, tok) for tok in rest.split(",") if tok)
        return DivergeAtOracle(where)
    raise ModelError(f"unknown oracle spec {spec!r}")


def _cmd_selftest(args) -> int:
    _emit_manifest(args)
    all_ok = True
    for entry in toy_corpus():
        gw = check_mt_vs_gw(entry.system, entry.params, entry.bit_budget)
        ok = (gw.condition.holds and gw.lemma.certified and gw.certified
              and gw.gw_totals_ok)
        all_ok = all_ok and ok
        print(f"system={entry.name} "
              f"condition={str(gw.condition.holds).lower()} "
              f"lemma={str(gw.lemma.certified).lower()} "
              f"gw={str(gw.certified).lower()} ok={str(ok).lower()}")
    print(f"selftest={'pass' if all_ok else 'fail'}")
    return OK if all_ok else FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lll",
        description="exact resampling toolkit: solve, certify, extract")
    parser.add_argument("--version", action="version",
                        version=f"lll-toolkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = []

    def add_parser(*a, **kw):
        p = sub.add_parser(*a, **kw)
        subparsers.append(p)
        return p

    def common(p, budget=False, tape=True):
        p.add_argument("--seed", type=int, default=None,
                       help="tape seed (default: env LLL_SEED or 0)")
        if tape:
            p.add_argument("--tape-hex", default=None,
                           help="explicit tape as <bits>:<hex>")
        if budget:
            p.add_argument("--max-steps", type=int, default=None)

    p = add_parser("check", help="exact per-event condition check")
    p.add_argument("--input", required=True)
    p.add_argument("--z-all", default=None, help="one z for every event")
    p.add_argument("--alpha", default=None)
    p.set_defaults(func=_cmd_check)

    p = add_parser("solve", help="run the resampler on a finite system")
    p.add_argument("--input", required=True)
    p.add_argument("--z-all", default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--log-out", default=None)
    common(p, budget=True)
    p.set_defaults(func=_cmd_solve)

    p = add_parser("stream", help="run on a prefix of an event family")
    p.add_argument("--family", required=True,
                   help="chain:m=3,overlap=1,polarity=0 or substrings:file:gamma:minlen")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--log-out", default=None)
    p.add_argument("--certify-cell", type=int, default=None,
                   help="emit a stability certificate for this cell")
    p.add_argument("--delta", default="1/16")
    p.add_argument("--z-all", default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--max-steps", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_stream)

    p = add_parser("witness", help="render witness trees for a log")
    p.add_argument("--input", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--step", type=int, default=None)
    p.add_argument("--indent", action="store_true")
    p.set_defaults(func=_cmd_witness)

    p = add_parser("gw", help="process-comparison check or sampling")
    p.add_argument("--input", required=True)
    p.add_argument("--z-all", default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--bit-budget", type=int, default=16)
    p.add_argument("--sample", action="store_true")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--depth-budget", type=int, default=8)
    common(p)
    p.set_defaults(func=_cmd_gw)

    p = add_parser("extract", help="extract a branch from a toy oracle")
    p.add_argument("--oracle", required=True,
                   help="point:<pattern> or pair:<w1>:<p1>:<w2>:<p2>")
    p.add_argument("--r", default=None,
                   help="threshold for heavy-branch extraction")
    p.add_argument("--w", default=None, help="starting prefix, e.g. 01")
    p.add_argument("--count", type=int, default=8)
    p.set_defaults(func=_cmd_extract)

    p = add_parser("prefix", help="certified assignment prefix")
    p.add_argument("--input", required=True)
    p.add_argument("--z-all", default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "empirical"), default="exact")
    p.add_argument("--delta", default="1/64")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--bit-guard", type=int, default=40,
                   help="refuse exact enumeration past this coin depth")
    p.add_argument("--branch-guard", type=int, default=PREFIX_BRANCH_GUARD,
                   help="refuse exact enumeration past this many branches")
    common(p, budget=True, tape=False)
    p.set_defaults(func=_cmd_prefix)

    p = add_parser("avoid", help="substring-avoiding bit prefix")
    p.add_argument("--forbidden", required=True,
                   help="file with one pattern per line")
    p.add_argument("--gamma", required=True)
    p.add_argument("--alpha", default="99/100")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "empirical"),
                   default="empirical")
    common(p, tape=False)
    p.set_defaults(func=_cmd_avoid)

    p = add_parser("fireworks", help="game values and function beating")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seller-k", type=int, default=None)
    p.add_argument("--beat", action="store_true")
    p.add_argument("--oracle", default="identity",
                   help="const:<c>, identity, or diverge:<i,j,...>")
    p.add_argument("--epsilon", default="1/100")
    common(p)
    p.set_defaults(func=_cmd_fireworks)

    p = add_parser("selftest", help="exhaustive toy-scale certification")
    p.set_defaults(func=_cmd_selftest)

    for p in subparsers:
        p.add_argument("--manifest-out", default=None,
                       help="also write the manifest line to this file")
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    try:
        return args.func(args)
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


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
