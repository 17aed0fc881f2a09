"""The four benchmark workloads: seeded inputs, one op each, output checks.

Each workload turns the workload seed into program inputs (DIMACS text,
family polarity, tape seeds) during `setup`, which also parses and
materializes them. A job is a fixed list of ops, `job_inputs()`; the run
repeats it in rounds, and `op_key` tells which runs are of the same op.
`run_op` calls the program on one input. Checks run outside the timed calls
and raise `CheckFailed` on a wrong output.

Polarity note for the exhaustive workloads (census_trees, prefix_exact):
flipping the meaning of an unshared variable of a chain 3-CNF maps the coin
prefix tree onto itself, so the work of an exhaustive op depends only on
which neighbouring clauses agree on their shared variable. The seed picks a
polarity from the agreement class of `ChainCnfFamily(3, 1, 202)` (the chain
that ROADMAP item 1 names), so every seed gives different clauses but the
same amount of exhaustive work, and seed-to-seed spread stays small.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

DEFAULT_SEED = 1
REFERENCE_POLARITY = 202
CORPUS_PASSES = 10


class CheckFailed(Exception):
    """A program output failed a benchmark check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _log_lines(log) -> list[str]:
    out = ["init " + "".join(map(str, log.initial))]
    out += [f"{s.number} {s.event} {s.draws}" for s in log.steps]
    return out


def _agreement(system) -> tuple[int, ...]:
    """Per pair of consecutive chain clauses: 1 if they forbid the same value
    of their shared variable."""
    forbidden = [next(iter(ev.forbidden)) for ev in system.events]
    return tuple(int(a[-1] == b[0]) for a, b in zip(forbidden, forbidden[1:]))


def chain_polarity(lll, rng: random.Random, clauses: int) -> int:
    """A seeded polarity whose first `clauses` chain clauses have the
    agreement pattern of the reference polarity."""
    family = lll.families.ChainCnfFamily
    target = _agreement(family(3, 1, REFERENCE_POLARITY).materialize(clauses))
    while True:
        polarity = rng.randrange(1 << 31)
        if _agreement(family(3, 1, polarity).materialize(clauses)) == target:
            return polarity


class Workload:
    name = ""
    ops_per_job = 1
    min_rounds = 1        # runs of each op, at least, before the median

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.lll: Any = None

    def rng(self) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}")

    def setup(self, lll) -> None:
        raise NotImplementedError

    def job_inputs(self) -> list:
        raise NotImplementedError

    def op_key(self, item):
        return item

    def warmup_input(self):
        return self.job_inputs()[0]

    def run_op(self, item):
        raise NotImplementedError

    def failed(self, out) -> bool:
        return False

    def check(self, out) -> None:
        raise NotImplementedError

    def digest_lines(self, out) -> list[str]:
        raise NotImplementedError


class SolveChain(Workload):
    """`lll solve` on a 1000-clause chain 3-CNF given as DIMACS text."""

    name = "solve_chain"

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.n = 20 if tiny else 1000
        self.ops_per_job = 10 if tiny else 100
        self.min_rounds = 1 if tiny else 3

    def setup(self, lll):
        self.lll = lll
        rng = self.rng()
        n_vars = 2 * self.n + 1
        self.clauses = []
        for t in range(self.n):
            self.clauses.append(tuple(
                v if rng.random() < 0.5 else -v
                for v in (2 * t + 1, 2 * t + 2, 2 * t + 3)))
        lines = [f"p cnf {n_vars} {self.n}"]
        lines += [" ".join(map(str, c)) + " 0" for c in self.clauses]
        self.system = lll.formats.read_dimacs("\n".join(lines) + "\n")
        self.seed_base = rng.randrange(1 << 32)
        self.max_steps = 10 * self.n

    def job_inputs(self):
        return list(range(self.seed_base, self.seed_base + self.ops_per_job))

    def warmup_input(self):
        return self.seed_base - 1

    def run_op(self, tape_seed):
        tape = self.lll.tape.Tape(seed=tape_seed)
        return tape_seed, self.lll.engine.run_finite(self.system, tape,
                                                     self.max_steps)

    def failed(self, out):
        return out[1].status != self.lll.engine.SATISFIED

    def check(self, out):
        tape_seed, result = out
        a = result.assignment
        require(len(a) == len(self.system.variables),
                f"seed {tape_seed}: assignment has {len(a)} cells")
        for c in self.clauses:
            require(any(a[abs(l) - 1] == (1 if l > 0 else 0) for l in c),
                    f"seed {tape_seed}: clause {c} is false")
        try:
            states = self.lll.engine.replay(self.system, result.log,
                                            validate=True)
        except self.lll.EngineError as exc:
            raise CheckFailed(
                f"seed {tape_seed}: log rejected: {exc}") from None
        require(states[-1] == a, f"seed {tape_seed}: log replays elsewhere")

    def digest_lines(self, out):
        tape_seed, result = out
        return [f"seed {tape_seed} {result.status}",
                "".join(map(str, result.assignment))] + _log_lines(result.log)


@dataclass
class StreamOut:
    tape_seed: int
    result: Any
    cert: Any
    stable: list
    trees: list
    lines: list


class StreamChain(Workload):
    """`lll stream --certify-cell 0` plus `lll witness` for one tape seed."""

    name = "stream_chain"
    delta = Fraction(1, 16)

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.k = 20 if tiny else 300
        self.ops_per_job = 2 if tiny else 40

    def setup(self, lll):
        self.lll = lll
        rng = self.rng()
        self.family = lll.families.ChainCnfFamily(3, 1, rng.randrange(1 << 31))
        self.system = self.family.materialize(self.k)
        self.params = lll.model.StreamParams.constant(Fraction(1, 4),
                                                      Fraction(1, 2))
        self.seed_base = rng.randrange(1 << 32)
        self.max_steps = 10 * self.k

    def job_inputs(self):
        return list(range(self.seed_base, self.seed_base + self.ops_per_job))

    def warmup_input(self):
        return self.seed_base - 1

    def run_op(self, tape_seed):
        lll, system = self.lll, self.system
        result = lll.engine.run_stream(self.family, self.k,
                                       lll.tape.Tape(seed=tape_seed),
                                       self.max_steps)
        cert = lll.layerwise.stability_horizon(self.family, self.params, 0,
                                               self.delta)
        stable = [lll.engine.first_k_stable_time(result.log, system, k)
                  for k in range(self.k + 1)]
        trees = [lll.witness.build_witness_tree(result.log, k, system)
                 for k in range(1, len(result.log.steps) + 1)]
        return StreamOut(tape_seed, result, cert, stable, trees,
                         [t.canonical_line() for t in trees])

    def failed(self, out):
        return out.result.status != self.lll.engine.SATISFIED

    def check(self, out):
        s, system = out.tape_seed, self.system
        a = out.result.assignment
        for ev in system.events:
            require(tuple(a[v] for v in ev.vbl) not in ev.forbidden,
                    f"seed {s}: event {ev.index} true at the end")
        require(len(out.trees) == len(out.result.log.steps),
                f"seed {s}: one tree per step expected")
        for k, tree in enumerate(out.trees, start=1):
            require(self.lll.witness.crosscheck_tape_positions(
                tree, out.result.log, system),
                f"seed {s}: tree {k} disagrees with the log's tape positions")
        require(out.stable[0] == 0 and None not in out.stable,
                f"seed {s}: a stable time is missing")
        require(all(x <= y for x, y in zip(out.stable, out.stable[1:])),
                f"seed {s}: stable times decrease in k")
        require(out.stable[-1] <= len(out.result.log.steps),
                f"seed {s}: stable time past the end of the log")
        require(out.cert.total_bound(self.params) <= self.delta,
                f"seed {s}: horizon certificate exceeds delta")

    def digest_lines(self, out):
        return ([f"seed {out.tape_seed} {out.result.status}",
                 out.cert.to_line(), " ".join(map(str, out.stable))]
                + _log_lines(out.result.log) + out.lines)


class SystemsWorkload(Workload):
    """A job of CORPUS_PASSES passes over the toy corpus, then a seeded
    4-clause chain prefix in the reference agreement class.

    One op is one system: a corpus entry (milliseconds; each runs once per
    pass) or the chain prefix (seconds; the slowest op, run once per job).
    """

    def setup(self, lll):
        self.lll = lll
        corpus, clauses = lll.corpus.toy_corpus(), 4
        if self.tiny:
            corpus, clauses = corpus[:2], 2
        polarity = chain_polarity(lll, self.rng(), clauses)
        family = lll.families.ChainCnfFamily(3, 1, polarity)
        chain = family.materialize(clauses)
        passes = 1 if self.tiny else CORPUS_PASSES
        self.items = ([self.corpus_entry(e) for e in corpus] * passes
                      + [self.chain_entry(chain)])
        self.ops_per_job = len(self.items)

    def job_inputs(self):
        return self.items

    def op_key(self, entry):
        return entry[0]


class CensusTrees(SystemsWorkload):
    """`lll gw --bit-budget` / `lll selftest`: exhaustive census with trees."""

    name = "census_trees"

    def setup(self, lll):
        super().setup(lll)
        # remember the census behind each comparison for the mass check
        gw = lll.galton_watson
        census_runs = gw.census_runs
        self.last_census = None

        def capture(*args, **kwargs):
            self.last_census = census_runs(*args, **kwargs)
            return self.last_census
        gw.census_runs = capture

    def corpus_entry(self, e):
        return e.name, e.system, e.params, e.bit_budget

    def chain_entry(self, chain):
        n = len(chain.events)
        return (f"chain{n}", chain,
                self.lll.model.LLLParams.constant(Fraction(1, 2), n),
                12 if self.tiny else 18)

    def run_op(self, entry):
        name, system, params, budget = entry
        report = self.lll.galton_watson.check_mt_vs_gw(system, params, budget)
        return name, report, self.last_census

    def check(self, out):
        name, report, census = out
        require(census.resolved_mass + census.unresolved_mass == 1,
                f"{name}: resolved + unresolved mass != 1")
        require(sum(census.output_mass.values(), Fraction(0))
                == census.resolved_mass,
                f"{name}: output masses do not sum to the resolved mass")
        require(report.unresolved_mass == census.unresolved_mass
                and report.branch_count == census.branch_count,
                f"{name}: report disagrees with its census")
        require(report.condition.holds and report.holds_within_horizon,
                f"{name}: an appearance exceeds the process bound")
        require(report.certified and report.gw_totals_ok,
                f"{name}: not certified at its coin budget")

    def digest_lines(self, out):
        name, report, _ = out
        lines = [f"{name} branches={report.branch_count} "
                 f"unresolved={report.unresolved_mass}"]
        lines += [f"{e.tree.canonical_line()} {e.p_mt} {e.pending} "
                  f"{e.gw_probability} {e.bound}" for e in report.entries]
        lines += [f"root {r} {t}" for r, t in sorted(report.gw_totals.items())]
        return lines


class PrefixExact(SystemsWorkload):
    """`lll prefix --mode exact`: certified prefixes by budget deepening."""

    name = "prefix_exact"

    def corpus_entry(self, e):
        return e.name, e.system, len(e.system.variables), Fraction(1, 32)

    def chain_entry(self, chain):
        n = len(chain.events)
        return f"chain{n}", chain, n, Fraction(1, 16)

    def run_op(self, entry):
        _, system, length, delta = entry
        return entry, self.lll.layerwise.compute_assignment_prefix(
            system, None, length, mode="exact", delta=delta)

    def check(self, out):
        (name, system, length, delta), result = out
        values = tuple(result.values)
        require(len(values) == length,
                f"{name}: prefix has {len(values)} cells")
        avoiders = self.lll.model.avoiding_assignments(system)
        require(any(a[:length] == values for a in avoiders),
                f"{name}: prefix {values} extends no avoiding assignment")
        lo, hi = result.interval
        require(0 <= lo <= hi and hi - lo <= delta,
                f"{name}: interval [{lo}, {hi}] wider than {delta}")
        require(len(result.cell_bounds) == length
                and all(b > 0 for b in result.cell_bounds),
                f"{name}: a cell bound is not positive")

    def digest_lines(self, out):
        (name, *_), result = out
        return [f"{name} {''.join(map(str, result.values))} "
                f"{' '.join(map(str, result.cell_bounds))} "
                f"{result.interval[0]} {result.interval[1]}"]


WORKLOADS = {w.name: w for w in (SolveChain, StreamChain, CensusTrees,
                                  PrefixExact)}


def job_digest(workload: Workload, outputs) -> str:
    return _digest(line for out in outputs
                   for line in workload.digest_lines(out))
