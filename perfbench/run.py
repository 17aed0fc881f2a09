"""Benchmark of lll-toolkit: one workload per run, every output checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json for why each exists):
solve_chain, stream_chain, census_trees, prefix_exact. The run is a closed
loop in one process with no threads: set-up (import, input generation,
parsing, materialization) is done `SETUPS` times, one warm-up op runs
untimed, then the workload's job, a fixed list of ops, runs in rounds: as
many as fit in S seconds, and at least the workload's `min_rounds`. The
first round's outputs are checked op by op, outside the timed calls, and
for the default seed their digest must match `digests.json`; every later
round must reproduce the first round's outputs exactly. A wrong output
aborts the run with exit code 1; a missing program (no `src/lll_toolkit`
next to this directory) exits with code 2 before any result.

Host speed on a shared machine changes by tens of percent from one tenth of
a second to the next, so every timed call (each set-up, each op) is timed
against a short standard-library probe (`probe`) run just before and just
after it, and every `PROBE_EVERY_S` seconds while it runs (from a SIGALRM
interval timer; the probe's own time is taken off the call). A call's time
is scaled by the mean of `PROBE_REF_S / probe time` over those probes, so it
reads as the time the call would take on a host where the probe takes
`PROBE_REF_S`. The probe runs no program code: a change to the program
moves the scaled times, not the probe. Unscaled times are printed as well.

An op's latency is the median of its scaled runs in the run. Each op of a
job runs once per round, except the corpus entries of census_trees and
prefix_exact, which run CORPUS_PASSES times per round.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones (times scaled as above):

    setup_s      median set-up time                         s
    job_s        median over rounds of the job's time       s
                 (the sum of its op times)
    op_p50_ms    median latency of the job's distinct ops   ms
    op_tail_ms   the op latency with 10 ops beyond it, i.e. ms
                 the nearest-rank percentile 100 (n - 10) / n of n ops
                 (p90 of 100 ops on solve_chain, p75 of 40 on
                 stream_chain); census_trees and prefix_exact have 7
                 distinct ops, so there it is the slowest, the chain
    peak_rss_mb  peak resident memory of this process over  MB
                 its set-ups and first round (later rounds would
                 only add heap growth that depends on their number)
    ok_frac      ops that succeeded / ops attempted         ratio
                 (fail_frac = 1 - ok_frac is printed above the JSON line)

With `--trace 1` the job runs once untraced and then traced, in as many
rounds as fit in S seconds; the metrics are the per-layer figures of the
first traced round (counts repeat exactly for a seed), plus `trace.job_s`
(median traced round), `trace.untraced_job_s` and `trace.overhead_s`
(their difference), all unscaled. The spans of that round are written to
`perfbench/traces/<workload>-<seed>.jsonl`.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, CheckFailed,  # noqa: E402
                       job_digest)

SETUPS = 15
PROBE_LOOPS = 2000
PROBE_REF_S = 0.003
PROBE_EVERY_S = 0.1
TAIL_BEYOND = 10
MASK64 = (1 << 64) - 1


def fresh_import():
    """Import the package from this checkout's sources, dropping any
    previously imported copy so each set-up pays the full import."""
    for name in [n for n in sys.modules
                 if n == spans.PKG or n.startswith(spans.PKG + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(spans.PKG)
    importlib.import_module(spans.PKG + ".formats")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{spans.PKG} imported from outside {SRC}")
    return pkg


def probe():
    """Time a fixed piece of standard-library work: integer mixing, tuple
    keys in a small dict, Fraction sums and a sort, the toolkit's mix of
    operations. Cyclic garbage collection is paused while it runs, so its
    time depends neither on the program's heap nor on any change to the
    program, only on the speed the host gives this process at that
    moment."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc, counts, x = Fraction(0), {}, 88172645463325252
        for i in range(PROBE_LOOPS):
            x ^= (x << 13) & MASK64
            x ^= x >> 7
            x ^= (x << 17) & MASK64
            key = (x & 255, (x >> 8) & 3)
            counts[key] = counts.get(key, 0) + 1
            if i % 8 == 0:
                acc += Fraction(x & 1023, 1 + ((x >> 20) & 1023))
        sorted(counts.items())
        return perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Timer:
    """Times calls; with `probing`, also scales them by the probe run
    around and during each call (see the module docstring)."""

    def __init__(self, probing):
        self.probing = probing
        self.last = None           # probe taken right after the last call
        self.during: list[float] = []
        self.taken_s = 0.0         # time spent in probes run by the alarm
        self.armed = False
        self.speeds: list[float] = []

    def __enter__(self):
        if self.probing:
            signal.signal(signal.SIGALRM, self.on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S,
                             PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.probing:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def on_alarm(self, signum, frame):
        if not self.armed:
            return
        self.armed = False
        start = perf_counter()
        self.during.append(probe())
        self.taken_s += perf_counter() - start
        self.armed = True

    def restart(self):
        """Forget the last probe: untimed work has run since."""
        self.last = None

    def __call__(self, fn, *args):
        """Run fn(*args); returns (result, seconds, scaled seconds)."""
        if not self.probing:
            start = perf_counter()
            out = fn(*args)
            elapsed = perf_counter() - start
            return out, elapsed, elapsed
        before = probe() if self.last is None else self.last
        self.during = []
        taken = self.taken_s
        self.armed = True
        start = perf_counter()
        try:
            out = fn(*args)
        finally:
            end = perf_counter()
            self.armed = False
        elapsed = end - start - (self.taken_s - taken)
        self.last = probe()
        speed = statistics.fmean(PROBE_REF_S / p
                                 for p in [before, *self.during, self.last])
        self.speeds.append(speed)
        return out, elapsed, elapsed * speed


class Run:
    def __init__(self, workload):
        self.w = workload
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.digest = ""

    def job(self, timer, record_ops=True):
        """Run the job once; returns the outputs of its successful ops and
        (op key, seconds, scaled seconds) for each op."""
        w, tracer = self.w, self.tracer
        refused = (w.lll.BudgetRefused, w.lll.ExtractionTimeout)

        def op(item):
            try:
                return w.run_op(item)
            except refused:
                return None

        outputs, times = [], []
        timer.restart()
        if tracer is not None:
            tracer.enabled = True
        for item in w.job_inputs():
            if tracer is not None:
                tracer.begin("op." + w.name)
            out, elapsed, scaled = timer(op, item)
            if tracer is not None:
                tracer.end()
            times.append((w.op_key(item), elapsed, scaled))
            failed = out is None or w.failed(out)
            if record_ops:
                self.attempted += 1
                self.failed += failed
            if not failed:
                outputs.append(out)
        if tracer is not None:
            tracer.enabled = False
        return outputs, times

    def check(self, j, outputs):
        """Round 0: check every output and record the digest, which must
        match digests.json for the default seed. Later rounds: the same
        inputs must give the same outputs."""
        digest = job_digest(self.w, outputs)
        if j > 0:
            if digest != self.digest:
                raise CheckFailed(f"round {j} outputs differ from round 0")
            return
        for out in outputs:
            self.w.check(out)
        self.digest = digest
        if self.w.seed == DEFAULT_SEED and not self.w.tiny:
            expected = json.loads((HERE / "digests.json").read_text())
            if expected.get(self.w.name) != digest:
                raise CheckFailed(f"first-job digest {digest} differs "
                                  f"from digests.json")


def setup(workload, timer, tracer=None):
    """SETUPS fresh set-ups, the last one live, then the warm-up op;
    returns (seconds, scaled seconds) per set-up and, when traced, the span
    totals of each set-up."""
    times, per_setup = [], []

    def once():
        lll = fresh_import()
        if tracer is not None:
            tracer.install(lll)
            tracer.reset()
            tracer.enabled = True
            tracer.begin("setup")
        workload.setup(lll)
        if tracer is not None:
            tracer.end()
            tracer.enabled = False
            per_setup.append(spans.span_totals(tracer))

    for _ in range(SETUPS):
        timer.restart()
        _, elapsed, scaled = timer(once)
        times.append((elapsed, scaled))
    workload.run_op(workload.warmup_input())
    return times, per_setup


def rounds_left(start, rounds, seconds, min_rounds=1):
    """Whether another round fits: fewer than min_rounds done, or the mean
    round so far would still end within `seconds` of `start`."""
    n = len(rounds)
    return n < min_rounds or (perf_counter() - start) / n * (n + 1) <= seconds


def measure(args, run):
    """End-to-end metrics of an untraced run, scaled by the probe."""
    workload = run.w
    rounds, runs = [], {}
    with Timer(probing=True) as timer:
        setups, _ = setup(workload, timer)
        start = perf_counter()
        while rounds_left(start, rounds, args.seconds, workload.min_rounds):
            outputs, times = run.job(timer)
            if not rounds:
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            run.check(len(rounds), outputs)
            rounds.append(times)
            for key, _, scaled in times:
                runs.setdefault(key, []).append(scaled)
    latencies = sorted(statistics.median(v) for v in runs.values())
    n = len(latencies)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "job_s": (statistics.median(sum(t[2] for t in r) for r in rounds),
                  "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (latencies[rank - 1] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss / 1024, "MB"),
        "ok_frac": ((run.attempted - run.failed) / run.attempted, "ratio"),
    }
    runs_per_op = sorted(len(v) for v in runs.values())
    unscaled_job = statistics.median(sum(t[1] for t in r) for r in rounds)
    lines = [f"setups={SETUPS} rounds={len(rounds)} "
             f"ops_per_job={workload.ops_per_job} distinct_ops={n} "
             f"runs_per_op={runs_per_op[0]}-{runs_per_op[-1]}",
             f"op_tail_ms is p{100 * rank / n:.4g} of {n} op latencies, "
             f"{n - rank} beyond it",
             f"fail_frac={run.failed}/{run.attempted}",
             f"probe speed factor median "
             f"{statistics.median(timer.speeds):.4g} over "
             f"{len(timer.speeds)} calls; unscaled "
             f"setup_s={statistics.median(e for e, _ in setups):.6g} "
             f"job_s={unscaled_job:.6g}"]
    return metrics, lines


def measure_traced(args, run):
    """Per-layer metrics: the job untraced once, then traced in rounds."""
    workload = run.w
    timer = Timer(probing=False)
    setup(workload, timer)
    outputs, times = run.job(timer)
    run.check(0, outputs)
    untraced = sum(t[1] for t in times)
    tracer = spans.Tracer()
    _, per_setup = setup(workload, timer, tracer)
    run.tracer = tracer
    traced = []
    start = perf_counter()
    while rounds_left(start, traced, args.seconds):
        tracer.reset()
        outputs, times = run.job(timer, record_ops=False)
        traced.append(sum(t[1] for t in times))
        run.check(len(traced), outputs)
        if len(traced) == 1:
            job0 = tracer.records
            metrics = spans.layer_metrics(tracer)
    tracer.records = job0
    trace_dir = HERE / "traces"
    trace_dir.mkdir(exist_ok=True)
    trace_path = trace_dir / f"{workload.name}-{args.seed}.jsonl"
    tracer.write(trace_path, {"workload": workload.name, "seed": args.seed,
                              "job": 0})
    metrics.update(spans.setup_metrics(per_setup))
    job_s = statistics.median(traced)
    metrics["trace.job_s"] = (job_s, "s")
    metrics["trace.untraced_job_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (job_s - untraced, "s")
    lines = [f"traced_rounds={len(traced)}; per-layer figures are for the "
             f"first ({workload.ops_per_job} ops); spans in "
             f"{trace_path.relative_to(ROOT)}"]
    return metrics, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / spans.PKG / "__init__.py").is_file():
        print(f"error: no {spans.PKG} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    run = Run(workload)
    try:
        metrics, lines = (measure_traced if args.trace else measure)(args, run)
    except CheckFailed as exc:
        print(f"error: wrong output: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": run.failed, "metrics": {}}))
        return 1
    head = (f"workload={workload.name} seed={args.seed} "
            f"seconds={args.seconds} trace={args.trace}")
    lines.append(f"first_job_digest={run.digest}")
    lines += [f"{name}={value:.6g} {unit}"
              for name, (value, unit) in metrics.items()]
    print("\n".join([head] + lines))
    print(json.dumps({
        "correct": True, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
