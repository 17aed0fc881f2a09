"""Spans around the public functions of each `lll_toolkit` layer.

`Tracer.install(pkg)` replaces each traced function wherever modules of the
package look it up (every module attribute bound to it, e.g. both
`lll_toolkit.engine.run_finite` and `lll_toolkit.exhaustive.run_finite`)
and wraps the traced class methods in place. No program source changes.

A span record is a list `[name, start, end, parent, covered, draws,
draw_busy, coins, is_true_calls, is_true_busy, note]`; `parent` indexes the
enclosing record (-1 for none) and `covered` is the time child spans cover,
so a span's self time is `end - start - covered`. `Tape.draw` and
`ConstraintSystem.is_true` run millions of times per job, so their calls
are not records of their own: each is counted and timed into the record
of the span that made it.
"""
from __future__ import annotations

import json
import statistics
import sys
from functools import wraps
from time import perf_counter

PKG = "lll_toolkit"

# (module, attribute, span name, note taken from (args, result, exception))
FUNCTIONS = [
    ("engine", "run_finite", "engine.run_finite", "resamples"),
    ("engine", "run_stream", "engine.run_stream", None),
    ("engine", "replay", "engine.replay", "log_steps"),
    ("engine", "first_k_stable_time", "engine.first_k_stable_time", None),
    ("witness", "build_witness_tree", "witness.build_witness_tree", "size"),
    ("witness", "trees_for_run", "witness.trees_for_run", None),
    ("witness", "tape_positions_by_vertex", "witness.tape_positions_by_vertex",
     None),
    ("exhaustive", "census_runs", "exhaustive.census_runs", "budget"),
    ("galton_watson", "check_mt_vs_gw", "galton_watson.check_mt_vs_gw", None),
    ("galton_watson", "gw_tree_probability",
     "galton_watson.gw_tree_probability", None),
    ("layerwise", "stability_horizon", "layerwise.stability_horizon", None),
    ("layerwise", "approx_output_distribution",
     "layerwise.approx_output_distribution", None),
    ("layerwise", "compute_assignment_prefix",
     "layerwise.compute_assignment_prefix", None),
    ("formats", "read_dimacs", "formats.read_dimacs", None),
]
METHODS = [
    ("layerwise", "SystemQOracle", "lower_bound", "layerwise.lower_bound"),
    ("families", "InfiniteFamily", "materialize", "families.materialize"),
]

NAME, START, END, PARENT, COVERED = 0, 1, 2, 3, 4
DRAWS, DRAW_BUSY, COINS, IS_TRUE, IS_TRUE_BUSY, NOTE = 5, 6, 7, 8, 9, 10


def _note(kind, args, kwargs, result, exc):
    if kind == "resamples":
        if exc is not None:
            log = getattr(exc, "partial_log", None)
            return len(log.steps) if log is not None else 0
        return len(result.log.steps)
    if kind == "log_steps":
        return len(args[1].steps)
    if kind == "size":
        return result.size if exc is None else 0
    if kind == "budget":
        return args[1] if len(args) > 1 else kwargs["bit_budget"]
    return None


class Tracer:
    """In-memory span recorder; records only while `enabled`."""

    def __init__(self):
        self.enabled = False
        self.records: list[list] = []
        self.stack = [-1]
        self.branches = 0
        self.unresolved = 0

    def reset(self):
        self.records = []
        self.stack = [-1]
        self.branches = 0
        self.unresolved = 0

    def begin(self, name):
        rec = [name, perf_counter(), 0.0, self.stack[-1], 0.0,
               0, 0.0, 0, 0, 0.0, None]
        self.stack.append(len(self.records))
        self.records.append(rec)

    def end(self):
        rec = self.records[self.stack.pop()]
        rec[END] = perf_counter()
        if rec[PARENT] >= 0:
            self.records[rec[PARENT]][COVERED] += rec[END] - rec[START]

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name, kind):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            records = tracer.records
            rec = [name, 0.0, 0.0, tracer.stack[-1], 0.0, 0, 0.0, 0, 0, 0.0,
                   None]
            tracer.stack.append(len(records))
            records.append(rec)
            result = exc = None
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                rec[END] = end = perf_counter()
                tracer.stack.pop()
                if rec[PARENT] >= 0:
                    records[rec[PARENT]][COVERED] += end - rec[START]
                if kind is not None:
                    rec[NOTE] = _note(kind, args, kwargs, result, exc)
        return wrapper

    def _draw(self, fn):
        tracer = self

        @wraps(fn)
        def draw(tape, *args, **kwargs):
            if not tracer.enabled:
                return fn(tape, *args, **kwargs)
            before = tape.bits_consumed
            start = perf_counter()
            try:
                return fn(tape, *args, **kwargs)
            finally:
                busy = perf_counter() - start
                rec = tracer.records[tracer.stack[-1]]
                rec[DRAWS] += 1
                rec[DRAW_BUSY] += busy
                rec[COINS] += tape.bits_consumed - before
                rec[COVERED] += busy
        return draw

    def _is_true(self, fn):
        tracer = self

        @wraps(fn)
        def is_true(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            start = perf_counter()
            value = fn(*args, **kwargs)
            busy = perf_counter() - start
            rec = tracer.records[tracer.stack[-1]]
            rec[IS_TRUE] += 1
            rec[IS_TRUE_BUSY] += busy
            rec[COVERED] += busy
            return value
        return is_true

    def _branches(self, fn):
        tracer = self

        @wraps(fn)
        def enumerate_runs(*args, **kwargs):
            for branch in fn(*args, **kwargs):
                if tracer.enabled:
                    tracer.branches += 1
                    tracer.unresolved += not branch.resolved
                yield branch
        return enumerate_runs

    def install(self, pkg):
        """Wrap the traced callables of a freshly imported package."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PKG or n.startswith(PKG + "."))]

        def replace(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        for mod, attr, name, kind in FUNCTIONS:
            fn = getattr(getattr(pkg, mod), attr)
            replace(fn, self._span(fn, name, kind))
        fn = pkg.exhaustive.enumerate_runs
        replace(fn, self._branches(fn))
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(getattr(pkg, mod), cls_name)
            setattr(cls, attr, self._span(getattr(cls, attr), name, None))
        pkg.tape.Tape.draw = self._draw(pkg.tape.Tape.draw)
        cs = pkg.model.ConstraintSystem
        cs.is_true = self._is_true(cs.is_true)

    def write(self, path, header: dict):
        """Write the current records as JSON lines after a header line that
        names the fields; leaf calls appear as counts in their parent."""
        fields = ["name", "start", "end", "parent", "covered", "tape.draw",
                  "tape.draw_busy", "tape.coins", "model.is_true",
                  "model.is_true_busy", "note"]
        with open(path, "w") as handle:
            handle.write(json.dumps(dict(header, fields=fields)) + "\n")
            for rec in self.records:
                handle.write(json.dumps(rec) + "\n")


def _rate(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and times over the current records (one job)."""
    recs = tracer.records
    by_name: dict[str, list] = {}
    for rec in recs:
        by_name.setdefault(rec[NAME], []).append(rec)

    def spans(name):
        return by_name.get(name, [])

    def total(name):
        return sum(r[END] - r[START] for r in spans(name))

    def self_time(name):
        return sum(r[END] - r[START] - r[COVERED] for r in spans(name))

    def under_layerwise(rec):
        p = rec[PARENT]
        while p >= 0:
            if recs[p][NAME].startswith("layerwise."):
                return True
            p = recs[p][PARENT]
        return False

    draws = sum(r[DRAWS] for r in recs)
    coins = sum(r[COINS] for r in recs)
    draw_s = sum(r[DRAW_BUSY] for r in recs)
    runs = spans("engine.run_finite")
    resamples = sum(r[NOTE] for r in runs)
    run_s = total("engine.run_finite")
    trees = spans("witness.build_witness_tree")
    build_s = total("witness.build_witness_tree")
    census = spans("exhaustive.census_runs")
    reexec = sum(1 for r in runs
                 if r[PARENT] >= 0 and recs[r[PARENT]][NAME]
                 == "exhaustive.census_runs")
    lw_census = [r for r in census if under_layerwise(r)]
    return {
        "tape.draws": (draws, "count"),
        "tape.coins": (coins, "count"),
        "tape.coins_per_draw": (_rate(coins, draws), "coin/draw"),
        "tape.draw_s": (draw_s, "s"),
        "tape.draws_per_s": (_rate(draws, draw_s), "1/s"),
        "model.is_true_calls": (sum(r[IS_TRUE] for r in recs), "count"),
        "model.is_true_s": (sum(r[IS_TRUE_BUSY] for r in recs), "s"),
        "engine.runs": (len(runs), "count"),
        "engine.resamples": (resamples, "count"),
        "engine.run_self_s": (self_time("engine.run_finite"), "s"),
        "engine.resamples_per_s": (_rate(resamples, run_s), "1/s"),
        "engine.replays": (len(spans("engine.replay")), "count"),
        "engine.replay_steps": (sum(r[NOTE] for r in spans("engine.replay")),
                                "count"),
        "engine.stable_time_calls": (len(spans("engine.first_k_stable_time")),
                                     "count"),
        "engine.stable_time_s": (total("engine.first_k_stable_time"), "s"),
        "witness.trees": (len(trees), "count"),
        "witness.tree_vertices": (sum(r[NOTE] for r in trees), "count"),
        "witness.build_s": (build_s, "s"),
        "witness.trees_per_s": (_rate(len(trees), build_s), "1/s"),
        "witness.positions_calls": (
            len(spans("witness.tape_positions_by_vertex")), "count"),
        "witness.positions_s": (total("witness.tape_positions_by_vertex"),
                                "s"),
        "exhaustive.census_calls": (len(census), "count"),
        "exhaustive.reexecutions": (reexec, "count"),
        "exhaustive.branches": (tracer.branches, "count"),
        "exhaustive.unresolved_branches": (tracer.unresolved, "count"),
        "exhaustive.leaf_ratio": (_rate(tracer.branches, reexec),
                                  "branch/run"),
        "exhaustive.self_s": (self_time("exhaustive.census_runs"), "s"),
        "galton_watson.tree_prob_calls": (
            len(spans("galton_watson.gw_tree_probability")), "count"),
        "galton_watson.tree_prob_s": (
            total("galton_watson.gw_tree_probability"), "s"),
        "layerwise.census_calls": (len(lw_census), "count"),
        "layerwise.lower_bound_calls": (len(spans("layerwise.lower_bound")),
                                        "count"),
        "layerwise.max_coin_budget": (max((r[NOTE] for r in lw_census),
                                          default=0), "coins"),
        "layerwise.horizon_calls": (len(spans("layerwise.stability_horizon")),
                                    "count"),
        "layerwise.horizon_s": (total("layerwise.stability_horizon"), "s"),
    }


def setup_metrics(per_setup: list[dict]) -> dict:
    """Median over set-ups of the parse and materialize span times."""
    def med(name):
        return statistics.median(s.get(name, 0.0) for s in per_setup)
    return {"families.materialize_s": (med("families.materialize"), "s"),
            "formats.parse_s": (med("formats.read_dimacs"), "s")}


def span_totals(tracer: Tracer) -> dict:
    out: dict[str, float] = {}
    for rec in tracer.records:
        out[rec[NAME]] = out.get(rec[NAME], 0.0) + rec[END] - rec[START]
    return out
