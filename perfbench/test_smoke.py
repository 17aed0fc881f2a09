"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout:  python3 -m pytest perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, CheckFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    # seed 7 is not the default seed: every check but the digest applies
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.2",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))


def _tiny(name, seed=7):
    import lll_toolkit
    import lll_toolkit.formats  # noqa: F401
    workload = WORKLOADS[name](seed, tiny=True)
    workload.setup(lll_toolkit)
    return workload


def test_flipped_bit_in_solved_assignment_is_rejected():
    w = _tiny("solve_chain")
    tape_seed, result = w.run_op(w.job_inputs()[0])
    w.check((tape_seed, result))
    a = list(result.assignment)
    a[0] ^= 1
    with pytest.raises(CheckFailed):
        w.check((tape_seed, result.__class__(result.status, tuple(a),
                                             result.log)))


def test_decreasing_stable_times_are_rejected():
    w = _tiny("stream_chain")
    out = w.run_op(w.job_inputs()[0])
    w.check(out)
    out.stable[-1] = -1
    with pytest.raises(CheckFailed):
        w.check(out)


def test_round_with_other_outputs_is_rejected():
    import run
    w = _tiny("solve_chain")
    r = run.Run(w)
    outputs = [w.run_op(item) for item in w.job_inputs()]
    r.check(0, outputs)
    r.check(1, outputs)
    with pytest.raises(CheckFailed):
        r.check(2, outputs[1:])


def test_bench_without_program_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    proc = bench("--workload", "solve_chain", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
