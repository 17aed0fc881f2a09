"""The demos run as scripts against the package's public names."""
from __future__ import annotations

import hashlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import lll_toolkit
from lll_toolkit import exhaustive, galton_watson
from test_layerwise import recorded_censuses

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# The sha256 of each demo's standard output. Every one is deterministic, so
# a change to the program that moves a printed byte shows here.
# 05_avoiding_sequences.py is left out: it takes 3.1-3.9 s on 2 vCPUs
# (Python 3.11). Of that, about 1.3 s is the exact condition check over its
# 6,750 clauses, 1.2-1.5 s building the system with their neighbour sets
# and 0.3 s making the clauses
PINNED_STDOUT = {
    "01_conditions_and_solving.py":
        "aed1d86652a50e98d2d6d852703221822a1ef1451cc488566ccbbc4a2b2cc44f",
    "02_witness_trees.py":
        "48532fd5f20436d7e8ea1e68b0dd8068987ee9306b73508e679c3cbfb557580b",
    "03_process_comparison.py":
        "eafae2eb8112acc985182236741f6e6eb85d4a7de9eaa4fa400bcfb75bc8b250",
    "04_certified_prefixes.py":
        "2f011cdd7ee3d67be75db53b8068bb1807baa7564e637f9005818433699ad3e8",
    "06_fireworks.py":
        "2c051e7c3f36226501cf3214f58224c188a4c5f7a6844b4759eed4d46f773ae3",
}


@pytest.mark.parametrize("name", sorted(PINNED_STDOUT))
def test_demo_runs(name):
    src = str(Path(lll_toolkit.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(DEMOS / name)],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == PINNED_STDOUT[name]


def test_certified_prefixes_demo_runs_one_census_per_budget_rise(
        monkeypatch, capsys):
    # its three intervals share one oracle, which runs censuses at 10 and
    # 20 coins; the exact prefix's own oracle runs them at 14 and 20
    seen = recorded_censuses(monkeypatch)
    runpy.run_path(str(DEMOS / "04_certified_prefixes.py"))
    assert seen == [10, 20, 14, 20]


def test_process_comparison_demo_runs_one_census(monkeypatch, capsys):
    # both inequalities are read off the process comparison's census
    seen = recorded_censuses(monkeypatch, exhaustive, galton_watson)
    runpy.run_path(str(DEMOS / "03_process_comparison.py"))
    assert seen == [20]
