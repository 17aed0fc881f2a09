"""The demos run as scripts against the package's public names."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lll_toolkit

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# 05_avoiding_sequences.py is left out: it takes about 4.5 s on 2 vCPUs. Of
# that, about 2 s is the exact condition check over its 6,750 clauses (half
# of it counting each clause's ~900 neighbours), 1.5 s building their
# neighbour sets and 0.5 s building the clauses
@pytest.mark.parametrize("name", [
    "01_conditions_and_solving.py",
    "02_witness_trees.py",
    "03_process_comparison.py",
    "04_certified_prefixes.py",
    "06_fireworks.py",
])
def test_demo_runs(name):
    src = str(Path(lll_toolkit.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(DEMOS / name)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
