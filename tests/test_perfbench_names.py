"""The library names the benchmark in `perfbench/` looks up must resolve.

The benchmark wraps and calls these names from a fresh import of the
package, and its own smoke test is not part of this suite, so a rename
here would otherwise break a traced run unnoticed. The perfbench files are
only read, never imported.
"""
from __future__ import annotations

import ast
import importlib
import re
from functools import reduce
from pathlib import Path

import pytest

import lll_toolkit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# looked up by `Tracer.install` outside its FUNCTIONS and METHODS tables
INSTALLED = [("exhaustive", "enumerate_runs"), ("tape", "Tape", "draw"),
             ("model", "ConstraintSystem", "is_true")]


def _table(name: str) -> list[tuple]:
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == [name]):
            return ast.literal_eval(node.value)
    raise LookupError(f"perfbench/spans.py has no table {name}")


def _used_names() -> list[tuple[str, ...]]:
    names = [(module, attr) for module, attr, *_ in _table("FUNCTIONS")]
    names += [(module, cls, attr) for module, cls, attr, _ in _table("METHODS")]
    names += INSTALLED
    for path in sorted(PERFBENCH.glob("*.py")):
        for chain in re.findall(r"\blll((?:\.\w+)+)", path.read_text()):
            names.append(tuple(chain[1:].split(".")))
    return sorted(set(names))


def test_perfbench_reads_the_names_it_wraps():
    assert ("layerwise", "compute_assignment_prefix") in _used_names()
    assert ("layerwise", "SystemQOracle", "lower_bound") in _used_names()


@pytest.mark.parametrize("path", _used_names(), ids=".".join)
def test_perfbench_name_resolves(path):
    # perfbench imports the modules it names, as `perfbench/run.py` does
    # with `formats`, which the package itself does not import
    head, *rest = path
    if (Path(lll_toolkit.__file__).parent / f"{head}.py").is_file():
        reduce(getattr, rest, importlib.import_module(f"lll_toolkit.{head}"))
    else:
        reduce(getattr, path, lll_toolkit)
