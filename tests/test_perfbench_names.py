"""The library names the benchmark in `perfbench/` looks up must resolve,
and its calls into the package must fit the signatures they call.

The benchmark wraps and calls these names from a fresh import of the
package, and its own smoke test is not part of this suite, so a rename or a
dropped parameter here would otherwise break a traced run unnoticed. The
perfbench files are only read, never imported.
"""
from __future__ import annotations

import ast
import importlib
import inspect
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


def _resolve(path: tuple[str, ...]):
    # perfbench imports the modules it names, as `perfbench/run.py` does
    # with `formats`, which the package itself does not import
    head, *rest = path
    if (Path(lll_toolkit.__file__).parent / f"{head}.py").is_file():
        return reduce(getattr, rest,
                      importlib.import_module(f"lll_toolkit.{head}"))
    return reduce(getattr, path, lll_toolkit)


@pytest.mark.parametrize("path", _used_names(), ids=".".join)
def test_perfbench_name_resolves(path):
    _resolve(path)


def _calls() -> list[tuple[str, int, tuple[str, ...], int, tuple[str, ...]]]:
    """Each call `lll.<name>(...)` or `self.lll.<name>(...)` in perfbench,
    as (its file, its line, the name called, its positional count, its
    keyword names)."""
    calls = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            names, head = [], node.func
            while isinstance(head, ast.Attribute):
                names.insert(0, head.attr)
                head = head.value
            if not isinstance(head, ast.Name):
                continue
            names.insert(0, head.id)
            if names[:2] == ["self", "lll"]:
                del names[0]
            if names[0] == "lll" and len(names) > 1:
                calls.append((path.name, node.lineno, tuple(names[1:]),
                              len(node.args),
                              tuple(k.arg for k in node.keywords)))
    return sorted(calls)


def test_perfbench_calls_are_read():
    assert len(_calls()) >= 18
    assert (("engine", "replay"), 2, ("validate",)) in [
        call[2:] for call in _calls()]


@pytest.mark.parametrize(
    "call", _calls(),
    ids=lambda call: f"{call[0]}:{call[1]}-{'.'.join(call[2])}")
def test_perfbench_call_fits_its_signature(call):
    *_, path, positional, keywords = call
    inspect.signature(_resolve(path)).bind_partial(
        *[None] * positional, **dict.fromkeys(keywords))
