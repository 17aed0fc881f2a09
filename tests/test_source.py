"""Checks on the package source itself."""
from __future__ import annotations

import ast
from pathlib import Path

import lll_toolkit

SRC = Path(lll_toolkit.__file__).resolve().parent


def test_no_assert_statements_in_package():
    # `python -O` strips asserts, so invariants must raise typed errors
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_float_outside_the_decimal_rendering():
    # speed never comes from floats: the one float is the decimal shown next
    # to each exact rational in `cli.q`
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "cli.py":
            q = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "q")
            allowed = {id(node) for node in ast.walk(q)}
        for node in ast.walk(tree):
            literal = (isinstance(node, ast.Constant)
                       and isinstance(node.value, (float, complex)))
            call = (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "float")
            if (literal or call) and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_dispatch_prints_in_the_cli():
    # each command returns its report lines and `dispatch` prints them after
    # the manifest line, so a command that raises has printed nothing
    tree = ast.parse((SRC / "cli.py").read_text())
    found = []
    for top in tree.body:
        name = getattr(top, "name", None)
        found += [f"{name}:{node.lineno}" for node in ast.walk(top)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "print" and name != "dispatch"]
    assert found == []


def test_no_instance_dict_reads_in_package():
    # reading `__dict__` makes an instance dict for every object it touches;
    # kept values are class-level defaults read as attributes instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr == "__dict__"]
    assert found == []
