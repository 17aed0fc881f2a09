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
