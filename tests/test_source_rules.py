"""Rules on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import storysim

SOURCES = sorted(Path(storysim.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check may live in one
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES
    assert not found, f"assert statements in package source: {found}"
