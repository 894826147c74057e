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


def test_probe_oracle_shares_no_arithmetic_with_the_labeller():
    # verify judges probes.py by probes_oracle.py, so the oracle must not
    # reach numpy or the labeller's functions
    path = Path(storysim.__file__).parent / "probes_oracle.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[0] == "numpy" or a.name == "storysim.probes"]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = {a.name for a in node.names}
            if module.split(".")[0] == "numpy":
                found.append(module)
            elif module in (".probes", "storysim.probes"):
                found += sorted(names - {"ClipSpec", "ProbeConfig"})
            elif module in (".", "storysim") and "probes" in names:
                found.append(f"{module} probes")
    assert not found, f"probes_oracle.py imports {found}"


def test_no_module_imports_a_private_name_of_another():
    # a leading underscore keeps a name private to its module
    found = [f"{path.name}:{node.lineno} {alias.name}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").split(".")[0] == "storysim")
             for alias in node.names if alias.name.startswith("_")]
    assert not found, f"private names imported across modules: {found}"


def test_every_export_resolves_once():
    # a name left in __all__ after its function is removed breaks
    # `from storysim import *`
    missing = [name for name in storysim.__all__ if not hasattr(storysim, name)]
    assert not missing, f"__all__ names no package attribute: {missing}"
    repeated = sorted({n for n in storysim.__all__ if storysim.__all__.count(n) > 1})
    assert not repeated, f"__all__ repeats {repeated}"
