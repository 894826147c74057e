"""Rules on the package source itself."""

from __future__ import annotations

import ast
import functools
import importlib
import importlib.util
import sys
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


def test_every_bench_hook_names_a_package_function(monkeypatch):
    # perfbench/tracing.py wraps the functions its SPANNED and COUNTED
    # entries name; a removal that deletes one breaks the bench's install
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)

    def resolve(module, attr):
        return functools.reduce(getattr, attr.split("."), importlib.import_module(module))

    hooks = [(module, attr) for module, attr, *_ in tracing.SPANNED + tracing.COUNTED]
    tracer = tracing.Tracer()
    try:  # a failed install still undoes the patches it made
        tracer.install()
        wrapped = {hook: resolve(*hook) for hook in hooks}
    finally:
        tracer.uninstall()
    originals = {hook: resolve(*hook) for hook in hooks}
    unwrapped = [".".join(h) for h in hooks if wrapped[h] is originals[h]]
    assert not unwrapped, f"bench hooks install left unwrapped: {unwrapped}"
