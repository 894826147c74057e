"""Rules on the package source itself."""

from __future__ import annotations

import ast
import functools
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import storysim
from storysim import pipeline
from storysim.default_registry import build_default_registry
from storysim.errors import StorysimError
from storysim.procgen import GenConfig

SOURCES = sorted(Path(storysim.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check may live in one
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES
    assert not found, f"assert statements in package source: {found}"


def test_every_exception_is_a_storysim_error_from_errors_py():
    # errors.py states every failure the package raises for callers to
    # handle, and StorysimError catches them all
    found = [f"{module.__name__}.{name}"
             for path in SOURCES
             for module in [importlib.import_module(
                 "storysim" if path.stem == "__init__" else f"storysim.{path.stem}")]
             for name, obj in vars(module).items()
             if isinstance(obj, type) and issubclass(obj, BaseException)
             and obj.__module__ == module.__name__
             and (path.name != "errors.py" or not issubclass(obj, StorysimError))]
    assert not found, f"exceptions outside errors.py or StorysimError: {found}"


def test_every_storysim_error_is_exported():
    # a caller catches what the package raises by its public name
    from storysim import errors
    declared = {name for name, obj in vars(errors).items()
                if isinstance(obj, type) and issubclass(obj, StorysimError)}
    assert "DocumentError" in declared
    assert not declared - set(storysim.__all__)
    for name in declared:
        assert getattr(storysim, name) is getattr(errors, name)


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


def test_labels_are_written_by_probes_and_checked_with_jsonl_document():
    # probes.py writes labels.jsonl lines from its own token table, and
    # verify encodes the oracle's rows with jsonl_document, so a replayed
    # row compares the two encoders as well as the two labellers
    package = Path(storysim.__file__).parent
    found = [f"probes.py:{node.lineno}"
             for node in ast.walk(ast.parse((package / "probes.py").read_text("utf-8")))
             if "jsonl_document" in (getattr(node, "id", None),
                                     getattr(node, "attr", None),
                                     getattr(node, "name", None))]
    assert not found, f"probes.py names jsonl_document: {found}"
    [verify_def] = [node for node in ast.parse(
        (package / "pipeline.py").read_text("utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name == "verify"]
    encoded = [node for node in ast.walk(verify_def)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "jsonl_document"
               and any(isinstance(inner, ast.Call)
                       and getattr(inner.func, "id", None) == "oracle_rows"
                       for arg in node.args for inner in ast.walk(arg))]
    assert encoded, "verify does not encode the oracle's rows with jsonl_document"


def test_no_module_imports_a_private_name_of_another():
    # a leading underscore keeps a name private to its module
    found = [f"{path.name}:{node.lineno} {alias.name}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").split(".")[0] == "storysim")
             for alias in node.names if alias.name.startswith("_")]
    assert not found, f"private names imported across modules: {found}"


def test_only_simulation_names_the_camera_settle_frames():
    # simulation.story_frames states the frames simulate writes; a module
    # that adds the settling frames itself can drift from it
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "simulation.py"
             for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if "CAMERA_SETTLE_FRAMES" in (getattr(node, "id", None),
                                           getattr(node, "attr", None),
                                           getattr(node, "name", None))]
    assert not found, f"CAMERA_SETTLE_FRAMES named outside simulation.py: {found}"


def test_only_binio_imports_struct():
    # every binary layout lives in binio.py
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "binio.py"
             for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.Import) and any(
                 a.name.split(".")[0] == "struct" for a in node.names)
             or isinstance(node, ast.ImportFrom) and not node.level
             and (node.module or "").split(".")[0] == "struct"]
    assert not found, f"struct imported outside binio.py: {found}"


def test_only_binio_reads_the_run_layout():
    # binio.Runs lays out and stores both binaries' runs; every other
    # module builds them through Runs and reads them through at()
    found = [f"{path.name}:{node.lineno} .{node.attr}"
             for path in SOURCES if path.name != "binio.py"
             for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "cells"]
    assert not found, f"run layout read outside binio.py: {found}"


def test_binio_imports_none_of_its_readers():
    # the codecs sit below the modules that collect, check and label what
    # they store, so none of those can shape a file's layout
    path = Path(storysim.__file__).parent / "binio.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.Import):
            found.update(part for a in node.names if a.name.startswith("storysim")
                         for part in a.name.split("."))
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("storysim")):
            found.update((node.module or "").split("."), (a.name for a in node.names))
    found &= {"collectors", "pipeline", "probes"}
    assert not found, f"binio.py imports {sorted(found)}"


def test_every_export_resolves_once():
    # a name left in __all__ after its function is removed breaks
    # `from storysim import *`
    missing = [name for name in storysim.__all__ if not hasattr(storysim, name)]
    assert not missing, f"__all__ names no package attribute: {missing}"
    repeated = sorted({n for n in storysim.__all__ if storysim.__all__.count(n) > 1})
    assert not repeated, f"__all__ repeats {repeated}"


def _bench_module(monkeypatch, name: str):
    """perfbench/<name>.py, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_bench_workload_runs_on_the_package(monkeypatch, tmp_path):
    # perfbench/workloads.py calls the package's build, codec and check
    # functions; a change that breaks one of those calls breaks the bench
    tracing = _bench_module(monkeypatch, "tracing")
    workloads = _bench_module(monkeypatch, "workloads")
    registry = build_default_registry()
    for name, workload in workloads.WORKLOADS.items():
        batch = workloads.run_batch(workload, registry, 7, 2, tmp_path / name,
                                    tracing.Tracer())
        assert not batch.check_failures, (name, batch.check_failures)
        assert batch.records > 0, name


def test_every_bench_hook_names_a_package_function(monkeypatch):
    # perfbench/tracing.py wraps the functions its SPANNED and COUNTED
    # entries name; a removal that deletes one breaks the bench's install
    tracing = _bench_module(monkeypatch, "tracing")

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


def test_bench_hooks_count_what_they_name(monkeypatch, tmp_path):
    # the probes counters read each label_clip row, and visible_mask runs
    # once per story; a labeller that bypasses either misreports the bench
    tracing = _bench_module(monkeypatch, "tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        manifest = pipeline.generate_corpus(
            tmp_path, pipeline.CorpusConfig(gen=GenConfig(master_seed=7)),
            build_default_registry(), stories=2, workers=1)
    finally:
        tracer.uninstall()
    stories = [entry["story_id"] for entry in manifest["stories"]]
    assert stories == ["story_00000", "story_00001"]
    assert all("error" not in entry for entry in manifest["stories"])
    clips = sum(len((tmp_path / s / "probes/clips.jsonl").read_bytes().splitlines())
                for s in stories)
    pairs = sum(len(json.loads(line)["pairs"])
                for s in stories
                for line in (tmp_path / s / "probes/labels.jsonl").read_bytes().splitlines())
    assert clips and pairs
    assert tracer.counts["probes.clips"] == clips
    assert tracer.counts["probes.pairs"] == pairs
    assert [span.story for span in tracer.spans
            if span.name == "simulation.visible_mask"] == stories
