"""storysim corpus benchmark.

    python3 perfbench/run.py --workload corpus --seed 7 --seconds 30 --trace 0

Runs one workload (see workloads.py) as a closed loop with one client for
`--seconds`, checks everything it wrote, and prints the metrics by name
with their units; the last line of stdout is one JSON object.  With
`--trace 0` these are the end-to-end metrics, measured untraced.  With
`--trace 1` the same loop runs with spans around every layer (see
tracing.py) and the metrics are per layer, normalised per story.

Everything the run writes goes under `.perfbench/` at the checkout root:
each batch's corpus (deleted after the batch), `results/` with one JSON
file per (workload, seed, trace) holding environment, inputs, digests and
per-stage rates, the traced run's spans, and `digests.json`, which maps
(source hash, inputs, master seed, story count) to the corpus digest so
that a later run of the same code on the same inputs must reproduce it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 7

# Set-up as a user pays it: interpreter-level import of the package,
# building the bundled registry, and for a parallel workload starting the
# worker pool the way generate_corpus does (each worker parses the registry).
_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from storysim.default_registry import build_default_registry
from storysim.documents import parse_registry, serialize_registry
registry = build_default_registry()
workers = int(sys.argv[2])
if workers > 1:
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers, initializer=parse_registry,
                             initargs=(serialize_registry(registry),)) as pool:
        list(pool.map(abs, range(workers)))
print(time.perf_counter() - t0)
"""


# The same kind of work as importing storysim (loading compiled modules and
# running their top level) without storysim: numpy and a fixed set of
# pure-Python standard-library packages, in a fresh interpreter.
_BASELINE_CODE = """
import time
t0 = time.perf_counter()
import numpy, json, dataclasses, hashlib, typing, asyncio, email.message, logging
import argparse, xml.dom.minidom, http.client, unittest
print(time.perf_counter() - t0)
"""

# Roughly the seconds _BASELINE_CODE takes on a 2-vCPU Xeon VM with
# Python 3.11 and numpy 2.4.  Set-up samples are rescaled to a host at
# that speed.
REFERENCE_IMPORT_S = 0.2


def _time_code(*args: str) -> float:
    proc = subprocess.run([sys.executable, "-c", *args],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.strip())


def measure_setup(workers: int) -> tuple[float, float]:
    """One set-up sample and the baseline import timed right after it."""
    return (_time_code(_SETUP_CODE, str(SRC), str(workers)), _time_code(_BASELINE_CODE))


def rescaled_setup(samples: list[tuple[float, float]]) -> float:
    """Median set-up time on a host where the baseline import takes
    REFERENCE_IMPORT_S; each sample is rescaled by its own baseline."""
    return statistics.median(s * REFERENCE_IMPORT_S / b for s, b in samples)


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "storysim").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_known_digests(registry_path: Path, key_prefix: str, batches) -> None:
    """Each batch's digest must equal the one recorded for the same source
    and inputs, earlier in this run or by an earlier run; new keys are
    recorded."""
    known = {}
    if registry_path.is_file():
        try:
            known = json.loads(registry_path.read_text("utf-8"))
        except ValueError:
            known = {}
    for b in batches:
        key = f"{key_prefix}/{b.master_seed}/{b.stories}"
        if known.setdefault(key, b.digest) != b.digest:
            b.check_failures.append(f"digest {b.digest} differs from {known[key]} "
                                    f"recorded earlier for {key}")
    tmp = registry_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), "utf-8")
    os.replace(tmp, registry_path)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# Roughly the seconds the reference kernel takes on a 2-vCPU Xeon VM with
# Python 3.11 and numpy 2.4.  Timed paths are rescaled to a host at that
# speed.
REFERENCE_KERNEL_S = 0.15
_KERNEL_VECTOR = [k / 63.0 for k in range(64)]


def reference_kernel() -> float:
    """Seconds for a fixed, single-threaded mix of interpreter work and
    small numpy operations that does not touch storysim."""
    import numpy

    vec = numpy.array(_KERNEL_VECTOR)
    t0 = time.perf_counter()
    acc, table, items = 0.0, {}, []
    for i in range(480_000):
        acc += math.sqrt(i) * 0.5
        table[i & 1023] = acc
        items.append(i % 7)
    for i in range(18_000):
        w = vec * i
        acc += float(numpy.sqrt((w * w).sum()))
    return time.perf_counter() - t0


def _kernel_task(_index: int) -> float:
    return reference_kernel()


class HostSpeed:
    """Times the reference kernel on as many CPUs at once as the workload
    keeps busy: in-process for one worker, else one kernel per worker."""

    def __init__(self, workers: int):
        self._workers = workers
        self._pool = None
        if workers > 1:
            # Forked, like generate_corpus's own pool: a spawn pool would
            # also start multiprocessing's resource tracker, a process that
            # outlives the benchmark.
            self._pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"))
            self.probe()  # start the workers before the first timed probe

    def probe(self) -> float:
        if self._pool is None:
            return reference_kernel()
        return statistics.mean(self._pool.map(_kernel_task, range(self._workers)))

    def close(self):
        if self._pool is not None:
            self._pool.shutdown()


def rescaled(seconds: list[float], kernels: list[float]) -> list[float]:
    """Each interval rescaled to a host where the reference kernel takes
    REFERENCE_KERNEL_S; kernels[i] and kernels[i + 1] bracket seconds[i]."""
    return [s * REFERENCE_KERNEL_S / ((k0 + k1) / 2)
            for s, k0, k1 in zip(seconds, kernels, kernels[1:])]


def run(workload_name: str, seed: int, seconds: float, trace: bool, work: Path,
        stories: int | None = None, setup_samples: int = SETUP_SAMPLES):
    """One benchmark run; returns the results document and the tracer."""
    import numpy
    from storysim.default_registry import build_default_registry
    from tracing import Tracer
    from workloads import (ARTIFACTS, BATCH_STORIES, WORKLOADS, corpus_config,
                           master_seed, run_batch)

    workload = WORKLOADS[workload_name]
    stories = stories or BATCH_STORIES
    # Host speed drifts by tens of percent over seconds to minutes and moves
    # every batch's wall time alike.  The reference kernel runs between
    # batches, and each batch's timed path is rescaled by the mean kernel
    # time around it; the raw times stay in the results file.  Set-up time
    # (imports, mostly file and memory work) did not follow the kernel; each
    # set-up sample is rescaled by a baseline import timed next to it.
    host = HostSpeed(workload.workers)
    tracer = Tracer()
    out = work / "corpus"
    shutil.rmtree(out, ignore_errors=True)
    batches, walls = [], []
    try:
        setup = [measure_setup(workload.workers) for _ in range(setup_samples)]
        registry = build_default_registry()

        def batch(k: int, wl=workload):
            return run_batch(wl, registry, master_seed(seed, k), stories, out, tracer)

        # Untimed first pass over batch 0: warms caches and gives the bytes
        # batch 0 must reproduce.  It always runs at one worker, so on
        # corpus-parallel it is the AC9 reference for the pooled build.
        checked = [batch(0, dataclasses.replace(
            workload, workers=1,
            stages=workload.stages if workload.stages == ("scenes",) else ("generate",)))]
        untraced_s = None
        if trace:  # batch 0 once more, untraced, for the tracing overhead
            untraced_kernel = host.probe()
            t0 = time.perf_counter()
            checked.append(batch(0))
            untraced_s = time.perf_counter() - t0
            tracer.install()
        kernels = [host.probe()]
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            batches.append(batch(len(batches)))
            walls.append(time.perf_counter() - t0)
            kernels.append(host.probe())
            spent = time.perf_counter() - start
            if spent + spent / len(batches) > seconds:
                break
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
        host.close()
        shutil.rmtree(out, ignore_errors=True)
    checked += batches
    check_known_digests(work / "digests.json",
                        f"{source_hash()}/{workload.inputs}", checked)

    path_scaled = rescaled([b.path_s for b in batches], kernels)
    attempted = sum(b.stories for b in batches)
    ok = sum(b.ok_stories for b in batches)
    records = sum(b.records for b in batches if b.ok_stories)
    path_s = sum(b.path_s for b in batches)
    sizes = {kind: sum(b.bytes.get(kind, 0) for b in batches) for kind in ARTIFACTS}
    for b in batches:
        for kind in b.bytes.keys() - sizes.keys():
            sizes[kind] = sizes.get(kind, 0) + b.bytes[kind]
    per_story = max(ok, 1)

    if trace:
        metrics = tracer.layer_metrics(attempted)
        metrics.update({f"bytes.{kind.replace('/', '.')}": (sizes[kind] / per_story, "B/story")
                        for kind in ARTIFACTS})
        metrics["memory.peak_rss_mb"] = (peak_rss_mb(), "MB")
        untraced = rescaled([untraced_s], [untraced_kernel, kernels[0]])[0]
        traced = rescaled(walls[:1], kernels)[0]
        metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
        metrics["trace.residual_pct"] = (100.0 * (wall - tracer.root_seconds()) / wall, "%")
        metrics["trace.records_per_s"] = (records / sum(path_scaled), "1/s")
    else:
        metrics = {
            "records_per_s": (records / sum(path_scaled), "1/s"),
            "bytes_per_record": (sum(sizes.values()) / max(records, 1), "B"),
            "story_ok_ratio": (ok / attempted, "ratio"),
            "setup_s": (rescaled_setup(setup), "s"),
        }

    stages = {}
    for b in batches:
        for stage, s in b.stage_s.items():
            stages[stage] = stages.get(stage, 0.0) + s
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "source_hash": source_hash(),
        },
        "inputs": {
            "stories_per_batch": stories,
            "batches": len(batches),
            "stories": attempted,
            "workers": workload.workers,
            "config": dataclasses.asdict(corpus_config(workload, seed)),
        },
        "correct": not any(b.check_failures for b in checked),
        "attempted": attempted,
        "failed": attempted - ok,
        "failures": [f for b in checked for f in b.errors + b.check_failures],
        "batches": [{"master_seed": b.master_seed, "ok_stories": b.ok_stories,
                     "records": b.records, "digest": b.digest, "stage_s": b.stage_s,
                     "wall_s": w, "path_s_rescaled": p}
                    for b, w, p in zip(batches, walls, path_scaled)],
        "stage_stories_per_s": {stage: ok / s for stage, s in stages.items() if s > 0},
        "stories_per_s": ok / path_s,
        "records_per_unscaled_s": records / path_s,
        "bytes_per_story": sum(sizes.values()) / per_story,
        "bytes_per_artifact": sizes,
        "peak_rss_mb": peak_rss_mb(),
        "setup_samples_s": [s for s, _ in setup],
        "setup_baseline_s": [b for _, b in setup],
        "reference_kernel_s": kernels,
        "wall_s": wall,
        "untraced_batch0_s": untraced_s,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["corpus", "corpus-parallel", "scenes"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "storysim" / "__init__.py").is_file():
        print(f"storysim sources not found under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK
    (work / "results").mkdir(parents=True, exist_ok=True)
    result, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    stem = work / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1), "utf-8")

    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for stage, rate in result["stage_stories_per_s"].items():
        print(f"{stage}_stories_per_s {rate:.4f} 1/s")
    print(f"stories_per_s {result['stories_per_s']:.4f} 1/s")
    print(f"records_per_unscaled_s {result['records_per_unscaled_s']:.0f} 1/s")
    print(f"bytes_per_story {result['bytes_per_story']:.0f} B")
    print(f"peak_rss_mb {result['peak_rss_mb']:.1f} MB")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
