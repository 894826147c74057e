"""The benchmark's workloads: the inputs each builds from a seed, the
storysim calls it times, and the checks on what those calls wrote.

Every workload is a closed loop with one client: batches of
`BATCH_STORIES` stories run back to back, each batch on its own master
seed, until the run's time is spent.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from storysim import binio, collectors, pipeline
from storysim.errors import StorysimError
from storysim.procgen import GenConfig

BATCH_STORIES = 8

# Dense multi-actor scenes: every story has six actors and relations on
# every eligible pair, so simulation and relations dominate.
DENSE = dict(actors_min_max=(6, 6), max_actors_per_region=6, regions_to_visit=3,
             relation_prob=1.0, interaction_prob=0.6, exchange_prob=0.3)

# Artifact kinds a corpus holds: per story, then per corpus root.
ARTIFACTS = ("graph.json", "timeline.json", "framelog.bin", "relations.bin",
             "events.jsonl", "text.txt", "probes/clips.jsonl", "probes/labels.jsonl",
             "registry.json", "manifest.json", "stats.json")


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: str  # workloads with the same inputs must write the same bytes
    gen: dict
    workers: int
    stages: tuple[str, ...]


WORKLOADS = {
    w.name: w for w in (
        Workload("corpus", "corpus", {}, 1, ("generate", "verify", "stats")),
        Workload("corpus-parallel", "corpus", {}, 2, ("generate",)),
        Workload("scenes", "scenes", DENSE, 1, ("scenes",)),
    )
}


@dataclass
class Batch:
    master_seed: int
    stories: int
    stage_s: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    records: int = 0  # spatial relation records written
    bytes: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)  # stories storysim failed
    check_failures: list[str] = field(default_factory=list)

    @property
    def path_s(self) -> float:
        return sum(self.stage_s.values())

    @property
    def ok_stories(self) -> int:
        """A batch that fails a check counts all its stories as failed."""
        return 0 if self.check_failures else self.stories - len(self.errors)


def master_seed(seed: int, batch: int) -> int:
    """Batch 0 uses the run's seed itself; later batches step away from it."""
    return seed + 1_000_003 * batch


def corpus_config(workload: Workload, seed: int) -> pipeline.CorpusConfig:
    return pipeline.CorpusConfig(gen=GenConfig(master_seed=seed, **workload.gen))


def run_batch(workload: Workload, registry, seed: int, stories: int, out: Path,
              tracer) -> Batch:
    """Run one batch into `out`, check it, record its digest and sizes,
    and delete it."""
    batch = Batch(seed, stories)
    tracer.batch = f"{seed}/"
    try:
        if workload.stages == ("scenes",):
            _scenes(workload, registry, batch, out, tracer)
        else:
            _corpus(workload, registry, batch, out)
        with tracer.paused():
            batch.digest = pipeline.corpus_digest(out)
            _check_records(batch, out)
        for path in out.rglob("*"):
            if path.is_file():
                parts = path.relative_to(out).parts
                kind = "/".join(parts[1:] if parts[0].startswith("story_") else parts)
                batch.bytes[kind] = batch.bytes.get(kind, 0) + path.stat().st_size
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return batch


def _corpus(workload: Workload, registry, batch: Batch, out: Path):
    cfg = corpus_config(workload, batch.master_seed)
    t0 = time.perf_counter()
    manifest = pipeline.generate_corpus(out, cfg, registry, batch.stories,
                                        workers=workload.workers)
    batch.stage_s["generate"] = time.perf_counter() - t0
    batch.errors += [f"{e['story_id']}: {e['error']}" for e in manifest["stories"]
                     if "error" in e]
    if "verify" in workload.stages:
        t0 = time.perf_counter()
        report = pipeline.verify(out)
        batch.stage_s["verify"] = time.perf_counter() - t0
        batch.check_failures += [f"verify {c['name']}: {c['details']}"
                                 for c in report["checks"] if not c["ok"]]
    if "stats" in workload.stages:
        t0 = time.perf_counter()
        stats = pipeline.compute_stats(out)
        batch.stage_s["stats"] = time.perf_counter() - t0
        if stats != json.loads((out / "stats.json").read_text("utf-8")):
            batch.check_failures.append("stats rescan differs from stats.json")


def _scenes(workload: Workload, registry, batch: Batch, out: Path, tracer):
    """The AC10 path per story: build, relations, binary writes.  No probe
    labelling, text or hashing."""
    cfg = corpus_config(workload, batch.master_seed)
    elapsed = 0.0
    for index in range(batch.stories):
        story_dir = out / f"story_{index:05d}"
        tracer.story = tracer.batch + story_dir.name
        t0 = time.perf_counter()
        try:
            _, _, log = pipeline.build_story(cfg, registry, index)
        except StorysimError as exc:
            elapsed += time.perf_counter() - t0
            batch.errors.append(f"{story_dir.name}: {type(exc).__name__}: {exc}")
            continue
        story_dir.mkdir(parents=True)
        relations = collectors.collect_story_relations(log)
        binio.write_relations(story_dir / "relations.bin", relations, log.fps,
                              log.entity_ids, log.entity_kinds, log.entity_names)
        binio.write_framelog(story_dir / "framelog.bin", log)
        elapsed += time.perf_counter() - t0
    tracer.story = None
    batch.stage_s["scenes"] = elapsed


def _check_records(batch: Batch, out: Path):
    """Every story that did not fail wrote frames x E(E-1) relation records
    for the E entities in its frame log."""
    written = sorted(out.glob("story_*/relations.bin"))
    if len(written) != batch.stories - len(batch.errors):
        batch.check_failures.append(f"{len(written)} relations.bin files for "
                                    f"{batch.stories - len(batch.errors)} stories")
    for path in written:
        _, (ids, _, _), records = binio.read_relations(path)
        log = binio.read_framelog(path.with_name("framelog.bin"))
        expect = log.frame_count * log.entity_count * (log.entity_count - 1)
        if len(records) != expect or ids != log.entity_ids:
            batch.check_failures.append(f"{path.parent.name}: {len(records)} relation "
                                        f"records, expected {expect}")
        batch.records += len(records)
