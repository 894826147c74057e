"""End-to-end corpus assembly and verification.

One story directory holds graph.json, timeline.json, framelog.bin,
relations.bin, events.jsonl, text.txt and probes/{clips,labels}.jsonl.
The corpus root holds registry.json, manifest.json (per-file sha256)
and stats.json, summed from the counts the story jobs return.  Every
byte is a pure function of (master seed, config, registry); story jobs
can fan out to worker processes without changing any output.
"""

from __future__ import annotations

import hashlib
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import binio
from .allen import relation_between
from .collectors import (collect_event_mappings, collect_story_relations,
                         compute_pair_relation, COMPASS_NAMES)
from .documents import (FORMAT_VERSION, json_document, jsonl_document, jsonl_lines,
                        parse_graph, parse_manifest, parse_registry, parse_timeline,
                        serialize_graph, serialize_registry, serialize_timeline)
from .errors import CorruptCorpus, StorysimError, ValidationFailure
from .model import CapabilityRegistry, EventKind, GestGraph
from .procgen import GenConfig, generate_story, select_episode, story_rng, story_seed
from .probes import (ClipSpec, ProbeConfig, extract_story_clips, labels_document,
                     split_stories)
from .probes_oracle import oracle_rows
from .scheduling import EventTimeline, duration_frames, graph_constraints, schedule
from .simulation import (FrameLog, entity_table, ground, insert_movements, simulate,
                         story_frames, validate)
from .textgen import RefineConfig, proto_text, refine

# verify's sample sizes: spatial records recomputed (AC6) and clip label
# rows replayed by the oracle (AC7), each spread over the stories
SPATIAL_SAMPLES = 10_000
LABEL_SAMPLES = 1_000


@dataclass(frozen=True)
class CorpusConfig:
    gen: GenConfig = field(default_factory=GenConfig)
    fps: int = 25
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    refine: RefineConfig = field(default_factory=RefineConfig)

    def __post_init__(self):
        problem = ProbeConfig.fps_problem(self.fps)
        if problem:
            raise ValueError(problem)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def story_category(cfg: GenConfig, registry: CapabilityRegistry,
                   story_index: int) -> str:
    """Episode category of a story, replaying only the first draw."""
    return select_episode(registry, story_rng(cfg.master_seed, story_index)).category


def build_story(cfg: CorpusConfig, registry: CapabilityRegistry, story_index: int):
    """Run the per-story pipeline in memory.

    Returns (graph with movements inserted, timeline, frame log).
    """
    return simulate_graph(cfg, registry, generate_story(cfg.gen, registry, story_index))


def simulate_graph(cfg: CorpusConfig, registry: CapabilityRegistry, graph: GestGraph):
    """Validate, ground, insert movements, schedule and simulate one story
    graph; raises ValidationFailure listing the graph's issues."""
    issues = validate(graph, registry)
    if issues:
        raise ValidationFailure(issues)
    world = ground(graph, registry, story_rng(graph.seed, "ground"), fps=cfg.fps)
    graph = insert_movements(graph, world, registry)
    timeline = schedule(graph, cfg.fps)
    log = simulate(world, graph, timeline)
    return graph, timeline, log


def simulated_files(graph: GestGraph, timeline: EventTimeline,
                    log: FrameLog) -> tuple[dict[str, bytes | memoryview], binio.Runs]:
    """timeline.json, framelog.bin, relations.bin and events.jsonl of one
    simulated story, by path, and its spatial records.
    events.jsonl holds one event-to-frame mapping per graph event."""
    records = collect_story_relations(log)
    return {
        "timeline.json": serialize_timeline(timeline),
        "framelog.bin": binio.framelog_bytes(log),
        "relations.bin": binio.relations_bytes(records, log.fps, log.entity_ids,
                                               log.entity_kinds, log.entity_names),
        "events.jsonl": jsonl_document(collect_event_mappings(timeline, graph)),
    }, records


def _movement_actions(registry: CapabilityRegistry) -> set[str]:
    return {k for k, a in registry.actions.items() if a.is_movement_only}


def _unmatched_events(graph: GestGraph, timeline: EventTimeline) -> tuple[list, list]:
    """The ids of the graph events that the timeline lacks, and of the
    timeline events that the graph lacks."""
    known = graph.event_index()
    return ([ev.event_id for ev in graph.events if ev.event_id not in timeline.intervals],
            [eid for eid in timeline.intervals if eid not in known])


def _misfit_log(story_id: str, graph: GestGraph, timeline: EventTimeline, table,
                frames: int) -> str | None:
    """Why a frame log of entity `table` and `frames` frames is not the
    entity_table of the story's graph and the story_frames of its
    timeline, which simulate writes, or None when it is.  Its probe clips
    cannot be labelled otherwise."""
    if table != entity_table(graph):
        return f"{story_id}/framelog.bin entity table differs from graph.json's"
    if frames != story_frames(timeline):
        return (f"{story_id}/timeline.json spans {story_frames(timeline)} frames, "
                f"framelog.bin holds {frames}")
    return None


def probe_docs(story_id: str, graph: GestGraph, timeline: EventTimeline, log: FrameLog,
               registry: CapabilityRegistry, probe: ProbeConfig,
               split: str) -> dict[str, bytes]:
    """probes/clips.jsonl and probes/labels.jsonl of one story, by path.
    A timeline whose events are not the graph's (_unmatched_events), or a
    frame log that is not the one simulate writes for the graph and
    timeline (_misfit_log), raises CorruptCorpus."""
    lacked, unknown = _unmatched_events(graph, timeline)
    if lacked:
        raise CorruptCorpus(f"{story_id}/timeline.json lacks event {lacked[0]}")
    if unknown:
        raise CorruptCorpus(f"{story_id}/timeline.json holds event {unknown[0]}, "
                            f"which graph.json lacks")
    misfit = _misfit_log(story_id, graph, timeline,
                         (log.entity_ids, log.entity_kinds, log.entity_names),
                         log.frame_count)
    if misfit:
        raise CorruptCorpus(misfit)
    clips = extract_story_clips(story_id, graph, timeline, _movement_actions(registry),
                                probe, split)
    return {"probes/clips.jsonl": _clips_document(clips),
            "probes/labels.jsonl": labels_document(clips, log, timeline, probe)}


def _clips_document(clips: list[ClipSpec]) -> bytes:
    """The bytes of a story's probes/clips.jsonl.  A clip's row is its
    fields (vars), which encode as dataclasses.asdict's copy does."""
    return jsonl_document(map(vars, clips))


def _text_file(text: str) -> bytes:
    return (text + "\n").encode("utf-8")


def write_files(root: Path, files: dict) -> dict[str, str]:
    """Write each of `files` (rel path -> bytes) under root; returns the
    sha256 of each, by sorted path."""
    hashes = {}
    for rel_path, data in sorted(files.items()):
        path = root / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        hashes[rel_path] = _sha256(data)
    return hashes


class StoryCounts(NamedTuple):
    """What stats.json totals of one built story."""
    actors: int
    events: int  # not counting movements
    relations: int  # temporal relations
    mappings: int  # events.jsonl rows
    records: int  # spatial records
    frames: int


def story_counts(graph: GestGraph, events_doc: bytes, records: binio.Runs) -> StoryCounts:
    events = sum(1 for e in graph.events if e.kind is not EventKind.MOVEMENT)
    return StoryCounts(len(graph.actors), events, len(graph.relations),
                       events_doc.count(b"\n"), len(records), records.frames)


def story_artifacts(cfg: CorpusConfig, registry: CapabilityRegistry, story_index: int,
                    split: str) -> tuple[dict, dict, StoryCounts | None]:
    """One story built in memory: its manifest entry without "files", its
    files (rel path -> bytes) and its counts; no files or counts if it fails."""
    story_id = f"story_{story_index:05d}"
    entry = {
        "story_id": story_id,
        "index": story_index,
        "seed": story_seed(cfg.gen.master_seed, story_index),
        "category": story_category(cfg.gen, registry, story_index),
        "split": split,
    }
    try:
        graph, timeline, log = build_story(cfg, registry, story_index)
    except StorysimError as exc:
        entry["error"] = f"{type(exc).__name__}: {exc}"
        return entry, {}, None

    files, records = simulated_files(graph, timeline, log)
    files["graph.json"] = serialize_graph(graph)
    proto = proto_text(graph, timeline, registry)
    files["text.txt"] = _text_file(proto.full_text)
    if cfg.refine.endpoint_url:
        text, refined = refine(proto, cfg.refine)
        files["text.refined.txt"] = _text_file(text)
        entry["refine"] = "ok" if refined else "fell_back"

    files.update(probe_docs(story_id, graph, timeline, log, registry, cfg.probe, split))
    return entry, files, story_counts(graph, files["events.jsonl"], records)


def assemble_story(cfg: CorpusConfig, registry: CapabilityRegistry,
                   story_index: int, story_dir: Path,
                   split: str) -> tuple[dict, StoryCounts | None]:
    """story_artifacts, its files written under story_dir and hashed in its entry."""
    entry, files, counts = story_artifacts(cfg, registry, story_index, split)
    entry["files"] = write_files(story_dir, files)
    return entry, counts


_WORKER: dict = {}


def _init_worker(cfg: CorpusConfig, registry_json: bytes):
    _WORKER["cfg"] = cfg
    _WORKER["registry"] = parse_registry(registry_json)


def _worker_job(job):
    return assemble_story(_WORKER["cfg"], _WORKER["registry"], *job)


def generate_corpus(out_root: Path | str, cfg: CorpusConfig,
                    registry: CapabilityRegistry, stories: int,
                    workers: int = 1) -> dict:
    """Build a corpus of `stories` stories under out_root; returns the
    manifest.  Output bytes do not depend on `workers`.  out_root must be
    absent or empty: FileExistsError otherwise, before anything is
    written, so no file of an earlier build outlives it.  A registry
    that registry.json's reader refuses raises that reader's error, and a
    negative story count ValueError, before anything is written too.

    Nothing is read back: each story job builds its files in memory, then
    writes and hashes them.  Only after every story are registry.json,
    manifest.json (those hashes) and stats.json written; stats.json sums
    the jobs' counts as compute_stats' rescan does, byte for byte."""
    if stories < 0:
        raise ValueError(f"story count {stories} is negative")
    registry_json = serialize_registry(registry)
    parse_registry(registry_json)
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    if any(out_root.iterdir()):
        raise FileExistsError(f"{out_root} is not empty")

    categories = [story_category(cfg.gen, registry, i) for i in range(stories)]
    ids = [f"story_{i:05d}" for i in range(stories)]
    splits = split_stories(zip(ids, categories), cfg.gen.master_seed)

    jobs = [(i, out_root / ids[i], splits[ids[i]]) for i in range(stories)]
    if workers <= 1:
        built = [assemble_story(cfg, registry, *job) for job in jobs]
    else:
        with ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker,
                initargs=(cfg, registry_json)) as pool:
            built = list(pool.map(_worker_job, jobs))

    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "corpus-manifest",
        "master_seed": cfg.gen.master_seed,
        "story_count": stories,
        "registry_hash": _sha256(registry_json),
        "config": asdict(cfg),
        "stories": [entry for entry, _ in built],
    }
    stats = corpus_stats(registry, cfg.fps, [c for _, c in built if c is not None])
    write_files(out_root, {"registry.json": registry_json,
                           "manifest.json": json_document(manifest),
                           "stats.json": json_document(stats)})
    return manifest


def story_entries(manifest: dict):
    """The manifest entries of the stories that were built."""
    for entry in manifest["stories"]:
        if "error" not in entry:
            yield entry


class HashedFiles:
    """Files under `root`, each read at most once: to check it against
    `hashes` (rel path -> sha256 in the manifest) or to parse it.

    A failure names its file once, by `prefix` and the rel path: its path
    inside the corpus, so a report does not depend on where the corpus
    lies.  `failures` lists each hashed file that is missing, unreadable
    or mismatched."""

    def __init__(self, root: Path, prefix: str, hashes: dict[str, str]):
        self.root, self.prefix = root, prefix
        self._data: dict[str, bytes | OSError] = {}
        self.failures: list[str] = []
        for rel_path, want in hashes.items():
            data = self.load(rel_path, bytes, self.failures)
            if data is not None and _sha256(data) != want:
                self.failures.append(f"{prefix}{rel_path} hash mismatch")

    def load(self, rel_path: str, parse, *needed_by: list[str]):
        """parse(bytes) of one file, or None once each list in `needed_by`
        is told that the file is missing, unreadable or does not parse."""
        if rel_path not in self._data:
            try:
                self._data[rel_path] = (self.root / rel_path).read_bytes()
            except OSError as exc:
                self._data[rel_path] = exc
        data = self._data[rel_path]
        if isinstance(data, FileNotFoundError):
            problem = "missing"
        elif isinstance(data, OSError):  # its str() would name the absolute path
            problem = f"cannot be loaded: {data.strerror}"
        else:
            try:
                return parse(data)
            except (ValueError, StorysimError) as exc:
                problem = f"cannot be loaded: {exc}"
        for found in needed_by:
            found.append(f"{self.prefix}{rel_path} {problem}")
        return None

    def require(self, rel_path: str, parse):
        """parse(bytes) of one file; raises CorruptCorpus naming the first
        failure so far, this file's included."""
        value = self.load(rel_path, parse, self.failures)
        if self.failures:
            raise CorruptCorpus(self.failures[0])
        return value


def load_manifest(corpus_dir: Path | str) -> dict:
    """The parsed manifest.json; CorruptCorpus names it by its corpus path."""
    return HashedFiles(Path(corpus_dir), "", {}).require("manifest.json", parse_manifest)


def corpus_stats(registry: CapabilityRegistry, fps: int,
                 stories: list[StoryCounts]) -> dict:
    """The stats.json document of the built stories' counts, in story
    order."""
    def _dist(values):
        if not values:
            return {"min": 0, "max": 0, "mean": 0.0}
        return {"min": min(values), "max": max(values),
                "mean": sum(values) / len(values)}

    actor_counts = [c.actors for c in stories]
    event_counts = [c.events for c in stories]
    return {
        "stories": len(stories),
        "total_duration_h": sum(c.frames for c in stories) / fps / 3600.0,
        "total_events": sum(event_counts),
        "temporal_relation_count": sum(c.relations for c in stories),
        "unique_action_types": len(registry.actions),
        "object_types": len(registry.object_types),
        "episodes": len(registry.episodes),
        "categories": len(registry.categories()),
        "actors_per_story": _dist(actor_counts),
        "events_per_story": _dist(event_counts),
        "spatial_relation_count": sum(c.records for c in stories),
        "event_frame_mapping_count": sum(c.mappings for c in stories),
    }


def compute_stats(corpus_dir: Path | str) -> dict:
    """Corpus statistics by full rescan of the artifact files: the check
    of the stats.json that generate_corpus sums from its story jobs.

    Hashes are re-verified along the way; a missing, unreadable or
    mismatching file raises CorruptCorpus naming it.
    """
    corpus_dir = Path(corpus_dir)
    manifest = load_manifest(corpus_dir)
    root = HashedFiles(corpus_dir, "", {"registry.json": manifest["registry_hash"]})
    registry = root.require("registry.json", parse_registry)

    counts: list[StoryCounts] = []
    for entry in story_entries(manifest):
        story_id = entry["story_id"]
        story = HashedFiles(corpus_dir / story_id, f"{story_id}/", entry["files"])
        graph = story.require("graph.json", parse_graph)
        events_doc = story.require("events.jsonl", bytes)
        relation_file = story.require("relations.bin", binio.parse_relations)
        framelog_file = story.require("framelog.bin", binio.parse_framelog)
        disagreement = _binaries_disagree(story_id, framelog_file, relation_file)
        if disagreement:
            raise CorruptCorpus(disagreement)
        counts.append(story_counts(graph, events_doc, relation_file[2]))
    return corpus_stats(registry, manifest["config"]["fps"], counts)


def corpus_digest(corpus_dir: Path | str) -> str:
    """Order-independent content hash of every file in the corpus."""
    corpus_dir = Path(corpus_dir)
    h = hashlib.sha256()
    for path in sorted(p for p in corpus_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(corpus_dir).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _check_timeline(story_id: str, graph: GestGraph, timeline: EventTimeline,
                    fps: int, durations: list[str], relations: list[str],
                    *derived: list[str]) -> bool:
    """Failures of the timeline-durations and temporal-relations checks;
    each graph constraint is tested as schedule tests its own output.
    True when the timeline passes both.  A graph event the timeline lacks
    also fails each check in `derived`, which cannot place that event; a
    timeline event the graph lacks fails timeline-durations."""
    before = len(durations) + len(relations)
    if timeline.fps != fps:
        durations.append(f"{story_id}: fps {timeline.fps} != {fps}")
    lacked, unknown = _unmatched_events(graph, timeline)
    if lacked:
        for found in (durations, relations, *derived):
            found.extend(f"{story_id}: event {eid} not in the timeline" for eid in lacked)
        return False
    durations.extend(f"{story_id}: timeline event {eid} not in the graph"
                     for eid in unknown)
    for ev in graph.events:
        s, e = timeline.interval(ev.event_id)
        if e - s != duration_frames(ev.duration_s, fps):
            durations.append(
                f"{story_id} event {ev.event_id}: span {e - s} "
                f"!= {duration_frames(ev.duration_s, fps)}")
    for a, b, rs in graph_constraints(graph):
        base = relation_between(*timeline.interval(a), *timeline.interval(b))
        if base not in rs:
            relations.append(f"{story_id}: relation {a}->{b} realized {base.value} "
                             f"outside {{{rs.codes()}}}")
    return len(durations) + len(relations) == before


def _check_text(story_id: str, graph: GestGraph, timeline: EventTimeline,
                registry: CapabilityRegistry, text_doc: bytes, failures: list[str]):
    """text.txt must be the proto text of a graph the registry validates."""
    issues = validate(graph, registry)
    if issues:
        failures.append(f"{story_id}/graph.json does not validate against the "
                        f"registry: {issues[0]['message']}")
    elif text_doc != _text_file(proto_text(graph, timeline, registry).full_text):
        failures.append(f"{story_id}/text.txt differs from the proto text of the graph "
                        f"and timeline")


def _binaries_disagree(story_id: str, framelog_file, relation_file) -> str | None:
    """Why the (fps, table, runs) that parse_framelog and parse_relations
    return of a story's binaries do not hold the same fps, entity table
    and frame count, or None when they do; then relations.bin holds E(E-1)
    records for each frame of the log.  A story whose binaries disagree
    cannot be counted, by verify or stats."""
    (fps, table, poses), (rel_fps, rel_table, records) = framelog_file, relation_file
    if rel_fps != fps:
        return f"{story_id}/relations.bin fps {rel_fps} != framelog.bin's {fps}"
    if rel_table != table:
        return f"{story_id}/relations.bin entity table differs from framelog.bin's"
    if records.frames != poses.frames:
        return (f"{story_id}/relations.bin holds {records.frames} frames, "
                f"framelog.bin {poses.frames}")
    return None


def _check_spatial(story_id: str, framelog_file, relation_file, fps: int,
                   rng: random.Random, samples: int, failures: list[str],
                   stats: list[str]) -> bool:
    """Recompute `samples` records of parse_relations' `relation_file`,
    drawn by `rng`, with the scalar route from the poses of
    parse_framelog's `framelog_file`: record p is frame p // E(E-1) and
    ordered pair p % E(E-1).  The binaries must agree (_binaries_disagree)
    and hold the manifest's `fps`.  False when they disagree, which also
    fails `stats`: the story cannot be counted."""
    disagreement = _binaries_disagree(story_id, framelog_file, relation_file)
    if disagreement:
        failures.append(disagreement)
        stats.append(disagreement)
        return False
    log_fps, (table_ids, _, _), poses = framelog_file
    if log_fps != fps:
        failures.append(f"{story_id}: binaries hold fps {log_fps}, manifest {fps}")
    records, ids = relation_file[2], sorted(table_ids)
    pairs = len(ids) * (len(ids) - 1)
    if not records:
        failures.append(f"{story_id}: no relation records")
        return True
    cells = len(records)
    picks = [rng.randrange(cells) for _ in range(samples)]
    frame, pair = np.divmod(picks, pairs)
    values = (plane.tolist() for plane in records.at(frame, pair))
    i, j = np.divmod(pair, len(ids) - 1)
    j += j >= i
    # the x, y, z and yaw of each pick's a, then of each pick's b; sorted
    # id k is the table's column[k]
    column = np.argsort(table_ids)
    at = np.concatenate((frame, frame)), column[np.concatenate((i, j))]
    pose_rows = np.column_stack(poses.at(*at)).tolist()
    keys = zip(frame.tolist(), np.take(ids, i).tolist(), np.take(ids, j).tolist())
    for (f, a, b), pose_a, pose_b, distance, azimuth, elevation, compass in zip(
            keys, pose_rows, pose_rows[samples:], *values):
        pr = compute_pair_relation((pose_a[:3], pose_a[3]), (pose_b[:3], pose_b[3]))
        if (abs(pr.distance_m - distance) > 1e-5
                or abs(pr.azimuth_deg - azimuth) > 1e-5
                or abs(pr.elevation_deg - elevation) > 1e-5
                or COMPASS_NAMES.index(pr.compass) != compass
                or (distance == 0.0) != pr.coincident):
            failures.append(f"{story_id} frame {f} pair ({a},{b}) record mismatch")
    return True


def verify(corpus_dir: Path | str) -> dict:
    """Replay every oracle against the stored artifacts.

    Each story's files are loaded once.  A file that is missing or does
    not load fails every check that needs it, naming the file once by its
    path inside the corpus; the story's other checks still run.  From the
    graph and a timeline that passes its checks, the probe clips,
    events.jsonl, text.txt and the frame log's shape (_misfit_log) must be
    the ones the generator derives, and the sampled labels must match the
    oracle.  stats.json must be the stats of every built story's files; a
    story that cannot be counted fails that check.

    Returns {"ok": bool, "checks": [{"name", "ok", "details"}]}.
    """
    corpus_dir = Path(corpus_dir)
    try:
        manifest = load_manifest(corpus_dir)
    except CorruptCorpus as exc:
        return {"ok": False, "checks": [{"name": "manifest", "ok": False,
                                         "details": str(exc)}]}
    fps = manifest["config"]["fps"]
    cfg_probe = ProbeConfig(**manifest["config"]["probe"])
    entries = list(story_entries(manifest))

    names = ("manifest-hashes", "timeline-durations", "temporal-relations",
             "spatial-records", "probe-labels", "event-mappings", "proto-text",
             "corpus-stats")
    failures: dict[str, list[str]] = {name: [] for name in names}
    hashes, durations, relations, spatial, labels, mappings, texts, stats = (
        failures.values())

    root = HashedFiles(corpus_dir, "", {"registry.json": manifest["registry_hash"]})
    hashes.extend(root.failures)
    registry = root.load("registry.json", parse_registry, labels, texts, stats)
    stats_doc = root.load("stats.json", bytes, stats)  # no manifest hash covers it
    counts: list[StoryCounts] = []
    derived = (labels, mappings, texts)  # the checks that derive from the timeline

    rng = random.Random(0xC0FFEE)
    spatial_per_story = max(1, SPATIAL_SAMPLES // max(len(entries), 1))
    label_per_story = max(1, -(-LABEL_SAMPLES // max(len(entries), 1)))
    sampled = 0
    for entry in entries:
        story_id = entry["story_id"]
        story = HashedFiles(corpus_dir / story_id, f"{story_id}/", entry["files"])
        hashes.extend(story.failures)
        graph = story.load("graph.json", parse_graph, durations, relations, *derived,
                           stats)
        timeline = story.load("timeline.json", parse_timeline, durations, relations,
                              *derived)
        events_doc = story.load("events.jsonl", bytes, mappings, stats)
        text_doc = story.load("text.txt", bytes, texts)
        clips_doc = story.load("probes/clips.jsonl", bytes, labels)
        label_lines = story.load("probes/labels.jsonl", jsonl_lines, labels)
        clips = None  # derived only from a timeline that passes its checks
        timed = graph is not None and timeline is not None and _check_timeline(
            story_id, graph, timeline, fps, durations, relations, *derived)
        if timed:
            if events_doc is not None and events_doc != jsonl_document(
                    collect_event_mappings(timeline, graph)):
                mappings.append(f"{story_id}/events.jsonl differs from the mappings of "
                                f"the graph and timeline")
            if registry is not None:
                if text_doc is not None:
                    _check_text(story_id, graph, timeline, registry, text_doc, texts)
                clips = extract_story_clips(story_id, graph, timeline,
                                            _movement_actions(registry), cfg_probe,
                                            entry["split"])
        framelog_file = story.load("framelog.bin", binio.parse_framelog, spatial, stats,
                                   *((labels,) if timed else ()))
        relation_file = story.load("relations.bin", binio.parse_relations, spatial,
                                   stats)

        countable = (framelog_file is not None and relation_file is not None
                     and _check_spatial(story_id, framelog_file, relation_file, fps, rng,
                                        spatial_per_story, spatial, stats))
        if countable and graph is not None and events_doc is not None:
            counts.append(story_counts(graph, events_doc, relation_file[2]))
        # the story probes refuses: its labels cannot be replayed
        misfit = timed and framelog_file is not None and _misfit_log(
            story_id, graph, timeline, framelog_file[1], framelog_file[2].frames)
        if misfit:
            labels.append(misfit)
        if clips is None:
            continue
        if clips_doc is not None and clips_doc != _clips_document(clips):
            labels.append(f"{story_id}/probes/clips.jsonl differs from the clips of "
                          f"the graph and timeline")
        if label_lines is None:
            continue
        if len(label_lines) != len(clips):
            labels.append(f"{story_id}/probes/labels.jsonl: {len(label_lines)} rows "
                          f"for {len(clips)} clips")
        # the cap is checked before a row is replayed
        budget = min(label_per_story, LABEL_SAMPLES - sampled, len(clips),
                     len(label_lines))
        if framelog_file is None or misfit or not budget:
            continue
        log = binio.frame_log(*framelog_file)  # expanded only to replay labels
        replayed = jsonl_document(oracle_rows(clips[:budget], log, timeline, cfg_probe))
        # byte for byte: a decoded 0 would equal false
        labels.extend(f"{clip.clip_id}: label mismatch" for clip, row, line in zip(
            clips, replayed.splitlines(keepends=True), label_lines) if row != line)
        sampled += budget

    # each story that cannot be counted has already failed corpus-stats
    if (registry is not None and stats_doc is not None and len(counts) == len(entries)
            and stats_doc != json_document(corpus_stats(registry, fps, counts))):
        stats.append("stats.json differs from the stats of the stories' files")

    checks = [{"name": name, "ok": not found,
               "details": "ok" if not found else "; ".join(found[:5])}
              for name, found in failures.items()]
    return {"ok": all(c["ok"] for c in checks), "checks": checks}
