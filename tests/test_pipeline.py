"""Corpus assembly: artifact inventory, stats, reproducibility, tamper
localization, and the CLI wiring."""

from __future__ import annotations

import builtins
import hashlib
import io
import json
import math
import os
import re
import shutil
import struct
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from storysim import binio, pipeline, probes
from storysim.cli import main
from storysim.default_registry import build_default_registry
from storysim.documents import (json_document, jsonl_document, parse_graph,
                                parse_manifest, parse_registry, parse_timeline,
                                serialize_graph, serialize_registry, serialize_timeline)
from storysim.errors import CorruptCorpus, DocumentSyntaxError, StorysimError
from storysim.pipeline import (
    CorpusConfig,
    assemble_story,
    compute_stats,
    corpus_digest,
    generate_corpus,
    load_manifest,
    verify,
)
from storysim.probes import ProbeConfig, clip_frame_indices
from storysim.probes_oracle import oracle_rows
from storysim.model import CAMERA_ID, CapabilityRegistry, EntityKind, EventKind
from storysim.procgen import GenConfig, generate_story, story_seed
from storysim.scheduling import EventTimeline
from storysim.textgen import proto_text

from _oracles import Planes, planes_of, runs_of

# corpus_digest of the seed-7, 8-story corpus of the default config and
# bundled registry, measured with numpy 2.4.6 on Python 3.11.7.  Re-pin
# only in a change whose CHANGES.md says why the corpus bytes changed.
GOLDEN_DIGEST = "3131fd5c4cb0528b01d8427da9e7364414845eb56191084771ecb0fa72a7d041"
STORIES = 8

CHECKS = ("manifest-hashes", "timeline-durations", "temporal-relations",
          "spatial-records", "probe-labels", "event-mappings", "proto-text",
          "corpus-stats")

# the checks that need a story's graph.json
GRAPH_CHECKS = ("timeline-durations", "temporal-relations", "probe-labels",
                "event-mappings", "proto-text", "corpus-stats")

STORY_FILES = ("graph.json", "timeline.json", "relations.bin", "framelog.bin",
               "events.jsonl", "text.txt", "probes/clips.jsonl",
               "probes/labels.jsonl")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    cfg = CorpusConfig(gen=GenConfig(master_seed=7))
    manifest = generate_corpus(root, cfg, build_default_registry(), stories=STORIES)
    return root, cfg, manifest


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    generate_corpus(root, CorpusConfig(gen=GenConfig(master_seed=7)),
                    build_default_registry(), stories=3)
    return root


def expected_checks(failed: dict[str, str]) -> list[dict]:
    """verify's checks list when the checks named in `failed` fail with
    those details and the others pass."""
    return [{"name": name, "ok": name not in failed, "details": failed.get(name, "ok")}
            for name in CHECKS]


@pytest.fixture
def reads(monkeypatch):
    """Counts, by resolved path, each file opened for reading only."""
    opened = Counter()
    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
            opened[Path(file).resolve()] += 1
        return real_open(file, mode, *args, **kwargs)
    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    return opened


def rewrite_with_hash(root, story_id: str, rel_path: str, data: bytes):
    """Replace one story file and record its sha256 in the manifest."""
    (root / story_id / rel_path).write_bytes(data)
    manifest = load_manifest(root)
    entry = next(e for e in manifest["stories"] if e["story_id"] == story_id)
    entry["files"][rel_path] = hashlib.sha256(data).hexdigest()
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def test_golden_corpus_digest(corpus):
    root, _, _ = corpus
    assert corpus_digest(root) == GOLDEN_DIGEST


def test_camera_moves_on_under_two_fifths_of_its_frames(corpus):
    # a camera that arrives on its target moves on about a quarter of the
    # frames; one that smooths forever records float noise as motion on
    # about two thirds, and each such frame starts a run in both binaries
    root, _, manifest = corpus
    moved = frames = 0
    for entry in manifest["stories"]:
        log = binio.read_framelog(root / entry["story_id"] / "framelog.bin")
        moved += int(log.pose_changes()[:, log.index_of(CAMERA_ID)].sum())
        frames += log.frame_count
    assert moved < 0.4 * frames, (moved, frames)


def test_artifact_inventory(corpus):
    root, _, manifest = corpus
    assert (root / "registry.json").is_file()
    assert (root / "manifest.json").is_file()
    assert (root / "stats.json").is_file()
    assert manifest["story_count"] == STORIES
    assert len(manifest["stories"]) == STORIES
    for entry in manifest["stories"]:
        assert "error" not in entry
        story_dir = root / entry["story_id"]
        for rel_path in STORY_FILES:
            assert (story_dir / rel_path).is_file(), rel_path
            assert rel_path in entry["files"]
        assert entry["seed"] == story_seed(7, entry["index"])
        assert entry["split"] in ("train", "val", "test")


def test_manifest_loads_and_matches_disk(corpus):
    root, _, manifest = corpus
    assert load_manifest(root) == json.loads((root / "manifest.json").read_text())
    assert manifest["kind"] == "corpus-manifest"
    assert manifest["master_seed"] == 7
    assert manifest["config"]["fps"] == 25


def test_stats_file_equals_rescan(corpus):
    root, _, _ = corpus
    assert (root / "stats.json").read_bytes() == json_document(compute_stats(root))
    stored = json.loads((root / "stats.json").read_text())
    assert stored["stories"] == STORIES
    assert stored["total_events"] > 0
    assert stored["spatial_relation_count"] > 0
    assert stored["event_frame_mapping_count"] >= stored["total_events"]
    assert stored["actors_per_story"]["min"] >= 2
    assert stored["actors_per_story"]["max"] <= 6


def test_artifacts_parse_and_cross_reference(corpus):
    root, _, manifest = corpus
    for entry in manifest["stories"][:2]:
        story_dir = root / entry["story_id"]
        graph = parse_graph((story_dir / "graph.json").read_bytes())
        timeline = parse_timeline((story_dir / "timeline.json").read_bytes())
        assert timeline.intervals.keys() == {e.event_id for e in graph.events}
        rows = [json.loads(l) for l in
                (story_dir / "events.jsonl").read_text().splitlines()]
        assert [r["event_id"] for r in rows] == [e.event_id for e in graph.events]
        clips = [json.loads(l) for l in
                 (story_dir / "probes/clips.jsonl").read_text().splitlines()]
        labels = [json.loads(l) for l in
                  (story_dir / "probes/labels.jsonl").read_text().splitlines()]
        assert [c["clip_id"] for c in clips] == [l["clip_id"] for l in labels]
        text = (story_dir / "text.txt").read_text()
        assert text.endswith(".\n")
        for actor in graph.actors:
            assert actor.name in text or not graph.events


def test_rerun_is_byte_identical(corpus, tmp_path):
    root, cfg, _ = corpus
    again = tmp_path / "again"
    generate_corpus(again, cfg, build_default_registry(), stories=STORIES)
    assert corpus_digest(again) == corpus_digest(root)


def test_seed_change_changes_bytes(corpus, tmp_path):
    root, _, _ = corpus
    other = tmp_path / "other"
    cfg = CorpusConfig(gen=GenConfig(master_seed=8))
    generate_corpus(other, cfg, build_default_registry(), stories=STORIES)
    assert corpus_digest(other) != corpus_digest(root)


def test_verify_clean_corpus(corpus):
    root, _, _ = corpus
    report = verify(root)
    assert report["ok"], report
    assert [c["name"] for c in report["checks"]] == [
        "manifest-hashes", "timeline-durations", "temporal-relations",
        "spatial-records", "probe-labels", "event-mappings", "proto-text",
        "corpus-stats"]
    assert report["checks"] == expected_checks({})


def test_verify_loads_each_artifact_once_per_story(corpus, monkeypatch):
    root, _, _ = corpus
    calls = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((pipeline, "parse_graph"), (pipeline, "parse_timeline"),
                        (binio, "parse_framelog"), (binio, "parse_relations"),
                        (binio.Runs, "dense")):
        counted(owner, name)
    assert verify(root)["ok"]
    # a frame log is expanded at most once per story, only to replay its
    # labels, and no relations file is
    assert calls.pop("dense", 0) <= STORIES
    assert calls == dict.fromkeys(("parse_graph", "parse_timeline", "parse_framelog",
                                   "parse_relations"), STORIES)
    calls.clear()
    compute_stats(root)
    assert calls["dense"] == 0
    assert calls == dict.fromkeys(("parse_graph", "parse_framelog", "parse_relations"),
                                  STORIES)


def test_each_story_file_is_read_at_most_once(corpus, tmp_path, reads):
    # verify and stats hash and parse the same bytes; assemble_story hashes
    # what it writes from memory
    root, cfg, manifest = corpus
    registry = build_default_registry()
    listed = {(root / e["story_id"] / rel_path).resolve()
              for e in manifest["stories"] for rel_path in e["files"]}
    for run in (verify, compute_stats):
        reads.clear()
        run(root)
        story_reads = {path: n for path, n in reads.items() if path in listed}
        assert story_reads == dict.fromkeys(listed, 1), run.__name__

    reads.clear()
    story_dir = (tmp_path / "story").resolve()
    entry, counts = assemble_story(cfg, registry, 0, story_dir, "train")
    assert len(entry["files"]) == len(STORY_FILES)
    assert counts.frames > 0 and counts.records > 0
    assert not [path for path in reads if story_dir in path.parents]


def _registry_failing_story(gen: GenConfig, index: int):
    """The default registry with every POI of the episode that story `index`
    draws stripped of its chainable actions, so generating it raises
    NoValidAction."""
    registry = build_default_registry()
    region = generate_story(gen, registry, index).region_plan[0]
    doomed = registry.episode_of_region(region)
    episodes = tuple(
        replace(ep, regions=tuple(
            replace(r, pois=tuple(replace(p, transitions={}) for p in r.pois))
            for r in ep.regions))
        if ep.key == doomed else ep
        for ep in registry.episodes)
    return replace(registry, episodes=episodes)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("gen, registry, stories, failing", [
    (GenConfig(master_seed=7), None, 3, False),
    (GenConfig(master_seed=7), None, 0, False),
    (GenConfig(master_seed=7), _registry_failing_story(GenConfig(master_seed=7), 1),
     3, True),
], ids=["built", "empty", "with-a-failed-story"])
def test_generate_reads_nothing_back_and_stats_equal_the_rescan(
        tmp_path, reads, gen, registry, stories, failing, workers):
    # stats.json is summed from the story jobs' counts; compute_stats
    # rescans the files and must encode to the same bytes
    root = (tmp_path / "corpus").resolve()
    manifest = generate_corpus(root, CorpusConfig(gen=gen),
                               registry or build_default_registry(),
                               stories=stories, workers=workers)
    assert not [path for path in reads if root in path.parents]
    assert any("error" in e for e in manifest["stories"]) == failing
    assert (root / "stats.json").read_bytes() == json_document(compute_stats(root))


def test_story_artifacts_builds_what_generate_writes_and_writes_nothing(corpus,
                                                                         monkeypatch):
    # the pure build: assemble_story only writes its files and hashes them
    # into its entry, so the in-memory entry, files and counts are the
    # corpus on disk
    root, cfg, _ = corpus
    manifest, registry = load_manifest(root), build_default_registry()
    failing = _registry_failing_story(cfg.gen, 1)

    def refused(*args, **kwargs):
        raise AssertionError("story_artifacts writes")
    real_open = io.open

    def read_only_open(file, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            refused()
        return real_open(file, mode, *args, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(Path, "write_bytes", refused)
        m.setattr(Path, "mkdir", refused)
        m.setattr(io, "open", read_only_open)
        m.setattr(builtins, "open", read_only_open)
        built = [pipeline.story_artifacts(cfg, registry, e["index"], e["split"])
                 for e in manifest["stories"]]
        failed = pipeline.story_artifacts(cfg, failing, 1, "train")

    for want, (entry, files, counts) in zip(manifest["stories"], built, strict=True):
        story_dir = root / want["story_id"]
        assert {path: bytes(data) for path, data in files.items()} == {
            path: (story_dir / path).read_bytes() for path in want["files"]}
        hashes = {path: hashlib.sha256(data).hexdigest() for path, data in files.items()}
        assert {**entry, "files": hashes} == want
    assert (root / "stats.json").read_bytes() == json_document(pipeline.corpus_stats(
        registry, cfg.fps, [counts for _, _, counts in built]))

    entry, files, counts = failed
    assert entry["error"].startswith("NoValidAction: ") and "files" not in entry
    assert files == {} and counts is None


def test_tamper_is_localized(corpus, tmp_path):
    root, cfg, _ = corpus
    copy = tmp_path / "tampered"
    generate_corpus(copy, cfg, build_default_registry(), stories=6)
    victim = copy / "story_00003" / "relations.bin"
    raw = bytearray(victim.read_bytes())
    raw[-40] ^= 0xFF
    victim.write_bytes(raw)

    report = verify(copy)
    assert not report["ok"]
    hashes = next(c for c in report["checks"] if c["name"] == "manifest-hashes")
    assert not hashes["ok"]
    assert "story_00003/relations.bin" in hashes["details"]
    assert "story_00002" not in hashes["details"]
    assert report["checks"] == expected_checks(
        {"manifest-hashes": "story_00003/relations.bin hash mismatch"})
    with pytest.raises(CorruptCorpus, match="story_00003/relations.bin"):
        compute_stats(copy)


def test_injected_temporal_fault_is_caught(corpus, tmp_path):
    root, cfg, _ = corpus
    copy = tmp_path / "fault"
    generate_corpus(copy, cfg, build_default_registry(), stories=6)

    # pick a story with a cross-actor relation and break its realization
    manifest = load_manifest(copy)
    target = None
    for entry in manifest["stories"]:
        story_dir = copy / entry["story_id"]
        graph = parse_graph((story_dir / "graph.json").read_bytes())
        if graph.relations:
            target = (entry, story_dir, graph)
            break
    assert target is not None, "no story with an explicit relation"
    entry, story_dir, graph = target

    timeline = parse_timeline((story_dir / "timeline.json").read_bytes())
    rel = graph.relations[0]
    spans = dict(timeline.intervals)
    b0, b1 = spans[rel.target]
    shift = b1 - b0 + spans[max(spans, key=lambda k: spans[k][1])][1]
    spans[rel.target] = (b0 + shift, b1 + shift)
    broken = serialize_timeline(EventTimeline(intervals=spans, fps=timeline.fps))
    (story_dir / "timeline.json").write_bytes(broken)

    # keep the manifest consistent so only the semantic check can fire
    import hashlib
    entry["files"]["timeline.json"] = hashlib.sha256(broken).hexdigest()
    (copy / "manifest.json").write_bytes(
        (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())

    report = verify(copy)
    assert not report["ok"]
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["manifest-hashes"]["ok"]
    assert not by_name["temporal-relations"]["ok"]
    assert f"{rel.source}->{rel.target}" in by_name["temporal-relations"]["details"]
    assert report["checks"] == expected_checks({"temporal-relations": (
        "story_00000: relation 11->12 realized bi outside {b m}; "
        "story_00000: relation 10->11 realized b outside {s eq si}")})


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-100])


def _reverse_first_clip(path):
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[0]["frame_indices"].reverse()
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def _drop_first_interval(path):
    doc = json.loads(path.read_text())
    del doc["intervals"][0]
    path.write_text(json.dumps(doc))


def _an_interval_of_an_unknown_event(path):
    # the manifest keeps up, so only the timeline check can catch it
    doc = json.loads(path.read_text())
    doc["intervals"].append([9999, 200000, 200001])
    rewrite_with_hash(path.parent.parent, path.parent.name, path.name,
                      json.dumps(doc).encode())


_an_interval_of_an_unknown_event.rehashes = True


def _clip_of_an_unknown_event(path):
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[0]["event_id"] = 9999
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def _first_row_without(key):
    def damage(path):
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        del rows[0][key]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return damage


def _drop_first_clip_with_its_hashes(path):
    # the first clip row and its label row go, and the manifest keeps up
    root, story_id = path.parents[2], path.parents[1].name
    for doc in ("clips", "labels"):
        rel_path = f"probes/{doc}.jsonl"
        lines = (root / story_id / rel_path).read_bytes().splitlines(keepends=True)
        rewrite_with_hash(root, story_id, rel_path, b"".join(lines[1:]))


_drop_first_clip_with_its_hashes.rehashes = True


def _first_duration_nan(path):
    doc = json.loads(path.read_text())
    doc["events"][0]["duration_s"] = math.nan
    path.write_text(json.dumps(doc))  # json writes the bare token NaN


def _repeat_an_id_with_its_hash(path):
    # the second entity takes the first one's id, and the manifest keeps up,
    # so only the framelog's reader can catch it
    data = bytearray(path.read_bytes())
    first = 4 + struct.calcsize("<HHHHI")
    second = first + 4 + data[first + 3]
    data[second:second + 2] = data[first:first + 2]
    rewrite_with_hash(path.parent.parent, path.parent.name, path.name, bytes(data))


_repeat_an_id_with_its_hash.rehashes = True


def _drop_the_camera_with_its_hash(path):
    # the camera's id 0, first in the entity table, becomes an id no entity
    # has, and the manifest keeps up
    data = bytearray(path.read_bytes())
    first = 4 + struct.calcsize("<HHHHI")
    assert data[first:first + 2] == (0).to_bytes(2, "little")
    data[first:first + 2] = (0xFFFF).to_bytes(2, "little")
    rewrite_with_hash(path.parent.parent, path.parent.name, path.name, bytes(data))


_drop_the_camera_with_its_hash.rehashes = True


def _zero_for_false_with_its_hash(path):
    # the first label row says 0 for false, still canonical JSON, and the
    # manifest keeps up; decoded, 0 == False
    lines = path.read_bytes().splitlines(keepends=True)
    assert b'"motion_presence":false' in lines[0]
    lines[0] = lines[0].replace(b'"motion_presence":false', b'"motion_presence":0', 1)
    rewrite_with_hash(path.parents[2], path.parents[1].name, "probes/labels.jsonl",
                      b"".join(lines))


_zero_for_false_with_its_hash.rehashes = True


def _frame_past_the_log(path):
    # the last frame's records written twice: a whole frame the log lacks
    fps, (ids, kinds, names), records = binio.read_relations(path)
    binio.write_relations(path, runs_of(Planes(*(
        np.concatenate((plane, plane[-1:])) for plane in planes_of(records)))),
        fps, ids, kinds, names)


def _frame_past_the_log_with_its_hash(path):
    _frame_past_the_log(path)
    rewrite_with_hash(path.parent.parent, path.parent.name, path.name, path.read_bytes())


_frame_past_the_log_with_its_hash.rehashes = True


def _relations_rehashed(edit):
    """The damage that rewrites relations.bin, with its hash, as the
    relations_bytes of edit(runs, fps, ids, kinds, names)."""
    def damage(path):
        fps, table, records = binio.read_relations(path)
        data = binio.relations_bytes(*edit(records, fps, *table))
        rewrite_with_hash(path.parent.parent, path.parent.name, path.name, bytes(data))
    damage.rehashes = True
    return damage


def _without_the_last_frame(records: binio.Runs) -> binio.Runs:
    return runs_of(Planes(*(plane[:-1] for plane in planes_of(records))))


def _both_binaries_at_fps_30(path):
    # the binaries agree with each other, not with the manifest's fps
    for name in ("relations.bin", "framelog.bin"):
        rewrite_with_hash(path.parent.parent, path.parent.name, name,
                          _fps_30((path.parent / name).read_bytes()))


_both_binaries_at_fps_30.rehashes = True


CLIPS_DIFFER = ("story_00001/probes/clips.jsonl differs from the clips of the graph "
                "and timeline")


DAMAGES = [
    pytest.param("story_00001/graph.json", lambda p: p.unlink(),
                 GRAPH_CHECKS, "story_00001/graph.json missing", id="graph-missing"),
    # a story stats.json cannot count fails corpus-stats; the other
    # stories are not totalled instead
    pytest.param("story_00001/events.jsonl", lambda p: p.unlink(),
                 ("event-mappings", "corpus-stats"), "story_00001/events.jsonl missing",
                 id="events-missing"),
    pytest.param("story_00001/framelog.bin", lambda p: p.unlink(),
                 ("spatial-records", "probe-labels", "corpus-stats"),
                 "story_00001/framelog.bin missing", id="framelog-missing"),
    pytest.param("story_00001/graph.json", lambda p: (p.unlink(), p.mkdir()),
                 GRAPH_CHECKS,
                 "story_00001/graph.json cannot be loaded: Is a directory",
                 id="graph-is-a-directory"),
    pytest.param("story_00001/probes/labels.jsonl", lambda p: p.write_text("{nope\n"),
                 ("probe-labels",), "story_00001/probes/labels.jsonl cannot be loaded",
                 id="labels-not-json"),
    pytest.param("story_00001/probes/labels.jsonl",
                 lambda p: p.write_text("[" * 100_000 + "\n"), ("probe-labels",),
                 "story_00001/probes/labels.jsonl cannot be loaded",
                 id="labels-nested-too-deep"),
    pytest.param("story_00001/graph.json", _first_duration_nan, GRAPH_CHECKS,
                 "story_00001/graph.json cannot be loaded", id="graph-duration-nan"),
    pytest.param("story_00001/framelog.bin", _truncate,
                 ("spatial-records", "probe-labels", "corpus-stats"),
                 "story_00001/framelog.bin cannot be loaded", id="framelog-truncated"),
    pytest.param("story_00001/framelog.bin", _repeat_an_id_with_its_hash,
                 ("spatial-records", "probe-labels", "corpus-stats"),
                 "story_00001/framelog.bin cannot be loaded: entity id 0 appears twice",
                 id="framelog-repeats-an-id"),
    pytest.param("story_00001/framelog.bin", _drop_the_camera_with_its_hash,
                 ("spatial-records", "probe-labels", "corpus-stats"),
                 "story_00001/framelog.bin cannot be loaded: entity table lacks the "
                 "camera's id 0",
                 id="framelog-without-camera"),
    pytest.param("registry.json", lambda p: p.unlink(),
                 ("probe-labels", "proto-text", "corpus-stats"),
                 "registry.json missing", id="registry-missing"),
    pytest.param("story_00001/probes/clips.jsonl", _reverse_first_clip,
                 ("probe-labels",), CLIPS_DIFFER, id="clip-frames-reversed"),
    # a story whose binaries disagree cannot be counted
    pytest.param("story_00001/relations.bin", _frame_past_the_log,
                 ("spatial-records", "corpus-stats"),
                 "story_00001/relations.bin holds 2473 frames",
                 id="record-frames-past-the-log"),
    pytest.param("story_00001/timeline.json", _drop_first_interval,
                 ("timeline-durations", "temporal-relations", "probe-labels",
                  "event-mappings", "proto-text"),
                 "event 0 not in the timeline", id="timeline-lacks-an-event"),
    pytest.param("story_00001/timeline.json", _an_interval_of_an_unknown_event,
                 ("timeline-durations",), "story_00001: timeline event 9999 not in the graph",
                 id="timeline-event-not-in-the-graph"),
    pytest.param("story_00001/probes/clips.jsonl", _clip_of_an_unknown_event,
                 ("probe-labels",), CLIPS_DIFFER, id="clip-of-an-unknown-event"),
    *(pytest.param("story_00001/probes/clips.jsonl", _first_row_without(key),
                   ("probe-labels",), CLIPS_DIFFER, id=f"clip-without-{key}")
      for key in ("frame_indices", "event_id", "clip_id", "split")),
    pytest.param("story_00001/probes/labels.jsonl", _first_row_without("clip_id"),
                 ("probe-labels",), "story_00001-ev0000: label mismatch",
                 id="label-without-clip_id"),
    pytest.param("story_00001/probes/labels.jsonl", _zero_for_false_with_its_hash,
                 ("probe-labels",), "story_00001-ev0000: label mismatch",
                 id="label-zero-for-false"),
    pytest.param("story_00001/probes/clips.jsonl", _drop_first_clip_with_its_hashes,
                 ("probe-labels",), CLIPS_DIFFER, id="first-clip-dropped"),
    pytest.param("story_00001/relations.bin", _frame_past_the_log_with_its_hash,
                 ("spatial-records", "corpus-stats"),
                 "story_00001/relations.bin holds 2473 frames, framelog.bin 2472",
                 id="record-frames-past-the-log-rehashed"),
    pytest.param("story_00001/relations.bin",
                 _relations_rehashed(lambda records, fps, *table: (records, 30, *table)),
                 ("spatial-records", "corpus-stats"),
                 "story_00001/relations.bin fps 30 != framelog.bin's 25",
                 id="relations-fps-rehashed"),
    pytest.param("story_00001/relations.bin",
                 _relations_rehashed(lambda records, fps, ids, kinds, names: (
                     records, fps, ids, kinds, (names[0], "Zed", *names[2:]))),
                 ("spatial-records", "corpus-stats"),
                 "story_00001/relations.bin entity table differs from framelog.bin's",
                 id="relations-entity-renamed-rehashed"),
    pytest.param("story_00001/relations.bin",
                 _relations_rehashed(lambda records, fps, *table: (
                     _without_the_last_frame(records), fps, *table)),
                 ("spatial-records", "corpus-stats"),
                 "story_00001/relations.bin holds 2471 frames, framelog.bin 2472",
                 id="relations-a-frame-short-rehashed"),
    pytest.param("story_00001/relations.bin", _both_binaries_at_fps_30,
                 ("spatial-records",), "story_00001: binaries hold fps 30, manifest 25",
                 id="binaries-fps-rehashed"),
]


@pytest.mark.parametrize("rel_path, damage, failing, named", DAMAGES)
def test_verify_fails_closed_on_a_damaged_story(small_corpus, tmp_path, capsys,
                                                 rel_path, damage, failing, named):
    # every damaged file also fails manifest-hashes unless the damage
    # re-hashed it; no other check fails
    root = tmp_path / "damaged"
    shutil.copytree(small_corpus, root)
    damage(root / rel_path)
    stale = not getattr(damage, "rehashes", False)
    report = verify(root)
    assert not report["ok"]
    by_name = {c["name"]: c for c in report["checks"]}
    assert list(by_name) == list(CHECKS)
    assert [n for n in CHECKS if not by_name[n]["ok"]] == [
        n for n in CHECKS if (n == "manifest-hashes" and stale) or n in failing]
    if stale:
        assert rel_path in by_name["manifest-hashes"]["details"]
    for name in failing:
        assert named in by_name[name]["details"], by_name[name]
    assert main(["verify", "--corpus", str(root)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    for name in failing:
        assert f"FAIL {name}: " in captured.out


# each damage whose manifest keeps up, so compute_stats can get past the hashes
REHASHED = [pytest.param(d.values[0], d.values[1], id=d.id) for d in DAMAGES
            if getattr(d.values[1], "rehashes", False)]


@pytest.mark.parametrize("rel_path, damage", REHASHED)
def test_stats_and_verify_agree_on_which_stories_count(small_corpus, tmp_path, capsys,
                                                       rel_path, damage):
    root = tmp_path / "damaged"
    shutil.copytree(small_corpus, root)
    damage(root / rel_path)
    stats_check = next(c for c in verify(root)["checks"] if c["name"] == "corpus-stats")
    if stats_check["ok"]:
        compute_stats(root)
        assert main(["stats", "--corpus", str(root)]) == 0
        return
    with pytest.raises(CorruptCorpus) as info:
        compute_stats(root)
    assert str(info.value) in stats_check["details"]
    assert main(["stats", "--corpus", str(root)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {info.value}\n"
    assert not captured.out


def test_label_samples_cap_every_replay(small_corpus, monkeypatch):
    # 4 rows over 3 stories: 2 per story, so the third story replays none
    replayed = []

    def counting_oracle(clips, *args):
        for clip, row in zip(clips, oracle_rows(clips, *args)):
            replayed.append(clip.clip_id)
            yield row
    monkeypatch.setattr(pipeline, "LABEL_SAMPLES", 4)
    monkeypatch.setattr(pipeline, "oracle_rows", counting_oracle)
    assert verify(small_corpus)["ok"]
    assert len(replayed) == 4
    assert {clip_id.split("-")[0] for clip_id in replayed} == {"story_00000",
                                                                "story_00001"}


def test_a_damaged_corpus_reads_the_same_wherever_it_lies(small_corpus, tmp_path):
    # a failure names its file once, by its path inside the corpus
    reports = []
    for root in (tmp_path / "a", tmp_path / "elsewhere" / "b"):
        shutil.copytree(small_corpus, root)
        _drop_the_camera_with_its_hash(root / "story_00001/framelog.bin")
        reports.append(verify(root))
    assert reports[0] == reports[1]
    assert str(tmp_path) not in json.dumps(reports[0])
    named = "story_00001/framelog.bin cannot be loaded: entity table lacks the camera's id 0"
    assert reports[0]["checks"] == expected_checks(
        {"spatial-records": named, "probe-labels": named, "corpus-stats": named})


def test_verify_reports_a_story_without_relation_records(small_corpus, tmp_path, capsys):
    # both binaries cut to zero frames and re-hashed, so each parses
    root = tmp_path / "empty"
    shutil.copytree(small_corpus, root)
    story = root / "story_00001"
    log = binio.frame_log(*binio.parse_framelog((story / "framelog.bin").read_bytes()))
    fps, (ids, kinds, names), records = binio.parse_relations(
        (story / "relations.bin").read_bytes())
    rewrite_with_hash(root, "story_00001", "framelog.bin", bytes(binio.framelog_bytes(
        replace(log, positions=log.positions[:0], yaws=log.yaws[:0]))))
    rewrite_with_hash(root, "story_00001", "relations.bin", bytes(binio.relations_bytes(
        runs_of(Planes(*(plane[:0] for plane in planes_of(records)))), fps, ids,
        kinds, names)))
    report = verify(root)
    by_name = {c["name"]: c for c in report["checks"]}
    assert [n for n in CHECKS if not by_name[n]["ok"]] == ["spatial-records",
                                                           "probe-labels", "corpus-stats"]
    assert by_name["spatial-records"]["details"] == "story_00001: no relation records"
    assert by_name["probe-labels"]["details"] == ("story_00001/timeline.json spans 2472 "
                                                  "frames, framelog.bin holds 0")
    assert by_name["corpus-stats"]["details"] == STATS_DIFFER
    assert main(["verify", "--corpus", str(root)]) == 1
    assert "FAIL spatial-records: story_00001: no relation records" in \
        capsys.readouterr().out


def _relations_renamed_and_rekinded(data: bytes) -> bytes:
    fps, (ids, kinds, names), records = binio.parse_relations(data)
    names = (names[0], "zzz") + names[2:]
    other = EntityKind.OBJECT if kinds[2] is EntityKind.ACTOR else EntityKind.ACTOR
    kinds = kinds[:2] + (other,) + kinds[3:]
    return bytes(binio.relations_bytes(records, fps, ids, kinds, names))


def _fps_30(data: bytes) -> bytes:
    # fps is the u16 after the magic and the version in both binaries
    return data[:6] + (30).to_bytes(2, "little") + data[8:]


@pytest.mark.parametrize("rel_path, damage, named", [
    ("relations.bin", _relations_renamed_and_rekinded,
     "story_00001/relations.bin entity table differs from framelog.bin's"),
    ("relations.bin", _fps_30, "story_00001/relations.bin fps 30 != framelog.bin's 25"),
    ("framelog.bin", _fps_30, "story_00001/relations.bin fps 25 != framelog.bin's 30"),
], ids=["relations-entities-renamed", "relations-fps", "framelog-fps"])
def test_verify_checks_the_binary_headers_against_each_other(small_corpus, tmp_path,
                                                             rel_path, damage, named):
    # each file rewritten with its hash, so only the header check can catch
    # it; binaries that disagree cannot be counted
    root = tmp_path / "damaged"
    shutil.copytree(small_corpus, root)
    rewrite_with_hash(root, "story_00001", rel_path,
                      damage((root / "story_00001" / rel_path).read_bytes()))
    report = verify(root)
    assert report["checks"] == expected_checks({"spatial-records": named,
                                                "corpus-stats": named})


def _version_1(path):
    data = bytearray(path.read_bytes())
    data[4:6] = (1).to_bytes(2, "little")
    rewrite_with_hash(path.parent.parent, path.parent.name, path.name, bytes(data))


def test_a_version_1_binary_is_refused_by_every_reader(small_corpus, tmp_path, capsys):
    root = tmp_path / "v1"
    shutil.copytree(small_corpus, root)
    _version_1(root / "story_00001/relations.bin")
    named = "story_00001/relations.bin cannot be loaded: unsupported version 1"
    assert verify(root)["checks"] == expected_checks(
        {"spatial-records": named, "corpus-stats": named})
    with pytest.raises(CorruptCorpus, match=f"^{named}$"):
        compute_stats(root)
    # probes reads no relations.bin; the framelog of the same version is refused
    _version_1(root / "story_00001/framelog.bin")
    assert main(["probes", "--corpus", str(root), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("error: story_00001/framelog.bin cannot be "
                                       "loaded: unsupported version 1\n")


def _as_version_2(path):
    """Rewrite a binary, with its hash, as version 2 wrote it: the same
    entity table, a relations header without frame_count, and the dense
    records or poses of every frame."""
    raw = path.read_bytes()
    fps, entities = struct.unpack_from("<HH", raw, 6)
    end = 16
    for _ in range(entities):
        end += 4 + raw[end + 3]
    if path.name == "relations.bin":
        _, _, records = binio.parse_relations(raw)
        head = struct.pack("<4sHHHH", raw[:4], 2, fps, entities, 0)
        body = b"".join(plane.tobytes() for plane in planes_of(records))
    else:
        log = binio.frame_log(*binio.parse_framelog(raw))
        head = struct.pack("<4sHHHHI", raw[:4], 2, fps, entities, 0, log.frame_count)
        body = np.concatenate((log.positions, log.yaws[..., None]), axis=2).tobytes()
    rewrite_with_hash(path.parent.parent, path.parent.name, path.name,
                      head + raw[16:end] + body)


def test_a_version_2_binary_is_refused_by_every_reader(small_corpus, tmp_path, capsys):
    root = tmp_path / "v2"
    shutil.copytree(small_corpus, root)
    _as_version_2(root / "story_00001/relations.bin")
    _as_version_2(root / "story_00001/framelog.bin")
    relations = "story_00001/relations.bin cannot be loaded: unsupported version 2"
    framelog = "story_00001/framelog.bin cannot be loaded: unsupported version 2"
    assert verify(root)["checks"] == expected_checks({
        "spatial-records": f"{framelog}; {relations}", "probe-labels": framelog,
        "corpus-stats": f"{framelog}; {relations}"})
    with pytest.raises(CorruptCorpus, match=f"^{relations}$"):
        compute_stats(root)
    assert main(["stats", "--corpus", str(root)]) == 1
    assert capsys.readouterr().err == f"error: {relations}\n"
    assert main(["probes", "--corpus", str(root), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {framelog}\n"


def _frame_count_past_the_dense_bound(path):
    # the header's frame_count becomes 2**32 - 1 over the same runs, and
    # the manifest keeps up: the runs would expand to tens of gigabytes
    raw = bytearray(path.read_bytes())
    raw[12:16] = (0xFFFFFFFF).to_bytes(4, "little")
    rewrite_with_hash(path.parent.parent, path.parent.name, path.name, bytes(raw))


def test_a_frame_count_past_the_dense_bound_is_refused_by_every_reader(small_corpus,
                                                                        tmp_path, capsys):
    root = tmp_path / "huge"
    shutil.copytree(small_corpus, root)
    _frame_count_past_the_dense_bound(root / "story_00001/relations.bin")
    _frame_count_past_the_dense_bound(root / "story_00001/framelog.bin")
    past = rf"cannot be loaded: 4294967295 frames of \d+ entities expand to \d+ bytes " \
           rf"of poses, past the bound of {binio.MAX_DENSE_BYTES}"
    relations, framelog = (rf"story_00001/{name} {past}"
                           for name in ("relations.bin", "framelog.bin"))
    by_name = {c["name"]: c for c in verify(root)["checks"]}
    assert [name for name in CHECKS if not by_name[name]["ok"]] == [
        "spatial-records", "probe-labels", "corpus-stats"]
    for name, details in (("spatial-records", f"{framelog}; {relations}"),
                          ("probe-labels", framelog),
                          ("corpus-stats", f"{framelog}; {relations}")):
        assert re.fullmatch(details, by_name[name]["details"]), name
    with pytest.raises(CorruptCorpus, match=f"^{relations}$"):
        compute_stats(root)
    assert main(["stats", "--corpus", str(root)]) == 1
    assert re.fullmatch(f"error: {relations}\n", capsys.readouterr().err)
    assert main(["probes", "--corpus", str(root), "--out", str(tmp_path / "out")]) == 1
    assert re.fullmatch(f"error: {framelog}\n", capsys.readouterr().err)


def test_a_long_many_pair_story_builds_under_the_dense_bound(tmp_path):
    # story 2 has 47,024 frames of 22 entities: 33 MB of dense poses, but
    # 282 MB of dense relation records, which nothing expands
    gen = GenConfig(chains_per_actor=2, max_actors_per_region=3, regions_to_visit=4,
                    actors_min_max=(12, 14), interaction_prob=1.0, exchange_prob=1.0,
                    relation_prob=0.5, master_seed=686723)
    root = tmp_path / "corpus"
    manifest = generate_corpus(root, CorpusConfig(gen=gen, fps=120),
                               build_default_registry(), stories=3)
    assert [e["story_id"] for e in manifest["stories"] if "error" not in e] == [
        "story_00000", "story_00001", "story_00002"]
    _, _, poses = binio.parse_framelog((root / "story_00002/framelog.bin").read_bytes())
    assert (poses.frames, poses.columns) == (47024, 22)
    assert verify(root)["ok"]
    assert (root / "stats.json").read_bytes() == json_document(compute_stats(root))


def _first_mapping_moved(data: bytes) -> bytes:
    rows = [json.loads(line) for line in data.splitlines()]
    rows[0]["start_frame"] += 5
    return jsonl_document(rows)


def _first_mapping_dropped(data: bytes) -> bytes:
    return b"".join(data.splitlines(keepends=True)[1:])


def _more_events(data: bytes) -> bytes:
    stats = json.loads(data)
    stats["total_events"] += 1000
    return json_document(stats)


EVENTS_DIFFER = ("story_00001/events.jsonl differs from the mappings of the graph and "
                 "timeline")
STATS_DIFFER = "stats.json differs from the stats of the stories' files"


@pytest.mark.parametrize("rel_path, damage, failed", [
    ("story_00001/events.jsonl", _first_mapping_moved,
     {"event-mappings": EVENTS_DIFFER}),
    ("story_00001/events.jsonl", _first_mapping_dropped,
     {"event-mappings": EVENTS_DIFFER, "corpus-stats": STATS_DIFFER}),
    ("story_00001/text.txt", lambda data: b"Nothing happens.\n",
     {"proto-text": "story_00001/text.txt differs from the proto text of the graph "
                    "and timeline"}),
    ("stats.json", _more_events, {"corpus-stats": STATS_DIFFER}),
], ids=["mapping-moved", "mapping-dropped", "text-replaced", "stats-more-events"])
def test_verify_rederives_events_text_and_stats(small_corpus, tmp_path, rel_path, damage,
                                                failed):
    # the manifest keeps up with a story file; no hash covers stats.json
    root = tmp_path / "damaged"
    shutil.copytree(small_corpus, root)
    data = damage((root / rel_path).read_bytes())
    if rel_path == "stats.json":
        (root / rel_path).write_bytes(data)
    else:
        story_id, name = rel_path.split("/", 1)
        rewrite_with_hash(root, story_id, name, data)
    assert verify(root)["checks"] == expected_checks(failed)


def test_verify_fails_text_of_a_graph_the_registry_refuses(small_corpus, tmp_path):
    # an unknown action with its hash rewritten: no proto text derives, and
    # events.jsonl names the action the graph no longer has
    root = tmp_path / "unknown-action"
    shutil.copytree(small_corpus, root)
    doc = json.loads((root / "story_00001/graph.json").read_bytes())
    doc["events"][0]["action"] = "no_such_action"
    rewrite_with_hash(root, "story_00001", "graph.json", json.dumps(doc).encode())
    report = verify(root)
    assert report["checks"] == expected_checks({"event-mappings": EVENTS_DIFFER,
                                                "proto-text": (
        "story_00001/graph.json does not validate against the registry: "
        "unknown action 'no_such_action'")})


@pytest.mark.parametrize("key, value", [
    ("story_id", "{outside}"), ("story_id", "../outside"),
    ("files", "{outside}/graph.json"), ("files", "../../outside/graph.json"),
], ids=["absolute-story-id", "parent-story-id", "absolute-file", "parent-file"])
def test_manifest_paths_stay_inside_the_corpus(small_corpus, tmp_path, capsys, key,
                                               value):
    root, outside = tmp_path / "corpus", tmp_path / "outside"
    shutil.copytree(small_corpus, root)
    shutil.copytree(small_corpus / "story_00001", outside)
    value = value.format(outside=outside)
    manifest = load_manifest(root)
    entry = manifest["stories"][1]
    if key == "story_id":
        entry["story_id"] = value
    else:
        entry["files"][value] = entry["files"].pop("graph.json")
    (root / "manifest.json").write_text(json.dumps(manifest))
    before = corpus_digest(outside)

    with pytest.raises(CorruptCorpus, match=r"stories\[1\]\." + key):
        load_manifest(root)
    assert main(["verify", "--corpus", str(root)]) == 1
    assert "FAIL manifest: " in capsys.readouterr().out
    for argv in (["stats"], ["probes", "--motion-threshold", "0.5"]):
        assert main([*argv, "--corpus", str(root)]) == 1, argv
        assert capsys.readouterr().err.startswith("error:"), argv
    assert corpus_digest(outside) == before


@pytest.mark.parametrize("rel_path", ["registry.json", "story_00001/framelog.bin",
                                      "story_00001/text.txt"])
def test_stats_fails_closed_on_a_missing_file(small_corpus, tmp_path, capsys, rel_path):
    root = tmp_path / "damaged"
    shutil.copytree(small_corpus, root)
    (root / rel_path).unlink()
    with pytest.raises(CorruptCorpus, match=f"^{rel_path} missing$"):
        compute_stats(root)
    assert main(["stats", "--corpus", str(root)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {rel_path} missing\n"
    assert not captured.out


def test_cli_probes_fails_closed_on_a_missing_file(small_corpus, tmp_path, capsys):
    root = tmp_path / "damaged"
    shutil.copytree(small_corpus, root)
    (root / "story_00001/framelog.bin").unlink()
    assert main(["probes", "--corpus", str(root), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: story_00001/framelog.bin missing\n"
    assert not captured.out


def test_cli_probes_refuses_a_framelog_without_the_camera(small_corpus, tmp_path,
                                                         capsys):
    root = tmp_path / "damaged"
    shutil.copytree(small_corpus, root)
    _drop_the_camera_with_its_hash(root / "story_00001/framelog.bin")
    assert main(["probes", "--corpus", str(root), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: story_00001/framelog.bin cannot be loaded: ")
    assert "lacks the camera" in captured.err
    assert not captured.out


def _first_interval_dropped(doc):
    del doc["intervals"][0]


def _fps_2(doc):
    doc["fps"] = 2


def _fps_70000(doc):
    doc["fps"] = 70_000


def _an_unknown_event_added(doc):
    doc["intervals"].append([9999, 10, 20])


def _intervals_shifted(frames):
    def damage(doc):
        for row in doc["intervals"]:
            row[1] += frames
            row[2] += frames
    return damage


# shifted by one frame, no event ends past the log, but the timeline with
# the camera's settling frames spans one frame more than the log holds
@pytest.mark.parametrize("damage, named", [
    (_first_interval_dropped, "story_00001/timeline.json lacks event 0"),
    (_an_unknown_event_added, "story_00001/timeline.json holds event 9999, which "
                              "graph.json lacks"),
    (_intervals_shifted(100_000), "story_00001/timeline.json spans 102472 frames, "
                                  "framelog.bin holds 2472"),
    (_intervals_shifted(1), "story_00001/timeline.json spans 2473 frames, "
                            "framelog.bin holds 2472"),
    # below the clip rate, clip frames would collide
    (_fps_2, "story_00001/timeline.json cannot be loaded: fps must be at least 4, "
             "the clip rate (at fps)"),
    # past the u16 fps field of the binaries
    (_fps_70000, "story_00001/timeline.json cannot be loaded: fps must be at most "
                 "65535, the binaries' u16 fps field (at fps)"),
], ids=["event-dropped", "unknown-event-added", "frames-shifted",
        "frames-shifted-by-one", "fps-2", "fps-70000"])
@pytest.mark.parametrize("in_place", [True, False], ids=["in-place", "out"])
def test_cli_probes_fails_closed_on_a_timeline_that_disagrees(small_corpus, tmp_path,
                                                               capsys, damage, named,
                                                               in_place):
    # the manifest keeps up with the timeline, so only its content is wrong
    root, out = tmp_path / "damaged", tmp_path / "out"
    shutil.copytree(small_corpus, root)
    doc = json.loads((root / "story_00001/timeline.json").read_bytes())
    damage(doc)
    rewrite_with_hash(root, "story_00001", "timeline.json", json_document(doc))
    before = corpus_digest(root)
    where = ["--motion-threshold", "0.5"] if in_place else ["--out", str(out)]
    assert main(["probes", "--corpus", str(root), *where]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {named}\n"
    assert not captured.out
    assert corpus_digest(root) == before
    assert not out.exists()


def _frames_taken(pick):
    """Both binaries of story_00001 keep the frames pick(frame_count)
    lists, re-hashed, and stats.json is rewritten to count them."""
    def damage(root):
        story = root / "story_00001"
        log = binio.frame_log(*binio.parse_framelog((story / "framelog.bin").read_bytes()))
        fps, table, records = binio.parse_relations((story / "relations.bin").read_bytes())
        frames = pick(log.frame_count)
        rewrite_with_hash(root, "story_00001", "framelog.bin", bytes(binio.framelog_bytes(
            replace(log, positions=log.positions[frames], yaws=log.yaws[frames]))))
        rewrite_with_hash(root, "story_00001", "relations.bin", bytes(binio.relations_bytes(
            runs_of(Planes(*(plane[frames] for plane in planes_of(records)))), fps,
            *table)))
        (root / "stats.json").write_bytes(json_document(compute_stats(root)))
    return damage


def _actor_renamed_in_the_binaries(root):
    # entity 1 of both entity tables, the graph's first actor, is renamed
    story = root / "story_00001"
    log = binio.frame_log(*binio.parse_framelog((story / "framelog.bin").read_bytes()))
    fps, (ids, kinds, names), records = binio.parse_relations(
        (story / "relations.bin").read_bytes())
    assert kinds[1] is EntityKind.ACTOR and names[1] != "Zed"
    names = (names[0], "Zed", *names[2:])
    rewrite_with_hash(root, "story_00001", "framelog.bin", bytes(binio.framelog_bytes(
        replace(log, entity_names=names))))
    rewrite_with_hash(root, "story_00001", "relations.bin", bytes(binio.relations_bytes(
        records, fps, ids, kinds, names)))


def _actor_renamed_in_the_graph_and_text(root):
    # the graph's first actor is renamed and text.txt tells the story of
    # the renamed graph, so only the binaries keep the old name
    story = root / "story_00001"
    graph = parse_graph((story / "graph.json").read_bytes())
    timeline = parse_timeline((story / "timeline.json").read_bytes())
    graph = replace(graph, actors=(replace(graph.actors[0], name="Zed"), *graph.actors[1:]))
    text = proto_text(graph, timeline, build_default_registry()).full_text
    rewrite_with_hash(root, "story_00001", "graph.json", serialize_graph(graph))
    rewrite_with_hash(root, "story_00001", "text.txt", (text + "\n").encode())


FRAMES_DIFFER = "story_00001/timeline.json spans 2472 frames, framelog.bin holds {}"
ENTITIES_DIFFER = "story_00001/framelog.bin entity table differs from graph.json's"


# each damage re-hashes what it rewrites and keeps the binaries agreeing
# with each other, so only the frame log's shape against the graph and
# timeline is wrong
@pytest.mark.parametrize("damage, named", [
    (_frames_taken(lambda n: np.arange(n - 200)), FRAMES_DIFFER.format(2272)),
    (_frames_taken(lambda n: np.r_[np.arange(n), n - 1]), FRAMES_DIFFER.format(2473)),
    (_actor_renamed_in_the_binaries, ENTITIES_DIFFER),
    (_actor_renamed_in_the_graph_and_text, ENTITIES_DIFFER),
], ids=["binaries-cut-by-200-frames", "binaries-a-frame-longer",
        "actor-renamed-in-the-binaries", "actor-renamed-in-the-graph-and-text"])
def test_verify_refuses_the_frame_log_that_probes_refuses(small_corpus, tmp_path, capsys,
                                                          damage, named):
    root, out = tmp_path / "damaged", tmp_path / "out"
    shutil.copytree(small_corpus, root)
    damage(root)
    assert verify(root)["checks"] == expected_checks({"probe-labels": named})
    assert main(["probes", "--corpus", str(root), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {named}\n"
    assert not captured.out
    assert not out.exists()


def _short_registry():
    """The bundled registry with each non-movement action lasting 1-2 s,
    shorter than the 3.75 s span of a clip."""
    registry = build_default_registry()
    return replace(registry, actions={
        key: spec if spec.is_movement_only else replace(spec, duration_range_s=(1.0, 2.0))
        for key, spec in registry.actions.items()})


def _clips_past_the_story(root: Path, registry) -> int:
    """The eligible events of a corpus at min_event_s 0.5 whose clip would
    run past the story's frames; asserts that no stored clip does."""
    past = 0
    for story in sorted(root.glob("story_*")):
        graph = parse_graph((story / "graph.json").read_bytes())
        timeline = parse_timeline((story / "timeline.json").read_bytes())
        frames = binio.parse_framelog((story / "framelog.bin").read_bytes())[2].frames
        past += sum(clip_frame_indices(s, timeline.fps)[-1] >= frames
                    for ev in graph.events for s, e in [timeline.interval(ev.event_id)]
                    if not registry.actions[ev.action].is_movement_only
                    and e - s >= round(0.5 * timeline.fps))
        for line in (story / "probes/clips.jsonl").read_text().splitlines():
            assert json.loads(line)["frame_indices"][-1] < frames
    return past


def test_generate_emits_only_clips_inside_the_story_frames(tmp_path):
    root, registry = tmp_path / "c", _short_registry()
    cfg = CorpusConfig(gen=GenConfig(master_seed=7), probe=ProbeConfig(min_event_s=0.5))
    manifest = generate_corpus(root, cfg, registry, stories=8)
    assert not [entry for entry in manifest["stories"] if "error" in entry]
    assert _clips_past_the_story(root, registry)
    assert verify(root)["checks"] == expected_checks({})


def test_cli_probes_emits_only_clips_inside_the_story_frames(tmp_path, capsys):
    registry = _short_registry()
    (tmp_path / "short.json").write_bytes(serialize_registry(registry))
    root = tmp_path / "c"
    assert main(["generate", "--stories", "4", "--seed", "7", "--registry",
                 str(tmp_path / "short.json"), "--out", str(root)]) == 0
    assert main(["probes", "--corpus", str(root), "--min-event-s", "0.5"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert _clips_past_the_story(root, registry)
    assert verify(root)["checks"] == expected_checks({})


def test_failed_in_place_probes_run_changes_nothing(tmp_path, capsys):
    root = tmp_path / "c"
    generate_corpus(root, CorpusConfig(gen=GenConfig(master_seed=3)),
                    build_default_registry(), stories=3)
    victim = root / "story_00002/framelog.bin"
    kept = victim.read_bytes()
    victim.unlink()
    before = corpus_digest(root)
    assert main(["probes", "--corpus", str(root), "--motion-threshold", "0.5"]) == 1
    assert capsys.readouterr().err == "error: story_00002/framelog.bin missing\n"
    assert corpus_digest(root) == before
    victim.write_bytes(kept)
    assert verify(root)["checks"] == expected_checks({})


def test_verify_judges_a_rewritten_label(small_corpus, tmp_path):
    root = tmp_path / "relabelled"
    shutil.copytree(small_corpus, root)
    rel_path = "probes/labels.jsonl"
    original = (root / "story_00002" / rel_path).read_bytes()
    rows = [json.loads(line) for line in original.decode().splitlines()]
    row = next(r for r in rows if r["pairs"])
    row["pairs"][0]["depth_order"] = not row["pairs"][0]["depth_order"]
    rewrite_with_hash(root, "story_00002", rel_path, b"".join(
        (json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n").encode()
        for r in rows))

    report = verify(root)
    assert report["checks"] == expected_checks(
        {"probe-labels": f"{row['clip_id']}: label mismatch"})
    rewrite_with_hash(root, "story_00002", rel_path, original)
    assert verify(root)["ok"]


@pytest.mark.parametrize("value, wrong", [("close", '"far"'), (True, "false"),
                                          (None, '"left"')])
def test_verify_checks_the_label_writer_against_jsonl_document(tmp_path, monkeypatch,
                                                               value, wrong):
    # probes writes each label from its token table, and verify encodes the
    # oracle's row with jsonl_document: a wrong token is a label mismatch
    # even where both labellers agree on the value.  (No camera_distance is
    # "near" in these stories, so its token is not among the cases.)
    monkeypatch.setitem(probes._TOKEN, value, wrong)
    generate_corpus(tmp_path, CorpusConfig(gen=GenConfig(master_seed=7)),
                    build_default_registry(), stories=2)
    report = verify(tmp_path)
    [failed] = [check for check in report["checks"] if not check["ok"]]
    assert failed["name"] == "probe-labels"
    assert failed["details"].endswith(": label mismatch")


def test_config_round_trips_through_manifest(corpus):
    _, cfg, manifest = corpus
    assert ProbeConfig(**parse_manifest(json_document(manifest))["config"]["probe"]) \
        == cfg.probe
    broken = json.loads(json.dumps(manifest))
    del broken["config"]["probe"]["min_event_s"]
    with pytest.raises(DocumentSyntaxError, match="missing key.*min_event_s"):
        parse_manifest(json_document(broken))


def _refined_story(tmp_path):
    """(manifest entry, story dir) of a 1-story corpus whose refine
    endpoint is unreachable."""
    cfg = CorpusConfig(gen=GenConfig(master_seed=7),
                       refine=__import__("storysim.textgen", fromlist=["RefineConfig"])
                       .RefineConfig(endpoint_url="http://127.0.0.1:9/x",
                                     timeout_s=0.2))
    root = tmp_path / "refined"
    entry = generate_corpus(root, cfg, build_default_registry(), stories=1)["stories"][0]
    assert "text.refined.txt" in entry["files"]
    assert load_manifest(root)["stories"][0]["refine"] == entry["refine"]
    return entry, root / entry["story_id"]


def test_refined_text_artifact(tmp_path):
    # endpoint that is unreachable: refined file falls back to proto text
    entry, story_dir = _refined_story(tmp_path)
    assert entry["refine"] == "fell_back"
    assert (story_dir / "text.refined.txt").read_bytes() \
        == (story_dir / "text.txt").read_bytes()


def test_refined_text_status_ok(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "refine",
                        lambda proto, _: (proto.full_text.upper(), True))
    entry, story_dir = _refined_story(tmp_path)
    assert entry["refine"] == "ok"
    assert (story_dir / "text.refined.txt").read_text("utf-8") \
        == (story_dir / "text.txt").read_text("utf-8").upper()


@pytest.mark.parametrize("key_path", [("registry_hash",), ("stories",), ("config", "fps")])
def test_verify_fails_closed_on_a_missing_manifest_key(corpus, tmp_path, capsys, key_path):
    # verify reads the manifest first, so the manifest alone is enough
    root, _, _ = corpus
    manifest = load_manifest(root)
    node = manifest
    for key in key_path[:-1]:
        node = node[key]
    del node[key_path[-1]]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    name = ".".join(key_path)
    with pytest.raises(CorruptCorpus,
                       match=rf"^manifest.json cannot be loaded: missing field "
                             rf"'{key_path[-1]}' \(at {name}\)$"):
        load_manifest(tmp_path)
    report = verify(tmp_path)
    assert not report["ok"]
    assert name in report["checks"][0]["details"]
    assert main(["verify", "--corpus", str(tmp_path)]) == 1
    assert "FAIL manifest: " in capsys.readouterr().out


@pytest.mark.parametrize("key, value", [("story_id", None), ("split", None),
                                        ("files", None), ("files", ["graph.json"])])
def test_verify_fails_closed_on_a_bad_story_entry(corpus, tmp_path, capsys, key, value):
    # value None deletes the key
    root, _, _ = corpus
    manifest = load_manifest(root)
    if value is None:
        del manifest["stories"][1][key]
    else:
        manifest["stories"][1][key] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CorruptCorpus, match=rf"field '{key}' .*\(at stories\[1\]\.{key}\)$"):
        load_manifest(tmp_path)
    report = verify(tmp_path)
    assert not report["ok"]
    assert f"stories[1].{key}" in report["checks"][0]["details"]
    assert main(["verify", "--corpus", str(tmp_path)]) == 1
    assert "FAIL manifest: " in capsys.readouterr().out
    assert main(["stats", "--corpus", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_failed_story_entry_needs_no_files(corpus, tmp_path):
    root, _, _ = corpus
    manifest = load_manifest(root)
    del manifest["stories"][1]["files"]
    manifest["stories"][1]["error"] = "ValidationFailure: x"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert load_manifest(tmp_path) == manifest


def test_load_manifest_rejects_garbage(tmp_path):
    with pytest.raises(CorruptCorpus):
        load_manifest(tmp_path)
    (tmp_path / "manifest.json").write_text("{nope")
    with pytest.raises(CorruptCorpus):
        load_manifest(tmp_path)


def _probe_value_of_401_digits(manifest):
    manifest["config"]["probe"]["min_event_s"] = 10**400


def _format_version_2(manifest):
    manifest["format_version"] = 2


def _no_graph_hash(manifest):
    del manifest["stories"][1]["files"]["graph.json"]


def _fps_below_the_clip_rate(manifest):
    manifest["config"]["fps"] = 2


def _fps_past_the_u16_field(manifest):
    manifest["config"]["fps"] = 70_000


def _a_story_listed_twice(manifest):
    # counted twice by stats, against a story_count of 3
    manifest["stories"].append(json.loads(json.dumps(manifest["stories"][1])))


def _story_count_one_more(manifest):
    manifest["story_count"] += 1


@pytest.mark.parametrize("damage, problem", [
    (b"[" * 200_000, "not valid JSON"),
    (_probe_value_of_401_digits, "min_event_s is not a finite number"),
    (_format_version_2, "unsupported format_version 2"),
    (_no_graph_hash, "no hash of graph.json (at stories[1].files)"),
    (_fps_below_the_clip_rate, "fps must be at least 4, the clip rate (at config.fps)"),
    (_fps_past_the_u16_field, "fps must be at most 65535, the binaries' u16 fps field "
                              "(at config.fps)"),
    (_a_story_listed_twice, "duplicate story_id 'story_00001' (at stories[3].story_id)"),
    (_story_count_one_more, "story_count 4 for 3 stories (at story_count)"),
], ids=["deeply-nested", "huge-int", "format-version-2", "story-without-graph-hash",
        "fps-below-the-clip-rate", "fps-past-the-u16-field", "story-listed-twice",
        "story-count-off-by-one"])
def test_every_manifest_reader_refuses_a_damaged_manifest(small_corpus, tmp_path, capsys,
                                                         damage, problem):
    # bytes, or an edit of the decoded manifest
    root = tmp_path / "c"
    shutil.copytree(small_corpus, root)
    if isinstance(damage, bytes):
        (root / "manifest.json").write_bytes(damage)
    else:
        manifest = load_manifest(root)
        damage(manifest)
        (root / "manifest.json").write_text(json.dumps(manifest))
    report = verify(root)
    assert report["checks"][0]["name"] == "manifest" and not report["ok"]
    details = report["checks"][0]["details"]
    assert details.startswith("manifest.json cannot be loaded: ") and problem in details
    assert main(["verify", "--corpus", str(root)]) == 1
    assert "FAIL manifest: manifest.json cannot be loaded: " in capsys.readouterr().out
    for argv in (["stats"], ["probes", "--motion-threshold", "0.5"]):
        assert main([*argv, "--corpus", str(root)]) == 1, argv
        assert capsys.readouterr().err == f"error: {details}\n", argv


def test_a_damaged_manifest_reads_the_same_wherever_it_lies(small_corpus, tmp_path,
                                                            capsys):
    reports, errors = [], []
    for root in (tmp_path / "a", tmp_path / "elsewhere" / "b"):
        shutil.copytree(small_corpus, root)
        (root / "manifest.json").write_text("{}")
        reports.append(verify(root))
        assert main(["stats", "--corpus", str(root)]) == 1
        errors.append(capsys.readouterr().err)
    assert reports[0] == reports[1] and errors[0] == errors[1]
    assert str(tmp_path) not in json.dumps(reports) + errors[0]
    assert reports[0]["checks"][0]["details"].startswith("manifest.json cannot be loaded")


# ------------------------------------------------------------------- CLI

def test_cli_generate_stats_verify(tmp_path, capsys):
    out = tmp_path / "cli_corpus"
    assert main(["generate", "--stories", "2", "--seed", "3",
                 "--out", str(out)]) == 0
    assert (out / "manifest.json").is_file()
    capsys.readouterr()

    assert main(["stats", "--corpus", str(out)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["stories"] == 2

    assert main(["verify", "--corpus", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out

    victim = next(out.glob("story_*/framelog.bin"))
    raw = bytearray(victim.read_bytes())
    raw[-1] ^= 1
    victim.write_bytes(raw)
    assert main(["verify", "--corpus", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_generate_refuses_an_out_that_is_not_empty(small_corpus, tmp_path, capsys):
    # a 2-story build over a 3-story corpus would keep story_00002
    root = tmp_path / "c"
    shutil.copytree(small_corpus, root)
    before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
    with pytest.raises(FileExistsError, match="is not empty"):
        generate_corpus(root, CorpusConfig(gen=GenConfig(master_seed=7)),
                        build_default_registry(), stories=2)
    assert main(["generate", "--stories", "2", "--seed", "7", "--out", str(root)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before


def test_cli_simulate_and_text(tmp_path, capsys):
    corpus_dir = tmp_path / "c"
    assert main(["generate", "--stories", "1", "--seed", "3",
                 "--out", str(corpus_dir)]) == 0
    capsys.readouterr()
    story = corpus_dir / "story_00000"

    sim_out = tmp_path / "sim"
    assert main(["simulate", "--graph", str(story / "graph.json"),
                 "--out", str(sim_out)]) == 0
    capsys.readouterr()
    for name in ("framelog.bin", "relations.bin", "timeline.json", "events.jsonl"):
        assert (sim_out / name).read_bytes() == (story / name).read_bytes(), name

    assert main(["text", "--graph", str(story / "graph.json"),
                 "--timeline", str(story / "timeline.json")]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == (story / "text.txt").read_text().strip()


def test_cli_probes_regenerates_in_place(tmp_path, capsys):
    out = tmp_path / "p"
    assert main(["generate", "--stories", "2", "--seed", "3",
                 "--out", str(out)]) == 0
    before = (next(out.glob("story_*/probes/labels.jsonl"))).read_bytes()
    assert main(["probes", "--corpus", str(out)]) == 0
    capsys.readouterr()
    after = (next(out.glob("story_*/probes/labels.jsonl"))).read_bytes()
    assert after == before  # same config, same bytes
    assert main(["verify", "--corpus", str(out)]) == 0
    capsys.readouterr()

    # a changed threshold rewrites labels and records the config it used
    assert main(["probes", "--corpus", str(out),
                 "--motion-threshold", "0.5"]) == 0
    capsys.readouterr()
    assert (next(out.glob("story_*/probes/labels.jsonl"))).read_bytes() != before
    assert load_manifest(out)["config"]["probe"]["motion_threshold_m"] == 0.5
    assert main(["verify", "--corpus", str(out)]) == 0
    assert verify(out)["checks"] == expected_checks({})


def test_cli_probes_keeps_the_manifest_probe_config(tmp_path, capsys):
    root = tmp_path / "c"
    cfg = CorpusConfig(gen=GenConfig(master_seed=3), probe=ProbeConfig(min_event_s=5.0))
    generate_corpus(root, cfg, build_default_registry(), stories=2)
    other = tmp_path / "other"
    assert main(["probes", "--corpus", str(root), "--out", str(other)]) == 0
    capsys.readouterr()
    written = sorted(other.glob("story_*/probes/*.jsonl"))
    assert len(written) == 4
    for path in written:
        assert path.read_bytes() == (root / path.relative_to(other)).read_bytes(), path


@pytest.mark.parametrize("key, value, problem", [
    ("clip_fps", 4, "unknown key"),  # a key an older config carried and this one dropped
    ("min_event_s", "4", "not a finite number"),
    ("motion_threshold_m", None, "not a finite number"),
    ("ambiguity_eps_m", True, "not a finite number"),
    ("ambiguity_eps_deg", float("inf"), "not a finite number"),
], ids=["unknown-key", "str", "null", "bool", "inf"])
def test_cli_rejects_a_bad_manifest_probe_config(corpus, tmp_path, capsys, key, value,
                                                 problem):
    root, _, _ = corpus
    manifest = load_manifest(root)
    manifest["config"]["probe"][key] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    shutil.copy(root / "registry.json", tmp_path)
    assert main(["verify", "--corpus", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL manifest: " in out and problem in out and key in out
    for command in ("stats", "probes"):
        assert main([command, "--corpus", str(tmp_path)]) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("error:") and problem in err and key in err, command


@pytest.mark.parametrize("fps", ["25", 0, -25, 25.0, True, None])
def test_cli_rejects_a_manifest_fps_that_is_not_a_positive_int(corpus, tmp_path, capsys,
                                                               fps):
    root, _, _ = corpus
    manifest = load_manifest(root)
    manifest["config"]["fps"] = fps
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert main(["verify", "--corpus", str(tmp_path)]) == 1
    assert "FAIL manifest: " in capsys.readouterr().out
    for command in ("stats", "probes"):
        assert main([command, "--corpus", str(tmp_path)]) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("error:") and "config.fps" in err, command


@pytest.mark.parametrize("change, issue", [
    (dict(actors=[], objects=[], events=[], relations=[]),
     "NoActors (event None): graph declares no actors"),
    (dict(region_plan=[], objects=[], events=[], relations=[]),
     "UnknownRegion (event None): region_plan names no region"),
], ids=["no-actors", "actor-without-events-and-no-region-plan"])
def test_cli_simulate_refuses_a_graph_it_cannot_ground(tmp_path, capsys, change, issue):
    # the camera follows the actors, and an idle actor waits in the plan's
    # first region
    graph = generate_story(GenConfig(master_seed=7), build_default_registry(), 1)
    path, out = tmp_path / "graph.json", tmp_path / "o"
    path.write_text(json.dumps({**json.loads(serialize_graph(graph)), **change}))
    assert main(["simulate", "--graph", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == issue + "\n"
    assert not out.exists()


def test_cli_simulate_refuses_an_id_the_binaries_cannot_store(tmp_path, capsys):
    # the first actor, and every reference to it, takes id 70000: past the
    # u16 id field of the entity table
    graph = json.loads(serialize_graph(
        generate_story(GenConfig(master_seed=7), build_default_registry(), 1)))
    old = graph["actors"][0]["id"]
    graph["actors"][0]["id"] = 70000
    for row, key in [(o, "owner") for o in graph["objects"]] + [
            (e, k) for e in graph["events"] for k in ("actor", "patient")]:
        if row[key] == old:
            row[key] = 70000
    path, out = tmp_path / "graph.json", tmp_path / "o"
    path.write_text(json.dumps(graph))
    assert main(["simulate", "--graph", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: actor id 70000 is past 65535, the largest "
                                       "an entity table holds (at actors[0])\n")
    assert not out.exists()


def test_cli_rejects_bad_graph(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["simulate", "--graph", str(bad),
                 "--out", str(tmp_path / "o")]) == 1
    assert "graph" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--graph", "{missing}", "--out", "{out}"],
    ["generate", "--stories", "1", "--registry", "{missing}", "--out", "{out}"],
], ids=["simulate-graph", "generate-registry"])
def test_cli_reports_a_missing_input_path(tmp_path, capsys, argv):
    missing, out = tmp_path / "nonexistent.json", tmp_path / "o"
    assert main([a.format(missing=missing, out=out) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing) in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--stories", "1", "--fps", "0"],
    ["generate", "--stories", "2", "--seed", "7", "--fps", "2"],
    ["generate", "--stories", "1", "--fps", "70000"],
    ["generate", "--stories", "-1"],
    ["generate", "--stories", "1", "--regions", "0"],
    ["generate", "--stories", "1", "--chains-per-actor", "0"],
    ["generate", "--stories", "1", "--workers", "-3"],
    ["generate", "--stories", "1", "--workers", "0"],
    ["simulate", "--graph", "{graph}", "--fps", "0"],
    ["simulate", "--graph", "{graph}", "--fps", "3"],
], ids=["generate-fps", "generate-fps-2", "generate-fps-70000", "generate-stories",
         "generate-regions",
        "generate-chains", "generate-negative-workers", "generate-no-workers",
        "simulate-fps", "simulate-fps-3"])
def test_cli_refuses_a_bad_value_as_a_usage_error(tmp_path, capsys, argv):
    graph = tmp_path / "graph.json"
    graph.write_bytes(serialize_graph(
        generate_story(GenConfig(master_seed=7), build_default_registry(), 0)))
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([a.format(graph=graph) for a in argv] + ["--out", str(out)])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_probes_refuses_a_flag_that_is_not_finite(small_corpus, tmp_path, capsys):
    # the manifest reader refuses a non-finite config, so none is written
    root = tmp_path / "c"
    shutil.copytree(small_corpus, root)
    before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
    for flag, value in (("--motion-threshold", "nan"), ("--min-event-s", "inf"),
                        ("--ambiguity-eps-m", "-inf"), ("--ambiguity-eps-deg", "nan")):
        with pytest.raises(SystemExit) as exc:
            main(["probes", "--corpus", str(root), f"{flag}={value}"])
        assert exc.value.code == 2, flag
        assert "is not a finite number" in capsys.readouterr().err, flag
        assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before, flag
    assert main(["verify", "--corpus", str(root)]) == 0


def test_corpus_config_refuses_a_frame_rate_below_one():
    with pytest.raises(ValueError, match="fps"):
        CorpusConfig(fps=0)
    # 16 clip frames at 4 fps would collide
    with pytest.raises(ValueError, match="fps"):
        CorpusConfig(fps=3)


def test_corpus_config_refuses_a_frame_rate_past_the_u16_field():
    # the binaries' header stores fps as a u16
    with pytest.raises(ValueError, match="^fps must be at most 65535, the binaries' "
                                         "u16 fps field$"):
        CorpusConfig(fps=70_000)
    assert CorpusConfig(fps=65_535).fps == 65_535


def _with_object_type_renamed(registry: CapabilityRegistry, old: str,
                              new: str) -> CapabilityRegistry:
    """registry with object type `old` renamed to `new` in object_types
    and in every POI's slots."""
    rename = lambda types: tuple(new if t == old else t for t in types)
    return CapabilityRegistry(
        episodes=tuple(replace(ep, regions=tuple(
            replace(region, pois=tuple(replace(poi, object_slots=rename(poi.object_slots))
                                       for poi in region.pois))
            for region in ep.regions)) for ep in registry.episodes),
        actor_models=registry.actor_models, object_types=rename(registry.object_types),
        actions=registry.actions)


@pytest.mark.parametrize("out_exists", [False, True], ids=["absent", "empty"])
def test_generate_refuses_a_registry_its_reader_refuses_before_writing(tmp_path,
                                                                      out_exists):
    # a 400-byte type name fits no entity table; the registry.json reader
    # refuses it, so generate does before its first write, and a rerun
    # with a good registry finds --out empty
    registry = _with_object_type_renamed(build_default_registry(), "cup", "é" * 200)
    out = tmp_path / "c"
    if out_exists:
        out.mkdir()
    with pytest.raises(StorysimError, match=r"^type key of 400 UTF-8 bytes is longer "
                       r"than the 255 an entity table holds \(at object_types\)$") as info:
        generate_corpus(out, CorpusConfig(gen=GenConfig(master_seed=7)), registry,
                        stories=6)
    with pytest.raises(type(info.value), match=re.escape(str(info.value))):
        parse_registry(serialize_registry(registry))
    assert not out.exists() or not any(out.iterdir())
    generate_corpus(out, CorpusConfig(gen=GenConfig(master_seed=7)),
                    build_default_registry(), stories=1)


@pytest.mark.parametrize("out_exists", [False, True], ids=["absent", "empty"])
def test_generate_refuses_a_negative_story_count_before_writing(tmp_path, out_exists):
    # a manifest of story_count -1 is one that verify and stats refuse
    out = tmp_path / "c"
    if out_exists:
        out.mkdir()
    with pytest.raises(ValueError, match="^story count -1 is negative$"):
        generate_corpus(out, CorpusConfig(), build_default_registry(), -1)
    assert not out.exists() or not any(out.iterdir())


def test_cli_text_names_an_event_the_timeline_lacks(small_corpus, tmp_path, capsys):
    story = small_corpus / "story_00000"
    graph = parse_graph((story / "graph.json").read_bytes())
    timeline = parse_timeline((story / "timeline.json").read_bytes())
    told = next(e.event_id for e in graph.events if e.kind is not EventKind.MOVEMENT)
    del timeline.intervals[told]
    path = tmp_path / "timeline.json"
    path.write_bytes(serialize_timeline(timeline))
    assert main(["text", "--graph", str(story / "graph.json"),
                 "--timeline", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: event {told} is not in the timeline\n"
    assert not captured.out


def test_cli_text_lists_the_issues_of_a_graph_validate_refuses(small_corpus, tmp_path,
                                                                capsys):
    story = small_corpus / "story_00000"
    doc = json.loads((story / "graph.json").read_bytes())
    doc["events"][0]["action"] = "no_such_action"
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert main(["text", "--graph", str(path),
                 "--timeline", str(story / "timeline.json")]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "'no_such_action'" in captured.err
    # the same issue lines simulate prints for the same graph
    assert main(["simulate", "--graph", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == captured.err
