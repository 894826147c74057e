"""Acceptance gate: one test per release criterion, AC1 through AC10.

Each test name carries its criterion number, so `pytest -v` prints one
pass/fail line per criterion.  The corpus-shaped criteria share a
session-scoped 200-story corpus built at master seed 7.
"""

from __future__ import annotations

import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from storysim import binio
from storysim.allen import RELATIONS, RelationSet, check_relation, compose, converse
from storysim.collectors import (
    COMPASS_NAMES,
    collect_event_mappings,
    collect_story_relations,
    compute_pair_relation,
)
from storysim.default_registry import build_default_registry
from storysim.documents import (
    json_document,
    jsonl_document,
    parse_graph,
    parse_timeline,
    serialize_graph,
    serialize_timeline,
)
from storysim.errors import InconsistentNetwork
from storysim.model import (
    ActionCategory,
    ActionSpec,
    CapabilityRegistry,
    EpisodeSpec,
    EventKind,
    PoiSpec,
    RegionSpec,
)
from storysim.pipeline import (
    CorpusConfig,
    compute_stats,
    corpus_digest,
    generate_corpus,
    load_manifest,
)
from storysim.probes import SPLITS, ClipSpec, hybrid_sample
from storysim.probes_oracle import oracle_rows
from storysim.procgen import GenConfig, generate_story, story_rng
from storysim.scheduling import (
    TemporalNetwork,
    chain_constraints,
    closure,
    schedule,
)
from storysim.simulation import (
    CAMERA_SETTLE_FRAMES,
    ground,
    insert_movements,
    simulate,
    validate,
)
from storysim.textgen import proto_text

from _netutil import random_spec, to_network
from _oracles import brute_force_composition, find_concrete_schedule

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="session")
def corpus200(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_corpus")
    cfg = CorpusConfig(gen=GenConfig(master_seed=7))
    # AC9 holds these bytes equal to a 1-worker build
    manifest = generate_corpus(root, cfg, build_default_registry(), stories=200, workers=2)
    return root, cfg, manifest


def _stories(root: Path, manifest: dict):
    for entry in manifest["stories"]:
        assert "error" not in entry, entry
        story_dir = root / entry["story_id"]
        graph = parse_graph((story_dir / "graph.json").read_bytes())
        timeline = parse_timeline((story_dir / "timeline.json").read_bytes())
        yield entry, story_dir, graph, timeline


def test_ac01_composition_table_matches_bruteforce():
    t0 = time.perf_counter()
    oracle = brute_force_composition()
    assert len(oracle) == 169
    by_code = {r.value: r for r in RELATIONS}
    for (c1, c2), expected in oracle.items():
        got = {r.value for r in compose(by_code[c1], by_code[c2])}
        assert got == set(expected), f"compose({c1}, {c2})"
    for r in RELATIONS:
        assert converse(converse(r)) is r
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f} s"


def test_ac02_closure_sound_and_idempotent():
    rng = random.Random(0)
    consistent = inconsistent = 0
    for _ in range(100):
        n, constraints = random_spec(rng, max_nodes=5)
        net = to_network(n, constraints)
        try:
            closed = closure(net)
        except InconsistentNetwork:
            inconsistent += 1
            assert find_concrete_schedule(n, constraints) is None
            continue
        consistent += 1
        assert closure(closed) == closed, "closure must be idempotent"
        schedule_found = find_concrete_schedule(n, constraints)
        assert schedule_found is not None, \
            "declared consistent but no concrete schedule exists"
    assert consistent and inconsistent, "seed must exercise both outcomes"

    cyclic = TemporalNetwork([0, 1, 2])
    before = RelationSet.from_codes("b")
    cyclic.constrain(0, 1, before)
    cyclic.constrain(1, 2, before)
    cyclic.constrain(2, 0, before)
    with pytest.raises(InconsistentNetwork):
        closure(cyclic)


def test_ac03_five_hundred_stories_validate_and_schedule():
    registry = build_default_registry()
    cfg = GenConfig()
    for index in range(500):
        graph = generate_story(cfg, registry, index)
        issues = validate(graph, registry)
        assert not issues, f"story {index}: {issues[:2]}"
        timeline = schedule(graph, fps=25)
        assert timeline.intervals.keys() == {e.event_id for e in graph.events}


def test_ac04_schedules_satisfy_every_constraint(corpus200):
    root, _, manifest = corpus200
    checked_explicit = checked_chain = 0
    for entry, story_dir, graph, _ in _stories(root, manifest):
        spans = {}
        for line in (story_dir / "events.jsonl").read_text().splitlines():
            row = json.loads(line)
            spans[row["event_id"]] = (row["start_frame"], row["end_frame"])
        for rel in graph.relations:
            assert check_relation(spans[rel.source], spans[rel.target],
                                  rel.allen_set), \
                f"{entry['story_id']}: relation {rel.source}->{rel.target}"
            checked_explicit += 1
        for a, b, rs in chain_constraints(graph):
            assert check_relation(spans[a], spans[b], rs), \
                f"{entry['story_id']}: chain {a}->{b}"
            checked_chain += 1
    assert checked_explicit > 200
    assert checked_chain > 2000


def test_ac05_corpus_shape_and_stats(corpus200):
    root, _, manifest = corpus200
    assert manifest["story_count"] == 200
    assert sum(1 for e in manifest["stories"] if "error" in e) == 0

    actor_counts, event_counts = [], []
    for _, _, graph, _ in _stories(root, manifest):
        actor_counts.append(len(graph.actors))
        event_counts.append(sum(1 for e in graph.events
                                if e.kind is not EventKind.MOVEMENT))
    assert all(2 <= n <= 6 for n in actor_counts)
    assert all(7 <= n <= 65 for n in event_counts)
    actors_mean = sum(actor_counts) / len(actor_counts)
    events_mean = sum(event_counts) / len(event_counts)
    assert abs(actors_mean - 3.43) / 3.43 <= 0.30, actors_mean
    assert abs(events_mean - 29.4) / 29.4 <= 0.30, events_mean

    assert (root / "stats.json").read_bytes() == json_document(compute_stats(root))
    stored = json.loads((root / "stats.json").read_text())
    assert stored["actors_per_story"]["mean"] == pytest.approx(actors_mean)
    assert stored["events_per_story"]["mean"] == pytest.approx(events_mean)


def test_ac06_spatial_records_recompute(corpus200):
    root, _, manifest = corpus200
    entries = list(manifest["stories"])
    rng = random.Random(0xAC06)
    per_story = math.ceil(10000 / len(entries))
    sampled = opposition_checked = 0
    for entry in entries:
        story_dir = root / entry["story_id"]
        log = binio.read_framelog(story_dir / "framelog.bin")
        _, (ids, _, _), records = binio.read_relations(story_dir / "relations.bin")
        n = len(ids)
        pair_count = n * (n - 1)
        assert len(records) == log.frame_count * pair_count, entry["story_id"]

        sorted_ids = sorted(ids)
        col = {e: i for i, e in enumerate(sorted_ids)}

        def pair_of(a: int, b: int) -> int:
            i, j = col[a], col[b]
            return i * (n - 1) + (j if j < i else j - 1)

        for _ in range(per_story):
            # the record's key is implied by its position
            f, pair = divmod(rng.randrange(len(records)), pair_count)
            i, j = divmod(pair, n - 1)
            a, b = sorted_ids[i], sorted_ids[j + (j >= i)]
            assert pair_of(a, b) == pair
            ia, ib = log.index_of(a), log.index_of(b)
            pr = compute_pair_relation(
                (tuple(log.positions[f, ia]), float(log.yaws[f, ia])),
                (tuple(log.positions[f, ib]), float(log.yaws[f, ib])))
            distance, azimuth, elevation, compass = records.at(f, pair)
            distance = float(distance)
            assert abs(pr.distance_m - distance) <= 1e-5
            assert abs(pr.azimuth_deg - float(azimuth)) <= 1e-5
            assert abs(pr.elevation_deg - float(elevation)) <= 1e-5
            assert COMPASS_NAMES[compass] == pr.compass
            assert (distance == 0.0) == pr.coincident
            sampled += 1

            if pr.coincident:
                continue
            delta = log.positions[f, ib] - log.positions[f, ia]
            bearing = math.degrees(math.atan2(delta[0], delta[1]))
            edge = (bearing - 22.5) % 45.0
            if min(edge, 45.0 - edge) < 0.5:
                continue
            rev = pair_of(b, a)
            assert (int(compass) - int(records.at(f, rev)[3])) % 8 == 4
            opposition_checked += 1
    assert sampled >= 10000
    assert opposition_checked > 1000


def test_ac07_probe_labels_match_oracle(corpus200):
    root, cfg, manifest = corpus200
    registry = build_default_registry()
    movement_actions = {k for k, a in registry.actions.items()
                        if a.is_movement_only}
    min_frames = round(cfg.probe.min_event_s * cfg.fps)

    label_checked = 0
    per_story = math.ceil(1000 / len(manifest["stories"]))
    for entry, story_dir, graph, timeline in _stories(root, manifest):
        actions = {e.event_id: e.action for e in graph.events}
        clip_rows = [json.loads(l) for l in
                     (story_dir / "probes/clips.jsonl").read_text().splitlines()]
        label_rows = [json.loads(l) for l in
                      (story_dir / "probes/labels.jsonl").read_text().splitlines()]
        assert len(clip_rows) == len(label_rows)
        for row in clip_rows:
            idxs = row["frame_indices"]
            assert len(idxs) == 16
            assert idxs == sorted(set(idxs))
            assert actions[row["event_id"]] not in movement_actions
            s, e = timeline.interval(row["event_id"])
            assert e - s >= min_frames
            assert row["split"] == entry["split"]

        if label_checked >= 1000 or not clip_rows:
            continue
        log = binio.read_framelog(story_dir / "framelog.bin")
        clips = [ClipSpec(row["clip_id"], row["story_id"], row["event_id"],
                          tuple(row["frame_indices"]), row["split"])
                 for row in clip_rows[:per_story]]
        for clip, stored, oracle_row in zip(
                clips, label_rows, oracle_rows(clips, log, timeline, cfg.probe)):
            want = json.loads(json.dumps(oracle_row))
            assert stored == want, clip.clip_id
            label_checked += 1
    assert label_checked >= 1000

    # story-level splits: stratified 70/15/15 within one story each
    per_cat: dict[str, dict[str, int]] = {}
    for entry in manifest["stories"]:
        per_cat.setdefault(entry["category"], dict.fromkeys(SPLITS, 0))
        per_cat[entry["category"]][entry["split"]] += 1
    for category, counts in per_cat.items():
        total = sum(counts.values())
        for split, frac in zip(SPLITS, (0.70, 0.15, 0.15)):
            assert abs(counts[split] - total * frac) <= 1.0, \
                f"{category}: {counts}"


def test_ac08_hybrid_sampler_sweep(corpus200):
    root, _, manifest = corpus200
    for entry, _, graph, timeline in _stories(root, manifest):
        frames = timeline.makespan() + CAMERA_SETTLE_FRAMES
        sample = hybrid_sample(graph, timeline, frames)
        assert sample == sorted(set(sample)), entry["story_id"]
        assert len(sample) <= 64
        non_movement = [e for e in graph.events
                        if e.kind is not EventKind.MOVEMENT]
        if len(non_movement) <= 64:
            mids = {sum(timeline.interval(e.event_id)) // 2
                    for e in non_movement}
            assert mids <= set(sample), entry["story_id"]


def test_ac09_determinism_across_workers_and_seeds(tmp_path):
    registry = build_default_registry()
    cfg7 = CorpusConfig(gen=GenConfig(master_seed=7))
    generate_corpus(tmp_path / "serial", cfg7, registry, stories=8, workers=1)
    generate_corpus(tmp_path / "pooled", cfg7, registry, stories=8, workers=2)
    digest7 = corpus_digest(tmp_path / "serial")
    assert corpus_digest(tmp_path / "pooled") == digest7

    cfg8 = CorpusConfig(gen=GenConfig(master_seed=8))
    generate_corpus(tmp_path / "other", cfg8, registry, stories=8, workers=1)
    assert corpus_digest(tmp_path / "other") != digest7

    manifest = load_manifest(tmp_path / "serial")
    assert manifest == load_manifest(tmp_path / "pooled")


def _scale_registry() -> CapabilityRegistry:
    """Two-POI floor with long object tasks, for the throughput story."""
    tasks = tuple(f"task_{i}" for i in range(5))
    actions = {
        key: ActionSpec(key=key, category=ActionCategory.MANIPULATION,
                        duration_range_s=(18.0, 22.0), requires_object=True,
                        is_movement_only=False, verb_phrase=f"works on crate {i}")
        for i, key in enumerate(tasks)
    }
    actions["walk_to"] = ActionSpec(
        key="walk_to", category=ActionCategory.LOCOMOTION,
        duration_range_s=(2.0, 10.0), requires_object=False,
        is_movement_only=True, verb_phrase="walks over")
    transitions = {key: tasks for key in tasks}
    pois = tuple(
        PoiSpec(f"floor.p{k}", (2.0 + 8.0 * k, 2.0, 0.0), tasks, transitions,
                ("crate",) * 7)
        for k in range(2))
    region = RegionSpec("floor", "workshop", ((0, 0, 0), (12, 8, 3)), pois)
    episode = EpisodeSpec("warehouse", "stress", (region,))
    return CapabilityRegistry(episodes=(episode,),
                              actor_models=("female_a", "male_a"),
                              object_types=("crate",), actions=actions)


def test_ac10_throughput_of_one_large_story(tmp_path):
    registry = _scale_registry()
    cfg = GenConfig(actors_min_max=(2, 2), chains_per_actor=4,
                    regions_to_visit=1, interaction_prob=0.0,
                    exchange_prob=0.0, relation_prob=0.0, master_seed=17)

    chosen = None
    for index in range(40):
        graph = generate_story(cfg, registry, index)
        assert not validate(graph, registry)
        world = ground(graph, registry, story_rng(graph.seed, "ground"))
        augmented = insert_movements(graph, world, registry)
        timeline = schedule(augmented, fps=25)
        events = sum(1 for e in augmented.events
                     if e.kind is not EventKind.MOVEMENT)
        entities = 1 + len(graph.actors) + len(graph.objects)
        frames = timeline.makespan() + CAMERA_SETTLE_FRAMES
        if 26 <= events <= 34 and 12 <= entities <= 18 \
                and 6000 <= frames <= 9500:
            chosen = index
            break
    assert chosen is not None, "no story index hit the target size windows"

    out = tmp_path / "throughput"
    out.mkdir()
    t0 = time.perf_counter()
    graph = generate_story(cfg, registry, chosen)
    assert not validate(graph, registry)
    world = ground(graph, registry, story_rng(graph.seed, "ground"))
    graph = insert_movements(graph, world, registry)
    timeline = schedule(graph, fps=25)
    log = simulate(world, graph, timeline)
    records = collect_story_relations(log)
    (out / "graph.json").write_bytes(serialize_graph(graph))
    (out / "timeline.json").write_bytes(serialize_timeline(timeline))
    binio.write_relations(out / "relations.bin", records, log.fps,
                          log.entity_ids, log.entity_kinds, log.entity_names)
    binio.write_framelog(out / "framelog.bin", log)
    mappings = collect_event_mappings(timeline, graph)
    (out / "events.jsonl").write_bytes(jsonl_document(
        {"event_id": m["event_id"], "start_frame": m["start_frame"],
         "end_frame": m["end_frame"]} for m in mappings))
    (out / "text.txt").write_bytes(
        (proto_text(graph, timeline, registry).full_text + "\n").encode())
    elapsed = time.perf_counter() - t0

    entities = log.entity_count
    assert len(records) == log.frame_count * entities * (entities - 1)
    assert len(records) >= 900_000
    assert elapsed < 10.0, (f"story {chosen}: {log.frame_count} frames, "
                            f"{entities} entities, {len(records)} records "
                            f"in {elapsed:.2f} s")
