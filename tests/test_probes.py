"""Clip extraction arithmetic, probe labels on crafted scenes, splits,
and the hybrid frame sampler."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from storysim.default_registry import build_default_registry
from storysim.documents import jsonl_document
from storysim.model import EntityKind, EventKind
from storysim.pipeline import CorpusConfig, build_story
from storysim.probes import (
    ClipSpec,
    ProbeConfig,
    clip_frame_indices,
    extract_story_clips,
    hybrid_sample,
    labels_document,
    split_stories,
)
from storysim import probes_oracle
from storysim.probes_oracle import _still, oracle_rows
from storysim.procgen import GenConfig
from storysim.scheduling import EventTimeline
from storysim.simulation import FrameLog, visible_mask
from storysim.textgen import ProtoText  # noqa: F401  (import sanity for __init__)

from _oracles import oracle_clip, per_clip_labels

CFG = ProbeConfig()


def synth_log(tracks: dict[int, np.ndarray], yaws: dict[int, np.ndarray] | None = None,
              kinds: dict[int, EntityKind] | None = None, fps: int = 25) -> FrameLog:
    """tracks: entity id -> (F, 3) positions; id 0 is the camera."""
    ids = tuple(sorted(tracks))
    frames = len(next(iter(tracks.values())))
    positions = np.stack([np.asarray(tracks[e], dtype=float) for e in ids], axis=1)
    yaw_arr = np.zeros((frames, len(ids)))
    for e, series in (yaws or {}).items():
        yaw_arr[:, ids.index(e)] = series
    kind_map = kinds or {}
    kind_list = tuple(
        EntityKind.CAMERA if e == 0 else kind_map.get(e, EntityKind.ACTOR)
        for e in ids)
    names = tuple("camera" if e == 0 else f"e{e}" for e in ids)
    return FrameLog(positions=positions, yaws=yaw_arr, fps=fps,
                    entity_ids=ids, entity_kinds=kind_list, entity_names=names)


def clip16(frame_count: int = 16) -> ClipSpec:
    return ClipSpec("s-ev0000", "s", 0, tuple(range(16)), "train")


def static(frames, x, y, z=0.0):
    return np.tile(np.array([x, y, z], dtype=float), (frames, 1))


def lerp_track(frames, p0, p1):
    t = np.linspace(0.0, 1.0, frames)[:, None]
    return np.asarray(p0, float) * (1 - t) + np.asarray(p1, float) * t


TL_EMPTY = EventTimeline(intervals={0: (0, 400)}, fps=25)


def label_row(log: FrameLog, timeline: EventTimeline = TL_EMPTY) -> dict:
    """The decoded labels.jsonl line of clip16 over log."""
    [line] = labels_document([clip16()], log, timeline, CFG).splitlines()
    return json.loads(line)


def scene_labels(log: FrameLog, timeline: EventTimeline = TL_EMPTY) -> dict:
    return label_row(log, timeline)["scene"]


def entity_labels(log: FrameLog, entity_id: int = 2) -> dict:
    return next(e for e in label_row(log)["entities"] if e["entity_id"] == entity_id)


def pair_labels(log: FrameLog, a: int = 2, b: int = 3) -> dict:
    return next(p for p in label_row(log)["pairs"] if (p["a"], p["b"]) == (a, b))


# ------------------------------------------------------- clip extraction

def test_clip_indices_at_25_fps():
    expected = (0, 6, 12, 19, 25, 31, 38, 44, 50, 56, 62, 69, 75, 81, 88, 94)
    assert clip_frame_indices(0, 25) == expected
    assert clip_frame_indices(100, 25) == tuple(100 + f for f in expected)


def test_clip_indices_at_native_rate():
    assert clip_frame_indices(0, 4) == tuple(range(16))


def test_clip_spec_rejects_unsorted_frames():
    with pytest.raises(ValueError):
        ClipSpec("x", "s", 0, (0, 0, 1), "train")


def test_eligibility_thresholds():
    registry = build_default_registry()
    cfg = CorpusConfig(gen=GenConfig(master_seed=4))
    graph, timeline, _ = build_story(cfg, registry, 1)
    movement = {k for k, a in registry.actions.items() if a.is_movement_only}
    clips = extract_story_clips("story", graph, timeline, movement, CFG, "val")
    assert clips
    index = graph.event_index()
    min_frames = round(CFG.min_event_s * timeline.fps)
    eligible = {ev.event_id for ev in graph.events
                if ev.kind is not EventKind.MOVEMENT
                and ev.action not in movement
                and timeline.end(ev.event_id) - timeline.start(ev.event_id)
                >= min_frames}
    assert {c.event_id for c in clips} == eligible
    for c in clips:
        ev = index[c.event_id]
        assert ev.kind is not EventKind.MOVEMENT
        assert c.clip_id == f"story-ev{c.event_id:04d}"
        assert c.split == "val"
        assert len(c.frame_indices) == 16
        assert c.frame_indices[0] == timeline.start(c.event_id)


def test_short_event_has_no_clip():
    from storysim.model import Actor, EntityId, Event, GestGraph, Gender
    actor = Actor(EntityId(1, EntityKind.ACTOR), "Anna", Gender.FEMALE, "f")
    events = (Event(0, actor.id, "chat", None, "p", 3.5, EventKind.ACTION),
              Event(1, actor.id, "chat", None, "p", 4.2, EventKind.ACTION))
    graph = GestGraph(actors=(actor,), objects=(), events=events, relations=(),
                      region_plan=("r",), seed=0)
    timeline = EventTimeline(intervals={0: (0, 88), 1: (88, 193)}, fps=25)
    clips = extract_story_clips("s", graph, timeline, set(), CFG, "train")
    assert [c.event_id for c in clips] == [1]  # 88 frames < 100 <= 105


# ----------------------------------------------------------- scene labels

def test_actor_count_quorum_and_clamp():
    frames = 16
    # a2 north (visible), a3 south (never visible), a4 visible 8/16 frames,
    # a5 visible only 7/16 frames
    a4 = static(frames, 0, 5)
    a4[8:] = (0, -5, 0)
    a5 = static(frames, 0, -5)
    a5[:7] = (0, 5, 0)
    log = synth_log({0: static(frames, 0, 0), 2: static(frames, 0, 5),
                     3: static(frames, 0, -5), 4: a4, 5: a5})
    labels = scene_labels(log)
    assert labels["actor_count"] == 2  # a2 always, a4 at exactly half

    none_visible = synth_log({0: static(frames, 0, 0), 2: static(frames, 0, -5)})
    assert scene_labels(none_visible)["actor_count"] == 1

    crowd = {0: static(frames, 0, 0)}
    crowd.update({e: static(frames, e - 5.0, 5) for e in range(2, 9)})
    assert scene_labels(synth_log(crowd))["actor_count"] == 5


def test_event_boundary_is_strictly_inside():
    log = synth_log({0: static(16, 0, 0), 2: static(16, 0, 5)})
    clip = clip16()
    first, last = clip.frame_indices[0], clip.frame_indices[-1]
    inside = EventTimeline(intervals={0: (0, 400), 7: (5, 400)}, fps=25)
    assert scene_labels(log, inside)["event_boundary"] is True
    at_edges = EventTimeline(intervals={0: (0, 400), 7: (first, 400),
                                        8: (last, 600)}, fps=25)
    assert scene_labels(log, at_edges)["event_boundary"] is False
    own_only = EventTimeline(intervals={0: (3, 9)}, fps=25)
    assert scene_labels(log, own_only)["event_boundary"] is False


def test_motion_presence_threshold():
    moving = synth_log({0: static(16, 0, 0),
                        2: lerp_track(16, (0, 5, 0), (0.3, 5, 0))})
    assert scene_labels(moving)["motion_presence"] is True
    barely = synth_log({0: static(16, 0, 0),
                        2: lerp_track(16, (0, 5, 0), (0.1, 5, 0))})
    assert scene_labels(barely)["motion_presence"] is False
    # an object sliding does not count, only actors do
    obj = synth_log({0: static(16, 0, 0), 2: static(16, 0, 5),
                     3: lerp_track(16, (1, 5, 0), (4, 5, 0))},
                    kinds={3: EntityKind.OBJECT})
    assert scene_labels(obj)["motion_presence"] is False


# ---------------------------------------------------------- entity labels

def test_camera_distance_classes_half_open():
    for dist, expect in ((2.999, "near"), (3.0, "medium"), (7.999, "medium"),
                         (8.0, "far")):
        log = synth_log({0: static(16, 0, 0), 2: static(16, 0, dist)})
        assert entity_labels(log)["camera_distance"] == expect, f"d={dist}"


def test_entity_presence():
    log = synth_log({0: static(16, 0, 0), 2: static(16, 0, -5)})
    assert entity_labels(log)["entity_presence"] is False
    one_frame = static(16, 0, -5)
    one_frame[3] = (0, 5, 0)
    log2 = synth_log({0: static(16, 0, 0), 2: one_frame})
    assert entity_labels(log2)["entity_presence"] is True


def test_approach_recede():
    closer = synth_log({0: static(16, 0, 0), 2: lerp_track(16, (0, 5, 0), (0, 3, 0))})
    assert entity_labels(closer)["approach_recede"] == "approach"
    away = synth_log({0: static(16, 0, 0), 2: lerp_track(16, (0, 3, 0), (0, 5, 0))})
    assert entity_labels(away)["approach_recede"] == "recede"
    tiny = synth_log({0: static(16, 0, 0), 2: lerp_track(16, (0, 5, 0), (0, 5.05, 0))})
    assert entity_labels(tiny)["approach_recede"] is None


def test_angle_change_sign():
    d = 5.0
    # drift from due north to bearing -30: azimuth rises to +30 -> "left"
    end = (d * np.sin(np.radians(-30)), d * np.cos(np.radians(-30)), 0)
    left = synth_log({0: static(16, 0, 0), 2: lerp_track(16, (0, d, 0), end)})
    assert entity_labels(left)["angle_change"] == "left"
    right = synth_log({0: static(16, 0, 0), 2: lerp_track(16, end, (0, d, 0))})
    assert entity_labels(right)["angle_change"] == "right"
    end1 = (d * np.sin(np.radians(1.0)), d * np.cos(np.radians(1.0)), 0)
    slight = synth_log({0: static(16, 0, 0), 2: lerp_track(16, (0, d, 0), end1)})
    assert entity_labels(slight)["angle_change"] is None


# ------------------------------------------------------------ pair labels

def test_depth_order():
    log = synth_log({0: static(16, 0, 0), 2: static(16, 0, 2), 3: static(16, 0, 6)})
    assert pair_labels(log)["depth_order"] is True
    log = synth_log({0: static(16, 0, 0), 2: static(16, 0, 6), 3: static(16, 0, 2)})
    assert pair_labels(log)["depth_order"] is False


def test_pair_direction_is_camera_frame():
    tracks = {0: static(16, 0, 0), 2: static(16, 0, 2), 3: static(16, 0, 6)}
    assert pair_labels(synth_log(tracks))["pair_direction"] == "N"
    east_cam = synth_log(tracks, yaws={0: np.full(16, 90.0)})
    assert pair_labels(east_cam)["pair_direction"] == "W"


def test_pair_distance_classes():
    for gap, expect in ((1.9, "close"), (2.0, "medium"), (6.0, "far")):
        log = synth_log({0: static(16, 0, 0), 2: static(16, 0, 1),
                         3: static(16, 0, 1 + gap)})
        assert pair_labels(log)["pair_distance"] == expect


def test_relative_motion_with_epsilon_exclusion():
    def gap_log(d0, d1):
        return synth_log({0: static(16, 0, 0), 2: static(16, 0, 1),
                          3: lerp_track(16, (0, 1 + d0, 0), (0, 1 + d1, 0))})
    assert pair_labels(gap_log(3, 2))["relative_motion"] == "converging"
    assert pair_labels(gap_log(2, 3))["relative_motion"] == "diverging"
    assert pair_labels(gap_log(3, 3.09))["relative_motion"] is None
    assert pair_labels(gap_log(3, 2.91))["relative_motion"] is None
    assert pair_labels(gap_log(3, 3.11))["relative_motion"] == "diverging"


def test_label_clip_structure():
    log = synth_log({0: static(16, 0, 0), 2: static(16, 0, 2),
                     3: static(16, 1, 4), 4: static(16, 2, 6)},
                    kinds={4: EntityKind.OBJECT})
    doc = label_row(log)
    assert doc["clip_id"] == "s-ev0000"
    assert [e["entity_id"] for e in doc["entities"]] == [2, 3, 4]
    assert [(p["a"], p["b"]) for p in doc["pairs"]] == [(2, 3), (2, 4), (3, 4)]
    assert set(doc["scene"]) == {"actor_count", "event_boundary", "motion_presence"}


def test_label_lines_escape_the_clip_id_as_jsonl_document_does():
    # a quote, a backslash and a non-ASCII character, which json.dumps
    # escapes as \", \\ and \u00e9
    log = synth_log({0: static(16, 0, 0), 2: lerp_track(16, (0, 2, 0), (1, 5, 0)),
                     3: static(16, 1, 4)})
    clip = ClipSpec('s"\\é-ev0000', "s", 0, tuple(range(16)), "train")
    line = labels_document([clip], log, TL_EMPTY, CFG)
    assert line == jsonl_document(oracle_rows([clip], log, TL_EMPTY, CFG))
    assert line.isascii() and b'"clip_id":"s\\"\\\\\\u00e9-ev0000"' in line
    assert json.loads(line)["clip_id"] == clip.clip_id


def test_a_story_without_clips_has_an_empty_labels_document():
    log = synth_log({0: static(16, 0, 0), 2: static(16, 0, 2)})
    assert labels_document([], log, TL_EMPTY, CFG) == jsonl_document([]) == b""


# ---------------------------------------------------------------- splits

def test_split_counts_single_category():
    stories = [(f"story_{i:05d}", "office") for i in range(20)]
    assignment = split_stories(stories, seed=0)
    counts = {s: 0 for s in ("train", "val", "test")}
    for split in assignment.values():
        counts[split] += 1
    assert counts == {"train": 14, "val": 3, "test": 3}


def test_split_stratified_and_stable():
    stories = [(f"story_{i:05d}", ("office", "gym", "park", "cafe")[i % 4])
               for i in range(100)]
    assignment = split_stories(stories, seed=7)
    assert len(assignment) == 100
    per_cat: dict[str, dict[str, int]] = {}
    for (sid, cat) in stories:
        per_cat.setdefault(cat, {"train": 0, "val": 0, "test": 0})
        per_cat[cat][assignment[sid]] += 1
    for cat, counts in per_cat.items():
        assert counts == {"train": 17, "val": 4, "test": 4}, cat
    # insertion order must not matter
    shuffled = list(reversed(stories))
    assert split_stories(shuffled, seed=7) == assignment
    assert split_stories(stories, seed=8) != assignment

@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), True, "0.2",
                                   None, 10 ** 400],
                         ids=["nan", "inf", "-inf", "bool", "str", "null", "huge-int"])
def test_probe_config_refuses_a_value_that_is_not_a_finite_number(value):
    for name in ("motion_threshold_m", "min_event_s", "ambiguity_eps_m",
                 "ambiguity_eps_deg"):
        with pytest.raises(ValueError, match=f"^{name} is not a finite number$"):
            ProbeConfig(**{name: value})


# --------------------------------------------------------- hybrid sampler

def _toy_story(n_events: int, gap: int, dur: int, fps: int = 25):
    from storysim.model import Actor, EntityId, Event, GestGraph, Gender
    actor = Actor(EntityId(1, EntityKind.ACTOR), "Anna", Gender.FEMALE, "f")
    events = tuple(
        Event(i, actor.id, "chat", None, "p", dur / fps, EventKind.ACTION)
        for i in range(n_events))
    graph = GestGraph(actors=(actor,), objects=(), events=events, relations=(),
                      region_plan=("r",), seed=0)
    intervals = {i: (i * gap, i * gap + dur) for i in range(n_events)}
    return graph, EventTimeline(intervals=intervals, fps=fps)


def test_hybrid_includes_mids_and_fills():
    graph, tl = _toy_story(3, gap=100, dur=50)
    frames = hybrid_sample(graph, tl, 1000)
    mids = {25, 125, 225}
    assert mids <= set(frames)
    assert frames == sorted(set(frames))
    assert len(frames) <= 64
    # fill ticks ride the 1 fps grid
    extras = set(frames) - mids
    assert extras and all(f % 25 == 0 for f in extras)


def test_hybrid_caps_at_max_frames():
    graph, tl = _toy_story(80, gap=60, dur=40)
    frames = hybrid_sample(graph, tl, 80 * 60 + 100)
    assert len(frames) == 64
    mids = sorted({(s + e) // 2 for s, e in tl.intervals.values()})
    assert set(frames) <= set(mids)
    assert frames[0] == mids[0]
    assert frames == sorted(frames)


def test_hybrid_dedups_shared_mids():
    graph, tl = _toy_story(2, gap=0, dur=50)  # both events span (0, 50)
    # 100 s offer 100 fill ticks; the shared mid takes one slot of the 64
    frames = hybrid_sample(graph, tl, 100 * 25)
    assert frames.count(25) == 1
    assert len(frames) == 64
    assert frames == sorted(set(frames))


def test_hybrid_short_story_takes_every_tick():
    graph, tl = _toy_story(1, gap=0, dur=50)
    frames = hybrid_sample(graph, tl, 100)
    assert frames == [0, 25, 50, 75]


def test_hybrid_movement_events_excluded():
    from storysim.model import Actor, EntityId, Event, GestGraph, Gender
    actor = Actor(EntityId(1, EntityKind.ACTOR), "Anna", Gender.FEMALE, "f")
    events = (Event(0, actor.id, "chat", None, "p", 2.4, EventKind.ACTION),
              Event(1, actor.id, "walk_to", None, "q", 2.0, EventKind.MOVEMENT))
    graph = GestGraph(actors=(actor,), objects=(), events=events, relations=(),
                      region_plan=("r",), seed=0)
    # both mids lie off the 1 fps grid, so no fill tick can stand in for one
    tl = EventTimeline(intervals={0: (0, 60), 1: (60, 110)}, fps=25)
    frames = hybrid_sample(graph, tl, 110)
    assert 30 in frames and 85 not in frames
    assert frames == [0, 25, 30, 50, 75, 100]


# ------------------------------------------------------- oracle agreement

def test_labels_match_independent_oracle():
    registry = build_default_registry()
    cfg = CorpusConfig(gen=GenConfig(master_seed=4))
    graph, timeline, log = build_story(cfg, registry, 2)
    movement = {k for k, a in registry.actions.items() if a.is_movement_only}
    clips = extract_story_clips("s2", graph, timeline, movement, CFG, "train")
    for clip in itertools.islice(clips, 4):
        mine = labels_document([clip], log, timeline, CFG)
        theirs = jsonl_document(oracle_rows([clip], log, timeline, CFG))
        assert mine == theirs, clip.clip_id


def test_labels_match_oracle_on_every_clip_of_dense_stories():
    # six actors over three regions give about four times the pairs of
    # the default corpus; compare bytes, as verify does
    registry = build_default_registry()
    cfg = CorpusConfig(gen=GenConfig(master_seed=7, actors_min_max=(6, 6),
                                     max_actors_per_region=6, regions_to_visit=3,
                                     relation_prob=1.0, interaction_prob=0.6,
                                     exchange_prob=0.3))
    movement = {k for k, a in registry.actions.items() if a.is_movement_only}
    pairs = 0
    for index in range(3):
        graph, timeline, log = build_story(cfg, registry, index)
        clips = extract_story_clips(f"s{index}", graph, timeline, movement, CFG, "train")
        assert clips
        for clip, row in zip(clips, oracle_rows(clips, log, timeline, CFG)):
            mine = labels_document([clip], log, timeline, CFG)
            theirs = jsonl_document([row])
            assert mine == theirs, clip.clip_id
            pairs += len(json.loads(mine)["pairs"])
    assert pairs > 3000


DENSE = dict(actors_min_max=(6, 6), max_actors_per_region=6, regions_to_visit=3,
             relation_prob=1.0, interaction_prob=0.6, exchange_prob=0.3)


def assert_rows_match_reference(clips, log, timeline):
    """oracle_rows of the clips, encoded as verify encodes them, are the
    reference oracle's rows to the byte."""
    assert jsonl_document(oracle_rows(clips, log, timeline, CFG)) == jsonl_document(
        [oracle_clip(clip, log, timeline, CFG) for clip in clips])


@pytest.mark.parametrize("gen", [{}, DENSE], ids=["default", "dense"])
@pytest.mark.parametrize("seed", [7, 11])
def test_oracle_rows_are_the_reference_rows_on_every_clip(seed, gen):
    # clips of one event that share their frames share one window
    registry = build_default_registry()
    cfg = CorpusConfig(gen=GenConfig(master_seed=seed, **gen))
    movement = {k for k, a in registry.actions.items() if a.is_movement_only}
    clips_seen = windows = 0
    for index in range(8):
        graph, timeline, log = build_story(cfg, registry, index)
        clips = extract_story_clips(f"s{index}", graph, timeline, movement, CFG, "train")
        assert_rows_match_reference(clips, log, timeline)
        clips_seen += len(clips)
        windows += len({clip.frame_indices for clip in clips})
    assert windows < clips_seen


def test_oracle_builds_each_window_once(monkeypatch):
    built = []

    class CountingWindow(probes_oracle._Window):
        def __init__(self, frame_indices, *args):
            built.append(frame_indices)
            super().__init__(frame_indices, *args)

    monkeypatch.setattr(probes_oracle, "_Window", CountingWindow)
    registry = build_default_registry()
    cfg = CorpusConfig(gen=GenConfig(master_seed=7, **DENSE))
    movement = {k for k, a in registry.actions.items() if a.is_movement_only}
    graph, timeline, log = build_story(cfg, registry, 0)
    clips = extract_story_clips("s0", graph, timeline, movement, CFG, "train")
    assert_rows_match_reference(clips, log, timeline)
    frame_sets = {clip.frame_indices for clip in clips}
    assert len(frame_sets) < len(clips)
    assert sorted(built) == sorted(frame_sets)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_clips_sharing_a_window_keep_their_own_event_boundary(order):
    # event 0 ends inside the window and event 1 spans it: only the clip of
    # event 1 sees a boundary, since a clip's own event never marks one
    log = synth_log({0: static(16, 0, 0), 2: lerp_track(16, (0, 2, 0), (1, 5, 0)),
                     3: static(16, 1, 4)})
    timeline = EventTimeline(intervals={0: (0, 10), 1: (0, 40)}, fps=25)
    clips = [ClipSpec(f"s-ev{e:04d}", "s", e, tuple(range(16)), "train") for e in order]
    rows = list(oracle_rows(clips, log, timeline, CFG))
    assert {clip.event_id: row["scene"]["event_boundary"]
            for clip, row in zip(clips, rows)} == {0: False, 1: True}
    assert rows[0]["pairs"] == rows[1]["pairs"]
    assert_rows_match_reference(clips, log, timeline)


def test_oracle_rows_of_no_clip_one_entity_and_coincident_entities():
    log = synth_log({0: static(16, 0, 0), 2: static(16, 0, 2)})
    assert list(oracle_rows([], log, TL_EMPTY, CFG)) == []
    [row] = oracle_rows([clip16()], log, TL_EMPTY, CFG)
    assert [e["entity_id"] for e in row["entities"]] == [2] and row["pairs"] == []
    assert_rows_match_reference([clip16()], log, TL_EMPTY)
    # two entities on one spot in every frame, then in the first half only
    log = synth_log({0: static(16, 0, 0), 2: static(16, 1, 4), 3: static(16, 1, 4)},
                    kinds={3: EntityKind.OBJECT})
    [row] = oracle_rows([clip16()], log, TL_EMPTY, CFG)
    assert row["pairs"] == [{"a": 2, "b": 3, "depth_order": False,
                             "pair_direction": "N", "pair_distance": "close",
                             "relative_motion": None}]
    assert_rows_match_reference([clip16()], log, TL_EMPTY)
    parting = static(16, 1, 4)
    parting[8:] = (3, 4, 0)
    log = synth_log({0: static(16, 0, 0), 2: static(16, 1, 4), 3: parting})
    assert_rows_match_reference([clip16()], log, TL_EMPTY)


def test_a_camera_that_stands_and_turns_sees_each_frame_anew():
    # the camera turns 12 degrees a frame on one spot, so two still actors
    # to its north are in view for 4 of 16 frames: short of the quorum
    log = synth_log({0: static(16, 0, 0), 2: static(16, 0, 5), 3: static(16, 1, 5)},
                    yaws={0: np.arange(16) * 12.0})
    [row] = oracle_rows([clip16()], log, TL_EMPTY, CFG)
    assert row["scene"]["actor_count"] == 1
    assert all(e["entity_presence"] for e in row["entities"])
    assert_rows_match_reference([clip16()], log, TL_EMPTY)


def test_a_still_column_repeats_each_value_to_the_bit():
    # 0.0 == -0.0, but a bearing of a -0.0 offset differs from a 0.0 one's
    assert _still([1.5] * 16) and _still([0.0] * 16) and _still([-0.0] * 16)
    assert not _still([0.0] * 15 + [-0.0]) and not _still([-0.0, 0.0])
    assert not _still([1.5] * 15 + [1.5000000000000002])


# ------------------------------------------- story pass vs per-clip labeller

def assert_story_pass_matches_per_clip(clips, log, timeline, cfg):
    vis = visible_mask(log)
    assert labels_document(clips, log, timeline, cfg) == jsonl_document(
        [per_clip_labels(clip, log, timeline, cfg, vis) for clip in clips])


@pytest.mark.parametrize("seed", [7, 11])
def test_story_pass_matches_per_clip_labels_on_dense_stories(seed):
    registry = build_default_registry()
    cfg = CorpusConfig(gen=GenConfig(master_seed=seed, actors_min_max=(6, 6),
                                     max_actors_per_region=6, regions_to_visit=3,
                                     relation_prob=1.0, interaction_prob=0.6,
                                     exchange_prob=0.3))
    movement = {k for k, a in registry.actions.items() if a.is_movement_only}
    for index in range(3):
        graph, timeline, log = build_story(cfg, registry, index)
        clips = extract_story_clips(f"s{index}", graph, timeline, movement, CFG, "train")
        assert len(clips) > 1
        assert_story_pass_matches_per_clip(clips, log, timeline, CFG)


# the class bounds of both distance labels, and directions whose squares
# add up to 1 in exact arithmetic, so rounding decides a distance's class
_BOUNDS_M = (2.0, 3.0, 6.0, 8.0)
_UNITS = ((2 / 7, 3 / 7, 6 / 7), (1 / 3, 2 / 3, 2 / 3), (2 / 11, 6 / 11, 9 / 11),
          (0.6, 0.8, 0.0))
_COORDS = (0.0, -0.0, 1.0, -2.5, 3.0, 6.0)
_YAWS = (-180.0, 180.0, 0.0, -0.0, 90.0, -22.5)
_TRACKS = ("grid", "random", "origin", "camera", "copy", "bound", "compass-edge")


def _track(kind, rng, frames, cam, cam_yaw, tracks):
    """(frames, 3) positions of one entity; tracks holds those drawn before.
    A bound or compass-edge track lies off another entity, or off the
    camera when it is the first."""
    anchor = tracks[int(rng.integers(len(tracks)))] if tracks else cam
    if kind == "grid":
        return rng.choice(_COORDS, (frames, 3))
    if kind == "origin":
        return np.tile(rng.choice((0.0, -0.0), 3), (frames, 1))
    if kind == "camera":
        return cam.copy()
    if kind == "copy":
        return anchor.copy()
    if kind == "bound":
        unit = rng.permutation(_UNITS[int(rng.integers(len(_UNITS)))])
        return anchor + rng.choice(_BOUNDS_M) * rng.choice((-1.0, 1.0), 3) * unit
    if kind == "compass-edge":
        # directions alternate frame by frame about a compass bin edge in
        # the camera's frame, so over 16 consecutive frames their mean
        # lies on the edge
        edge = np.radians(cam_yaw + 22.5 + 45.0 * int(rng.integers(8)))
        theta = edge + (-1.0) ** np.arange(frames) * rng.uniform(0.01, 0.5)
        ring = np.stack([np.sin(theta), np.cos(theta), np.zeros(frames)], axis=1)
        return anchor + rng.uniform(1.0, 9.0) * ring
    return rng.normal(0.0, 4.0, (frames, 3))


def test_story_pass_matches_per_clip_labels_about_compass_edges():
    # seven entities about a hub at the origin, each in directions whose
    # mean over any clip lies on a compass bin edge, labelled in 65
    # overlapping clips: the order of the sine and cosine sums picks the bin
    rng = np.random.default_rng(5)
    frames, fps = 80, 4
    cam_yaw = rng.uniform(-180.0, 180.0, frames)
    hub = static(frames, 0.0, 0.0)
    tracks = {0: static(frames, 0.0, -1.0), 1: hub}
    for e in range(2, 9):
        tracks[e] = _track("compass-edge", rng, frames, tracks[0], cam_yaw, [hub])
    log = synth_log(tracks, yaws={0: cam_yaw}, fps=fps)
    starts = range(frames - 15)
    timeline = EventTimeline(intervals={i: (i, min(i + 20, frames)) for i in starts},
                             fps=fps)
    clips = [ClipSpec(f"s-ev{i:04d}", "s", i, clip_frame_indices(i, fps), "train")
             for i in starts]
    assert_story_pass_matches_per_clip(clips, log, timeline, CFG)


@st.composite
def probe_stories(draw):
    """Clips, frame log and timeline of a story of one actor's events; with
    min_event_s 1 a short event's own end falls inside its clip."""
    fps = draw(st.sampled_from((4, 25)))
    span = clip_frame_indices(0, fps)[-1] + 1
    events = draw(st.lists(st.tuples(st.integers(0, 2 * span), st.integers(1, 2 * span)),
                           max_size=4))
    kinds = draw(st.lists(st.sampled_from(_TRACKS), min_size=1, max_size=5))
    objects = draw(st.lists(st.booleans(), min_size=len(kinds), max_size=len(kinds)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    from storysim.model import Actor, EntityId, Event, GestGraph, Gender
    actor = Actor(EntityId(1, EntityKind.ACTOR), "Anna", Gender.FEMALE, "f")
    graph = GestGraph(actors=(actor,), objects=(), region_plan=("r",), seed=0,
                      relations=(),
                      events=tuple(Event(i, actor.id, "chat", None, "p", d / fps,
                                         EventKind.ACTION)
                                   for i, (_, d) in enumerate(events)))
    timeline = EventTimeline(intervals={i: (s, s + d) for i, (s, d) in enumerate(events)},
                             fps=fps)
    cfg = ProbeConfig(min_event_s=1.0)
    clips = extract_story_clips("s", graph, timeline, set(), cfg, "train")

    frames = max([s + max(d, span) for s, d in events], default=span)
    cam = (np.tile(rng.choice(_COORDS, 3), (frames, 1)) if rng.integers(2)
           else rng.normal(0.0, 4.0, (frames, 3)))
    cam_yaw = (rng.choice(_YAWS, frames) if rng.integers(2)
               else rng.uniform(-180.0, 180.0, frames))
    tracks = []
    for kind in kinds:
        tracks.append(_track(kind, rng, frames, cam, cam_yaw, tracks))
    # frame-log columns in an order other than entity id order
    ids = [0] + [int(e) for e in rng.permutation(np.arange(2, len(kinds) + 2))]
    by_id = {0: cam, **{2 + k: t for k, t in enumerate(tracks)}}
    yaws = np.zeros((frames, len(ids)))
    yaws[:, 0] = cam_yaw
    log = FrameLog(
        positions=np.stack([by_id[e] for e in ids], axis=1), yaws=yaws, fps=fps,
        entity_ids=tuple(ids),
        entity_kinds=tuple(EntityKind.CAMERA if e == 0 else
                           EntityKind.OBJECT if objects[e - 2] else EntityKind.ACTOR
                           for e in ids),
        entity_names=tuple(f"e{e}" for e in ids))
    return clips, log, timeline, cfg


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(probe_stories())
def test_story_pass_matches_per_clip_labels_on_edge_cases(story):
    assert_story_pass_matches_per_clip(*story)
