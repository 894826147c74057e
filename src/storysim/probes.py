"""Probe clips, ground-truth labels for the 11 spatiotemporal tasks,
story-level splits, and the event-aware hybrid frame sampler.

Clips take 16 frames at 4 fps from the start of any non-movement event
lasting at least 4 seconds.  Labels are pure functions of the frame log
and timeline.  Class bounds are half-open [low, high): a value exactly
at a bound belongs to the upper class.  Dynamic labels whose delta
falls inside the ambiguity epsilon are excluded (None) rather than
coin-flipped.

labels_document labels a story in one pass, straight to the lines of
labels.jsonl.  It gathers every clip frame of the frame log once, as
(clips, 16) frames, and runs visible_mask once on a frame log of those
frames only.  The entity and pair arrays of all the story's clips are
then computed together, each in the order labelling its clip alone would
use, so a row's bytes do not depend on the clips labelled with it:

- direction sines and cosines add up frame by frame from 0;
- means run over C-contiguous rows of clip frames;
- pair distances, and the camera distances depth order compares, use
  the dot kernel of _norms; entity camera distances sum their squares;
- wraps and compass bins use numpy's float % and //, which are Python's.

Each label value is picked from the story arrays as its JSON text, out
of one table of tokens (_TOKEN), and label_clip joins a clip's texts
into its row's fields.  The lines hold the bytes documents.jsonl_document
writes for the same rows: keys in sorted order, no spaces, ASCII only.
verify encodes the oracle's rows with jsonl_document and compares bytes,
so each replayed row checks the two encoders as well as the two
labellers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields, replace
from typing import ClassVar, NamedTuple

import numpy as np

from .model import MAX_FPS, EntityKind, EventKind, GestGraph, is_finite_number
from .scheduling import EventTimeline
from .simulation import CAMERA_ID, FrameLog, story_frames, visible_mask
from .collectors import COMPASS_NAMES

SPLITS = ("train", "val", "test")


@dataclass(frozen=True)
class ProbeConfig:
    motion_threshold_m: float = 0.2
    min_event_s: float = 4.0
    ambiguity_eps_m: float = 0.1
    ambiguity_eps_deg: float = 2.0
    # fixed by the probe task definitions, not settable
    CLIP_FPS: ClassVar[int] = 4
    CLIP_FRAMES: ClassVar[int] = 16
    CAMERA_DIST_BOUNDS_M: ClassVar[tuple[float, float]] = (3.0, 8.0)
    PAIR_DIST_BOUNDS_M: ClassVar[tuple[float, float]] = (2.0, 6.0)
    SPLIT_FRACS: ClassVar[tuple[float, float, float]] = (0.70, 0.15, 0.15)

    def __post_init__(self):
        for f in fields(self):
            if not is_finite_number(getattr(self, f.name)):
                raise ValueError(f"{f.name} is not a finite number")

    @staticmethod
    def fps_problem(fps: int) -> str | None:
        """The rule a story's fps breaks, or None: below the clip rate its
        clip frames would collide, and the binaries store it as a u16."""
        if fps < ProbeConfig.CLIP_FPS:
            return f"fps must be at least {ProbeConfig.CLIP_FPS}, the clip rate"
        if fps > MAX_FPS:
            return f"fps must be at most {MAX_FPS}, the binaries' u16 fps field"
        return None


# the hybrid sampler's frame budget and its top-up rate
HYBRID_MAX_FRAMES = 64
HYBRID_FILL_FPS = 1


@dataclass(frozen=True)
class ClipSpec:
    clip_id: str
    story_id: str
    event_id: int
    frame_indices: tuple[int, ...]
    split: str

    def __post_init__(self):
        if list(self.frame_indices) != sorted(set(self.frame_indices)):
            raise ValueError(f"clip {self.clip_id}: frames must strictly increase")


def clip_frame_indices(start: int, fps: int) -> tuple[int, ...]:
    step = fps / ProbeConfig.CLIP_FPS
    return tuple(start + int(round(k * step)) for k in range(ProbeConfig.CLIP_FRAMES))


def extract_story_clips(story_id: str, graph: GestGraph, timeline: EventTimeline,
                        movement_actions: set[str], cfg: ProbeConfig,
                        split: str) -> list[ClipSpec]:
    """Clips for one story; eligibility: non-movement action lasting at
    least min_event_s, whose clip frames all lie inside the story_frames
    that simulate writes."""
    min_frames = round(cfg.min_event_s * timeline.fps)
    frame_count = story_frames(timeline)
    out = []
    for ev in graph.events:
        if ev.kind is EventKind.MOVEMENT or ev.action in movement_actions:
            continue
        start, end = timeline.interval(ev.event_id)
        frames = clip_frame_indices(start, timeline.fps)
        if end - start < min_frames or frames[-1] >= frame_count:
            continue
        out.append(ClipSpec(
            clip_id=f"{story_id}-ev{ev.event_id:04d}",
            story_id=story_id,
            event_id=ev.event_id,
            frame_indices=frames,
            split=split,
        ))
    return out


def split_stories(stories, seed: int) -> dict[str, str]:
    """Stratified story-level split: {story_id: train|val|test}.

    Within each category the shuffle is seeded independently, so the
    assignment is stable under story insertion order.
    """
    strata: dict[str, list[str]] = {}
    for story_id, category in stories:
        strata.setdefault(category, []).append(story_id)
    assignment: dict[str, str] = {}
    for category in sorted(strata):
        ids = sorted(strata[category])
        random.Random(f"{seed}|{category}").shuffle(ids)
        counts = _largest_remainder(len(ids), ProbeConfig.SPLIT_FRACS)
        pos = 0
        for split, count in zip(SPLITS, counts):
            for sid in ids[pos:pos + count]:
                assignment[sid] = split
            pos += count
    return assignment


def _largest_remainder(n: int, fracs) -> list[int]:
    raw = [n * f for f in fracs]
    base = [int(x) for x in raw]
    short = n - sum(base)
    # distribute leftovers by descending fractional part, ties by order
    order = sorted(range(len(fracs)), key=lambda i: (base[i] - raw[i], i))
    for i in order[:short]:
        base[i] += 1
    return base


# the JSON text of every label value: a class name, a bool or None
_TOKEN = {value: json.dumps(value) for value in (
    None, True, False, "near", "medium", "far", "close", "left", "right", "approach",
    "recede", "converging", "diverging", *COMPASS_NAMES)}


def _pick(values, index: np.ndarray) -> list:
    """The JSON text of values[i] for each i in index, as nested lists."""
    return np.array([_TOKEN[v] for v in values], dtype=object)[index].tolist()


def _bools(mask: np.ndarray) -> list:
    """The JSON text of each bool of mask, as nested lists."""
    return _pick((False, True), mask.astype(np.intp))


def _classes(values: np.ndarray, bounds, names) -> list:
    """The JSON text of the names of the half-open classes below, between
    and from the two bounds that values fall in."""
    lo, hi = bounds
    return _pick(names, np.where(values < lo, 0, np.where(values < hi, 1, 2)))


def _wrap_signed(deg: np.ndarray) -> np.ndarray:
    """wrap_signed of each angle: numpy's % on floats is Python's."""
    w = deg % 360.0
    return np.where(w > 180.0, w - 360.0, w)


def _norms(v: np.ndarray) -> np.ndarray:
    """Lengths of the (..., frames, columns, 3) vectors v as
    (..., columns, frames) C-contiguous rows.  A stacked (1, 3) @ (3, 1)
    product runs the dot kernel that np.linalg.norm uses for one vector;
    its rounding can differ from a sum of squares."""
    lengths = np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])
    return np.ascontiguousarray(np.swapaxes(lengths, -1, -2))


class _StoryRows(NamedTuple):
    """A story's label values as JSON texts in nested lists, indexed
    [clip], [clip][entity] or [clip][pair]; entities run in entity id
    order, pairs in row-major (a < b) order."""
    # the text of each entity's and each pair's ids with the keys about
    # them: ',"entity_id":2,"entity_presence":' and '{"a":2,"b":3,"depth_order":'
    entity_keys: list[str]
    pair_keys: list[str]
    actor_count: list[int]
    event_boundary: list[str]
    motion_presence: list[str]
    entity_presence: list[list[str]]
    camera_distance: list[list[str]]
    angle_change: list[list[str]]
    approach_recede: list[list[str]]
    depth_order: list[list[str]]
    pair_direction: list[list[str]]
    pair_distance: list[list[str]]
    relative_motion: list[list[str]]


def _story_rows(clips: list[ClipSpec], log: FrameLog, timeline: EventTimeline,
                cfg: ProbeConfig) -> _StoryRows:
    """Every label value of a story's clips as its JSON text, from one
    gather of the clip frames; each value is computed as labelling its
    clip alone would."""
    entity_ids = sorted(e for e, k in zip(log.entity_ids, log.entity_kinds)
                        if k in (EntityKind.ACTOR, EntityKind.OBJECT))
    cols = [log.index_of(e) for e in entity_ids]
    cam = log.index_of(CAMERA_ID)
    actor_cols = [i for i, k in enumerate(log.entity_kinds) if k is EntityKind.ACTOR]
    frames = np.array([c.frame_indices for c in clips])  # (clips, clip frames)
    at = log.positions[frames]  # (clips, clip frames, log entities, 3)
    yaws = log.yaws[frames]
    vis = visible_mask(replace(log, positions=at.reshape(-1, *at.shape[2:]),
                               yaws=yaws.reshape(-1, yaws.shape[2]))).reshape(yaws.shape)

    # scene: an actor counts when seen on at least half the clip frames;
    # a boundary is a start or end of another event strictly inside the
    # clip, so the clip's own event is taken out of the count
    seen = vis[:, :, actor_cols].sum(axis=1)
    actor_count = np.clip((seen * 2 >= frames.shape[1]).sum(axis=1), 1, 5)
    firsts, lasts = frames[:, 0], frames[:, -1]
    bounds = np.sort(np.array(list(timeline.intervals.values())).ravel())
    lo, hi = np.searchsorted(bounds, [firsts + 1, lasts])
    own = np.array([timeline.intervals.get(c.event_id, (c.frame_indices[0],) * 2)
                    for c in clips])
    own_inside = ((firsts[:, None] < own) & (own < lasts[:, None])).sum(axis=1)
    moved = at[:, -1, actor_cols] - at[:, 0, actor_cols]
    motion = (np.linalg.norm(moved, axis=-1) > cfg.motion_threshold_m).any(axis=1)

    pos = at[:, :, cols]
    rel = pos - at[:, :, cam:cam + 1]
    cam_yaw = yaws[:, :, cam]
    # entities: camera distances sum their squares in x, y, z order, as
    # numpy sums one 3-vector; means run over C-contiguous rows of clip
    # frames, as np.mean of one entity's frame series does
    dists = np.sqrt((rel * rel).sum(axis=-1))  # (clips, clip frames, entities)
    cam_dist_means = np.ascontiguousarray(np.swapaxes(dists, 1, 2)).mean(axis=-1)
    d_d = dists[:, -1] - dists[:, 0]
    ends = rel[:, [0, -1]]
    bearings = np.degrees(np.arctan2(ends[..., 0], ends[..., 1]))
    azimuths = _wrap_signed(cam_yaw[:, [0, -1], None] - bearings)
    d_az = _wrap_signed(azimuths[:, 1] - azimuths[:, 0])

    # pairs: distances, and the camera distances depth order compares, run
    # the dot kernel; direction sines and cosines add up frame by frame
    # from 0, vectorised across clips and pairs
    ia, ib = np.triu_indices(len(cols), 1)
    depth_means = _norms(rel).mean(axis=-1)
    gap = pos[:, :, ib] - pos[:, :, ia]
    dpair = _norms(gap)  # (clips, pairs, clip frames)
    theta = np.arctan2(gap[..., 0], gap[..., 1]) - np.radians(cam_yaw)[..., None]
    sines, cosines = np.sin(theta), np.cos(theta)
    sin_sum = np.zeros((len(clips), len(ia)))
    cos_sum = np.zeros((len(clips), len(ia)))
    for f in range(frames.shape[1]):
        sin_sum += sines[:, f]
        cos_sum += cosines[:, f]
    mean_dirs = np.degrees(np.arctan2(sin_sum, cos_sum))
    # compass_bin's arithmetic: numpy's // on floats is Python's
    compass = np.minimum(((mean_dirs + 22.5) % 360.0) // 45.0, 7).astype(int)
    deltas = dpair[..., -1] - dpair[..., 0]

    return _StoryRows(
        entity_keys=[f',"entity_id":{e},"entity_presence":' for e in entity_ids],
        pair_keys=[f'{{"a":{entity_ids[a]},"b":{entity_ids[b]},"depth_order":'
                   for a, b in zip(ia.tolist(), ib.tolist())],
        actor_count=actor_count.tolist(),
        event_boundary=_bools(hi - lo > own_inside),
        motion_presence=_bools(motion),
        entity_presence=_bools(vis[:, :, cols].any(axis=1)),
        camera_distance=_classes(cam_dist_means, cfg.CAMERA_DIST_BOUNDS_M,
                                 ("near", "medium", "far")),
        angle_change=_pick((None, "left", "right"), np.where(
            abs(d_az) >= cfg.ambiguity_eps_deg, np.where(d_az > 0, 1, 2), 0)),
        approach_recede=_pick((None, "approach", "recede"), np.where(
            abs(d_d) >= cfg.ambiguity_eps_m, np.where(d_d < 0, 1, 2), 0)),
        depth_order=_bools(depth_means[:, ia] < depth_means[:, ib]),
        pair_direction=_pick(COMPASS_NAMES, compass),
        pair_distance=_classes(dpair.mean(axis=-1), cfg.PAIR_DIST_BOUNDS_M,
                               ("close", "medium", "far")),
        relative_motion=_pick((None, "converging", "diverging"), np.where(
            deltas < -cfg.ambiguity_eps_m, 1,
            np.where(deltas > cfg.ambiguity_eps_m, 2, 0))),
    )


def label_clip(clip: ClipSpec, n: int, rows: _StoryRows) -> dict:
    """The labels row of clip, the n-th clip of the story pass `rows`, as
    encoded fields: clip_id and scene as JSON texts, and entities and
    pairs as lists of the JSON texts of their objects, one for every
    actor/object entity and every canonical (a < b) entity pair.  Keys
    run in sorted order, as jsonl_document writes them."""
    return {
        "clip_id": json.dumps(clip.clip_id),
        "scene": f'{{"actor_count":{rows.actor_count[n]},'
                 f'"event_boundary":{rows.event_boundary[n]},'
                 f'"motion_presence":{rows.motion_presence[n]}}}',
        "entities": [
            f'{{"angle_change":{angle},"approach_recede":{approach},'
            f'"camera_distance":{dist}{keys}{seen}}}'
            for keys, seen, dist, angle, approach in zip(
                rows.entity_keys, rows.entity_presence[n], rows.camera_distance[n],
                rows.angle_change[n], rows.approach_recede[n])],
        "pairs": [
            f'{keys}{depth},"pair_direction":{direction},"pair_distance":{dist},'
            f'"relative_motion":{motion}}}'
            for keys, depth, direction, dist, motion in zip(
                rows.pair_keys, rows.depth_order[n], rows.pair_direction[n],
                rows.pair_distance[n], rows.relative_motion[n])],
    }


def labels_document(clips: list[ClipSpec], log: FrameLog, timeline: EventTimeline,
                    cfg: ProbeConfig) -> bytes:
    """The bytes of a story's labels.jsonl: one line per clip, labelled in
    one pass over the story and written straight from its arrays.

    One gather reads every clip frame of the frame log, and visible_mask
    runs once, on a frame log of those frames only.  The entity and pair
    arrays of all clips are computed at once, in the order that labelling
    each clip alone would use, so the lines are the same to the bit:
    direction sines and cosines add up frame by frame from 0, means run
    over C-contiguous rows of clip frames, pair and depth-order distances
    use the dot kernel and entity camera distances a sum of squares.  A
    clip's own event never marks its boundary, even when its end falls
    inside the clip.  label_clip encodes each clip's fields, and each line
    joins them in sorted key order, with jsonl_document's separators.
    """
    if not clips:
        return b""
    rows = _story_rows(clips, log, timeline, cfg)
    lines = []
    for n, clip in enumerate(clips):
        row = label_clip(clip, n, rows)
        entities, pairs = ",".join(row["entities"]), ",".join(row["pairs"])
        lines.append(f'{{"clip_id":{row["clip_id"]},"entities":[{entities}],'
                     f'"pairs":[{pairs}],"scene":{row["scene"]}}}\n')
    return "".join(lines).encode("ascii")


def hybrid_sample(graph: GestGraph, timeline: EventTimeline,
                  frame_count: int) -> list[int]:
    """Event-aware frame subset: every non-movement event's mid frame,
    topped up with evenly spaced 1 fps frames, capped at 64 frames."""
    mids = sorted({(s + e) // 2
                   for ev in graph.events
                   if ev.kind is not EventKind.MOVEMENT
                   for s, e in [timeline.interval(ev.event_id)]})
    if len(mids) > HYBRID_MAX_FRAMES:
        n = len(mids)
        return [mids[(i * n) // HYBRID_MAX_FRAMES] for i in range(HYBRID_MAX_FRAMES)]
    chosen = set(mids)
    stride = max(1, round(timeline.fps / HYBRID_FILL_FPS))
    candidates = [t for t in range(0, frame_count, stride) if t not in chosen]
    slots = HYBRID_MAX_FRAMES - len(chosen)
    if len(candidates) > slots:
        n = len(candidates)
        candidates = [candidates[(i * n) // slots] for i in range(slots)] if slots else []
    return sorted(chosen.union(candidates))
