"""Probe clips, ground-truth labels for the 11 spatiotemporal tasks,
story-level splits, and the event-aware hybrid frame sampler.

Clips take 16 frames at 4 fps from the start of any non-movement event
lasting at least 4 seconds.  Labels are pure functions of the frame log
and timeline.  Class bounds are half-open [low, high): a value exactly
at a bound belongs to the upper class.  Dynamic labels whose delta
falls inside the ambiguity epsilon are excluded (None) rather than
coin-flipped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .model import EntityKind, EventKind, GestGraph, is_finite_number
from .scheduling import EventTimeline
from .simulation import CAMERA_ID, FrameLog, wrap_signed
from .collectors import compass_bin, COMPASS_NAMES

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
    """Clips for one story; eligibility: non-movement action, >= 4 s."""
    min_frames = round(cfg.min_event_s * timeline.fps)
    out = []
    for ev in graph.events:
        if ev.kind is EventKind.MOVEMENT or ev.action in movement_actions:
            continue
        start, end = timeline.interval(ev.event_id)
        if end - start < min_frames:
            continue
        out.append(ClipSpec(
            clip_id=f"{story_id}-ev{ev.event_id:04d}",
            story_id=story_id,
            event_id=ev.event_id,
            frame_indices=clip_frame_indices(start, timeline.fps),
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


def _dist_class(value: float, bounds, names=("near", "medium", "far")) -> str:
    lo, hi = bounds
    if value < lo:
        return names[0]
    if value < hi:
        return names[1]
    return names[2]


def label_scene(clip: ClipSpec, log: FrameLog, timeline: EventTimeline,
                cfg: ProbeConfig, vis: np.ndarray) -> dict:
    frames = np.array(clip.frame_indices)
    actor_cols = [i for i, k in enumerate(log.entity_kinds) if k is EntityKind.ACTOR]
    seen = vis[frames][:, actor_cols].sum(axis=0)
    count = int((seen * 2 >= len(frames)).sum())
    actor_count = min(max(count, 1), 5)

    first, last = clip.frame_indices[0], clip.frame_indices[-1]
    boundary = False
    for event_id, (s, e) in timeline.intervals.items():
        if event_id == clip.event_id:
            continue
        if first < s < last or first < e < last:
            boundary = True
            break

    moved = log.positions[last, actor_cols] - log.positions[first, actor_cols]
    motion = bool((np.linalg.norm(moved, axis=1) > cfg.motion_threshold_m).any())
    return {"actor_count": actor_count, "event_boundary": boundary,
            "motion_presence": motion}


@dataclass(frozen=True)
class _ClipGeometry:
    """Clip-frame geometry of some entity columns, from one gather of the
    frame log."""
    ids: tuple[int, ...]
    cols: list[int]  # frame-log columns of ids
    frames: list[int]
    pos: np.ndarray  # (clip frames, entities, 3)
    rel: np.ndarray  # pos minus the camera position
    cam_yaw: np.ndarray  # (clip frames,)


def _clip_geometry(clip: ClipSpec, log: FrameLog, entity_ids) -> _ClipGeometry:
    cols = [log.index_of(e) for e in entity_ids]
    cam = log.index_of(CAMERA_ID)
    frames = list(clip.frame_indices)
    at = log.positions[frames]
    pos = at[:, cols]
    return _ClipGeometry(tuple(entity_ids), cols, frames, pos,
                         pos - at[:, cam:cam + 1], log.yaws[frames, cam])


def _entity_labels(geo: _ClipGeometry, vis: np.ndarray, cfg: ProbeConfig) -> list[dict]:
    """Entity labels of every column of geo.

    Each distance sums its squares in x, y, z order, as numpy sums one
    3-vector; means run over C-contiguous rows of clip frames, as
    np.mean of one entity's frame series does.
    """
    dists = np.ascontiguousarray(np.sqrt((geo.rel * geo.rel).sum(axis=2)).T)
    means = dists.mean(axis=1).tolist()
    ends = geo.rel[[0, -1]]
    bearings = np.degrees(np.arctan2(ends[..., 0], ends[..., 1])).tolist()
    yaw0, yaw1 = float(geo.cam_yaw[0]), float(geo.cam_yaw[-1])
    presence = vis[geo.frames][:, geo.cols].any(axis=0).tolist()
    out = []
    for k, entity_id in enumerate(geo.ids):
        d_az = wrap_signed(wrap_signed(yaw1 - bearings[1][k])
                           - wrap_signed(yaw0 - bearings[0][k]))
        angle_change = None
        if abs(d_az) >= cfg.ambiguity_eps_deg:
            angle_change = "left" if d_az > 0 else "right"

        d_d = float(dists[k, -1]) - float(dists[k, 0])
        approach_recede = None
        if abs(d_d) >= cfg.ambiguity_eps_m:
            approach_recede = "approach" if d_d < 0 else "recede"

        out.append({"entity_id": entity_id, "entity_presence": presence[k],
                    "camera_distance": _dist_class(means[k], cfg.CAMERA_DIST_BOUNDS_M),
                    "angle_change": angle_change,
                    "approach_recede": approach_recede})
    return out


def _norms(v: np.ndarray) -> np.ndarray:
    """Lengths of the (frames, columns, 3) vectors v as (columns, frames)
    C-contiguous rows.  A stacked (1, 3) @ (3, 1) product runs the dot
    kernel that np.linalg.norm uses for one vector; its rounding can
    differ from a sum of squares."""
    return np.ascontiguousarray(np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0]).T)


def _pair_labels(geo: _ClipGeometry, ia, ib, cfg: ProbeConfig) -> list[dict]:
    """Pair labels of the columns (ia[k], ib[k]) of geo.

    Direction sines and cosines add up frame by frame from 0, vectorised
    across pairs.
    """
    cam_dists = _norms(geo.rel)
    cam_means = cam_dists.mean(axis=1).tolist()
    gap = geo.pos[:, ib] - geo.pos[:, ia]
    dpair = _norms(gap)
    pair_means = dpair.mean(axis=1).tolist()
    deltas = (dpair[:, -1] - dpair[:, 0]).tolist()
    theta = np.arctan2(gap[..., 0], gap[..., 1]) - np.radians(geo.cam_yaw)[:, None]
    sin_sum = np.zeros(len(ia))
    cos_sum = np.zeros(len(ia))
    for row in theta:
        sin_sum += np.sin(row)
        cos_sum += np.cos(row)
    mean_dirs = np.degrees(np.arctan2(sin_sum, cos_sum)).tolist()

    out = []
    for k, (i, j) in enumerate(zip(ia, ib)):
        relative_motion = None
        if deltas[k] < -cfg.ambiguity_eps_m:
            relative_motion = "converging"
        elif deltas[k] > cfg.ambiguity_eps_m:
            relative_motion = "diverging"
        out.append({
            "a": geo.ids[i],
            "b": geo.ids[j],
            "depth_order": cam_means[i] < cam_means[j],
            "pair_direction": COMPASS_NAMES[compass_bin(mean_dirs[k])],
            "pair_distance": _dist_class(pair_means[k], cfg.PAIR_DIST_BOUNDS_M,
                                         ("close", "medium", "far")),
            "relative_motion": relative_motion,
        })
    return out


def label_clip(clip: ClipSpec, log: FrameLog, timeline: EventTimeline,
               cfg: ProbeConfig, vis: np.ndarray) -> dict:
    """All labels for one clip: scene, every actor/object entity, and
    every canonical (a < b) entity pair; vis is visible_mask(log)."""
    entity_ids = sorted(e for e, k in zip(log.entity_ids, log.entity_kinds)
                        if k in (EntityKind.ACTOR, EntityKind.OBJECT))
    geo = _clip_geometry(clip, log, entity_ids)
    ia, ib = np.triu_indices(len(entity_ids), 1)
    return {
        "clip_id": clip.clip_id,
        "scene": label_scene(clip, log, timeline, cfg, vis),
        "entities": _entity_labels(geo, vis, cfg),
        "pairs": _pair_labels(geo, ia.tolist(), ib.tolist(), cfg),
    }


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
