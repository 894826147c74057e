"""Brute-force recomputation of probe labels, coded separately from
probes.py so the two can check each other.

Everything here is scalar Python math over raw pose values: visibility
is a cosine cone test instead of wrapped bearings, angles wrap by
iteration instead of modulo, means are plain left-to-right sums.  The
label *contracts* (half-open class bounds, epsilon exclusion, 50%
visibility quorum) are the same by construction; the arithmetic route is
not.

oracle_rows labels a story's clips, one row per clip, as labels_document
does.  It builds one _Window per distinct set of clip frame indices, at
the first clip that has it, and every clip with those frames shares it;
_Window says how a window's labels are computed.  Only a clip's id and
event boundary are its own, since a clip's own event never marks its
boundary.  oracle_clip gives one clip's row for oracle_rows.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from itertools import islice

from .simulation import CAMERA_FOV_DEG, CAMERA_ID, CAMERA_MAX_RANGE_M, FrameLog
from .model import EntityKind
from .scheduling import EventTimeline
from .probes import ClipSpec, ProbeConfig

_COMPASS = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")
_HALF_FOV_DEG = CAMERA_FOV_DEG / 2.0


def _wrap(deg: float) -> float:
    while deg > 180.0:
        deg -= 360.0
    while deg <= -180.0:
        deg += 360.0
    return deg


def _mean(values: list[float]) -> float:
    """The mean by plain left-to-right float adds from 0.0.  Builtin sum()
    of floats is compensated since Python 3.12, so its bits would depend
    on the Python version."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def _still(values: list[float]) -> bool:
    """Whether every value is bitwise the first.  == alone would take a
    -0.0 for a 0.0."""
    first = values[0]
    return values.count(first) == len(values) and (
        first != 0.0 or len({math.copysign(1.0, value) for value in values}) == 1)


def _compass_of(bearing: float) -> str:
    shifted = bearing % 360.0
    k = int((shifted + 22.5) // 45.0) % 8
    return _COMPASS[k]


def _bucket(value: float, lo: float, hi: float, names) -> str:
    if value < lo:
        return names[0]
    if value < hi:
        return names[1]
    return names[2]


class _Window:
    """The labels of one set of clip frame indices that no clip's event
    changes: its actor count, motion presence, entity rows and pair rows,
    computed from one gather of the frame log.

    Each column's x, y and z are lists over the window's frames, and the
    camera's forward vector (sin yaw, cos yaw) is computed once per frame.
    An entity's camera distance and visibility at a frame come from one
    difference to the camera: the distance as a root of powers, the
    visibility's range test as a root of products, then a cosine cone
    test against the camera's forward.  A column is still when each of
    its values is bitwise its first frame's at every frame: a computation
    whose inputs are all still is made for the first frame only, and its
    result repeats."""

    def __init__(self, frame_indices: tuple[int, ...], log: FrameLog, entity_ids,
                 cols, actors: frozenset[int], cfg: ProbeConfig):
        frames = list(frame_indices)
        cam = log.index_of(CAMERA_ID)
        xyz = log.positions[frames].transpose(1, 2, 0).tolist()  # [col][axis][frame]
        cam_yaws = log.yaws[frames, cam].tolist()
        cam_yaw_rad = [math.radians(yaw) for yaw in cam_yaws]
        forward = [(math.sin(yaw), math.cos(yaw)) for yaw in cam_yaw_rad]
        still = {idx: all(map(_still, xyz[idx])) for idx in (cam, *cols)}
        cam_still = still[cam] and _still(cam_yaws)

        quorum = 0
        half = math.ceil(len(frames) / 2)
        means = {}
        self.entities = []
        for entity_id, idx in zip(entity_ids, cols):
            repeat = cam_still and still[idx]
            dists, seen = [], []
            for ex, ey, ez, cx, cy, cz, (fx, fy) in islice(
                    zip(*xyz[idx], *xyz[cam], forward), 1 if repeat else None):
                dx, dy, dz = ex - cx, ey - cy, ez - cz
                dists.append(math.sqrt(dx ** 2 + dy ** 2 + dz ** 2))
                if (idx == cam
                        or math.sqrt(dx * dx + dy * dy + dz * dz) > CAMERA_MAX_RANGE_M):
                    seen.append(False)
                elif (horiz := math.hypot(dx, dy)) == 0.0:
                    seen.append(True)
                else:
                    cos_angle = max(-1.0, min(1.0, (dx * fx + dy * fy) / horiz))
                    seen.append(math.degrees(math.acos(cos_angle)) <= _HALF_FOV_DEG)
            if repeat:
                dists *= len(frames)
                seen *= len(frames)
            if idx in actors and seen.count(True) >= half:
                quorum += 1
            means[idx] = _mean(dists)
            self.entities.append(self._entity(entity_id, xyz[idx], xyz[cam], cam_yaws,
                                              dists, True in seen, means[idx], cfg))
        self.actor_count = min(5, max(1, quorum))

        self.motion_presence = False
        for idx in actors:
            xs, ys, zs = xyz[idx]
            d = math.sqrt((xs[-1] - xs[0]) ** 2 + (ys[-1] - ys[0]) ** 2
                          + (zs[-1] - zs[0]) ** 2)
            if d > cfg.motion_threshold_m:
                self.motion_presence = True

        self.pairs = [self._pair(a, b, xyz[ia], xyz[ib], still[ia] and still[ib],
                                 cam_yaw_rad, means[ia] < means[ib], cfg)
                      for i, (a, ia) in enumerate(zip(entity_ids, cols))
                      for b, ib in zip(entity_ids[i + 1:], cols[i + 1:])]

    @staticmethod
    def _entity(entity_id: int, xyz, cam_xyz, cam_yaws, dists, presence: bool,
                mean_cam_dist: float, cfg: ProbeConfig) -> dict:
        (xs, ys, _), (cxs, cys, _) = xyz, cam_xyz
        az0, az1 = (_wrap(cam_yaws[k] - math.degrees(math.atan2(xs[k] - cxs[k],
                                                                ys[k] - cys[k])))
                    for k in (0, -1))
        d_az = _wrap(az1 - az0)
        if abs(d_az) < cfg.ambiguity_eps_deg:
            angle_change = None
        else:
            angle_change = "left" if d_az > 0 else "right"

        d_d = dists[-1] - dists[0]
        if abs(d_d) < cfg.ambiguity_eps_m:
            approach_recede = None
        else:
            approach_recede = "approach" if d_d < 0 else "recede"

        return {"entity_id": entity_id, "entity_presence": presence,
                "camera_distance": _bucket(mean_cam_dist, cfg.CAMERA_DIST_BOUNDS_M[0],
                                           cfg.CAMERA_DIST_BOUNDS_M[1],
                                           ("near", "medium", "far")),
                "angle_change": angle_change, "approach_recede": approach_recede}

    @staticmethod
    def _pair(a: int, b: int, xyz_a, xyz_b, still: bool, cam_yaw_rad, depth_order: bool,
              cfg: ProbeConfig) -> dict:
        dpair, worlds = [], []
        for ax, ay, az, bx, by, bz in islice(zip(*xyz_a, *xyz_b), 1 if still else None):
            dx, dy = bx - ax, by - ay
            dpair.append(math.sqrt(dx ** 2 + dy ** 2 + (bz - az) ** 2))
            worlds.append(math.atan2(dx, dy))
        if still:
            dpair *= len(cam_yaw_rad)
            worlds *= len(cam_yaw_rad)
        sx = sy = 0.0
        for world, cam_yaw in zip(worlds, cam_yaw_rad):
            cam_frame = world - cam_yaw
            sx += math.sin(cam_frame)
            sy += math.cos(cam_frame)
        mean_dir = math.degrees(math.atan2(sx, sy))

        delta = dpair[-1] - dpair[0]
        if delta < -cfg.ambiguity_eps_m:
            relative_motion = "converging"
        elif delta > cfg.ambiguity_eps_m:
            relative_motion = "diverging"
        else:
            relative_motion = None

        return {
            "a": a,
            "b": b,
            "depth_order": depth_order,
            "pair_direction": _compass_of(mean_dir),
            "pair_distance": _bucket(_mean(dpair), cfg.PAIR_DIST_BOUNDS_M[0],
                                     cfg.PAIR_DIST_BOUNDS_M[1],
                                     ("close", "medium", "far")),
            "relative_motion": relative_motion,
        }


def _event_boundary(clip: ClipSpec, timeline: EventTimeline) -> bool:
    """Whether another event than the clip's own starts or ends strictly
    inside the clip's frames."""
    first, last = clip.frame_indices[0], clip.frame_indices[-1]
    return any((first < s < last) or (first < e < last)
               for event_id, (s, e) in timeline.intervals.items()
               if event_id != clip.event_id)


def oracle_clip(clip: ClipSpec, window: _Window, timeline: EventTimeline) -> dict:
    """The oracle row of one clip: the labels of `window`, the window of the
    clip's frames, and the clip's own id and event boundary.  The rows of
    one window share their entity and pair lists."""
    return {
        "clip_id": clip.clip_id,
        "scene": {"actor_count": window.actor_count,
                  "event_boundary": _event_boundary(clip, timeline),
                  "motion_presence": window.motion_presence},
        "entities": window.entities,
        "pairs": window.pairs,
    }


def oracle_rows(clips: Iterable[ClipSpec], log: FrameLog, timeline: EventTimeline,
                cfg: ProbeConfig) -> Iterator[dict]:
    """The oracle row of each of a story's clips, in clip order.  Each
    window is built at the first clip that has its frame indices."""
    entity_ids = sorted(e for e, k in zip(log.entity_ids, log.entity_kinds)
                        if k in (EntityKind.ACTOR, EntityKind.OBJECT))
    cols = [log.index_of(e) for e in entity_ids]
    actors = frozenset(i for i, k in enumerate(log.entity_kinds) if k is EntityKind.ACTOR)
    windows: dict[tuple[int, ...], _Window] = {}
    for clip in clips:
        window = windows.get(clip.frame_indices)
        if window is None:
            window = windows[clip.frame_indices] = _Window(
                clip.frame_indices, log, entity_ids, cols, actors, cfg)
        yield oracle_clip(clip, window, timeline)
