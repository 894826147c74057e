"""Brute-force recomputation of probe labels, coded separately from
probes.py so the two can check each other.

Everything here is scalar Python math over raw pose values: visibility
is a cosine cone test instead of wrapped bearings, angles wrap by
iteration instead of modulo, means are plain sums.  The label
*contracts* (half-open class bounds, epsilon exclusion, 50% visibility
quorum) are the same by construction; the arithmetic route is not.
"""

from __future__ import annotations

import math

from .simulation import CAMERA_FOV_DEG, CAMERA_ID, CAMERA_MAX_RANGE_M, FrameLog
from .model import EntityKind
from .scheduling import EventTimeline
from .probes import ClipSpec, ProbeConfig

_COMPASS = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")


def _wrap(deg: float) -> float:
    while deg > 180.0:
        deg -= 360.0
    while deg <= -180.0:
        deg += 360.0
    return deg


class _ClipPoses:
    """One clip's poses as Python floats, read from the frame log once.

    positions[k][col] and yaws[k][col] are the values at the clip's k-th
    frame and cam_yaw_rad[k] the camera yaw there in radians;
    cam_dists[col] lists an entity's camera distance per clip frame and
    mean_cam_dist[col] their mean.
    """

    def __init__(self, clip: ClipSpec, log: FrameLog, cols):
        self.cam = log.index_of(CAMERA_ID)
        self.positions = [log.positions[f].tolist() for f in clip.frame_indices]
        self.yaws = [log.yaws[f].tolist() for f in clip.frame_indices]
        self.cam_yaw_rad = [math.radians(y[self.cam]) for y in self.yaws]
        frames = range(len(self.positions))
        self.cam_dists = {idx: [_camera_distance(self, k, idx) for k in frames]
                          for idx in cols}
        self.mean_cam_dist = {idx: sum(d) / len(d) for idx, d in self.cam_dists.items()}


def _visible(poses: _ClipPoses, k: int, idx: int) -> bool:
    cam = poses.cam
    if idx == cam:
        return False
    cx, cy, cz = poses.positions[k][cam]
    ex, ey, ez = poses.positions[k][idx]
    dx, dy, dz = ex - cx, ey - cy, ez - cz
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist > CAMERA_MAX_RANGE_M:
        return False
    yaw = poses.cam_yaw_rad[k]
    fx, fy = math.sin(yaw), math.cos(yaw)
    horiz = math.hypot(dx, dy)
    if horiz == 0.0:
        return True
    cos_angle = (dx * fx + dy * fy) / horiz
    cos_angle = max(-1.0, min(1.0, cos_angle))
    return math.degrees(math.acos(cos_angle)) <= CAMERA_FOV_DEG / 2.0


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


def oracle_scene(clip: ClipSpec, poses: _ClipPoses, actor_cols, timeline: EventTimeline,
                 cfg: ProbeConfig) -> dict:
    frames = range(len(clip.frame_indices))
    quorum = 0
    for idx in actor_cols:
        hits = sum(1 for k in frames if _visible(poses, k, idx))
        if hits >= math.ceil(len(clip.frame_indices) / 2):
            quorum += 1
    actor_count = min(5, max(1, quorum))

    first, last = clip.frame_indices[0], clip.frame_indices[-1]
    boundary = False
    for event_id in timeline.intervals:
        if event_id == clip.event_id:
            continue
        s, e = timeline.intervals[event_id]
        if (first < s < last) or (first < e < last):
            boundary = True

    motion = False
    for idx in actor_cols:
        x0, y0, z0 = poses.positions[0][idx]
        x1, y1, z1 = poses.positions[-1][idx]
        d = math.sqrt((x1 - x0) ** 2 + (y1 - y0) ** 2 + (z1 - z0) ** 2)
        if d > cfg.motion_threshold_m:
            motion = True
    return {"actor_count": actor_count, "event_boundary": boundary,
            "motion_presence": motion}


def _camera_distance(poses: _ClipPoses, k: int, idx: int) -> float:
    cx, cy, cz = poses.positions[k][poses.cam]
    ex, ey, ez = poses.positions[k][idx]
    return math.sqrt((ex - cx) ** 2 + (ey - cy) ** 2 + (ez - cz) ** 2)


def _camera_azimuth(poses: _ClipPoses, k: int, idx: int) -> float:
    cx, cy, _ = poses.positions[k][poses.cam]
    ex, ey, _ = poses.positions[k][idx]
    bearing = math.degrees(math.atan2(ex - cx, ey - cy))
    return _wrap(poses.yaws[k][poses.cam] - bearing)


def oracle_entity(clip: ClipSpec, entity_id: int, idx: int, poses: _ClipPoses,
                  cfg: ProbeConfig) -> dict:
    presence = any(_visible(poses, k, idx)
                   for k in range(len(clip.frame_indices)))

    dists = poses.cam_dists[idx]
    camera_distance = _bucket(poses.mean_cam_dist[idx], cfg.CAMERA_DIST_BOUNDS_M[0],
                              cfg.CAMERA_DIST_BOUNDS_M[1],
                              ("near", "medium", "far"))

    az0 = _camera_azimuth(poses, 0, idx)
    az1 = _camera_azimuth(poses, -1, idx)
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
            "camera_distance": camera_distance, "angle_change": angle_change,
            "approach_recede": approach_recede}


def oracle_pair(a: int, b: int, ia: int, ib: int, poses: _ClipPoses,
                cfg: ProbeConfig) -> dict:
    dpair = []
    sx = sy = 0.0
    for frame_pos, cam_yaw in zip(poses.positions, poses.cam_yaw_rad):
        ax, ay, az = frame_pos[ia]
        bx, by, bz = frame_pos[ib]
        dpair.append(math.sqrt((bx - ax) ** 2 + (by - ay) ** 2 + (bz - az) ** 2))
        world = math.atan2(bx - ax, by - ay)
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
        "depth_order": poses.mean_cam_dist[ia] < poses.mean_cam_dist[ib],
        "pair_direction": _compass_of(mean_dir),
        "pair_distance": _bucket(sum(dpair) / len(dpair),
                                 cfg.PAIR_DIST_BOUNDS_M[0],
                                 cfg.PAIR_DIST_BOUNDS_M[1],
                                 ("close", "medium", "far")),
        "relative_motion": relative_motion,
    }


def oracle_clip(clip: ClipSpec, log: FrameLog, timeline: EventTimeline,
                cfg: ProbeConfig) -> dict:
    entity_ids = sorted(e for e, k in zip(log.entity_ids, log.entity_kinds)
                        if k in (EntityKind.ACTOR, EntityKind.OBJECT))
    cols = [log.index_of(e) for e in entity_ids]
    actor_cols = [i for i, k in enumerate(log.entity_kinds) if k is EntityKind.ACTOR]
    poses = _ClipPoses(clip, log, cols)
    return {
        "clip_id": clip.clip_id,
        "scene": oracle_scene(clip, poses, actor_cols, timeline, cfg),
        "entities": [oracle_entity(clip, e, idx, poses, cfg)
                     for e, idx in zip(entity_ids, cols)],
        "pairs": [oracle_pair(a, b, ia, ib, poses, cfg)
                  for i, (a, ia) in enumerate(zip(entity_ids, cols))
                  for b, ib in zip(entity_ids[i + 1:], cols[i + 1:])],
    }
