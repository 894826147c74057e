"""Frame-aligned ground truth: pairwise spatial relations and exact
event-to-frame mappings.

Conventions (world frame): +Y = North, +X = East, z = up.  The bearing
a→b is atan2(dx, dy) in degrees, so North = 0 and East = +90 (clockwise
positive).  Compass bins are half-open toward the clockwise neighbor:
N covers [-22.5, 22.5).  Azimuth is the bearing expressed in a's facing
frame with the opposite sign convention: positive means b is to a's
left (counterclockwise).  Elevation is asin(dz / distance).

Entity pairs are ordered: (a, b) and (b, a) are both emitted because
azimuth depends on the observer's yaw.  Pairs closer than 1e-9 m get a
zeroed record with the coincident flag instead of being dropped, which
keeps the per-frame record count constant at E * (E - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GestGraph
from .scheduling import EventTimeline
from .simulation import FrameLog, wrap_signed

COMPASS_NAMES = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")
COINCIDENT_EPS = 1e-9
FLAG_COINCIDENT = 0x01

# packed on-disk row; itemsize is exactly 22 bytes
RELATION_DTYPE = np.dtype([
    ("frame", "<u4"),
    ("a", "<u2"),
    ("b", "<u2"),
    ("distance_m", "<f4"),
    ("azimuth_deg", "<f4"),
    ("elevation_deg", "<f4"),
    ("compass", "u1"),
    ("flags", "u1"),
])


@dataclass(frozen=True)
class PairRelation:
    distance_m: float
    compass: str
    azimuth_deg: float
    elevation_deg: float
    coincident: bool


@dataclass(frozen=True)
class EventFrameMapping:
    event_id: int
    actor_id: int
    action: str
    start_frame: int
    end_frame: int
    is_movement: bool


def compass_bin(bearing_deg: float) -> int:
    return int(((bearing_deg + 22.5) % 360.0) // 45.0)


def compute_pair_relation(pose_a, pose_b) -> PairRelation:
    """Relation of b as seen from a; each pose is ((x, y, z), yaw_deg)."""
    (ax, ay, az), yaw_a = pose_a
    (bx, by, bz), _ = pose_b
    dx, dy, dz = bx - ax, by - ay, bz - az
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist < COINCIDENT_EPS:
        return PairRelation(0.0, "N", 0.0, 0.0, True)
    bearing = math.degrees(math.atan2(dx, dy))
    azimuth = wrap_signed(yaw_a - bearing)
    elevation = math.degrees(math.asin(max(-1.0, min(1.0, dz / dist))))
    return PairRelation(dist, COMPASS_NAMES[compass_bin(bearing)], azimuth,
                        elevation, False)


def collect_story_relations(log: FrameLog, chunk_frames: int = 1024) -> np.ndarray:
    """Vectorized per-story collection into RELATION_DTYPE rows ordered
    by (frame, a, b)."""
    ids = sorted(log.entity_ids)
    idx = np.array([log.index_of(e) for e in ids])
    n = len(ids)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    ia = idx[np.array([p[0] for p in pairs])]
    ib = idx[np.array([p[1] for p in pairs])]
    id_a = np.array([ids[p[0]] for p in pairs], dtype=np.uint16)
    id_b = np.array([ids[p[1]] for p in pairs], dtype=np.uint16)
    n_pairs = len(pairs)

    frames = log.frame_count
    out = np.empty(frames * n_pairs, dtype=RELATION_DTYPE)
    for lo in range(0, frames, chunk_frames):
        hi = min(lo + chunk_frames, frames)
        delta = log.positions[lo:hi, ib, :] - log.positions[lo:hi, ia, :]
        dx, dy, dz = delta[..., 0], delta[..., 1], delta[..., 2]
        dist = np.sqrt(dx * dx + dy * dy + dz * dz)
        coincident = dist < COINCIDENT_EPS
        safe = np.where(coincident, 1.0, dist)
        bearing = np.degrees(np.arctan2(dx, dy))
        # same operation order as wrap_signed so results match bitwise
        wrapped = (log.yaws[lo:hi, ia] - bearing) % 360.0
        azimuth = np.where(wrapped > 180.0, wrapped - 360.0, wrapped)
        elevation = np.degrees(np.arcsin(np.clip(dz / safe, -1.0, 1.0)))
        compass = (((bearing + 22.5) % 360.0) // 45.0).astype(np.uint8)

        rows = out[lo * n_pairs:hi * n_pairs]
        count = hi - lo
        rows["frame"] = np.repeat(np.arange(lo, hi, dtype=np.uint32), n_pairs)
        rows["a"] = np.tile(id_a, count)
        rows["b"] = np.tile(id_b, count)
        rows["distance_m"] = np.where(coincident, 0.0, dist).ravel()
        rows["azimuth_deg"] = np.where(coincident, 0.0, azimuth).ravel()
        rows["elevation_deg"] = np.where(coincident, 0.0, elevation).ravel()
        rows["compass"] = np.where(coincident, 0, compass).ravel()
        rows["flags"] = np.where(coincident, FLAG_COINCIDENT, 0).astype(np.uint8).ravel()
    return out


def collect_event_mappings(timeline: EventTimeline,
                           graph: GestGraph) -> list[EventFrameMapping]:
    """One mapping per event, in graph event order."""
    out = []
    for ev in graph.events:
        start, end = timeline.interval(ev.event_id)
        out.append(EventFrameMapping(ev.event_id, ev.actor.id, ev.action,
                                     start, end, ev.kind.value == "movement"))
    return out
