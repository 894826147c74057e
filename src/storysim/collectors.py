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

from .model import EventKind, GestGraph
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


def compass_bin(bearing_deg: float) -> int:
    # a bearing a few ulps below -22.5 wraps to exactly 360.0; it is NW
    return min(int(((bearing_deg + 22.5) % 360.0) // 45.0), 7)


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


# Records per chunk of collect_story_relations, whatever the entity count:
# its float64 temporaries, about ten of 128 KiB, then fit a 2 MiB L2 cache.
_CHUNK_RECORDS = 1 << 14
_COMPASS_EDGES = (45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0)


def collect_story_relations(log: FrameLog) -> np.ndarray:
    """Vectorized per-story collection into RELATION_DTYPE rows ordered
    by (frame, a, b), each computed as compute_pair_relation computes one
    pair.  Its `%` and `//` are done with compares and adds, which give
    the same bits only for yaws in [-180, 180], the range the simulator
    writes; other yaws raise ValueError.
    """
    if (np.abs(log.yaws) > 180.0).any():
        raise ValueError("yaws must lie in [-180, 180] degrees")
    ids = sorted(log.entity_ids)
    idx = np.array([log.index_of(e) for e in ids], dtype=np.intp)
    pair_a, pair_b = np.nonzero(~np.eye(len(ids), dtype=bool))
    ia, ib = idx[pair_a], idx[pair_b]
    frames, n_pairs = log.frame_count, len(pair_a)

    out = np.empty(frames * n_pairs, dtype=RELATION_DTYPE)
    # little-endian views of each record: frame|a|b as one u8 at byte 0,
    # distance, azimuth and elevation as three f4 at byte 8, compass|flags
    # as one u2 at byte 20
    raw = out.view(np.uint8).reshape(frames, n_pairs, RELATION_DTYPE.itemsize)
    keys = raw[..., :8].view("<u8")[..., 0]
    values = raw[..., 8:20].view("<f4")
    tail = raw[..., 20:].view("<u2")[..., 0]
    # an id that does not fit the u16 field raises OverflowError here
    id_keys = np.array(ids, dtype=np.uint16).astype(np.uint64)
    np.bitwise_or(np.arange(frames, dtype=np.uint64)[:, None],
                  id_keys[pair_a] << 32 | id_keys[pair_b] << 48, out=keys)

    x, y, z = np.ascontiguousarray(np.moveaxis(log.positions, 2, 0))
    step = max(1, _CHUNK_RECORDS // max(n_pairs, 1))
    # a coincident pair divides by a zero distance; its record is zeroed
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, frames, step):
            hi = min(lo + step, frames)
            dx = x[lo:hi, ib] - x[lo:hi, ia]
            dy = y[lo:hi, ib] - y[lo:hi, ia]
            dz = z[lo:hi, ib] - z[lo:hi, ia]
            res = np.empty((3,) + dx.shape)
            dist, azimuth, elevation = res
            # same operation order as compute_pair_relation
            np.multiply(dx, dx, out=dist)
            dist += dy * dy
            dist += dz * dz
            np.sqrt(dist, out=dist)
            bearing = np.degrees(np.arctan2(dx, dy))

            # (yaw - bearing) % 360.0 for a difference in [-360, 360], then
            # into (-180, 180]; a zero of either sign goes round to 360.0
            # and back to +0.0, as -0.0 % 360.0 is +0.0
            np.subtract(log.yaws[lo:hi, ia], bearing, out=azimuth)
            np.add(azimuth, 360.0, out=azimuth, where=azimuth <= 0.0)
            np.subtract(azimuth, 360.0, out=azimuth, where=azimuth > 180.0)

            np.divide(dz, dist, out=dz)
            np.clip(dz, -1.0, 1.0, out=dz)
            np.degrees(np.arcsin(dz, out=elevation), out=elevation)

            # (bearing + 22.5) % 360.0 // 45.0 as the count of bin edges
            # passed, which is exact where a division by 45 is not; the
            # 360.0 of a bearing a few ulps below -22.5 passes 7: NW
            shifted = np.add(bearing, 22.5, out=bearing)
            np.add(shifted, 360.0, out=shifted, where=shifted < 0.0)
            compass = (shifted >= _COMPASS_EDGES[0]).view(np.uint8)
            for edge in _COMPASS_EDGES[1:]:
                compass += shifted >= edge

            values[lo:hi] = np.moveaxis(res, 0, -1)
            tail[lo:hi] = compass
            coincident = dist < COINCIDENT_EPS
            if coincident.any():
                values[lo:hi][coincident] = 0.0
                tail[lo:hi][coincident] = FLAG_COINCIDENT << 8  # compass 0
    return out


def collect_event_mappings(timeline: EventTimeline, graph: GestGraph) -> list[dict]:
    """The events.jsonl rows: one event-to-frame mapping per event, in
    graph event order."""
    out = []
    for ev in graph.events:
        start, end = timeline.interval(ev.event_id)
        out.append({"event_id": ev.event_id, "actor_id": ev.actor.id, "action": ev.action,
                    "start_frame": start, "end_frame": end,
                    "is_movement": ev.kind is EventKind.MOVEMENT})
    return out
