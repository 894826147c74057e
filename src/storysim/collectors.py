"""Frame-aligned ground truth: pairwise spatial relations and exact
event-to-frame mappings.

Conventions (world frame): +Y = North, +X = East, z = up.  The bearing
a→b is atan2(dx, dy) in degrees, so North = 0 and East = +90 (clockwise
positive).  Compass bins are half-open toward the clockwise neighbor:
N covers [-22.5, 22.5).  Azimuth is the bearing expressed in a's facing
frame with the opposite sign convention: positive means b is to a's
left (counterclockwise).  Elevation is asin(dz / distance).

Entity pairs are ordered: (a, b) and (b, a) are both emitted because
azimuth depends on the observer's yaw.  A story's records are four
planes (distance, azimuth, elevation, compass) over frames x E(E-1)
records in (frame, a, b) order over sorted ids, so a record's key is
implied by its position.  Pairs closer than 1e-9 m get a zeroed record
instead of being dropped, which keeps the per-frame record count at
E * (E - 1): a record is coincident exactly when its distance is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .model import EventKind, GestGraph
from .scheduling import EventTimeline
from .simulation import FrameLog, wrap_signed

COMPASS_NAMES = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")
COINCIDENT_EPS = 1e-9


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


@dataclass(frozen=True)
class RelationPlanes:
    """The spatial records of one story as four (frames, E(E-1)) planes:
    row f, column k is frame f and the k-th ordered pair (a, b), a != b,
    in (a, b) order over sorted ids.  A coincident pair reads distance 0;
    every other distance is at least COINCIDENT_EPS, which f4 keeps
    nonzero.  len() is the record count."""
    distance_m: np.ndarray  # f4
    azimuth_deg: np.ndarray  # f4
    elevation_deg: np.ndarray  # f4
    compass: np.ndarray  # u1, an index into COMPASS_NAMES
    # the planes' dtypes in file order: 13 bytes per record
    DTYPES: ClassVar[tuple[np.dtype, ...]] = tuple(
        np.dtype(t) for t in ("<f4", "<f4", "<f4", "u1"))

    def __post_init__(self):
        shapes = [np.shape(plane) for plane in self.planes()]
        if len(shapes[0]) != 2 or len(set(shapes)) != 1:
            raise ValueError(f"relation planes must share one 2-D shape, not {shapes}")

    def planes(self) -> tuple[np.ndarray, ...]:
        """The planes in file order."""
        return self.distance_m, self.azimuth_deg, self.elevation_deg, self.compass

    def __len__(self) -> int:
        return self.distance_m.size


# Records per chunk of collect_story_relations, whatever the entity count.
# Its temporaries are (pairs, frames), so each row spans a chunk's frames;
# about ten float64 ones of 256 KiB then fit a few MiB of cache.
_CHUNK_RECORDS = 1 << 15
_COMPASS_EDGES = (45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0)


def collect_story_relations(log: FrameLog) -> RelationPlanes:
    """Vectorized per-story collection, each record computed as
    compute_pair_relation computes one pair.  Its `%` and `//` are done
    with compares and adds, which give the same bits only for yaws in
    [-180, 180], the range the simulator writes; other yaws raise
    ValueError.

    Each unordered pair {a, b} is gathered once, and its two directions'
    deltas are two subtractions, so a zero keeps the sign that direction
    gives.  The distance and the magnitude of the elevation (asin is odd)
    serve both directions; each direction's own dz signs its elevation.
    The bearing and all that follows from it run per direction, as the
    reverse bearing is not bitwise bearing +- 180.
    """
    if (np.abs(log.yaws) > 180.0).any():
        raise ValueError("yaws must lie in [-180, 180] degrees")
    ids = sorted(log.entity_ids)
    n, frames = len(ids), log.frame_count
    n_pairs = n * (n - 1)
    out = RelationPlanes(*(np.empty((frames, n_pairs), dtype)
                           for dtype in RelationPlanes.DTYPES))
    if not n_pairs:
        return out
    idx = np.array([log.index_of(e) for e in ids], dtype=np.intp)
    first, second = np.triu_indices(n, 1)
    half = len(first)
    # the row of each ordered pair in the (forward, reverse) halves of
    # the (pairs, frames) temporaries
    row_of = np.empty((n, n), dtype=np.intp)
    row_of[first, second] = np.arange(half)
    row_of[second, first] = np.arange(half, n_pairs)
    order = row_of[np.nonzero(~np.eye(n, dtype=bool))]
    undirected = order % half
    # each unordered pair's entities, [first; second]: the forward
    # direction's observers, then the reverse direction's
    ends = np.concatenate((idx[first], idx[second]))

    # entity-major, so that a gather copies whole runs of frames
    x, y, z = np.ascontiguousarray(np.moveaxis(log.positions, (1, 2), (1, 0)))
    yaws = np.ascontiguousarray(log.yaws.T)
    step = max(1, _CHUNK_RECORDS // n_pairs)
    # a coincident pair divides by a zero distance; its record is zeroed
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, frames, step):
            cols = slice(lo, min(lo + step, frames))
            dx, dy, dz = (_both_ways(c[ends, cols], half) for c in (x, y, z))
            # same operation order as compute_pair_relation
            dist = np.multiply(dx[:half], dx[:half])
            dist += dy[:half] * dy[:half]
            dist += dz[:half] * dz[:half]
            np.sqrt(dist, out=dist)
            bearing = np.degrees(np.arctan2(dx, dy))

            # (yaw - bearing) % 360.0 for a difference in [-360, 360], then
            # into (-180, 180]; a zero of either sign goes round to 360.0
            # and back to +0.0, as -0.0 % 360.0 is +0.0
            azimuth = np.subtract(yaws[ends, cols], bearing)
            np.add(azimuth, 360.0, out=azimuth, where=azimuth <= 0.0)
            np.subtract(azimuth, 360.0, out=azimuth, where=azimuth > 180.0)

            elevation = np.divide(dz[:half], dist, out=dx[:half])
            np.clip(elevation, -1.0, 1.0, out=elevation)
            np.degrees(np.arcsin(elevation, out=elevation), out=elevation)
            np.copysign(elevation, dz[half:], out=dx[half:])
            elevation = dx

            # (bearing + 22.5) % 360.0 // 45.0 as the count of bin edges
            # passed, which is exact where a division by 45 is not; the
            # 360.0 of a bearing a few ulps below -22.5 passes 7: NW
            shifted = np.add(bearing, 22.5, out=bearing)
            np.add(shifted, 360.0, out=shifted, where=shifted < 0.0)
            compass = (shifted >= _COMPASS_EDGES[0]).view(np.uint8)
            for edge in _COMPASS_EDGES[1:]:
                compass += shifted >= edge

            coincident = dist < COINCIDENT_EPS
            if coincident.any():
                dist[coincident] = 0.0
                coincident = np.concatenate((coincident, coincident))
                azimuth[coincident] = elevation[coincident] = compass[coincident] = 0
            out.distance_m[cols] = dist[undirected].T
            out.azimuth_deg[cols] = azimuth[order].T
            out.elevation_deg[cols] = elevation[order].T
            out.compass[cols] = compass[order].T
    return out


def _both_ways(ends: np.ndarray, half: int) -> np.ndarray:
    """[b - a; a - b] of one coordinate gathered as [a; b]."""
    a, b = ends[:half], ends[half:]
    out = np.empty_like(ends)
    np.subtract(b, a, out=out[:half])
    np.subtract(a, b, out=out[half:])
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
