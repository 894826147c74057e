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

The collector computes a record only where a pose changed, and each
computed record starts a run at cell column * frames + frame, where
column (a, b) is a * (E - 1) + b - (b > a) over sorted ids.  One sort of
those start cells puts the records in the order of binio.Runs, the
change runs that the relations file stores; Runs.at reads any record
without expanding them.  Only binio reads the runs' layout.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .binio import Runs
from .model import EventKind, GestGraph
from .scheduling import EventTimeline
from .simulation import FrameLog, wrap_signed

COMPASS_NAMES = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")
COINCIDENT_EPS = 1e-9


class PairRelation(NamedTuple):
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


# Unordered (pair, frame) cells per chunk of collect_story_relations: its
# temporaries, about ten float64 arrays over both directions of 8 Ki cells
# (128 KiB each), then fit a few MiB of cache.
_CHUNK_CELLS = 1 << 13
_COMPASS_EDGES = (45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0)


def collect_story_relations(log: FrameLog) -> Runs:
    """Vectorized per-story collection, each record computed as
    compute_pair_relation computes one pair.  Its `%` and `//` are done
    with compares and adds, which give the same bits only for yaws in
    [-180, 180], the range the simulator writes; other yaws raise
    ValueError.

    A record is computed only at frame 0 and where either entity of its
    pair has a pose that changed since the frame before
    (FrameLog.pose_changes): elsewhere its inputs, and so its bits,
    repeat.  The records are computed pair by unordered pair, forward
    then reverse, and one stable sort of their start cells puts them in
    column-major order; Runs.merged then joins each run that repeats the
    one before it in its column to that run.

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
    idx = np.array([log.index_of(e) for e in ids], dtype=np.intp)
    first, second = np.triu_indices(n, 1)

    # the computed cells, unordered-pair-major and in frame order within
    # a pair, and each cell's two entities as flat entity-major indices
    moved = log.pose_changes().T[idx]
    pair, frame = np.nonzero(moved[first] | moved[second])
    cells = len(pair)
    ends = np.concatenate((idx[first][pair], idx[second][pair]))
    ends *= frames
    ends += np.concatenate((frame, frame))

    x, y, z = np.ascontiguousarray(np.moveaxis(log.positions, (1, 2), (1, 0))).reshape(
        3, -1)
    yaws = np.ascontiguousarray(log.yaws.T).ravel()
    # forward cells, then reverse cells; the distance serves both
    dist_out = np.empty(cells, np.float32)
    azimuth_out, elevation_out = np.empty((2, 2 * cells), np.float32)
    compass_out = np.empty(2 * cells, np.uint8)
    # a coincident pair divides by a zero distance; its record is zeroed
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, cells, _CHUNK_CELLS):
            hi = min(lo + _CHUNK_CELLS, cells)
            m = hi - lo
            gather = np.concatenate((ends[lo:hi], ends[cells + lo:cells + hi]))
            dx, dy, dz = (_both_ways(c[gather], m) for c in (x, y, z))
            # same operation order as compute_pair_relation
            dist = np.multiply(dx[:m], dx[:m])
            dist += dy[:m] * dy[:m]
            dist += dz[:m] * dz[:m]
            np.sqrt(dist, out=dist)
            bearing = np.degrees(np.arctan2(dx, dy))

            # (yaw - bearing) % 360.0 for a difference in [-360, 360], then
            # into (-180, 180]; a zero of either sign goes round to 360.0
            # and back to +0.0, as -0.0 % 360.0 is +0.0
            azimuth = np.subtract(yaws[gather], bearing)
            np.add(azimuth, 360.0, out=azimuth, where=azimuth <= 0.0)
            np.subtract(azimuth, 360.0, out=azimuth, where=azimuth > 180.0)

            elevation = np.divide(dz[:m], dist, out=dx[:m])
            np.clip(elevation, -1.0, 1.0, out=elevation)
            np.degrees(np.arcsin(elevation, out=elevation), out=elevation)
            np.copysign(elevation, dz[m:], out=dx[m:])
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
            dist_out[lo:hi] = dist
            for out, plane in ((azimuth_out, azimuth), (elevation_out, elevation),
                               (compass_out, compass)):
                out[lo:hi], out[cells + lo:cells + hi] = plane[:m], plane[m:]

    # each record's start cell; by the module's column formula, with
    # first < second the forward record's column is
    # first * (n - 1) + second - 1 and the reverse's second * (n - 1) + first
    forward, reverse = first * (n - 1) + second - 1, second * (n - 1) + first
    start = np.concatenate((forward[pair], reverse[pair]))
    start *= frames
    start += np.concatenate((frame, frame))
    # the cells are unique, so any sort gives this order; a stable one
    # merges sorted stretches, of which the forward half is one and the
    # reverse half n - 1, several times faster than quicksort here
    order = np.argsort(start, kind="stable")
    planes = (np.concatenate((dist_out, dist_out)), azimuth_out, elevation_out, compass_out)
    return Runs(frames, n * (n - 1), start[order], tuple(p[order] for p in planes)).merged()


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
