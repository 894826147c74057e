"""Independent reference implementations used by the tests.

Nothing here imports the package's algebra internals: every answer is
obtained by enumerating concrete integer interval configurations and
classifying them with a from-scratch case analysis.  Keeping the two
routes separate is the point; do not "simplify" by calling into
storysim.  Some exceptions are routes that the package must match bit
for bit: collect_frame, the scalar per-pair route of the vectorized
collector, shares compute_pair_relation with the package on purpose;
numpy_run_camera, the numpy per-frame camera loop that the whole-story
one replaced, shares bearing_deg and steps every frame where the package
copies a camera that has arrived; and numpy_collect_story_relations, the
remainder-and-floor-divide collector that the compare-and-add one
replaced, keeps the keyed 22-byte rows that the planes replaced; and
dense_collect_story_relations, the collector that computed every record
of every frame before the change-run one replaced it, shares _both_ways
and the compass edges and keeps its ufunc sequence and the dense planes
(Planes), and runs_of cuts such planes into the change runs the files
store; and
solve_stn, the whole-network Bellman-Ford that the incremental
SimpleTemporalNetwork replaced, shares ORIGIN_FRAME and refuses with a
NegativeCycle of its own; and component_edge_constraints, the row
builder that gave one row per signature component before the least
bound per direction replaced it, shares signature_bounds; and
closure_schedule, the schedule that pruned its backtracking over
non-convex edges with path consistency, shares the closure that the STN
search replaced, builds its rows with component_edge_constraints and
solves its leaves with solve_stn; and per_clip_labels, the labeller that
gathered and labelled one clip at a time before the story pass replaced
it, shares compass_bin and wrap_signed; and oracle_clip, the scalar label
oracle that replayed one clip at a time before oracle_rows shared each
window among its clips, is probes_oracle's arithmetic as it was, builtin
sum() means included (compensated from Python 3.12 on).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from storysim.binio import _RECORD_DTYPES, Runs
from storysim.collectors import (_COMPASS_EDGES, COINCIDENT_EPS, COMPASS_NAMES,
                                 _both_ways, compass_bin, compute_pair_relation)
from storysim.allen import (AllenRelation, RelationSet, check_relation, is_convex,
                            signature_bounds)
from storysim.errors import InconsistentNetwork, UnschedulableDisjunction
from storysim.model import CAMERA_ID, EntityKind
from storysim.probes import ClipSpec, ProbeConfig
from storysim.scheduling import (ORIGIN_FRAME, STRICT_BEFORE_GAP_FRAMES, EventTimeline,
                                 TemporalNetwork, closure, duration_frames,
                                 graph_constraints)
from storysim.simulation import (CAMERA_ARRIVE_M, CAMERA_FOV_DEG, CAMERA_MAX_RANGE_M,
                                 CAMERA_OFFSET, CAMERA_SMOOTHING, FrameLog, bearing_deg,
                                 wrap_signed)

ALL_CODES = ("b", "m", "o", "s", "d", "f", "eq", "bi", "mi", "oi", "si", "di", "fi")


def classify(a0, a1, b0, b1) -> str:
    """Base Allen relation between [a0, a1) and [b0, b1), by cases."""
    assert a0 < a1 and b0 < b1
    if a1 < b0:
        return "b"
    if b1 < a0:
        return "bi"
    if a1 == b0:
        return "m"
    if b1 == a0:
        return "mi"
    if a0 == b0 and a1 == b1:
        return "eq"
    if a0 == b0:
        return "s" if a1 < b1 else "si"
    if a1 == b1:
        return "f" if a0 > b0 else "fi"
    if b0 < a0 and a1 < b1:
        return "d"
    if a0 < b0 and b1 < a1:
        return "di"
    return "o" if a0 < b0 else "oi"


def brute_force_composition() -> dict[tuple[str, str], frozenset[str]]:
    """compose(r1, r2) for all 169 pairs from integer endpoints in [0, 8].

    Nine values allow all weak orders of the six endpoints involved, so
    the table is complete as well as sound.
    """
    intervals = [(s, e) for s in range(9) for e in range(s + 1, 9)]
    rel = {}
    for ia in intervals:
        for ib in intervals:
            rel[ia, ib] = classify(*ia, *ib)
    table: dict[tuple[str, str], set[str]] = defaultdict(set)
    for ia in intervals:
        for ib in intervals:
            r1 = rel[ia, ib]
            for ic in intervals:
                table[r1, rel[ib, ic]].add(rel[ia, ic])
    return {k: frozenset(v) for k, v in table.items()}


def find_concrete_schedule(
    n: int, constraints: dict[tuple[int, int], set[str]]
) -> list[tuple[int, int]] | None:
    """Exhaustive endpoint-ordering search for a concrete realization.

    constraints maps (i, j) with i < j to the allowed relation codes of
    interval i vs interval j.  Any satisfiable network over n intervals
    is satisfiable with integer endpoints in [0, 2n - 1] (at most 2n
    distinct endpoint values exist), so the search is complete.
    """
    domain = [(s, e) for s in range(2 * n) for e in range(s + 1, 2 * n)]
    assign: list[tuple[int, int]] = []

    def admissible(k: int, cand: tuple[int, int]) -> bool:
        for i in range(k):
            allowed = constraints.get((i, k))
            if allowed is not None and classify(*assign[i], *cand) not in allowed:
                return False
        return True

    def dfs(k: int) -> bool:
        if k == n:
            return True
        for cand in domain:
            if admissible(k, cand):
                assign.append(cand)
                if dfs(k + 1):
                    return True
                assign.pop()
        return False

    return list(assign) if dfs(0) else None


def satisfies_all(
    schedule: list[tuple[int, int]], constraints: dict[tuple[int, int], set[str]]
) -> bool:
    return all(
        classify(*schedule[i], *schedule[j]) in allowed
        for (i, j), allowed in constraints.items()
    )


@dataclass(frozen=True)
class SpatialRelationRecord:
    frame: int
    a: int
    b: int
    distance_m: float
    compass: str
    azimuth_deg: float
    elevation_deg: float
    coincident: bool


def collect_frame(log, frame: int) -> list[SpatialRelationRecord]:
    """All ordered-pair records for one frame, sorted by (a,b)."""
    out = []
    ids = log.entity_ids
    for a in ids:
        ia = log.index_of(a)
        pose_a = (tuple(log.positions[frame, ia]), float(log.yaws[frame, ia]))
        for b in ids:
            if b == a:
                continue
            ib = log.index_of(b)
            pose_b = (tuple(log.positions[frame, ib]), float(log.yaws[frame, ib]))
            r = compute_pair_relation(pose_a, pose_b)
            out.append(SpatialRelationRecord(frame, a, b, r.distance_m, r.compass,
                                             r.azimuth_deg, r.elevation_deg,
                                             r.coincident))
    out.sort(key=lambda r: (r.a, r.b))
    return out


def numpy_update_camera(cam_pos, focus_positions):
    centroid = np.asarray(focus_positions, dtype=np.float64).mean(axis=0)
    target = centroid + np.asarray(CAMERA_OFFSET)
    new_pos = cam_pos + CAMERA_SMOOTHING * (target - cam_pos)
    if (np.abs(target - new_pos) < CAMERA_ARRIVE_M).all():
        new_pos = target  # arrived: the camera sits on its target exactly
    look = centroid - new_pos
    return new_pos, bearing_deg(look[0], look[1])


def numpy_run_camera(graph, pos, yaw, index, actor_ids, active, actor_region):
    """The camera column of pos and yaw, one frame at a time on numpy rows;
    each frame smooths toward the target and arrives on it once every
    axis is within CAMERA_ARRIVE_M."""
    frames = pos.shape[0]
    n_regions = max(len(graph.region_plan), 1)
    offset = np.array(CAMERA_OFFSET)
    actor_idx = np.array([index[a] for a in actor_ids])
    cam = index[CAMERA_ID]

    centroid = None
    for f in range(frames):
        act = active[f]
        if act.any():
            counts = np.bincount(actor_region[f, act], minlength=n_regions)
            focus_region = int(np.argmax(counts))
            members = act & (actor_region[f] == focus_region)
            centroid = pos[f, actor_idx[members]].mean(axis=0)
        elif centroid is None:
            centroid = pos[f, actor_idx].mean(axis=0)
        # else: idle frames hold the last focus centroid
        if f == 0:
            pos[0, cam] = centroid + offset
            look = centroid - pos[0, cam]
            yaw[0, cam] = bearing_deg(look[0], look[1])
        else:
            pos[f, cam], yaw[f, cam] = numpy_update_camera(
                pos[f - 1, cam], centroid[None, :])


FLAG_COINCIDENT = 0x01

# the keyed 22-byte row the records had before the planes
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


def numpy_collect_story_relations(log, chunk_frames: int = 1024) -> np.ndarray:
    """RELATION_DTYPE rows ordered by (frame, a, b), with numpy's % and //.

    A bearing a few ulps below -22.5 wraps to exactly 360.0, which // 45
    puts in a ninth bin; it is clamped to NW, as compass_bin does.
    """
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
        compass = np.minimum(((bearing + 22.5) % 360.0) // 45.0, 7).astype(np.uint8)

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


# Records per chunk of dense_collect_story_relations, whatever the entity count.
# Its temporaries are (pairs, frames), so each row spans a chunk's frames;
# about ten float64 ones of 256 KiB then fit a few MiB of cache.
_CHUNK_RECORDS = 1 << 15


class Planes(NamedTuple):
    """The spatial records of one story as four (frames, E(E-1)) planes,
    in the order of a relations Runs' value planes: row f, column k is frame
    f and the k-th ordered pair."""
    distance_m: np.ndarray  # f4
    azimuth_deg: np.ndarray  # f4
    elevation_deg: np.ndarray  # f4
    compass: np.ndarray  # u1, an index into COMPASS_NAMES


def planes_of(runs: Runs) -> Planes:
    """The dense planes that relations Runs encode, read through at()."""
    return Planes(*runs.at(*np.indices((runs.frames, runs.columns))))


def dense_collect_story_relations(log) -> Planes:
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
    out = Planes(*(np.empty((frames, n_pairs), dtype)
                   for dtype in _RECORD_DTYPES))
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


def runs_of(records: Planes) -> Runs:
    """The Runs of dense planes, found from the planes alone: a
    column's run starts at frame 0 and wherever any plane's bits differ
    from the frame before."""
    frames, columns = records.distance_m.shape
    planes = [np.ascontiguousarray(plane.T) for plane in records]
    starts = np.zeros((columns, frames), dtype=bool)
    starts[:, :1] = True
    for plane in planes:
        bits = plane.view(f"u{plane.dtype.itemsize}")
        starts[:, 1:] |= bits[:, 1:] != bits[:, :-1]
    column, frame = np.nonzero(starts)
    return Runs(frames, columns, np.flatnonzero(starts),
                tuple(plane[column, frame] for plane in planes))


_ORIGIN = object()


class NegativeCycle(Exception):
    """The row (u, v, c) that solve_stn found still relaxing."""

    def __init__(self, u, v):
        self.u = u
        self.v = v


def component_edge_constraints(a: int, b: int, rs: RelationSet, lengths: dict[int, int],
                               before_gap: int = 1):
    """Difference constraints (x, y, c) meaning start_x - start_y <= c
    for one convex edge a rs b; interval ends eliminated via fixed
    lengths."""
    la, lb = lengths[a], lengths[b]
    # component values: (sa-sb, sa-eb, ea-sb, ea-eb) = (sa-sb) + offset
    offsets = (0, -lb, la, la - lb)
    for c, (lo, hi) in enumerate(signature_bounds(rs)):
        off = offsets[c]
        if hi <= 0:
            ub = 0 if hi == 0 else -1
            if c == 2 and hi == -1:
                # strict gap applies to the end(a) < start(b) component
                ub = -before_gap
            yield (a, b, ub - off)
        if lo >= 0:
            lb_v = 0 if lo == 0 else 1
            yield (b, a, off - lb_v)


def solve_stn(node_ids, constraints) -> dict[int, int]:
    """Earliest-start solution of difference constraints (x, y, c):
    start_x - start_y <= c, with every start >= ORIGIN_FRAME."""
    rev = list(constraints)
    for nid in node_ids:
        rev.append((_ORIGIN, nid, 0))  # origin <= every start
    dist = {nid: float("inf") for nid in node_ids}
    dist[_ORIGIN] = 0
    for _ in range(len(node_ids)):
        changed = False
        for x, y, c in rev:
            d = dist[x] + c
            if d < dist[y]:
                dist[y] = d
                changed = True
        if not changed:
            break
    else:
        for x, y, c in rev:
            if dist[x] + c < dist[y]:
                raise NegativeCycle(x, y)
    return {nid: ORIGIN_FRAME - int(dist[nid]) for nid in node_ids}


class BellmanFordNetwork:
    """SimpleTemporalNetwork's add over solve_stn: each add solves every
    row from scratch and keeps the new rows only when that succeeds."""

    def __init__(self, node_ids):
        self.ids = list(node_ids)
        self.rows: list[tuple[int, int, int]] = []

    def add(self, rows) -> None:
        rows = list(rows)
        try:
            solve_stn(self.ids, self.rows + rows)
        except NegativeCycle as exc:
            raise InconsistentNetwork(exc.u, exc.v) from None
        self.rows += rows


_BEFORE_MASK = RelationSet.of(AllenRelation.BEFORE).mask


def closure_schedule(graph, fps: int) -> EventTimeline:
    """Concrete earliest-start frame intervals for every graph event."""
    ids = [e.event_id for e in graph.events]
    lengths = {e.event_id: duration_frames(e.duration_s, fps) for e in graph.events}

    base = graph_constraints(graph)
    closed = closure(TemporalNetwork.from_constraints(ids, base))

    convex_edges: list[tuple[int, int, RelationSet]] = []
    disjunctions: list[tuple[int, int]] = []
    for a, b, rs in base:
        if is_convex(rs):
            convex_edges.append((a, b, rs))
        else:
            disjunctions.append((a, b))

    def leaf_constraints(chosen: list[tuple[int, int, RelationSet]]):
        cons = []
        for a, b, rs in convex_edges:
            cons.extend(component_edge_constraints(a, b, rs, lengths))
        for a, b, rs in chosen:
            gap = STRICT_BEFORE_GAP_FRAMES if rs.mask == _BEFORE_MASK else 1
            cons.extend(component_edge_constraints(a, b, rs, lengths, before_gap=gap))
        return cons

    if not disjunctions:
        try:
            starts = solve_stn(ids, leaf_constraints([]))
        except NegativeCycle as exc:
            u = exc.u if exc.u is not _ORIGIN else exc.v
            v = exc.v if exc.v is not _ORIGIN else exc.u
            raise InconsistentNetwork(
                u, v, message=f"durations admit no frame assignment near events {u}, {v}"
            ) from None
    else:
        starts = _backtrack(closed, disjunctions, leaf_constraints, ids)

    intervals = {eid: (starts[eid], starts[eid] + lengths[eid]) for eid in ids}
    timeline = EventTimeline(intervals=intervals, fps=fps)
    for a, b, rs in base:
        if not check_relation(intervals[a], intervals[b], rs):
            raise InconsistentNetwork(
                a, b, message=f"schedule places events {a}, {b} outside "
                              f"{{{rs.codes()}}}")
    return timeline


def _backtrack(closed: TemporalNetwork, disjunctions, leaf_constraints,
               ids) -> dict[int, int]:
    """Chronological search over base relations of the non-convex edges,
    pruning with closure after each commitment."""
    order = sorted(disjunctions, key=lambda ab: (len(closed.edge(*ab)), ab))

    def narrowed(work: TemporalNetwork, a: int, b: int,
                 rs: RelationSet) -> TemporalNetwork | None:
        out = work.copy()
        try:
            out.constrain(a, b, rs)
            return closure(out)
        except InconsistentNetwork:
            return None

    def dfs(level: int, work: TemporalNetwork) -> dict[int, int] | None:
        if level == len(order):
            chosen = [(a, b, work.edge(a, b)) for a, b in order]
            try:
                return solve_stn(ids, leaf_constraints(chosen))
            except NegativeCycle:
                return None
        a, b = order[level]
        for r in work.edge(a, b):
            child = narrowed(work, a, b, RelationSet.of(r))
            if child is not None:
                found = dfs(level + 1, child)
                if found is not None:
                    return found
        return None

    found = dfs(0, closed)
    if found is None:
        raise UnschedulableDisjunction(
            f"no base-relation choice over {len(order)} non-convex edge(s) "
            "yields a feasible schedule"
        )
    return found


def _dist_class(value: float, bounds, names=("near", "medium", "far")) -> str:
    lo, hi = bounds
    if value < lo:
        return names[0]
    if value < hi:
        return names[1]
    return names[2]


def label_scene(clip, log, timeline, cfg, vis: np.ndarray) -> dict:
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


def _clip_geometry(clip, log, entity_ids) -> _ClipGeometry:
    cols = [log.index_of(e) for e in entity_ids]
    cam = log.index_of(CAMERA_ID)
    frames = list(clip.frame_indices)
    at = log.positions[frames]
    pos = at[:, cols]
    return _ClipGeometry(tuple(entity_ids), cols, frames, pos,
                         pos - at[:, cam:cam + 1], log.yaws[frames, cam])


def _entity_labels(geo: _ClipGeometry, vis: np.ndarray, cfg) -> list[dict]:
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


def _pair_labels(geo: _ClipGeometry, ia, ib, cfg) -> list[dict]:
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


def per_clip_labels(clip, log, timeline, cfg, vis: np.ndarray) -> dict:
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


# ------------------------------------------------- scalar label oracle
# oracle_clip as verify called it once per replayed row, before
# oracle_rows shared each window among the clips that have its frames.

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
