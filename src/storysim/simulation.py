"""Kinematic execution of a scheduled story in a concrete 3D world.

validate() checks a graph against the registry and returns issue
records.  ground() places actors (jittered around their first POI) and
binds unowned objects to POI slots.  insert_movements() splices walk
events wherever an actor's next event happens at a different POI.
simulate() plays the timeline out frame by frame: linear interpolation
for movements, held poses for stationary actions, objects following
their owner when carried, and an exponentially smoothed tracking camera
that arrives on its target and then holds still.

Coordinate conventions: +Y is North, +X is East, z is up; yaw is a
compass heading in degrees (0 = North, 90 = East).  All motion is
collision-free and deterministic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from math import atan2, degrees

import numpy as np

from .errors import NoFreeSlot, NoValidAction
from .model import (
    CAMERA_ID,
    CapabilityRegistry,
    EntityKind,
    Event,
    EventKind,
    GestGraph,
)
from .scheduling import EventTimeline, duration_frames

CAMERA_SETTLE_FRAMES = 25
# carried objects ride at the owner's side: right/forward/up in meters
CARRY_OFFSET = (0.3, 0.2, 1.0)
SLOT_RING_RADIUS = 0.6
STAND_JITTER_MAX = 0.5
WALK_SPEED = 1.4  # m/s
# the tracking camera: offset from the focus centroid (east, north, up) in
# meters, per-frame smoothing factor, horizontal field of view and range
CAMERA_OFFSET = (0.0, -6.0, 3.0)
CAMERA_SMOOTHING = 0.1
# the camera arrives, and sits on its target exactly, once a smoothing step
# leaves every axis of (target - position) under this many meters; the gap
# shrinks by 1 - CAMERA_SMOOTHING per frame, so from a 10 m jump it arrives
# within ceil(log(1e-3 / 10) / log(0.9)) = ceil(87.4) = 88 frames
CAMERA_ARRIVE_M = 1e-3
CAMERA_FOV_DEG = 90.0
CAMERA_MAX_RANGE_M = 50.0


@dataclass
class EntityState:
    position: tuple[float, float, float]
    yaw: float
    region: str


@dataclass
class World:
    entities: dict[int, EntityState]
    fps: int = 25
    # deterministic standing spot of each (actor, poi) pair
    stand: dict[tuple[int, str], tuple[float, float, float]] = field(default_factory=dict)
    # geometry snapshot so simulate() does not need the registry
    poi_position: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    poi_region: dict[str, str] = field(default_factory=dict)


@dataclass
class FrameLog:
    positions: np.ndarray  # (frames, entities, 3) float64
    yaws: np.ndarray  # (frames, entities) float64
    fps: int
    entity_ids: tuple[int, ...]
    entity_kinds: tuple[EntityKind, ...]
    entity_names: tuple[str, ...]

    def __post_init__(self):
        self._index = {eid: i for i, eid in enumerate(self.entity_ids)}

    @property
    def frame_count(self) -> int:
        return self.positions.shape[0]

    @property
    def entity_count(self) -> int:
        return self.positions.shape[1]

    def index_of(self, entity_id: int) -> int:
        return self._index[entity_id]

    def pose_changes(self) -> np.ndarray:
        """(frames, entities) bool: true at frame 0 and wherever an
        entity's x, y, z or yaw differs from the frame before, compared
        as bits, so a flip between 0.0 and -0.0 is a change."""
        positions = np.asarray(self.positions, np.float64).view(np.int64)
        yaws = np.asarray(self.yaws, np.float64).view(np.int64)
        out = np.ones(yaws.shape, dtype=bool)
        np.not_equal(yaws[1:], yaws[:-1], out=out[1:])
        moved = positions[1:] != positions[:-1]
        for axis in range(3):  # faster than any() over an axis of 3
            out[1:] |= moved[..., axis]
        return out


def bearing_deg(dx: float, dy: float) -> float:
    """Compass bearing of the horizontal vector (dx, dy); 0 = North."""
    return math.degrees(math.atan2(dx, dy))


def wrap_signed(deg: float) -> float:
    """Wrap an angle into (-180, 180]."""
    w = deg % 360.0
    return w - 360.0 if w > 180.0 else w


# ------------------------------------------------------------- validate

def validate(graph: GestGraph, registry: CapabilityRegistry) -> list[dict]:
    """Semantic issues as {code, event_id, message} records; [] = ok."""
    issues: list[dict] = []

    def flag(code: str, event_id, message: str):
        issues.append({"code": code, "event_id": event_id, "message": message})

    # the camera follows the actors, and an idle actor waits in the plan's
    # first region
    if not graph.actors:
        flag("NoActors", None, "graph declares no actors")
    if not graph.region_plan:
        flag("UnknownRegion", None, "region_plan names no region")
    plan_ok = True
    episodes_seen = set()
    for key in graph.region_plan:
        if not registry.has_region(key):
            flag("UnknownRegion", None, f"region_plan names unknown region {key!r}")
            plan_ok = False
        else:
            episodes_seen.add(registry.episode_of_region(key))
    if plan_ok and len(episodes_seen) > 1:
        flag("UnknownRegion", None,
             f"region_plan spans multiple episodes: {sorted(episodes_seen)}")
    plan_set = set(graph.region_plan)

    object_ids = {o.id.id: o for o in graph.objects}
    for obj in graph.objects:
        if not registry.has_poi(obj.home_poi):
            flag("MissingObject", None,
                 f"object {obj.id.id} homed at unknown POI {obj.home_poi!r}")
        elif obj.owner is None:
            slots = registry.poi(obj.home_poi).object_slots
            if obj.type_key not in slots:
                flag("MissingObject", None,
                     f"object {obj.id.id} ({obj.type_key}) has no matching slot "
                     f"at {obj.home_poi!r}")

    for ev in graph.events:
        spec = registry.actions.get(ev.action)
        if spec is None:
            flag("UnknownAction", ev.event_id, f"unknown action {ev.action!r}")
            continue
        if not registry.has_poi(ev.poi):
            flag("UnknownRegion", ev.event_id, f"unknown POI {ev.poi!r}")
            continue
        if plan_ok and registry.region_of_poi(ev.poi) not in plan_set:
            flag("UnknownRegion", ev.event_id,
                 f"POI {ev.poi!r} lies outside the region plan")
        if ev.kind is EventKind.MOVEMENT:
            if not spec.is_movement_only:
                flag("UnknownAction", ev.event_id,
                     f"movement event uses non-movement action {ev.action!r}")
            continue
        poi = registry.poi(ev.poi)
        if ev.action not in poi.valid_actions:
            flag("UnknownAction", ev.event_id,
                 f"action {ev.action!r} is not valid at {ev.poi!r}")
        # interaction/exchange patients are actors; the exchanged object
        # is tracked through ownership, so the slot rule binds only
        # plain-action events
        if spec.requires_object and ev.kind is EventKind.ACTION:
            if ev.patient is None or ev.patient.kind is not EntityKind.OBJECT:
                flag("MissingObject", ev.event_id,
                     f"action {ev.action!r} requires an object patient")
            elif ev.patient.id not in object_ids:
                flag("MissingObject", ev.event_id,
                     f"patient object {ev.patient.id} is not declared")

    # chain transition legality between consecutive plain actions at one POI
    for chain in graph.chains().values():
        for prev, nxt in zip(chain, chain[1:]):
            if prev.kind is not EventKind.ACTION or nxt.kind is not EventKind.ACTION:
                continue
            if prev.poi != nxt.poi or not registry.has_poi(prev.poi):
                continue
            transitions = registry.poi(prev.poi).transitions
            allowed = transitions.get(prev.action)
            if allowed is None or nxt.action not in allowed:
                flag("InvalidChainTransition", nxt.event_id,
                     f"{prev.action!r} -> {nxt.action!r} not allowed at {prev.poi!r}")

    for ev, partner in paired_events(graph):
        if partner is None:
            flag("NotCoLocated", ev.event_id,
                 f"{ev.kind.value} event has no partner event")
        elif ev.poi != partner.poi:
            flag("NotCoLocated", ev.event_id,
                 f"pair split across POIs {ev.poi!r} / {partner.poi!r}")
    return issues


def paired_events(graph: GestGraph):
    """Match interaction/exchange events into pairs by mutual patients.

    Yields (event, partner-or-None) once per pair, plus unmatched events.
    """
    paired = [e for e in graph.events
              if e.kind in (EventKind.INTERACTION, EventKind.EXCHANGE)]
    used: set[int] = set()
    for ev in paired:
        if ev.event_id in used:
            continue
        partner = None
        for cand in paired:
            if (cand.event_id != ev.event_id and cand.event_id not in used
                    and cand.kind is ev.kind
                    and ev.patient is not None and cand.patient is not None
                    and cand.actor.id == ev.patient.id
                    and cand.patient.id == ev.actor.id):
                partner = cand
                break
        used.add(ev.event_id)
        if partner is not None:
            used.add(partner.event_id)
        yield ev, partner


def exchange_pairs(graph: GestGraph) -> list[tuple[Event, Event]]:
    """(giver event, receiver event) pairs; the giver is the lower id."""
    out = []
    for ev, partner in paired_events(graph):
        if partner is not None and ev.kind is EventKind.EXCHANGE:
            out.append((ev, partner) if ev.event_id < partner.event_id else (partner, ev))
    return out


# --------------------------------------------------------------- ground

def ground(graph: GestGraph, registry: CapabilityRegistry, rng: random.Random,
           fps: int = 25) -> World:
    """Concrete initial world: jittered actor spots and slot-bound
    objects.  simulate places the camera and the carried objects."""
    world = World(entities={}, fps=fps)
    for region_key in graph.region_plan:
        for poi in registry.region(region_key).pois:
            world.poi_position[poi.key] = poi.position
            world.poi_region[poi.key] = region_key

    # jitter draws happen in a fixed, sorted order for determinism
    pairs = sorted({(ev.actor.id, ev.poi) for ev in graph.events})
    for actor_id, poi_key in pairs:
        poi = registry.poi(poi_key)
        if poi_key not in world.poi_position:
            world.poi_position[poi_key] = poi.position
            world.poi_region[poi_key] = registry.region_of_poi(poi_key)
        world.stand[actor_id, poi_key] = _jittered(poi.position, rng)

    first_poi: dict[int, str] = {}
    for ev in graph.events:
        first_poi.setdefault(ev.actor.id, ev.poi)
    for actor in graph.actors:
        poi_key = first_poi.get(actor.id.id)
        if poi_key is None:
            # actor with no events idles at the plan's first region
            poi_key = registry.region(graph.region_plan[0]).pois[0].key
            world.stand[actor.id.id, poi_key] = _jittered(registry.poi(poi_key).position,
                                                          rng)
        pos = world.stand[actor.id.id, poi_key]
        poi = registry.poi(poi_key)
        yaw = _face(pos, poi.position)
        world.entities[actor.id.id] = EntityState(pos, yaw, registry.region_of_poi(poi_key))

    taken: dict[str, set[int]] = {}
    # an owned object rides with its owner, placed by simulate
    for obj in (o for o in graph.objects if o.owner is None):
        poi = registry.poi(obj.home_poi)
        used = taken.setdefault(obj.home_poi, set())
        slot_index = next(
            (i for i, t in enumerate(poi.object_slots)
             if t == obj.type_key and i not in used),
            None,
        )
        if slot_index is None:
            raise NoFreeSlot(
                f"no free {obj.type_key!r} slot at {obj.home_poi!r} for object {obj.id.id}"
            )
        used.add(slot_index)
        pos = slot_position(poi.position, slot_index, len(poi.object_slots))
        world.entities[obj.id.id] = EntityState(pos, 0.0, registry.region_of_poi(obj.home_poi))
    return world


def _jittered(poi_position, rng: random.Random):
    """A standing spot drawn uniformly within STAND_JITTER_MAX of the POI:
    the angle first, then the radius."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    radius = STAND_JITTER_MAX * math.sqrt(rng.uniform(0.0, 1.0))
    return (
        poi_position[0] + radius * math.sin(angle),
        poi_position[1] + radius * math.cos(angle),
        poi_position[2],
    )


def slot_position(poi_position, slot_index: int, slot_count: int):
    theta = 2.0 * math.pi * slot_index / max(slot_count, 1)
    return (
        poi_position[0] + SLOT_RING_RADIUS * math.sin(theta),
        poi_position[1] + SLOT_RING_RADIUS * math.cos(theta),
        poi_position[2],
    )


def _face(frm, to) -> float:
    dx = to[0] - frm[0]
    dy = to[1] - frm[1]
    if dx * dx + dy * dy < 1e-18:
        return 0.0
    return bearing_deg(dx, dy)


# ------------------------------------------------------ insert movements

def movement_action_key(registry: CapabilityRegistry) -> str:
    movement = sorted(k for k, a in registry.actions.items() if a.is_movement_only)
    if not movement:
        raise NoValidAction("registry declares no movement-only action")
    return "walk_to" if "walk_to" in movement else movement[0]


def insert_movements(graph: GestGraph, world: World,
                     registry: CapabilityRegistry) -> GestGraph:
    """Splice a walk event before every event at a new POI.

    Movement duration is the straight-line distance at walking speed,
    rounded up to a whole frame count so the per-frame step never
    exceeds WALK_SPEED / fps.
    """
    action = movement_action_key(registry)
    next_id = max((e.event_id for e in graph.events), default=-1) + 1
    current: dict[int, str] = {}
    out: list[Event] = []
    for ev in graph.events:
        prev = current.get(ev.actor.id)
        # an existing movement event is itself the relocation: idempotent
        if (ev.kind is not EventKind.MOVEMENT
                and prev is not None and prev != ev.poi):
            a = world.stand[ev.actor.id, prev]
            b = world.stand[ev.actor.id, ev.poi]
            dist = math.dist(a, b)
            frames = max(1, math.ceil(dist * world.fps / WALK_SPEED - 1e-9))
            out.append(Event(next_id, ev.actor, action, None, ev.poi,
                             frames / world.fps, EventKind.MOVEMENT))
            next_id += 1
        out.append(ev)
        current[ev.actor.id] = ev.poi
    return replace(graph, events=tuple(out))


# -------------------------------------------------------------- simulate

def story_frames(timeline: EventTimeline) -> int:
    """The number of frames simulate writes for a story: the timeline's
    makespan and the camera's settling frames."""
    return timeline.makespan() + CAMERA_SETTLE_FRAMES


def entity_table(graph: GestGraph) -> tuple[tuple, tuple, tuple]:
    """The (ids, kinds, names) columns simulate writes for a story's graph:
    the camera, then the actors by name and the objects by type."""
    return tuple(zip((CAMERA_ID, EntityKind.CAMERA, "camera"),
                     *((a.id.id, EntityKind.ACTOR, a.name) for a in graph.actors),
                     *((o.id.id, EntityKind.OBJECT, o.type_key) for o in graph.objects)))


def simulate(world: World, graph: GestGraph, timeline: EventTimeline) -> FrameLog:
    """Frame-by-frame poses for camera, actors and objects."""
    frames = story_frames(timeline)
    entity_ids, entity_kinds, entity_names = entity_table(graph)
    actor_ids = [a.id.id for a in graph.actors]
    index = {eid: i for i, eid in enumerate(entity_ids)}
    n = len(entity_ids)

    pos = np.zeros((frames, n, 3), dtype=np.float64)
    yaw = np.zeros((frames, n), dtype=np.float64)

    region_index = {key: i for i, key in enumerate(graph.region_plan)}
    actor_region = np.zeros((frames, len(actor_ids)), dtype=np.int16)
    active = np.zeros((frames, len(actor_ids)), dtype=bool)

    chains = graph.chains()
    for a_pos, actor_id in enumerate(actor_ids):
        idx = index[actor_id]
        chain = chains.get(actor_id, [])
        state = world.entities[actor_id]
        cur_pos = np.array(state.position)
        cur_yaw = state.yaw
        cur_region = region_index.get(state.region, 0)
        cursor = 0
        cur_poi = chain[0].poi if chain else None
        for ev in chain:
            start, end = timeline.interval(ev.event_id)
            pos[cursor:start, idx] = cur_pos
            yaw[cursor:start, idx] = cur_yaw
            actor_region[cursor:start, a_pos] = cur_region
            active[start:end, a_pos] = True
            ev_region = region_index.get(world.poi_region[ev.poi], cur_region)
            if ev.kind is EventKind.MOVEMENT:
                frm = np.array(world.stand[actor_id, cur_poi])
                to = np.array(world.stand[actor_id, ev.poi])
                length = end - start
                alphas = (np.arange(1, length + 1) / length)[:, None]
                pos[start:end, idx] = frm + alphas * (to - frm)
                travel_yaw = _face(tuple(frm), tuple(to))
                yaw[start:end, idx] = travel_yaw
                cur_pos = to
                cur_yaw = travel_yaw
            else:
                spot = np.array(world.stand[actor_id, ev.poi])
                pos[start:end, idx] = spot
                if (ev.kind in (EventKind.INTERACTION, EventKind.EXCHANGE)
                        and ev.patient is not None
                        and (ev.patient.id, ev.poi) in world.stand):
                    face_to = world.stand[ev.patient.id, ev.poi]
                else:
                    face_to = world.poi_position[ev.poi]
                ev_yaw = _face(tuple(spot), face_to)
                if ev_yaw == 0.0 and tuple(spot) == tuple(face_to):
                    ev_yaw = cur_yaw
                yaw[start:end, idx] = ev_yaw
                cur_pos = spot
                cur_yaw = ev_yaw
            cur_poi = ev.poi
            actor_region[start:end, a_pos] = ev_region
            cur_region = ev_region
            cursor = end
        pos[cursor:, idx] = cur_pos
        yaw[cursor:, idx] = cur_yaw
        actor_region[cursor:, a_pos] = cur_region

    _lay_objects(world, graph, timeline, pos, yaw, index)
    _run_camera(graph, pos, yaw, index, actor_ids, active, actor_region)

    return FrameLog(pos, yaw, world.fps, entity_ids, entity_kinds, entity_names)


def _lay_objects(world: World, graph: GestGraph, timeline: EventTimeline,
                 pos: np.ndarray, yaw: np.ndarray, index: dict[int, int]):
    frames = pos.shape[0]
    # ownership intervals per object: (start_frame, owner_id or None)
    spans: dict[int, list[tuple[int, int | None]]] = {
        o.id.id: [(0, o.owner.id if o.owner else None)] for o in graph.objects
    }
    owned_now: dict[int, list[int]] = {}
    for o in graph.objects:
        if o.owner is not None:
            owned_now.setdefault(o.owner.id, []).append(o.id.id)
    flips = sorted(
        ((timeline.end(g.event_id), g, r) for g, r in exchange_pairs(graph)),
        key=lambda t: (t[0], t[1].event_id),
    )
    for flip_frame, giver_ev, recv_ev in flips:
        giver = giver_ev.actor.id
        receiver = recv_ev.actor.id
        held = owned_now.get(giver)
        if not held:
            continue
        obj_id = held.pop(0)
        owned_now.setdefault(receiver, []).append(obj_id)
        spans[obj_id].append((flip_frame, receiver))

    for obj in graph.objects:
        idx = index[obj.id.id]
        obj_spans = spans[obj.id.id]
        for s_i, (start, owner) in enumerate(obj_spans):
            end = obj_spans[s_i + 1][0] if s_i + 1 < len(obj_spans) else frames
            if owner is None:
                pos[start:end, idx] = world.entities[obj.id.id].position
                yaw[start:end, idx] = 0.0
            else:
                o_idx = index[owner]
                th = np.radians(yaw[start:end, o_idx])
                sin, cos = np.sin(th), np.cos(th)
                dx = cos * CARRY_OFFSET[0] + sin * CARRY_OFFSET[1]
                dy = -sin * CARRY_OFFSET[0] + cos * CARRY_OFFSET[1]
                pos[start:end, idx, 0] = pos[start:end, o_idx, 0] + dx
                pos[start:end, idx, 1] = pos[start:end, o_idx, 1] + dy
                pos[start:end, idx, 2] = pos[start:end, o_idx, 2] + CARRY_OFFSET[2]
                yaw[start:end, idx] = yaw[start:end, o_idx]


def _run_camera(graph: GestGraph, pos: np.ndarray, yaw: np.ndarray,
                index: dict[int, int], actor_ids: list[int], active: np.ndarray,
                actor_region: np.ndarray):
    """Camera column of pos and yaw.  Each frame focuses the active actors
    of the region most of them are in (ties go to the lower region
    index); idle frames keep the last focus, and before any actor is
    active the focus is every actor.  The camera faces the centroid and
    targets the centroid plus offset.  Frame 0 starts on the target;
    later frames smooth toward it until a step leaves every axis within
    CAMERA_ARRIVE_M, where the camera arrives and sits on the target
    exactly.  So the recurrence runs only from a change of the centroid
    until the camera arrives, and every frame after that copies the one
    before until the centroid next changes."""
    frames, n_actors = active.shape
    n_regions = max(len(graph.region_plan), 1)
    at = pos[:, [index[a] for a in actor_ids]]
    slot = np.arange(frames)[:, None] * n_regions + actor_region
    counts = np.bincount(slot[active], minlength=frames * n_regions)
    top = counts.reshape(frames, n_regions).argmax(axis=1)
    busy = active.any(axis=1)
    sel = active & (actor_region == top[:, None])
    sel[~busy] = True  # every actor; only frame 0's survives the hold below
    # summed from 0.0 in actor order, as a scalar mean of the rows would be
    acc = np.zeros((frames, 3))
    for k in range(n_actors):
        acc = np.where(sel[:, k, None], acc + at[:, k], acc)
    centroid = acc / sel.sum(axis=1)[:, None]
    # an idle frame holds the centroid of the last busy frame, or of frame 0
    centroid = centroid[np.maximum.accumulate(np.where(busy, np.arange(frames), 0))]
    s, tol = CAMERA_SMOOTHING, CAMERA_ARRIVE_M
    txs, tys, tzs = (centroid + CAMERA_OFFSET).T.tolist()
    cxs, cys = centroid[:, :2].T.tolist()
    # frames whose focus centroid differs in any bit from the frame before:
    # only there can an arrived camera move or turn
    bits = centroid.view(np.int64)
    changes = (np.flatnonzero((bits[1:] != bits[:-1]).any(axis=1)) + 1).tolist()
    px, py, pz = txs[0], tys[0], tzs[0]
    steps = [0]  # the frames computed below; every other frame copies the one before
    poses = [px, py, pz, bearing_deg(cxs[0] - px, cys[0] - py)]  # x, y, z, yaw per step
    f = 0  # the last frame computed: where the camera arrived, or the story's end
    for change in changes:
        if change <= f:
            continue
        for f in range(change, frames):
            tx, ty, tz = txs[f], tys[f], tzs[f]
            px += s * (tx - px)
            py += s * (ty - py)
            pz += s * (tz - pz)
            arrived = abs(tx - px) < tol and abs(ty - py) < tol and abs(tz - pz) < tol
            if arrived:
                px, py, pz = tx, ty, tz
            steps.append(f)
            poses += px, py, pz, degrees(atan2(cxs[f] - px, cys[f] - py))  # bearing_deg
            if arrived:
                break
    row = np.zeros(frames, dtype=np.intp)
    row[steps] = range(len(steps))
    cam = index[CAMERA_ID]
    column = np.array(poses).reshape(-1, 4)[np.maximum.accumulate(row)]
    pos[:, cam] = column[:, :3]
    yaw[:, cam] = column[:, 3]


def visible_mask(log: FrameLog) -> np.ndarray:
    """(frames, entities) frustum visibility from the camera: within
    range and inside the horizontal field of view; no occlusion."""
    cam = log.index_of(CAMERA_ID)
    rel = log.positions - log.positions[:, cam:cam + 1, :]
    dist = np.sqrt((rel * rel).sum(axis=2))
    bearing = np.degrees(np.arctan2(rel[:, :, 0], rel[:, :, 1]))
    off = (bearing - log.yaws[:, cam:cam + 1] + 180.0) % 360.0 - 180.0
    mask = (dist <= CAMERA_MAX_RANGE_M) & (np.abs(off) <= CAMERA_FOV_DEG / 2.0)
    mask[:, cam] = False
    return mask
