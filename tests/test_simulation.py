"""Grounding, movement insertion and kinematic execution."""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from storysim.default_registry import build_default_registry
from storysim.errors import NoFreeSlot
from storysim.model import (
    CAMERA_ID,
    ActionSpec,
    Actor,
    ActionCategory,
    CapabilityRegistry,
    EntityId,
    EntityKind,
    EpisodeSpec,
    Event,
    EventKind,
    Gender,
    GestGraph,
    ObjectEntity,
    PoiSpec,
    RegionSpec,
    TemporalRelation,
)
from storysim.allen import Coarse, coarse_to_allen
from storysim.procgen import GenConfig, generate_story
from storysim.scheduling import duration_frames, schedule
from storysim.simulation import (
    CAMERA_ARRIVE_M,
    CAMERA_OFFSET,
    CAMERA_SETTLE_FRAMES,
    CAMERA_SMOOTHING,
    WALK_SPEED,
    FrameLog,
    World,
    ground,
    insert_movements,
    simulate,
    slot_position,
    validate,
    visible_mask,
)

from storysim import simulation
from storysim.pipeline import CorpusConfig, build_story

from _oracles import classify, numpy_run_camera

# the dense scene settings: six actors over three regions
DENSE = GenConfig(master_seed=7, actors_min_max=(6, 6), max_actors_per_region=6,
                  regions_to_visit=3, relation_prob=1.0, interaction_prob=0.6,
                  exchange_prob=0.3)


def mini_registry() -> CapabilityRegistry:
    actions = {
        "sit": ActionSpec("sit", ActionCategory.SOCIAL, (4.0, 10.0), False, False, "sits"),
        "sip": ActionSpec("sip", ActionCategory.MANIPULATION, (4.0, 10.0), True, False,
                          "sips a drink"),
        "trade": ActionSpec("trade", ActionCategory.MANIPULATION, (4.0, 10.0), False,
                            False, "hands over an item"),
        "walk_to": ActionSpec("walk_to", ActionCategory.LOCOMOTION, (1.0, 30.0), False,
                              True, "walks over"),
    }
    p1 = PoiSpec("ep.a.p1", (2.0, 2.0, 0.0), ("sit", "sip", "trade"),
                 {"sit": ("sip",), "sip": ("sit",)}, ("cup",))
    p2 = PoiSpec("ep.a.p2", (9.0, 2.0, 0.0), ("sit", "sip", "trade"),
                 {"sit": ("sip",), "sip": ("sit",)}, ("cup",))
    region_a = RegionSpec("ep.a", "parlor", ((0.0, 0.0, 0.0), (12.0, 12.0, 3.0)), (p1, p2))
    p3 = PoiSpec("ep.b.p3", (14.0, 2.0, 0.0), ("sit",), {"sit": ("sit",)}, ())
    region_b = RegionSpec("ep.b", "annex", ((12.0, 0.0, 0.0), (24.0, 12.0, 3.0)), (p3,))
    episode = EpisodeSpec("ep", "test", (region_a, region_b))
    return CapabilityRegistry(
        episodes=(episode,),
        actor_models=("m_one", "f_one"),
        object_types=("cup",),
        actions=actions,
    )


def actor(i, name="Anna", gender=Gender.FEMALE):
    return Actor(EntityId(i, EntityKind.ACTOR), name, gender, "f_one")


def ev(eid, actor_id, action, poi, dur, kind=EventKind.ACTION, patient=None):
    return Event(eid, EntityId(actor_id, EntityKind.ACTOR), action, patient, poi,
                 dur, kind)


def make_graph(events, actors, objects=(), relations=(), plan=("ep.a",), seed=11):
    return GestGraph(actors=tuple(actors), objects=tuple(objects),
                     events=tuple(events), relations=tuple(relations),
                     region_plan=tuple(plan), seed=seed)


def flat_world(reg, graph, **kw):
    """World with jitter forced to zero so geometry is exact."""
    w = ground(graph, reg, random.Random(0), **kw)
    for key in list(w.stand):
        w.stand[key] = reg.poi(key[1]).position
    return w


class TestValidate:
    def test_clean_story(self):
        reg = build_default_registry()
        g = generate_story(GenConfig(master_seed=5), reg, 0)
        assert validate(g, reg) == []

    def test_unknown_action(self):
        reg = mini_registry()
        g = make_graph([ev(10, 1, "juggle", "ep.a.p1", 5.0)], [actor(1)])
        issues = validate(g, reg)
        assert any(i["code"] == "UnknownAction" and i["event_id"] == 10 for i in issues)

    def test_action_invalid_at_poi(self):
        reg = mini_registry()
        g = make_graph([ev(10, 1, "sip", "ep.b.p3", 5.0)], [actor(1)],
                       plan=("ep.a", "ep.b"))
        issues = validate(g, reg)
        assert any(i["code"] == "UnknownAction" for i in issues)

    def test_graph_without_actors_or_region_plan(self):
        reg = mini_registry()
        assert [i["code"] for i in validate(make_graph([], []), reg)] == ["NoActors"]
        assert [i["code"] for i in validate(make_graph([], [actor(1)], plan=()), reg)] \
            == ["UnknownRegion"]

    def test_unknown_region_in_plan(self):
        reg = mini_registry()
        g = make_graph([ev(10, 1, "sit", "ep.a.p1", 5.0)], [actor(1)],
                       plan=("ep.zzz",))
        issues = validate(g, reg)
        assert any(i["code"] == "UnknownRegion" for i in issues)

    def test_invalid_chain_transition(self):
        reg = mini_registry()
        g = make_graph(
            [ev(10, 1, "sit", "ep.a.p1", 5.0), ev(11, 1, "trade", "ep.a.p1", 5.0)],
            [actor(1)])
        issues = validate(g, reg)
        assert any(i["code"] == "InvalidChainTransition" and i["event_id"] == 11
                   for i in issues)

    def test_missing_object_patient(self):
        reg = mini_registry()
        g = make_graph([ev(10, 1, "sip", "ep.a.p1", 5.0)], [actor(1)])
        issues = validate(g, reg)
        assert any(i["code"] == "MissingObject" and i["event_id"] == 10
                   for i in issues)

    def test_exchange_pair_not_co_located(self):
        reg = mini_registry()
        a, b = actor(1), actor(2, "Ben", Gender.MALE)
        events = [
            ev(10, 1, "trade", "ep.a.p1", 5.0, EventKind.EXCHANGE, b.id),
            ev(11, 2, "trade", "ep.a.p2", 5.0, EventKind.EXCHANGE, a.id),
        ]
        rel = TemporalRelation(10, 11, Coarse.SAME_TIME,
                               coarse_to_allen(Coarse.SAME_TIME))
        g = make_graph(events, [a, b], relations=[rel])
        issues = validate(g, reg)
        assert any(i["code"] == "NotCoLocated" for i in issues)


class TestGround:
    def test_actor_near_first_poi(self):
        reg = mini_registry()
        g = make_graph([ev(10, 1, "sit", "ep.a.p1", 5.0)], [actor(1)])
        w = ground(g, reg, random.Random(4))
        px, py, pz = w.entities[1].position
        assert math.dist((px, py, pz), (2.0, 2.0, 0.0)) <= 0.5

    def test_deterministic(self):
        reg = mini_registry()
        g = make_graph([ev(10, 1, "sit", "ep.a.p1", 5.0)], [actor(1)])
        w1 = ground(g, reg, random.Random(9))
        w2 = ground(g, reg, random.Random(9))
        assert w1.stand == w2.stand
        assert w1.entities == w2.entities

    def test_object_bound_to_slot(self):
        reg = mini_registry()
        cup = ObjectEntity(EntityId(3, EntityKind.OBJECT), "cup", None, "ep.a.p1")
        g = make_graph([ev(10, 1, "sip", "ep.a.p1", 5.0, patient=cup.id)],
                       [actor(1)], objects=[cup])
        w = ground(g, reg, random.Random(4))
        p1 = reg.poi("ep.a.p1")
        assert w.entities[3].position == slot_position(p1.position, 0,
                                                       len(p1.object_slots))
        assert math.dist(w.entities[3].position, (2.0, 2.0, 0.0)) == pytest.approx(0.6)

    def test_no_free_slot(self):
        reg = mini_registry()
        cups = [ObjectEntity(EntityId(3, EntityKind.OBJECT), "cup", None, "ep.a.p1"),
                ObjectEntity(EntityId(4, EntityKind.OBJECT), "cup", None, "ep.a.p1")]
        g = make_graph([ev(10, 1, "sit", "ep.a.p1", 5.0)], [actor(1)], objects=cups)
        with pytest.raises(NoFreeSlot):
            ground(g, reg, random.Random(4))

    def test_entities_inside_region_bounds(self):
        reg = build_default_registry()
        g = generate_story(GenConfig(master_seed=21), reg, 2)
        w = ground(g, reg, random.Random(1))
        assert CAMERA_ID not in w.entities  # simulate places the camera
        for state in w.entities.values():
            lo, hi = reg.region(state.region).bounds
            x, y, _ = state.position
            assert lo[0] - 1.5 <= x <= hi[0] + 1.5
            assert lo[1] - 1.5 <= y <= hi[1] + 1.5


class TestInsertMovements:
    def test_same_poi_no_movement(self):
        reg = mini_registry()
        g = make_graph(
            [ev(10, 1, "sit", "ep.a.p1", 5.0), ev(11, 1, "sip", "ep.a.p1", 5.0)],
            [actor(1)])
        w = flat_world(reg, g)
        assert len(insert_movements(g, w, reg).events) == 2

    def test_seven_meters_is_five_seconds(self):
        reg = mini_registry()
        g = make_graph(
            [ev(10, 1, "sit", "ep.a.p1", 5.0), ev(11, 1, "sit", "ep.a.p2", 5.0)],
            [actor(1)])
        w = flat_world(reg, g)
        g2 = insert_movements(g, w, reg)
        moves = [e for e in g2.events if e.kind is EventKind.MOVEMENT]
        assert len(moves) == 1
        assert moves[0].duration_s == pytest.approx(5.0)
        assert duration_frames(moves[0].duration_s, 25) == 125
        assert moves[0].action == "walk_to"
        assert moves[0].poi == "ep.a.p2"

    def test_idempotent_on_augmented_graph(self):
        reg = mini_registry()
        g = make_graph(
            [ev(10, 1, "sit", "ep.a.p1", 5.0), ev(11, 1, "sit", "ep.a.p2", 5.0)],
            [actor(1)])
        w = flat_world(reg, g)
        g2 = insert_movements(g, w, reg)
        assert insert_movements(g2, w, reg) == g2

    def test_movement_meets_follower(self):
        reg = mini_registry()
        g = make_graph(
            [ev(10, 1, "sit", "ep.a.p1", 5.0), ev(11, 1, "sit", "ep.a.p2", 5.0)],
            [actor(1)])
        w = flat_world(reg, g)
        g2 = insert_movements(g, w, reg)
        tl = schedule(g2, fps=25)
        move = next(e for e in g2.events if e.kind is EventKind.MOVEMENT)
        assert tl.end(move.event_id) == tl.start(11)

    def test_relations_survive_insertion(self):
        reg = build_default_registry()
        for idx in range(6):
            g = generate_story(GenConfig(master_seed=31), reg, idx)
            w = ground(g, reg, random.Random(7))
            g2 = insert_movements(g, w, reg)
            tl = schedule(g2, fps=25)
            for rel in g.relations:
                a0, a1 = tl.interval(rel.source)
                b0, b1 = tl.interval(rel.target)
                assert classify(a0, a1, b0, b1) in rel.allen_set.codes()


class TestSimulate:
    def test_single_stationary_event(self):
        reg = mini_registry()
        g = make_graph([ev(10, 1, "sit", "ep.a.p1", 10.0)], [actor(1)])
        w = ground(g, reg, random.Random(2))
        tl = schedule(g, fps=25)
        assert tl.interval(10) == (0, 250)
        log = simulate(w, g, tl)
        assert log.frame_count == 250 + CAMERA_SETTLE_FRAMES
        idx = log.index_of(1)
        spread = np.ptp(log.positions[0:250, idx], axis=0)
        assert spread.max() < 1e-6

    def test_movement_midpoint(self):
        reg = mini_registry()
        g = make_graph(
            [ev(10, 1, "sit", "ep.a.p1", 5.0), ev(11, 1, "sit", "ep.a.p2", 5.0)],
            [actor(1)])
        w = flat_world(reg, g)
        g2 = insert_movements(g, w, reg)
        tl = schedule(g2, fps=25)
        move = next(e for e in g2.events if e.kind is EventKind.MOVEMENT)
        s, e = tl.interval(move.event_id)
        log = simulate(w, g2, tl)
        idx = log.index_of(1)
        mid_frame = (s + e) // 2
        midpoint = (np.array((2.0, 2.0, 0.0)) + np.array((9.0, 2.0, 0.0))) / 2
        step = WALK_SPEED / w.fps
        assert np.linalg.norm(log.positions[mid_frame, idx] - midpoint) <= step + 1e-9

    def test_no_teleportation(self):
        reg = build_default_registry()
        g = generate_story(GenConfig(master_seed=13), reg, 1)
        w = ground(g, reg, random.Random(5))
        g2 = insert_movements(g, w, reg)
        tl = schedule(g2, fps=25)
        log = simulate(w, g2, tl)
        for a in g.actors:
            idx = log.index_of(a.id.id)
            steps = np.linalg.norm(np.diff(log.positions[:, idx], axis=0), axis=1)
            assert steps.max(initial=0.0) <= WALK_SPEED / w.fps + 1e-6

    def test_actor_at_poi_during_events(self):
        reg = build_default_registry()
        g = generate_story(GenConfig(master_seed=13), reg, 3)
        w = ground(g, reg, random.Random(5))
        g2 = insert_movements(g, w, reg)
        tl = schedule(g2, fps=25)
        log = simulate(w, g2, tl)
        for event in g2.events:
            if event.kind is EventKind.MOVEMENT:
                continue
            s, e = tl.interval(event.event_id)
            idx = log.index_of(event.actor.id)
            p = np.array(reg.poi(event.poi).position)
            d = np.linalg.norm(log.positions[s:e, idx] - p, axis=1)
            assert d.max() <= 0.6 + 1e-9

    def test_bitwise_determinism(self):
        reg = build_default_registry()
        g = generate_story(GenConfig(master_seed=17), reg, 4)
        logs = []
        for _ in range(2):
            w = ground(g, reg, random.Random(99))
            g2 = insert_movements(g, w, reg)
            tl = schedule(g2, fps=25)
            log = simulate(w, g2, tl)
            logs.append((log.positions.tobytes(), log.yaws.tobytes()))
        assert logs[0] == logs[1]

    def test_exchange_flips_ownership_at_end_frame(self):
        reg = mini_registry()
        a = actor(1)
        b = actor(2, "Ben", Gender.MALE)
        cup = ObjectEntity(EntityId(3, EntityKind.OBJECT), "cup", a.id, "ep.a.p1")
        events = [
            ev(10, 1, "trade", "ep.a.p1", 6.0, EventKind.EXCHANGE, b.id),
            ev(11, 2, "trade", "ep.a.p1", 6.0, EventKind.EXCHANGE, a.id),
        ]
        rel = TemporalRelation(10, 11, Coarse.SAME_TIME,
                               coarse_to_allen(Coarse.SAME_TIME))
        g = make_graph(events, [a, b], objects=[cup], relations=[rel])
        assert validate(g, reg) == []
        w = ground(g, reg, random.Random(3))
        tl = schedule(g, fps=25)
        flip = tl.end(10)
        log = simulate(w, g, tl)
        carry_reach = math.sqrt(0.3 ** 2 + 0.2 ** 2 + 1.0 ** 2) + 1e-9
        d_before = np.linalg.norm(
            log.positions[flip - 1, log.index_of(3)] - log.positions[flip - 1, log.index_of(1)])
        d_after = np.linalg.norm(
            log.positions[flip, log.index_of(3)] - log.positions[flip, log.index_of(2)])
        assert d_before <= carry_reach
        assert d_after <= carry_reach


def camera_column(active, actor_region, actor_pos, regions=1, run=None):
    """The camera's (positions, yaws) that `run` (by default the package's
    _run_camera) gives for hand-built per-frame actor arrays."""
    frames, n = active.shape
    pos = np.zeros((frames, n + 1, 3))
    pos[:, 1:] = actor_pos
    yaw = np.zeros((frames, n + 1))
    actor_ids = list(range(1, n + 1))
    index = {CAMERA_ID: 0, **{a: a for a in actor_ids}}
    (run or simulation._run_camera)(
        SimpleNamespace(region_plan=[f"r{i}" for i in range(regions)]),
        pos, yaw, index, actor_ids, np.asarray(active, dtype=bool),
        np.asarray(actor_region, dtype=np.int16))
    return pos[:, 0], yaw[:, 0]


def _scene(active, actor_region, actor_pos, regions=1):
    return (np.array(active, dtype=bool), np.array(actor_region, dtype=np.int16),
            np.array(actor_pos, dtype=np.float64), regions)


_coord = st.one_of(st.sampled_from((0.0, -0.0, 1.5, -2.25)), st.floats(-60.0, 60.0))


@st.composite
def _camera_scenes(draw):
    """Per-frame activity, regions and positions of a few actors, with
    idle frames, region ties and signed-zero coordinates."""
    frames = draw(st.integers(1, 12))
    n = draw(st.integers(1, 4))
    regions = draw(st.integers(1, 3))
    cells = frames * n
    active = draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    actor_region = draw(st.lists(st.integers(0, regions - 1), min_size=cells,
                                 max_size=cells))
    actor_pos = draw(st.lists(_coord, min_size=cells * 3, max_size=cells * 3))
    return _scene(np.reshape(active, (frames, n)),
                  np.reshape(actor_region, (frames, n)),
                  np.reshape(actor_pos, (frames, n, 3)), regions)


class TestCamera:
    def test_converges_within_100_frames(self):
        # the actor jumps about 30 m after frame 0, then holds still
        here, there = [34.0, -5.0, 4.0], [4.0, 7.0, 0.0]
        cam, yaw = camera_column(np.ones((101, 1)), np.zeros((101, 1)),
                                 [[here]] + [[there]] * 100)
        target = np.array(there) + np.array(CAMERA_OFFSET)
        assert np.linalg.norm(cam[0] - target) > 30.0
        assert cam[-1].tobytes() == target.tobytes()
        look = np.array(there) - cam[-1]
        want = math.degrees(math.atan2(look[0], look[1]))
        assert abs(math.radians(yaw[-1] - want)) < 1e-3

    @pytest.mark.parametrize("step", [(10.0, -4.0, 1.0), (0.0, 0.0, -30.0),
                                      (-0.0004, 0.0002, 0.0)])
    def test_arrives_within_the_settling_bound(self, step):
        # the actor steps by `step` at frame 1, then holds still
        here = np.array([3.0, -2.0, 0.5])
        there = here + step
        frames = 140
        cam, yaw = camera_column(np.ones((frames, 1)), np.zeros((frames, 1)),
                                 [[here]] + [[there]] * (frames - 1))
        log = FrameLog(cam[:, None], yaw[:, None], 25, (CAMERA_ID,),
                       (EntityKind.CAMERA,), ("camera",))
        starts = np.flatnonzero(log.pose_changes()[:, 0])
        # the gap shrinks by 1 - CAMERA_SMOOTHING per frame from the step on
        bound = max(0, math.ceil(math.log(CAMERA_ARRIVE_M / np.abs(step).max())
                                 / math.log(1.0 - CAMERA_SMOOTHING)))
        assert bound == {10.0: 88, 30.0: 98, 0.0004: 0}[np.abs(step).max()]
        # the camera moves on every frame from the step until it arrives
        assert starts.tolist() == list(range(starts[-1] + 1))
        assert starts[-1] <= 1 + bound
        target = there + np.array(CAMERA_OFFSET)
        settled = 1 + bound
        assert cam[settled:].tobytes() == np.tile(target, (frames - settled, 1)).tobytes()
        assert yaw[settled:].tobytes() == np.full(frames - settled, yaw[settled]).tobytes()

    def test_symmetric_actor_target(self):
        mirrored = [[[-3.0, 0.0, 0.0], [3.0, 0.0, 0.0]],
                    [[-5.0, 2.0, 0.0], [5.0, 2.0, 0.0]],
                    [[-1.0, 4.0, 1.0], [1.0, 4.0, 1.0]]]
        cam, _ = camera_column(np.ones((3, 2)), np.zeros((3, 2)), mirrored)
        assert cam[:, 0] == pytest.approx([CAMERA_OFFSET[0]] * 3)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(_camera_scenes())
    # no actor active at frame 0, then one per region
    @example(_scene([[0, 0], [1, 0], [0, 1]], [[0, 1]] * 3,
                    [[[1.0, 2.0, 0.0], [-4.0, 6.5, 1.0]]] * 3, regions=2))
    # idle stretches after activity hold the last centroid
    @example(_scene([[1], [0], [0], [1], [0], [0]], [[0]] * 6,
                    [[[float(f), -f / 3, 0.5]] for f in range(6)]))
    # tied region counts go to the lower region index, whatever the actor order
    @example(_scene([[1, 1], [1, 1]], [[1, 0], [0, 1]],
                    [[[3.0, 0.0, 0.0], [-2.0, 1.0, 0.0]]] * 2, regions=2))
    # one actor and one frame, active or not
    @example(_scene([[1]], [[0]], [[[2.0, -3.0, 0.0]]]))
    @example(_scene([[0]], [[0]], [[[2.0, -3.0, 0.0]]]))
    # signed zeros in positions
    @example(_scene([[1, 0], [1, 1]], [[0, 0]] * 2,
                    [[[-0.0, -0.0, -0.0], [0.0, -0.0, 0.0]]] * 2))
    # a step, then a 120-frame hold: the camera arrives and sits on its target
    @example(_scene([[1]] * 121, [[0]] * 121,
                    [[[1.0, 2.0, 0.0]]] + [[[9.0, -3.0, 0.5]]] * 120))
    # a change while the camera chases the last one: it chases on through
    # frame 20's change, arrives at 100, and chases frame 130's change from
    # standstill
    @example(_scene([[1]] * 240, [[0]] * 240,
                    [[[1.0, 2.0, 0.0]]] + [[[11.0, 2.0, 0.5]]] * 19
                    + [[[11.0, -3.0, 0.5]]] * 110 + [[[-4.0, -3.0, 1.0]]] * 110))
    # a sub-millimetre target change arrives on its first frame
    @example(_scene([[1]] * 4, [[0]] * 4,
                    [[[1.0, 2.0, 0.0]]] + [[[1.0004, 1.9999, 0.0]]] * 3))
    # an actor at x = -0.0 gives a target of 0.0 on every axis, which the
    # camera reaches from below on x and y and from above on z
    @example(_scene([[1]] * 80, [[0]] * 80,
                    [[[-0.5, 5.0, -2.0]]] + [[[-0.0, 6.0, -3.0]]] * 79))
    def test_camera_matches_numpy_reference_on_edge_cases(self, scene):
        active, actor_region, actor_pos, regions = scene
        got = camera_column(active, actor_region, actor_pos, regions)
        want = camera_column(active, actor_region, actor_pos, regions,
                             run=numpy_run_camera)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_camera_matches_numpy_reference_on_dense_stories(self, monkeypatch):
        runs = []
        real = simulation._run_camera

        def checked(graph, pos, yaw, index, actor_ids, active, actor_region):
            want_pos, want_yaw = pos.copy(), yaw.copy()
            numpy_run_camera(graph, want_pos, want_yaw, index, actor_ids,
                             active, actor_region)
            real(graph, pos, yaw, index, actor_ids, active, actor_region)
            busy = active.any(axis=1)
            # idle frames after the first active one hold the last centroid
            held = int((~busy & (np.cumsum(busy) > 0)).sum())
            runs.append((pos.tobytes() == want_pos.tobytes(),
                         yaw.tobytes() == want_yaw.tobytes(), held))

        monkeypatch.setattr(simulation, "_run_camera", checked)
        reg = build_default_registry()
        for index in range(3):
            build_story(CorpusConfig(gen=DENSE), reg, index)
        assert len(runs) == 3
        assert all(same_pos and same_yaw for same_pos, same_yaw, _ in runs), runs
        assert all(held > 0 for _, _, held in runs)

    def test_camera_tracks_single_actor_scene(self):
        reg = mini_registry()
        g = make_graph([ev(10, 1, "sit", "ep.a.p1", 10.0)], [actor(1)])
        w = ground(g, reg, random.Random(2))
        tl = schedule(g, fps=25)
        log = simulate(w, g, tl)
        cam = log.index_of(0)
        idx = log.index_of(1)
        target = log.positions[0, idx] + np.array(CAMERA_OFFSET)
        # static focus: camera starts converged and stays there
        assert np.linalg.norm(log.positions[-1, cam] - target) < 1e-9


class TestVisibility:
    def _log(self, entity_pos):
        pos = np.zeros((1, 2, 3))
        pos[0, 1] = entity_pos
        yaws = np.zeros((1, 2))
        return FrameLog(pos, yaws, 25, (0, 5), (EntityKind.CAMERA, EntityKind.ACTOR),
                        ("camera", "Anna"))

    def test_in_front_visible(self):
        mask = visible_mask(self._log((0.0, 10.0, 0.0)))
        assert mask[0, 1]

    def test_behind_invisible(self):
        mask = visible_mask(self._log((0.0, -10.0, 0.0)))
        assert not mask[0, 1]

    def test_beyond_range_invisible(self):
        mask = visible_mask(self._log((0.0, 60.0, 0.0)))
        assert not mask[0, 1]

    def test_fov_edges(self):
        near_edge = (math.sin(math.radians(44.0)) * 10, math.cos(math.radians(44.0)) * 10, 0.0)
        past_edge = (math.sin(math.radians(46.0)) * 10, math.cos(math.radians(46.0)) * 10, 0.0)
        assert visible_mask(self._log(near_edge))[0, 1]
        assert not visible_mask(self._log(past_edge))[0, 1]

    def test_camera_not_self_visible(self):
        mask = visible_mask(self._log((0.0, 10.0, 0.0)))
        assert not mask[0, 0]
