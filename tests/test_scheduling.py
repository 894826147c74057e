"""Solver tests: closure behavior, STN scheduling, the search over
non-convex edges."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storysim import scheduling
from storysim.allen import AllenRelation, Coarse, RelationSet, coarse_to_allen, is_convex
from storysim.errors import InconsistentNetwork, UnschedulableDisjunction
from storysim.model import (Actor, EntityId, EntityKind, Event, EventKind, Gender,
                            GestGraph, TemporalRelation)
from storysim.scheduling import (
    CHAIN_SET,
    MEETS_ONLY,
    EventTimeline,
    SimpleTemporalNetwork,
    TemporalNetwork,
    chain_constraints,
    closure,
    duration_frames,
    edge_constraints,
    graph_constraints,
    schedule,
)

from _netutil import random_spec, to_network
from _oracles import (ALL_CODES, NegativeCycle, classify, closure_schedule,
                      component_edge_constraints, find_concrete_schedule, satisfies_all,
                      solve_stn)

FPS = 25


def _actor(i: int) -> Actor:
    gender = Gender.FEMALE if i % 2 else Gender.MALE
    return Actor(EntityId(i, EntityKind.ACTOR), f"A{i}", gender, "model_a")


def _event(eid: int, actor: int, dur_s: float, kind=EventKind.ACTION) -> Event:
    return Event(eid, EntityId(actor, EntityKind.ACTOR), "chat", None, "poi", dur_s, kind)


def _graph(events, relations=(), n_actors=1) -> GestGraph:
    return GestGraph(
        actors=tuple(_actor(i + 1) for i in range(n_actors)),
        objects=(),
        events=tuple(events),
        relations=tuple(relations),
        region_plan=("r",),
        seed=0,
    )


def _rel(src, dst, coarse: Coarse):
    return TemporalRelation(src, dst, coarse, coarse_to_allen(coarse))


class TestNetwork:
    def test_diagonal_is_equals(self):
        net = TemporalNetwork([4, 7])
        assert net.edge(4, 4) == RelationSet.of(AllenRelation.EQUALS)
        assert net.edge(4, 7) == RelationSet.full()

    def test_constrain_keeps_converse_in_sync(self):
        net = TemporalNetwork([0, 1])
        net.constrain(0, 1, RelationSet.from_codes("b m"))
        assert net.edge(1, 0) == RelationSet.from_codes("bi mi")
        net.constrain(0, 1, RelationSet.from_codes("m o"))
        assert net.edge(0, 1) == RelationSet.from_codes("m")

    def test_constrain_to_empty_raises(self):
        net = TemporalNetwork([0, 1])
        net.constrain(0, 1, RelationSet.from_codes("b"))
        with pytest.raises(InconsistentNetwork):
            net.constrain(0, 1, RelationSet.from_codes("bi"))


class TestClosure:
    def test_before_chain_derives_before(self):
        net = TemporalNetwork([0, 1, 2])
        net.constrain(0, 1, RelationSet.from_codes("b"))
        net.constrain(1, 2, RelationSet.from_codes("b"))
        closed = closure(net)
        assert closed.edge(0, 2) == RelationSet.from_codes("b")

    def test_cyclic_before_is_inconsistent(self):
        net = TemporalNetwork([0, 1, 2])
        net.constrain(0, 1, RelationSet.from_codes("b"))
        net.constrain(1, 2, RelationSet.from_codes("b"))
        net.constrain(2, 0, RelationSet.from_codes("b"))
        with pytest.raises(InconsistentNetwork) as info:
            closure(net)
        assert info.value.k is not None

    def test_closure_only_shrinks_and_is_idempotent(self):
        rng = random.Random(11)
        checked = 0
        while checked < 25:
            n, constraints = random_spec(rng)
            net = to_network(n, constraints)
            try:
                closed = closure(net)
            except InconsistentNetwork:
                continue
            for i in range(n):
                for j in range(n):
                    assert closed.edge(i, j) <= net.edge(i, j)
            assert closure(closed) == closed
            checked += 1

    def test_consistency_verdict_matches_exhaustive_search(self):
        rng = random.Random(202)
        for _ in range(30):
            n, constraints = random_spec(rng, max_nodes=4)
            net = to_network(n, constraints)
            try:
                closure(net)
                consistent = True
            except InconsistentNetwork:
                consistent = False
            found = find_concrete_schedule(n, constraints)
            if consistent:
                assert found is not None and satisfies_all(found, constraints)
            else:
                assert found is None


class TestSchedule:
    def test_chain_earliest_start(self):
        g = _graph([_event(0, 1, 0.4), _event(1, 1, 0.2)])
        tl = schedule(g, FPS)
        assert tl.intervals == {0: (0, 10), 1: (10, 15)}

    def test_same_time_co_start(self):
        g = _graph(
            [_event(0, 1, 0.4), _event(1, 2, 0.4)],
            [_rel(0, 1, Coarse.SAME_TIME)],
            n_actors=2,
        )
        tl = schedule(g, FPS)
        assert tl.intervals == {0: (0, 10), 1: (0, 10)}

    def test_same_time_with_unequal_durations(self):
        g = _graph(
            [_event(0, 1, 0.4), _event(1, 2, 1.0)],
            [_rel(0, 1, Coarse.SAME_TIME)],
            n_actors=2,
        )
        tl = schedule(g, FPS)
        assert tl.start(0) == tl.start(1) == 0
        assert tl.end(0) == 10 and tl.end(1) == 25

    def test_self_check_survives_optimized_mode(self, monkeypatch):
        # the output check must raise, not assert, so python -O keeps it
        monkeypatch.setattr(scheduling, "check_relation", lambda *args: False)
        g = _graph([_event(0, 1, 0.4), _event(1, 1, 0.2)])
        with pytest.raises(InconsistentNetwork, match="events 0, 1"):
            schedule(g, FPS)

    def test_cyclic_before_raises(self):
        g = _graph(
            [_event(0, 1, 0.4), _event(1, 2, 0.4), _event(2, 3, 0.4)],
            [_rel(0, 1, Coarse.BEFORE), _rel(1, 2, Coarse.BEFORE), _rel(2, 0, Coarse.BEFORE)],
            n_actors=3,
        )
        with pytest.raises(InconsistentNetwork):
            schedule(g, FPS)

    def test_movement_meets_follower(self):
        g = _graph(
            [_event(0, 1, 0.4), _event(1, 1, 2.0, EventKind.MOVEMENT), _event(2, 1, 0.4)]
        )
        cons = chain_constraints(g)
        assert cons == [(0, 1, CHAIN_SET), (1, 2, MEETS_ONLY)]
        tl = schedule(g, FPS)
        assert tl.end(1) == tl.start(2)

    def test_metric_infeasibility_with_fixed_durations(self):
        g = _graph(
            [_event(0, 1, 0.4), _event(1, 2, 1.0)],
            [TemporalRelation(0, 1, Coarse.SAME_TIME, RelationSet.from_codes("eq"))],
            n_actors=2,
        )
        with pytest.raises(InconsistentNetwork):
            schedule(g, FPS)

    def test_backtracking_applies_strict_before_gap(self):
        g = _graph(
            [_event(0, 1, 0.4), _event(1, 2, 0.4)],
            [TemporalRelation(0, 1, Coarse.BEFORE, RelationSet.from_codes("b bi"))],
            n_actors=2,
        )
        tl = schedule(g, FPS)  # a gap of STRICT_BEFORE_GAP_FRAMES = 25
        assert tl.intervals == {0: (0, 10), 1: (35, 45)}

    def test_unschedulable_disjunction(self):
        # {starts, finishes} both force event 0 shorter than event 1
        g = _graph(
            [_event(0, 1, 0.4), _event(1, 2, 0.4)],
            [TemporalRelation(0, 1, Coarse.SAME_TIME, RelationSet.from_codes("s f"))],
            n_actors=2,
        )
        with pytest.raises(UnschedulableDisjunction):
            schedule(g, FPS)

    def test_schedule_respects_relations_randomly(self):
        rng = random.Random(5)
        for _ in range(40):
            n_actors = rng.randint(2, 4)
            events = []
            eid = 0
            for a in range(1, n_actors + 1):
                for _ in range(rng.randint(1, 3)):
                    events.append(_event(eid, a, rng.uniform(0.2, 2.0)))
                    eid += 1
            relations = []
            for _ in range(rng.randint(0, 3)):
                s, t = rng.sample(range(eid), 2)
                ev_s = next(e for e in events if e.event_id == s)
                ev_t = next(e for e in events if e.event_id == t)
                if ev_s.actor == ev_t.actor:
                    continue
                relations.append(_rel(s, t, rng.choice(list(Coarse))))
            g = _graph(events, relations, n_actors=n_actors)
            try:
                tl = schedule(g, FPS)
            except InconsistentNetwork:
                continue
            for ev in events:
                s, e = tl.interval(ev.event_id)
                assert e - s == duration_frames(ev.duration_s, FPS)
                assert s >= 0
            for rel in relations:
                code = classify(*tl.interval(rel.source), *tl.interval(rel.target))
                assert code in {r.value for r in rel.allen_set}
            for a, b, rs in chain_constraints(g):
                code = classify(*tl.interval(a), *tl.interval(b))
                assert code in {r.value for r in rs}


def _random_disjunctive_graph(rng: random.Random) -> GestGraph:
    """Actor chains plus one to four relations between events of
    different actors, each a random set of one to four base relations."""
    n_actors = rng.randint(2, 4)
    events = []
    for a in range(1, n_actors + 1):
        for _ in range(rng.randint(1, 3)):
            events.append(_event(len(events), a, rng.choice((0.2, 0.4, 0.8, 1.2))))
    actor = {e.event_id: e.actor for e in events}
    pairs = [(s, t) for s in actor for t in actor if s < t and actor[s] != actor[t]]
    relations = [
        TemporalRelation(s, t, Coarse.SAME_TIME, RelationSet.from_codes(
            " ".join(rng.sample(ALL_CODES, rng.choice((1, 2, 2, 3, 4))))))
        for s, t in rng.sample(pairs, min(len(pairs), rng.randint(1, 4)))]
    return _graph(events, relations, n_actors=n_actors)


def _timeline_or_error(solve, graph):
    try:
        return solve(graph, FPS)
    except (InconsistentNetwork, UnschedulableDisjunction) as exc:
        return exc


def test_search_agrees_with_the_closure_schedule():
    # the search and the closure-pruned backtracking both return the first
    # feasible choice in their edge order, so the timelines are identical
    # where the orders coincide: by set size here, by closed-edge size there
    rng = random.Random(1)
    schedulable = disjunctive = same_order = 0
    for _ in range(400):
        graph = _random_disjunctive_graph(rng)
        got = _timeline_or_error(schedule, graph)
        want = _timeline_or_error(closure_schedule, graph)
        assert isinstance(got, EventTimeline) == isinstance(want, EventTimeline), graph
        if not isinstance(got, EventTimeline):
            continue
        schedulable += 1
        for ev in graph.events:
            s, e = got.interval(ev.event_id)
            assert s >= 0 and e - s == duration_frames(ev.duration_s, FPS)
        constraints = graph_constraints(graph)
        for a, b, rs in constraints:
            assert classify(*got.interval(a), *got.interval(b)) in rs.codes().split()
        open_edges = [(a, b, rs) for a, b, rs in constraints if not is_convex(rs)]
        disjunctive += bool(open_edges)
        closed = closure(TemporalNetwork.from_constraints(
            [e.event_id for e in graph.events], constraints))
        if (sorted(open_edges, key=lambda e: (len(e[2]), e[0], e[1]))
                == sorted(open_edges, key=lambda e: (len(closed.edge(e[0], e[1])),
                                                     e[0], e[1]))):
            assert got == want, graph
            same_order += 1
    assert schedulable >= 100 and disjunctive >= 50 and same_order >= 50, (
        schedulable, disjunctive, same_order)


def test_inconsistent_convex_constraints_fail_before_the_search():
    # {eq} cannot hold between events of unequal length, whatever {b bi} picks
    g = _graph(
        [_event(0, 1, 0.4), _event(1, 2, 1.0), _event(2, 3, 0.4)],
        [TemporalRelation(0, 1, Coarse.SAME_TIME, RelationSet.from_codes("eq")),
         TemporalRelation(1, 2, Coarse.BEFORE, RelationSet.from_codes("b bi"))],
        n_actors=3,
    )
    # the convex rows go in one at a time; the error names the two events
    # of the row the network refused: (1, 0, -15), start_0 >= start_1 + 15
    # from {eq} with lengths 10 and 25
    with pytest.raises(InconsistentNetwork,
                       match="^durations admit no frame assignment near events 1, 0$"
                       ) as info:
        schedule(g, FPS)
    assert (info.value.i, info.value.j) == (1, 0)


def test_edge_constraints_give_the_least_component_bound_per_direction():
    # a direction's rows admit the same starts as their least bound, so
    # the one row per direction keeps every timeline and verdict of the
    # row per signature component that it replaced
    convex = [rs for rs in map(RelationSet, range(1, 1 << 13)) if is_convex(rs)]
    assert len(convex) == 82
    for rs in convex:
        for la, lb, gap in itertools.product((1, 2, 3, 5, 25), (1, 2, 3, 5, 25), (1, 25)):
            lengths = {0: la, 1: lb}
            least: dict[tuple[int, int], int] = {}
            for x, y, c in component_edge_constraints(0, 1, rs, lengths, gap):
                least[x, y] = min(c, least.get((x, y), c))
            rows = edge_constraints(0, 1, rs, lengths, gap)
            assert len(rows) == len(least), (rs, la, lb, gap)
            assert {(x, y): c for x, y, c in rows} == least, (rs, la, lb, gap)


@st.composite
def _row_batches(draw):
    """Node count and batches of one to three difference rows, mixed-sign
    bounds, self-loops included, each batch flagged to be undone once
    added or not."""
    n = draw(st.integers(2, 8))
    row = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-6, 6))
    batch = st.tuples(st.lists(row, min_size=1, max_size=3), st.booleans())
    return n, draw(st.lists(batch, min_size=1, max_size=16))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_row_batches())
def test_incremental_stn_agrees_with_bellman_ford(case):
    # after every add, accepted or refused, the verdict and the earliest
    # starts equal the whole-network Bellman-Ford's over the rows accepted
    # so far plus the batch.  A batch flagged undo is undone right after
    # its add, and every mark, undone in reverse at the end, restores the
    # earliest starts it saw; a row left behind by either would show in a
    # later verdict or in those starts
    n, batches = case
    ids = list(range(n))
    stn = SimpleTemporalNetwork(ids)
    accepted: list[tuple[int, int, int]] = []
    marks = []
    for batch, undo in batches:
        mark, before = stn.mark(), stn.earliest()
        marks.append((mark, before))
        try:
            want = solve_stn(ids, accepted + batch)
        except NegativeCycle:
            want = None
        try:
            stn.add(iter(batch))
        except InconsistentNetwork as exc:
            assert want is None, batch
            assert (exc.i, exc.j) in {(x, y) for x, y, _ in batch}
            assert stn.earliest() == before
            continue
        assert want is not None, batch
        assert stn.earliest() == want
        if undo:
            stn.undo(mark)
            assert stn.earliest() == before
        else:
            accepted += batch
    for mark, earliest in reversed(marks):
        stn.undo(mark)
        assert stn.earliest() == earliest


def test_duration_frames_minimum_one():
    assert duration_frames(0.01, 25) == 1
    assert duration_frames(1.0, 25) == 25


def test_timeline_accessors():
    tl = EventTimeline({3: (0, 10), 4: (10, 30)}, fps=25)
    assert tl.start(3) == 0 and tl.end(4) == 30
    assert tl.makespan() == 30
