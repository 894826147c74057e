"""Temporal constraint propagation and frame scheduling.

Convex relation sets become difference constraints on event start
points (edge_constraints: a simple temporal network, durations
substituted out, at most one row per direction of an edge), exact for
convex sets.  SimpleTemporalNetwork keeps those rows feasible
incrementally: each new row relaxes shortest distances from its own
head, a row that closes a negative cycle is rolled back and refused
with InconsistentNetwork naming its two events, and earliest starts are
read off the distances.  schedule() turns a story graph into concrete
half-open frame intervals with it: each non-convex set is a choice of
base relation, searched depth first, each choice added to the one
network and undone on backtrack.  procgen accepts an injected relation
when the same network accepts its rows.

A TemporalNetwork holds one RelationSet per ordered event pair (stored
converse-consistently, missing edges are the full 13-set), and closure()
runs queue-based path consistency on it to a fixpoint; no build stage
calls them.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .allen import (
    FULL_MASK,
    AllenRelation,
    RelationSet,
    check_relation,
    compose_masks,
    converse_mask,
    is_convex,
    signature_bounds,
)
from .errors import InconsistentNetwork, UnschedulableDisjunction
from .model import EventKind, GestGraph

CHAIN_SET = RelationSet.of(AllenRelation.BEFORE, AllenRelation.MEETS)
MEETS_ONLY = RelationSet.of(AllenRelation.MEETS)
_EQ_MASK = RelationSet.of(AllenRelation.EQUALS).mask
# every schedule starts at frame 0; a base relation `before` chosen for a
# non-convex edge leaves at least this many frames between the events
ORIGIN_FRAME = 0
STRICT_BEFORE_GAP_FRAMES = 25


@dataclass(frozen=True)
class EventTimeline:
    intervals: dict[int, tuple[int, int]]
    fps: int

    def interval(self, event_id: int) -> tuple[int, int]:
        return self.intervals[event_id]

    def start(self, event_id: int) -> int:
        return self.intervals[event_id][0]

    def end(self, event_id: int) -> int:
        return self.intervals[event_id][1]

    def makespan(self) -> int:
        return max((e for _, e in self.intervals.values()), default=0)


def duration_frames(duration_s: float, fps: int) -> int:
    return max(1, round(duration_s * fps))


class TemporalNetwork:
    """Qualitative constraint network over event ids."""

    def __init__(self, node_ids: list[int]):
        self.ids = list(node_ids)
        self._pos = {nid: i for i, nid in enumerate(self.ids)}
        if len(self._pos) != len(self.ids):
            raise ValueError("duplicate node ids")
        n = len(self.ids)
        self._m = [[FULL_MASK] * n for _ in range(n)]
        for i in range(n):
            self._m[i][i] = _EQ_MASK

    def copy(self) -> TemporalNetwork:
        dup = TemporalNetwork.__new__(TemporalNetwork)
        dup.ids = self.ids
        dup._pos = self._pos
        dup._m = [row[:] for row in self._m]
        return dup

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TemporalNetwork)
            and self.ids == other.ids
            and self._m == other._m
        )

    def edge(self, i: int, j: int) -> RelationSet:
        return RelationSet(self._m[self._pos[i]][self._pos[j]])

    def constrain(self, i: int, j: int, rs: RelationSet) -> None:
        """Intersect edge (i, j) with rs, keeping the converse in sync."""
        pi, pj = self._pos[i], self._pos[j]
        new = self._m[pi][pj] & rs.mask
        if not new:
            raise InconsistentNetwork(i, j)
        self._m[pi][pj] = new
        self._m[pj][pi] = converse_mask(new)

    @classmethod
    def from_constraints(cls, node_ids: list[int],
                         constraints: list[tuple[int, int, RelationSet]]) -> TemporalNetwork:
        net = cls(node_ids)
        for a, b, rs in constraints:
            net.constrain(a, b, rs)
        return net


def chain_constraints(graph: GestGraph) -> list[tuple[int, int, RelationSet]]:
    """Implicit constraints between consecutive events of each actor.

    Consecutive chain events are {before, meets}; a movement event must
    meet the event it was inserted for.
    """
    out = []
    for chain in graph.chains().values():
        for prev, nxt in zip(chain, chain[1:]):
            rs = MEETS_ONLY if prev.kind is EventKind.MOVEMENT else CHAIN_SET
            out.append((prev.event_id, nxt.event_id, rs))
    return out


def graph_constraints(graph: GestGraph) -> list[tuple[int, int, RelationSet]]:
    """Every constraint of the graph in constrain order: the chain
    constraints, then the explicit relations."""
    return chain_constraints(graph) + [(rel.source, rel.target, rel.allen_set)
                                       for rel in graph.relations]


def _propagate(net: TemporalNetwork, queue: deque[tuple[int, int]]) -> None:
    """Path-consistency revision loop over matrix positions; in place."""
    m = net._m
    ids = net.ids
    n = len(ids)
    pending = set(queue)
    while queue:
        i, j = queue.popleft()
        pending.discard((i, j))
        mij = m[i][j]
        for k in range(n):
            if k == i or k == j:
                continue
            new = m[i][k] & compose_masks(mij, m[j][k])
            if new != m[i][k]:
                if not new:
                    raise InconsistentNetwork(ids[i], ids[k], ids[j])
                m[i][k] = new
                m[k][i] = converse_mask(new)
                if (i, k) not in pending:
                    pending.add((i, k))
                    queue.append((i, k))
            new = m[k][j] & compose_masks(m[k][i], mij)
            if new != m[k][j]:
                if not new:
                    raise InconsistentNetwork(ids[k], ids[j], ids[i])
                m[k][j] = new
                m[j][k] = converse_mask(new)
                if (k, j) not in pending:
                    pending.add((k, j))
                    queue.append((k, j))


def closure(net: TemporalNetwork) -> TemporalNetwork:
    """Path-consistent copy of net; raises InconsistentNetwork on an
    edge emptying, reporting the offending (i, j, via) triple."""
    out = net.copy()
    n = len(out.ids)
    queue: deque[tuple[int, int]] = deque(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if out._m[i][j] != FULL_MASK
    )
    _propagate(out, queue)
    return out


def edge_constraints(a: int, b: int, rs: RelationSet, lengths: dict[int, int],
                     before_gap: int = 1) -> list[tuple[int, int, int]]:
    """Difference constraints (x, y, c) meaning start_x - start_y <= c
    for one convex edge a rs b, at most one per direction: the least
    bound among the signature components that constrain it, interval
    ends eliminated via fixed lengths."""
    la, lb = lengths[a], lengths[b]
    # component values: (sa-sb, sa-eb, ea-sb, ea-eb) = (sa-sb) + offset
    offsets = (0, -lb, la, la - lb)
    ab = ba = math.inf  # the least bound on sa - sb, and on sb - sa
    for c, ((lo, hi), off) in enumerate(zip(signature_bounds(rs), offsets)):
        if hi <= 0:
            # strict gap applies to the end(a) < start(b) component
            ab = min(ab, (-before_gap if c == 2 and hi < 0 else hi) - off)
        if lo >= 0:
            ba = min(ba, off - lo)
    return [row for row in ((a, b, ab), (b, a, ba)) if row[2] < math.inf]


class SimpleTemporalNetwork:
    """Difference rows (x, y, c), start_x - start_y <= c, over event
    start points, kept feasible one row at a time.

    Each node holds its shortest distance from an origin with a 0-edge to
    every node, so every distance starts at 0 and the earliest start is
    ORIGIN_FRAME - distance.  A row is an edge x -> y of weight c.  A row
    that lowers its head's distance relaxes FIFO from that head only.
    The network was feasible before the row, so the row closes a
    negative cycle exactly when that relaxation would lower its own
    tail.  Every row and every distance change goes on a trail, which
    mark() and undo() rewind.  The out-edges hold the rows themselves
    and the trail plain ints, so the network allocates no container per
    row or change for the garbage collector to track."""

    def __init__(self, node_ids):
        self._dist = dict.fromkeys(node_ids, 0)
        self._out: dict[int, list[tuple[int, int, int]]] = {nid: [] for nid in self._dist}
        self._trail: list[int] = []  # node, distance before, node, ...
        self._tails: list[int] = []  # the tail of every row, in add order

    def mark(self) -> tuple[int, int]:
        return len(self._trail), len(self._tails)

    def undo(self, mark: tuple[int, int]) -> None:
        """Restore the network exactly as it was at mark."""
        trail_len, rows_len = mark
        dist, trail, tails, out = self._dist, self._trail, self._tails, self._out
        while len(trail) > trail_len:
            before = trail.pop()
            dist[trail.pop()] = before
        while len(tails) > rows_len:
            out[tails.pop()].pop()

    def add(self, rows) -> None:
        """Add every row, or none: a row that makes the network infeasible
        undoes the whole call and raises InconsistentNetwork naming that
        row's two nodes."""
        mark = self.mark()
        dist, out, trail, tails = self._dist, self._out, self._trail, self._tails
        for row in rows:
            x, y, c = row
            out[x].append(row)
            tails.append(x)
            d = dist[x] + c
            if d >= dist[y]:
                continue
            trail.append(y)
            trail.append(dist[y])
            dist[y] = d
            # out[y] is not empty when y is x: it holds the row itself
            if not out[y] or self._relax_from(y, x):
                continue
            self.undo(mark)
            raise InconsistentNetwork(
                x, y, message=f"durations admit no frame assignment near events {x}, {y}")

    def _relax_from(self, y: int, x: int) -> bool:
        """Relax FIFO from y, just lowered; False, with the lowered
        distances left on the trail, when that would lower x."""
        dist, out, trail = self._dist, self._out, self._trail
        queue = deque((y,))
        queued = {y}
        while queue:
            u = queue.popleft()
            queued.discard(u)
            du = dist[u]
            for _, v, w in out[u]:
                d = du + w
                if d < dist[v]:
                    if v == x:
                        return False
                    trail.append(v)
                    trail.append(dist[v])
                    dist[v] = d
                    if v not in queued:
                        queued.add(v)
                        queue.append(v)
        return True

    def earliest(self) -> dict[int, int]:
        """The earliest start of every node."""
        return {nid: ORIGIN_FRAME - d for nid, d in self._dist.items()}


def schedule(graph: GestGraph, fps: int) -> EventTimeline:
    """Concrete earliest-start frame intervals for every graph event.

    The convex constraints form the root STN; when it is infeasible the
    error names the two events of the row that made it so.  One
    depth-first search then picks a base relation for each non-convex
    constraint, in (size, source, target) order, adding its rows to the
    same network and undoing them on the way back; a choice whose rows
    the network refuses is pruned.  A story without a non-convex
    constraint is solved at the root."""
    ids = [e.event_id for e in graph.events]
    lengths = {e.event_id: duration_frames(e.duration_s, fps) for e in graph.events}

    base = graph_constraints(graph)
    disjunctions = sorted(((a, b, rs) for a, b, rs in base if not is_convex(rs)),
                          key=lambda abr: (len(abr[2]), abr[0], abr[1]))
    stn = SimpleTemporalNetwork(ids)
    stn.add([c for a, b, rs in base if is_convex(rs)
             for c in edge_constraints(a, b, rs, lengths)])

    def search(level: int) -> dict[int, int] | None:
        """Earliest starts of the first feasible choice below this node,
        or None; the network is as it was on return."""
        if level == len(disjunctions):
            return stn.earliest()
        a, b, rs = disjunctions[level]
        for r in rs:
            gap = STRICT_BEFORE_GAP_FRAMES if r is AllenRelation.BEFORE else 1
            mark = stn.mark()
            try:
                stn.add(edge_constraints(a, b, RelationSet.of(r), lengths, before_gap=gap))
            except InconsistentNetwork:
                continue
            found = search(level + 1)
            stn.undo(mark)
            if found is not None:
                return found
        return None

    starts = search(0)
    if starts is None:
        raise UnschedulableDisjunction(
            f"no base-relation choice over {len(disjunctions)} non-convex edge(s) "
            "yields a feasible schedule"
        )

    intervals = {eid: (starts[eid], starts[eid] + lengths[eid]) for eid in ids}
    timeline = EventTimeline(intervals=intervals, fps=fps)
    for a, b, rs in base:
        if not check_relation(intervals[a], intervals[b], rs):
            raise InconsistentNetwork(
                a, b, message=f"schedule places events {a}, {b} outside "
                              f"{{{rs.codes()}}}")
    return timeline
