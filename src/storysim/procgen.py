"""Procedural story generation from a capability registry.

One master seed plus a story index fully determines a story: the
per-story RNG is seeded with sha256(master_seed, story_index), so
generation order and worker layout never matter.

Flow per story: pick an episode (uniform over categories, then over the
category's episodes), draw actors into the first region, build action
chains at POIs following the transition maps, migrate a random subset of
actors region to region (at least one while regions remain), plan
paired interactions and object exchanges among co-located actors, then
inject coarse temporal relations between cross-actor events at shared
POIs, keeping the constraint network consistent by construction.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from .allen import Coarse, coarse_to_allen
from .default_registry import EXCHANGE_ACTION_KEY
from .errors import EmptyRegistry, InconsistentNetwork, NoFreeSlot, NoValidAction
from .model import (
    ActionCategory,
    Actor,
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
    TemporalRelation,
    is_finite_number,
)
from .scheduling import SimpleTemporalNetwork, edge_constraints, graph_constraints

CHAIN_LEN_MIN = 3
CHAIN_LEN_MAX = 5
INTERACTION_SLOTS_PER_REGION = 2
EXCHANGE_SLOTS_PER_REGION = 1
RELATION_RETRY_BOUND = 8
# chance that an actor moves on to each region after the first
MIGRATE_FRACTION = 0.5

_FEMALE_NAMES = (
    "Anna", "Maria", "Sofia", "Emma", "Lena", "Clara", "Nora", "Ines",
    "Dana", "Petra", "Alice", "Julia", "Vera", "Mona", "Rosa", "Tessa",
)
_MALE_NAMES = (
    "Ben", "Oscar", "Felix", "David", "Jonas", "Marco", "Victor", "Paul",
    "Adam", "Simon", "Noah", "Erik", "Leo", "Martin", "Omar", "Tom",
)


@dataclass(frozen=True)
class GenConfig:
    chains_per_actor: int = 1
    max_actors_per_region: int = 4
    regions_to_visit: int = 2
    actors_min_max: tuple[int, int] = (2, 6)
    interaction_prob: float = 0.3
    exchange_prob: float = 0.15
    relation_prob: float = 0.5
    master_seed: int = 0

    def __post_init__(self):
        whole = (self.chains_per_actor, self.max_actors_per_region, self.regions_to_visit,
                 *self.actors_min_max, self.master_seed)
        if any(isinstance(n, bool) or not isinstance(n, int) for n in whole):
            raise ValueError("counts, actors_min_max and master_seed must be ints")
        lo, hi = self.actors_min_max
        if not 1 <= lo <= hi <= 16:
            raise ValueError("actors_min_max must lie within [1, 16]")
        for name in ("interaction_prob", "exchange_prob", "relation_prob"):
            p = getattr(self, name)
            if not is_finite_number(p) or not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability")
        if self.chains_per_actor < 1 or self.regions_to_visit < 1:
            raise ValueError("chains_per_actor and regions_to_visit must be positive")
        if self.max_actors_per_region < 1:
            raise ValueError("max_actors_per_region must be positive")


@dataclass
class StoryDraw:
    """Mutable intermediate generator state for one story."""

    region_plan: list[str]
    actors: list[Actor]
    seed: int
    events: list[Event] = field(default_factory=list)
    relations: list[TemporalRelation] = field(default_factory=list)
    objects: list[ObjectEntity] = field(default_factory=list)
    # object ids owned per actor id, in acquisition order
    owned: dict[int, list[int]] = field(default_factory=dict)
    # unowned object ids sitting at each POI
    at_poi: dict[str, list[int]] = field(default_factory=dict)
    slots_left: dict[str, list[str]] = field(default_factory=dict)
    next_entity_id: int = 1
    next_event_id: int = 0

    def new_event(self, actor_id: int, action: str, patient: EntityId | None,
                  poi: str, duration_s: float, kind: EventKind) -> Event:
        ev = Event(self.next_event_id, EntityId(actor_id, EntityKind.ACTOR),
                   action, patient, poi, duration_s, kind)
        self.next_event_id += 1
        self.events.append(ev)
        return ev

    def new_pair(self, first: int, second: int, action: str, poi: str,
                 duration_s: float, kind: EventKind) -> None:
        """Two events, each with the other actor as patient, linked same_time."""
        ev_a = self.new_event(first, action, EntityId(second, EntityKind.ACTOR),
                              poi, duration_s, kind)
        ev_b = self.new_event(second, action, EntityId(first, EntityKind.ACTOR),
                              poi, duration_s, kind)
        self.relations.append(
            TemporalRelation(ev_a.event_id, ev_b.event_id, Coarse.SAME_TIME,
                             coarse_to_allen(Coarse.SAME_TIME))
        )

    def new_object(self, type_key: str, owner_id: int | None, home_poi: str) -> ObjectEntity:
        eid = EntityId(self.next_entity_id, EntityKind.OBJECT)
        self.next_entity_id += 1
        owner = EntityId(owner_id, EntityKind.ACTOR) if owner_id is not None else None
        obj = ObjectEntity(eid, type_key, owner, home_poi)
        self.objects.append(obj)
        if owner_id is not None:
            self.owned.setdefault(owner_id, []).append(eid.id)
        else:
            self.at_poi.setdefault(home_poi, []).append(eid.id)
        return obj


def story_seed(seed: int, tag: int | str) -> int:
    """The seed derived from `seed` and a tag: a story's from the master
    seed and its index, a stage's from the story seed and its name."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def story_rng(seed: int, tag: int | str) -> random.Random:
    return random.Random(story_seed(seed, tag))


def select_episode(registry: CapabilityRegistry, rng: random.Random) -> EpisodeSpec:
    """Uniform over categories, then uniform within the chosen category."""
    if not registry.episodes:
        raise EmptyRegistry("registry has no episodes")
    categories = registry.categories()
    chosen_cat = rng.choice(categories)
    candidates = [ep for ep in registry.episodes if ep.category == chosen_cat]
    return rng.choice(candidates)


def build_action_chain(poi: PoiSpec, length: int, registry: CapabilityRegistry,
                       rng: random.Random, after: str | None = None
                       ) -> list[tuple[str, float]]:
    """Sample (action, duration) skeletons following the POI's transitions,
    starting from any chainable action or, given `after`, from one that
    may follow that action.

    The chain may terminate early at a dead-end transition entry.
    """
    starts = sorted(poi.transitions) if after is None else poi.transitions.get(after, ())
    if not starts:
        raise NoValidAction(f"POI {poi.key!r} offers no chainable action")
    chain: list[tuple[str, float]] = []
    action = rng.choice(starts)
    for _ in range(length):
        spec = registry.actions[action]
        chain.append((action, rng.uniform(*spec.duration_range_s)))
        nexts = poi.transitions.get(action, ())
        if not nexts:
            break
        action = rng.choice(nexts)
    return chain


def _pick_patient(draw: StoryDraw, poi: PoiSpec, rng: random.Random) -> EntityId:
    """An object for a requires_object action: reuse one already at the
    POI or bind a new one to a free slot."""
    here = draw.at_poi.get(poi.key, [])
    free = draw.slots_left.setdefault(poi.key, list(poi.object_slots))
    if here and (not free or rng.random() < 0.5):
        return EntityId(rng.choice(here), EntityKind.OBJECT)
    if free:
        type_key = free.pop(rng.randrange(len(free)))
        return draw.new_object(type_key, None, poi.key).id
    raise NoFreeSlot(f"POI {poi.key!r} has no objects and no free slots")


def plan_interactions(draw: StoryDraw, groups: dict[str, list[int]],
                      registry: CapabilityRegistry, rng: random.Random,
                      cfg: GenConfig) -> None:
    """Paired interaction and exchange events for one region's POI groups.

    Each interaction emits one event per participant linked same_time;
    an exchange additionally transfers ownership of the giver's oldest
    object (created on the spot if the giver owns nothing).
    """
    eligible = [poi_key for poi_key, members in groups.items() if len(members) >= 2]
    if not eligible:
        return
    for _ in range(INTERACTION_SLOTS_PER_REGION):
        if rng.random() >= cfg.interaction_prob:
            continue
        poi_key = rng.choice(eligible)
        poi = registry.poi(poi_key)
        candidates = [a for a in poi.valid_actions
                      if registry.actions[a].category is ActionCategory.SOCIAL]
        if not candidates:
            continue
        first, second = rng.sample(groups[poi_key], 2)
        action = rng.choice(candidates)
        duration = rng.uniform(*registry.actions[action].duration_range_s)
        draw.new_pair(first, second, action, poi_key, duration, EventKind.INTERACTION)
    for _ in range(EXCHANGE_SLOTS_PER_REGION):
        if rng.random() >= cfg.exchange_prob:
            continue
        poi_key = rng.choice(eligible)
        poi = registry.poi(poi_key)
        if EXCHANGE_ACTION_KEY not in poi.valid_actions:
            continue
        giver, receiver = rng.sample(groups[poi_key], 2)
        if not draw.owned.get(giver):
            if poi.object_slots:
                type_key = rng.choice(poi.object_slots)
            else:
                type_key = rng.choice(registry.object_types)
            draw.new_object(type_key, giver, poi_key)
        duration = rng.uniform(*registry.actions[EXCHANGE_ACTION_KEY].duration_range_s)
        # the giver's event is created first: lower event_id marks the giver
        draw.new_pair(giver, receiver, EXCHANGE_ACTION_KEY, poi_key, duration,
                      EventKind.EXCHANGE)
        moved = draw.owned[giver].pop(0)
        draw.owned.setdefault(receiver, []).append(moved)


def _graph_so_far(draw: StoryDraw) -> GestGraph:
    return GestGraph(
        actors=tuple(draw.actors),
        objects=tuple(draw.objects),
        events=tuple(draw.events),
        relations=tuple(draw.relations),
        region_plan=tuple(draw.region_plan),
        seed=draw.seed,
    )


def inject_relations(draw: StoryDraw, rng: random.Random, cfg: GenConfig) -> None:
    """Coarse relations between plain events of different actors at a
    shared POI, resampled on conflict up to the retry bound.

    A candidate is accepted when the story's STN stays feasible.  Every
    set here is CHAIN_SET {b m} or a coarse_to_allen set ({b m}, {bi mi},
    {s eq si}): start equalities and start_b >= start_a + len_a, which for
    any positive lengths are infeasible exactly when a cycle passes a
    >= len edge, i.e. when the Allen network is inconsistent.  So unit
    lengths decide it, with no frame rate.
    """
    by_poi: dict[str, dict[int, list[Event]]] = {}
    for ev in draw.events:
        if ev.kind is EventKind.ACTION:
            by_poi.setdefault(ev.poi, {}).setdefault(ev.actor.id, []).append(ev)

    unit = {ev.event_id: 1 for ev in draw.events}
    # feasible: chain rows raise starts along each actor's events, in id
    # order, and a pair ties only the two consecutive ids it created
    stn = SimpleTemporalNetwork(unit)
    stn.add([row for a, b, rs in graph_constraints(_graph_so_far(draw))
             for row in edge_constraints(a, b, rs, unit)])

    for poi_key in sorted(by_poi):
        actors_here = sorted(by_poi[poi_key])
        for i, a1 in enumerate(actors_here):
            for a2 in actors_here[i + 1:]:
                if rng.random() >= cfg.relation_prob:
                    continue
                accepted = _try_inject(stn, unit, by_poi[poi_key][a1],
                                       by_poi[poi_key][a2], rng)
                if accepted is not None:
                    draw.relations.append(accepted)


def _try_inject(stn: SimpleTemporalNetwork, unit: dict[int, int], events_a: list[Event],
                events_b: list[Event], rng: random.Random) -> TemporalRelation | None:
    """The first drawn relation whose rows `stn` accepts, its rows left
    in `stn`, or None when the retry bound is hit."""
    for _ in range(RELATION_RETRY_BOUND):
        source = rng.choice(events_a).event_id
        target = rng.choice(events_b).event_id
        coarse = rng.choice((Coarse.BEFORE, Coarse.AFTER, Coarse.SAME_TIME))
        allen_set = coarse_to_allen(coarse)
        try:
            stn.add(edge_constraints(source, target, allen_set, unit))
        except InconsistentNetwork:
            continue
        return TemporalRelation(source, target, coarse, allen_set)
    return None


def _actor_roster(registry: CapabilityRegistry, rng: random.Random,
                  cfg: GenConfig) -> list[Actor]:
    count = rng.randint(*cfg.actors_min_max)
    females = list(_FEMALE_NAMES)
    males = list(_MALE_NAMES)
    actors = []
    for i in range(count):
        gender = rng.choice((Gender.FEMALE, Gender.MALE))
        pool = females if gender is Gender.FEMALE else males
        name = pool.pop(rng.randrange(len(pool)))
        models = [m for m in registry.actor_models if m.startswith(gender.value)]
        model = rng.choice(models or list(registry.actor_models))
        actors.append(Actor(EntityId(i + 1, EntityKind.ACTOR), name, gender, model))
    return actors


def generate_story(cfg: GenConfig, registry: CapabilityRegistry,
                   story_index: int) -> GestGraph:
    """One executable story graph, a pure function of (cfg, registry,
    story_index)."""
    rng = story_rng(cfg.master_seed, story_index)
    episode = select_episode(registry, rng)
    visit = min(cfg.regions_to_visit, len(episode.regions))
    region_plan = rng.sample([r.key for r in episode.regions], visit)

    actors = _actor_roster(registry, rng, cfg)
    draw = StoryDraw(
        region_plan=region_plan,
        actors=actors,
        seed=story_seed(cfg.master_seed, story_index),
        next_entity_id=len(actors) + 1,
    )

    roster = [a.id.id for a in actors]
    for r_index, region_key in enumerate(region_plan):
        if r_index > 0:
            eligible = roster
            migrants = [a for a in eligible if rng.random() < MIGRATE_FRACTION]
            if not migrants:
                migrants = [rng.choice(eligible)]
            if len(migrants) > cfg.max_actors_per_region:
                migrants = sorted(rng.sample(migrants, cfg.max_actors_per_region))
            roster = migrants
        region = registry.region(region_key)
        last_poi: dict[int, str] = {}
        for actor_id in roster:
            last_action = None
            for _ in range(cfg.chains_per_actor):
                poi = rng.choice(region.pois)
                after = last_action if poi.key == last_poi.get(actor_id) else None
                if after is not None and not poi.transitions.get(after):
                    # a dead end here: the next chain goes to another POI
                    others = [p for p in region.pois if p.key != poi.key]
                    if not others:
                        break
                    poi, after = rng.choice(others), None
                length = rng.randint(CHAIN_LEN_MIN, CHAIN_LEN_MAX)
                for action, duration in build_action_chain(poi, length, registry, rng,
                                                           after):
                    patient = None
                    if registry.actions[action].requires_object:
                        patient = _pick_patient(draw, poi, rng)
                    draw.new_event(actor_id, action, patient, poi.key, duration,
                                   EventKind.ACTION)
                    last_action = action
                last_poi[actor_id] = poi.key
        groups: dict[str, list[int]] = {}
        for actor_id in roster:
            groups.setdefault(last_poi[actor_id], []).append(actor_id)
        plan_interactions(draw, groups, registry, rng, cfg)

    inject_relations(draw, rng, cfg)
    return _graph_so_far(draw)
