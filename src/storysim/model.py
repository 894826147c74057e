"""Shared domain types: story graphs and the capability registry.

All types are immutable after construction (frozen dataclasses with
tuple fields) so they can be shared freely across parallel story
workers.  Entity ids live in a single story-wide id space: id 0 is
always the camera, actors and objects take the ids above it.  POIs are
addressed by string key, not by entity id.

Per-actor chain order is the order of that actor's events within
GestGraph.events; the scheduler derives the implicit chain constraints
from that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .allen import Coarse, RelationSet

CAMERA_ID = 0
# What the binaries' entity table stores of an entity: a u16 id, and a
# name (an actor's name or an object's type key) of at most a u8 count of
# UTF-8 bytes.  The document readers refuse more, and so do the writers.
MAX_ENTITY_ID = 0xFFFF
MAX_NAME_BYTES = 0xFF
# the binaries' header stores a story's fps as a u16
MAX_FPS = 0xFFFF


def is_finite_number(value) -> bool:
    """True for a finite int or float; json decodes NaN, Infinity and
    integers past the float range too, and a bool is not a number."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int past the float range
        return False


class EntityKind(Enum):
    CAMERA = "camera"
    ACTOR = "actor"
    OBJECT = "object"


class Gender(Enum):
    FEMALE = "female"
    MALE = "male"


class EventKind(Enum):
    ACTION = "action"
    MOVEMENT = "movement"
    INTERACTION = "interaction"
    EXCHANGE = "exchange"


class ActionCategory(Enum):
    SOCIAL = "social"
    MANIPULATION = "manipulation"
    LOCOMOTION = "locomotion"
    EXERCISE = "exercise"


@dataclass(frozen=True)
class EntityId:
    id: int
    kind: EntityKind

    def __post_init__(self):
        if self.id < 0:
            raise ValueError("entity id must be non-negative")
        if (self.id == 0) != (self.kind is EntityKind.CAMERA):
            raise ValueError("id 0 is reserved for the camera")


@dataclass(frozen=True)
class Actor:
    id: EntityId
    name: str
    gender: Gender
    model: str


@dataclass(frozen=True)
class ObjectEntity:
    id: EntityId
    type_key: str
    owner: EntityId | None
    home_poi: str


@dataclass(frozen=True)
class Event:
    event_id: int
    actor: EntityId
    action: str
    patient: EntityId | None
    poi: str
    duration_s: float
    kind: EventKind

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ValueError(f"event {self.event_id}: duration must be positive")


@dataclass(frozen=True)
class TemporalRelation:
    source: int
    target: int
    coarse: Coarse
    allen_set: RelationSet

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError("relation endpoints must differ")
        if not self.allen_set:
            raise ValueError("relation set must be nonempty")


@dataclass(frozen=True)
class GestGraph:
    actors: tuple[Actor, ...]
    objects: tuple[ObjectEntity, ...]
    events: tuple[Event, ...]
    relations: tuple[TemporalRelation, ...]
    region_plan: tuple[str, ...]
    seed: int

    def actor_index(self) -> dict[int, Actor]:
        return {a.id.id: a for a in self.actors}

    def event_index(self) -> dict[int, Event]:
        return {e.event_id: e for e in self.events}

    def chains(self) -> dict[int, list[Event]]:
        """Events per actor id, in chain order (list order)."""
        out: dict[int, list[Event]] = {a.id.id: [] for a in self.actors}
        for ev in self.events:
            out[ev.actor.id].append(ev)
        return out


@dataclass(frozen=True)
class PoiSpec:
    key: str
    position: tuple[float, float, float]
    valid_actions: tuple[str, ...]
    transitions: dict[str, tuple[str, ...]]
    object_slots: tuple[str, ...]


@dataclass(frozen=True)
class RegionSpec:
    key: str
    name: str
    bounds: tuple[tuple[float, float, float], tuple[float, float, float]]
    pois: tuple[PoiSpec, ...]


@dataclass(frozen=True)
class EpisodeSpec:
    key: str
    category: str
    regions: tuple[RegionSpec, ...]


@dataclass(frozen=True)
class ActionSpec:
    key: str
    category: ActionCategory
    duration_range_s: tuple[float, float]
    requires_object: bool
    is_movement_only: bool
    verb_phrase: str

    def __post_init__(self):
        lo, hi = self.duration_range_s
        if not 0 < lo <= hi:
            raise ValueError(f"action {self.key}: bad duration range [{lo}, {hi}]")


@dataclass(frozen=True)
class CapabilityRegistry:
    episodes: tuple[EpisodeSpec, ...]
    actor_models: tuple[str, ...]
    object_types: tuple[str, ...]
    actions: dict[str, ActionSpec]
    # region/poi keys are globally unique; indexes built once here
    _regions: dict[str, RegionSpec] = field(default_factory=dict, repr=False, compare=False)
    _pois: dict[str, PoiSpec] = field(default_factory=dict, repr=False, compare=False)
    _region_of_poi: dict[str, str] = field(default_factory=dict, repr=False, compare=False)
    _episode_of_region: dict[str, str] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        for ep in self.episodes:
            for region in ep.regions:
                self._regions[region.key] = region
                self._episode_of_region[region.key] = ep.key
                for poi in region.pois:
                    self._pois[poi.key] = poi
                    self._region_of_poi[poi.key] = region.key

    def categories(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for ep in self.episodes:
            seen.setdefault(ep.category, None)
        return tuple(seen)

    def region(self, key: str) -> RegionSpec:
        return self._regions[key]

    def poi(self, key: str) -> PoiSpec:
        return self._pois[key]

    def has_region(self, key: str) -> bool:
        return key in self._regions

    def has_poi(self, key: str) -> bool:
        return key in self._pois

    def region_of_poi(self, poi_key: str) -> str:
        return self._region_of_poi[poi_key]

    def episode_of_region(self, region_key: str) -> str:
        return self._episode_of_region[region_key]
