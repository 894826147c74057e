"""Parsing and serialization of the corpus's JSON documents: graph,
registry, timeline and manifest, and the JSONL row files.

All documents are UTF-8 JSON with a format_version field.  Parsers
resolve every id reference and re-check structural invariants so a
hand-edited document cannot smuggle an inconsistent story into the
pipeline.  Serialization is deterministic: stable key order, stable
float formatting via json's repr, no timestamps.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import PurePosixPath
from typing import Any

from .allen import AllenRelation, Coarse, RelationSet
from .errors import DanglingReferenceError, DocumentSyntaxError, InvariantError, UnknownActionInTransition
from .model import (
    ActionCategory,
    ActionSpec,
    Actor,
    CapabilityRegistry,
    EntityId,
    EntityKind,
    EpisodeSpec,
    Event,
    EventKind,
    Gender,
    GestGraph,
    MAX_ENTITY_ID,
    MAX_NAME_BYTES,
    ObjectEntity,
    PoiSpec,
    RegionSpec,
    TemporalRelation,
    is_finite_number,
)
from .probes import ProbeConfig
from .scheduling import EventTimeline

FORMAT_VERSION = 1


def json_document(obj) -> bytes:
    """The deterministic encoding of every JSON document the corpus holds."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def jsonl_document(rows) -> bytes:
    """The deterministic encoding of every JSONL file the corpus holds."""
    return "".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in rows
    ).encode("utf-8")


def _loads(data: bytes, what: str) -> Any:
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError: bad UTF-8, bad JSON or an integer too long for int();
        # RecursionError: arrays or objects nested too deep to decode
        raise DocumentSyntaxError(f"not valid JSON for {what}: {exc}") from None


def jsonl_lines(data: bytes) -> list[bytes]:
    """The lines of a JSONL file, each with its line end, once each is JSON."""
    lines = data.splitlines(keepends=True)
    for n, line in enumerate(lines, 1):
        _loads(line, f"line {n}")
    return lines


def _decode(data: bytes, what: str) -> Any:
    doc = _loads(data, f"a {what} document")
    version = _get(doc, "format_version", int, what)
    if version != FORMAT_VERSION:
        raise DocumentSyntaxError(f"unsupported format_version {version}", what)
    return doc


def _get(obj: dict, key: str, kind: type | tuple, loc: str):
    if not isinstance(obj, dict):
        raise DocumentSyntaxError("expected an object", loc)
    if key not in obj:
        raise DocumentSyntaxError(f"missing field {key!r}", loc)
    val = obj[key]
    if kind is float:
        return _float(val, f"field {key!r}", loc)
    if not isinstance(val, kind) or isinstance(val, bool) and kind is not bool:
        raise DocumentSyntaxError(f"field {key!r} has wrong type", loc)
    return val


def _float(val, what: str, loc: str) -> float:
    if not is_finite_number(val):
        raise DocumentSyntaxError(f"{what} is not a finite number", loc)
    return float(val)


def _strings(obj: dict, key: str, loc: str) -> tuple[str, ...]:
    val = _get(obj, key, list, loc)
    if not all(isinstance(v, str) for v in val):
        raise DocumentSyntaxError(f"field {key!r} must hold only strings", loc)
    return tuple(val)


def _entity_name(name: str, what: str, loc: str) -> str:
    """`name`, once its UTF-8 fits an entity table's name field."""
    size = len(name.encode("utf-8"))
    if size > MAX_NAME_BYTES:
        raise InvariantError(f"{what} of {size} UTF-8 bytes is longer than the "
                             f"{MAX_NAME_BYTES} an entity table holds", loc)
    return name


def _type_keys(obj: dict, key: str, loc: str) -> tuple[str, ...]:
    """The object type keys of the string list field `key`."""
    return tuple(_entity_name(type_key, "type key", loc)
                 for type_key in _strings(obj, key, loc))


def _vec3(val, loc: str) -> tuple[float, float, float]:
    if not (isinstance(val, list) and len(val) == 3):
        raise DocumentSyntaxError("expected a 3-element number list", loc)
    return tuple(_float(v, "coordinate", loc) for v in val)


def _enum(cls, val, loc: str):
    try:
        return cls(val)
    except ValueError:
        raise DocumentSyntaxError(
            f"{val!r} is not one of {[m.value for m in cls]}", loc
        ) from None


# ---------------------------------------------------------------- graphs

def serialize_graph(graph: GestGraph) -> bytes:
    doc = {
        "format_version": FORMAT_VERSION,
        "seed": graph.seed,
        "region_plan": list(graph.region_plan),
        "actors": [
            {"id": a.id.id, "name": a.name, "gender": a.gender.value, "model": a.model}
            for a in graph.actors
        ],
        "objects": [
            {
                "id": o.id.id,
                "type_key": o.type_key,
                "owner": o.owner.id if o.owner else None,
                "home_poi": o.home_poi,
            }
            for o in graph.objects
        ],
        "events": [
            {
                "event_id": e.event_id,
                "actor": e.actor.id,
                "action": e.action,
                "patient": e.patient.id if e.patient else None,
                "poi": e.poi,
                "duration_s": e.duration_s,
                "kind": e.kind.value,
            }
            for e in graph.events
        ],
        "relations": [
            {
                "source": r.source,
                "target": r.target,
                "coarse": r.coarse.value,
                "allen": r.allen_set.codes().split(),
            }
            for r in graph.relations
        ],
    }
    return json_document(doc)


def _items(obj: dict, key: str, at: str = ""):
    """(location, element) of each element of the list field `key` of the
    object at location `at`, the document's own when empty."""
    where = f"{at}.{key}" if at else key
    for i, item in enumerate(_get(obj, key, list, at or key)):
        yield f"{where}[{i}]", item


def _new_entity(obj: dict, kind: EntityKind, entities: dict[int, EntityId],
                loc: str) -> EntityId:
    """The id of a declared actor or object, entered in `entities`: an int
    above 0 (0 is the camera), at most MAX_ENTITY_ID, that no other entity
    of the graph has."""
    eid = _get(obj, "id", int, loc)
    if eid <= 0:
        raise InvariantError(f"{kind.value} ids must be positive (0 is the camera)", loc)
    if eid > MAX_ENTITY_ID:
        raise InvariantError(f"{kind.value} id {eid} is past {MAX_ENTITY_ID}, the "
                             f"largest an entity table holds", loc)
    if eid in entities:
        raise InvariantError(f"duplicate entity id {eid}", loc)
    entities[eid] = EntityId(eid, kind)
    return entities[eid]


def _entity_ref(obj: dict, key: str, entities: dict[int, EntityId], kinds: tuple,
                loc: str, optional: bool = True) -> EntityId | None:
    """The declared entity, of one of `kinds`, that field `key` names; None
    when an optional field is null or absent."""
    if optional and obj.get(key) is None:
        return None
    ref = _get(obj, key, int, loc)
    if ref not in entities or entities[ref].kind not in kinds:
        what = " or ".join(k.value for k in kinds)
        raise DanglingReferenceError(f"{key} {ref} is not a declared {what}", loc)
    return entities[ref]


def parse_graph(data: bytes) -> GestGraph:
    doc = _decode(data, "graph")

    seed = _get(doc, "seed", int, "seed")
    region_plan = _strings(doc, "region_plan", "region_plan")

    only_actors = (EntityKind.ACTOR,)
    actor_or_object = (EntityKind.ACTOR, EntityKind.OBJECT)
    entities: dict[int, EntityId] = {}
    actors = [Actor(_new_entity(obj, EntityKind.ACTOR, entities, loc),
                    _entity_name(_get(obj, "name", str, loc), "name", loc),
                    _enum(Gender, _get(obj, "gender", str, loc), loc),
                    _get(obj, "model", str, loc))
              for loc, obj in _items(doc, "actors")]
    objects = [ObjectEntity(id=_new_entity(obj, EntityKind.OBJECT, entities, loc),
                            owner=_entity_ref(obj, "owner", entities, only_actors, loc),
                            type_key=_entity_name(_get(obj, "type_key", str, loc),
                                                  "type key", loc),
                            home_poi=_get(obj, "home_poi", str, loc))
               for loc, obj in _items(doc, "objects")]

    events = []
    event_ids: set[int] = set()
    for loc, obj in _items(doc, "events"):
        ev_id = _get(obj, "event_id", int, loc)
        if ev_id in event_ids:
            raise InvariantError(f"duplicate event_id {ev_id}", loc)
        event_ids.add(ev_id)
        agent = _entity_ref(obj, "actor", entities, only_actors, loc, optional=False)
        patient = _entity_ref(obj, "patient", entities, actor_or_object, loc)
        duration = _get(obj, "duration_s", float, loc)
        if duration <= 0:
            raise InvariantError("duration_s must be positive", loc)
        kind = _enum(EventKind, _get(obj, "kind", str, loc), loc)
        if kind in (EventKind.INTERACTION, EventKind.EXCHANGE) and (
                patient is None or patient.kind is not EntityKind.ACTOR):
            raise InvariantError(f"{kind.value} events need a second-actor patient", loc)
        events.append(Event(ev_id, agent, _get(obj, "action", str, loc), patient,
                            _get(obj, "poi", str, loc), duration, kind))

    relations = []
    for loc, obj in _items(doc, "relations"):
        source = _get(obj, "source", int, loc)
        target = _get(obj, "target", int, loc)
        for ref in (source, target):
            if ref not in event_ids:
                raise DanglingReferenceError(f"event {ref} is not declared", loc)
        if source == target:
            raise InvariantError("relation endpoints must differ", loc)
        codes = _get(obj, "allen", list, loc)
        try:
            allen_set = RelationSet.of(*map(AllenRelation, codes))
        except ValueError:
            raise DocumentSyntaxError("bad allen relation code list", loc) from None
        if codes != allen_set.codes().split():
            raise DocumentSyntaxError("allen relation codes must be distinct and in "
                                      "their writer's order", loc)
        if not allen_set:
            raise InvariantError("allen relation set must be nonempty", loc)
        relations.append(TemporalRelation(
            source, target, _enum(Coarse, _get(obj, "coarse", str, loc), loc), allen_set))

    return GestGraph(
        actors=tuple(actors),
        objects=tuple(objects),
        events=tuple(events),
        relations=tuple(relations),
        region_plan=tuple(region_plan),
        seed=seed,
    )


# -------------------------------------------------------------- registry

def serialize_registry(reg: CapabilityRegistry) -> bytes:
    doc = {
        "format_version": FORMAT_VERSION,
        "actor_models": list(reg.actor_models),
        "object_types": list(reg.object_types),
        "actions": {
            key: {
                "category": spec.category.value,
                "duration_range_s": list(spec.duration_range_s),
                "requires_object": spec.requires_object,
                "is_movement_only": spec.is_movement_only,
                "verb_phrase": spec.verb_phrase,
            }
            for key, spec in sorted(reg.actions.items())
        },
        "episodes": [
            {
                "key": ep.key,
                "category": ep.category,
                "regions": [
                    {
                        "key": region.key,
                        "name": region.name,
                        "bounds": [list(region.bounds[0]), list(region.bounds[1])],
                        "pois": [
                            {
                                "key": poi.key,
                                "position": list(poi.position),
                                "valid_actions": list(poi.valid_actions),
                                "transitions": {
                                    k: list(v) for k, v in sorted(poi.transitions.items())
                                },
                                "object_slots": list(poi.object_slots),
                            }
                            for poi in region.pois
                        ],
                    }
                    for region in ep.regions
                ],
            }
            for ep in reg.episodes
        ],
    }
    return json_document(doc)


def _declared(names: list[str], actions: dict, what: str, loc: str) -> tuple[str, ...]:
    """names, once each is a declared action; `what` says how the POI at
    `loc` uses them."""
    for name in names:
        if name not in actions:
            raise UnknownActionInTransition(f"{what} {name!r} is not a declared action",
                                            loc)
    return tuple(names)


def parse_registry(data: bytes) -> CapabilityRegistry:
    doc = _decode(data, "registry")

    actor_models = _strings(doc, "actor_models", "actor_models")
    object_types = _type_keys(doc, "object_types", "object_types")
    if not actor_models:
        raise InvariantError("at least one actor model is required", "actor_models")

    actions: dict[str, ActionSpec] = {}
    for key, obj in _get(doc, "actions", dict, "actions").items():
        loc = f"actions[{key!r}]"
        rng = _get(obj, "duration_range_s", list, loc)
        if len(rng) != 2:
            raise DocumentSyntaxError("duration_range_s must be [min, max]", loc)
        try:
            actions[key] = ActionSpec(
                key=key,
                category=_enum(ActionCategory, _get(obj, "category", str, loc), loc),
                duration_range_s=tuple(_float(v, "duration_range_s", loc) for v in rng),
                requires_object=_get(obj, "requires_object", bool, loc),
                is_movement_only=_get(obj, "is_movement_only", bool, loc),
                verb_phrase=_get(obj, "verb_phrase", str, loc),
            )
        except ValueError as exc:
            raise InvariantError(str(exc), loc) from None
    if not actions:
        raise InvariantError("at least one action is required", "actions")

    episodes = []
    region_keys: set[str] = set()
    poi_keys: set[str] = set()
    for ep_loc, ep_obj in _items(doc, "episodes"):
        regions = []
        for r_loc, r_obj in _items(ep_obj, "regions", ep_loc):
            bounds_raw = _get(r_obj, "bounds", list, r_loc)
            if len(bounds_raw) != 2:
                raise DocumentSyntaxError("bounds must be [min_corner, max_corner]", r_loc)
            lo = _vec3(bounds_raw[0], r_loc)
            hi = _vec3(bounds_raw[1], r_loc)
            if any(a > b for a, b in zip(lo, hi)):
                raise InvariantError("bounds corners are inverted", r_loc)
            pois = []
            for p_loc, p_obj in _items(r_obj, "pois", r_loc):
                position = _vec3(_get(p_obj, "position", list, p_loc), p_loc)
                if not all(lo[c] <= position[c] <= hi[c] for c in range(3)):
                    raise InvariantError("POI position outside region bounds", p_loc)
                valid_actions = _strings(p_obj, "valid_actions", p_loc)
                transitions_raw = _get(p_obj, "transitions", dict, p_loc)
                _declared(valid_actions, actions, "valid action", p_loc)
                transitions = {}
                for act, nexts in transitions_raw.items():
                    _declared([act], actions, "transition source", p_loc)
                    if not (isinstance(nexts, list)
                            and all(isinstance(nxt, str) for nxt in nexts)):
                        raise DocumentSyntaxError(
                            f"transitions[{act!r}] must be a list of strings", p_loc)
                    transitions[act] = _declared(nexts, actions,
                                                 f"transition {act!r} ->", p_loc)
                poi_key = _get(p_obj, "key", str, p_loc)
                if poi_key in poi_keys:
                    raise InvariantError(f"duplicate POI key {poi_key!r}", p_loc)
                poi_keys.add(poi_key)
                pois.append(PoiSpec(poi_key, position, valid_actions, transitions,
                                    _type_keys(p_obj, "object_slots", p_loc)))
            if not pois:
                raise InvariantError("region has no POIs", r_loc)
            region_key = _get(r_obj, "key", str, r_loc)
            if region_key in region_keys:
                raise InvariantError(f"duplicate region key {region_key!r}", r_loc)
            region_keys.add(region_key)
            regions.append(RegionSpec(region_key, _get(r_obj, "name", str, r_loc), (lo, hi),
                                      tuple(pois)))
        if not regions:
            raise InvariantError("episode has no regions", ep_loc)
        episodes.append(EpisodeSpec(_get(ep_obj, "key", str, ep_loc),
                                    _get(ep_obj, "category", str, ep_loc), tuple(regions)))
    if not episodes:
        raise InvariantError("registry declares no episodes", "episodes")

    return CapabilityRegistry(
        episodes=tuple(episodes),
        actor_models=actor_models,
        object_types=object_types,
        actions=actions,
    )


# -------------------------------------------------------------- timeline

def serialize_timeline(timeline: EventTimeline) -> bytes:
    doc = {
        "format_version": FORMAT_VERSION,
        "fps": timeline.fps,
        "intervals": [
            [eid, s, e] for eid, (s, e) in sorted(timeline.intervals.items())
        ],
    }
    return json_document(doc)


def parse_timeline(data: bytes) -> EventTimeline:
    doc = _decode(data, "timeline")
    fps = _get(doc, "fps", int, "fps")
    problem = ProbeConfig.fps_problem(fps)
    if problem:
        raise InvariantError(problem, "fps")
    intervals: dict[int, tuple[int, int]] = {}
    for loc, row in _items(doc, "intervals"):
        if not (isinstance(row, list) and len(row) == 3
                and all(isinstance(v, int) and not isinstance(v, bool) for v in row)):
            raise DocumentSyntaxError("expected [event_id, start, end]", loc)
        eid, start, end = row
        if eid in intervals:
            raise InvariantError(f"duplicate event_id {eid}", loc)
        if start < 0 or end <= start:
            raise InvariantError("need 0 <= start < end", loc)
        intervals[eid] = (start, end)
    return EventTimeline(intervals=intervals, fps=fps)


# -------------------------------------------------------------- manifest

# the files of every built story; text.refined.txt only when refining
STORY_FILES = ("graph.json", "timeline.json", "framelog.bin", "relations.bin",
               "events.jsonl", "text.txt", "probes/clips.jsonl", "probes/labels.jsonl")
_PROBE_KEYS = frozenset(f.name for f in fields(ProbeConfig))


def parse_manifest(data: bytes) -> dict:
    """The manifest document, checked for all its readers use; each story
    is listed once, story_count times in all, and a built story's files
    must hash every STORY_FILES entry and stay inside its directory."""
    doc = _decode(data, "manifest")
    _get(doc, "registry_hash", str, "registry_hash")
    config = _get(doc, "config", dict, "config")
    problem = ProbeConfig.fps_problem(_get(config, "fps", int, "config.fps"))
    if problem:
        raise InvariantError(problem, "config.fps")
    probe = _get(config, "probe", dict, "config.probe")
    for problem, keys in (("unknown", probe.keys() - _PROBE_KEYS),
                          ("missing", _PROBE_KEYS - probe.keys())):
        if keys:
            raise DocumentSyntaxError(f"{problem} key(s) {', '.join(sorted(keys))}",
                                      "config.probe")
    try:
        ProbeConfig(**probe)
    except ValueError as exc:
        raise DocumentSyntaxError(str(exc), "config.probe") from None
    story_ids: set[str] = set()
    for loc, entry in _items(doc, "stories"):
        story_id = _get(entry, "story_id", str, f"{loc}.story_id")
        if story_id in ("", ".", "..") or "/" in story_id:
            raise InvariantError(f"{story_id!r} is not one path component",
                                 f"{loc}.story_id")
        if story_id in story_ids:
            raise InvariantError(f"duplicate story_id {story_id!r}", f"{loc}.story_id")
        story_ids.add(story_id)
        _get(entry, "split", str, f"{loc}.split")
        if "error" in entry:
            continue  # a story that failed has no files
        files = _get(entry, "files", dict, f"{loc}.files")
        for rel_path in files:
            rel = PurePosixPath(rel_path)
            if rel.is_absolute() or ".." in rel.parts:
                raise InvariantError(f"key {rel_path!r} leaves the story directory",
                                     f"{loc}.files")
        missing = [name for name in STORY_FILES if name not in files]
        if missing:
            raise DocumentSyntaxError(f"no hash of {', '.join(missing)}", f"{loc}.files")
    count = _get(doc, "story_count", int, "story_count")
    if count != len(story_ids):
        raise InvariantError(f"story_count {count} for {len(story_ids)} stories",
                             "story_count")
    return doc
