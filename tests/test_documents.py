"""Document round trips plus rejection of malformed or inconsistent input."""

from __future__ import annotations

import json
import re

import pytest

from storysim.default_registry import build_default_registry
from storysim.documents import (
    parse_graph,
    parse_registry,
    parse_timeline,
    serialize_graph,
    serialize_registry,
    serialize_timeline,
)
from storysim.errors import (
    DanglingReferenceError,
    DocumentError,
    DocumentSyntaxError,
    InvariantError,
    UnknownActionInTransition,
)
from storysim.procgen import GenConfig, generate_story
from storysim.scheduling import EventTimeline


@pytest.fixture(scope="module")
def registry():
    return build_default_registry()


@pytest.fixture(scope="module")
def graph(registry):
    return generate_story(GenConfig(master_seed=3), registry, 0)


def _edit(data: bytes, mutate) -> bytes:
    doc = json.loads(data)
    mutate(doc)
    return json.dumps(doc).encode()


# ------------------------------------------------------------ round trips

def test_graph_round_trip(graph):
    data = serialize_graph(graph)
    again = parse_graph(data)
    assert again == graph
    assert serialize_graph(again) == data


def test_registry_round_trip(registry):
    data = serialize_registry(registry)
    again = parse_registry(data)
    assert serialize_registry(again) == data
    assert again.actions.keys() == registry.actions.keys()
    assert [ep.key for ep in again.episodes] == [ep.key for ep in registry.episodes]


def test_timeline_round_trip():
    tl = EventTimeline(intervals={0: (0, 50), 1: (50, 125), 7: (10, 12)}, fps=25)
    data = serialize_timeline(tl)
    again = parse_timeline(data)
    assert again.intervals == tl.intervals
    assert again.fps == 25
    assert serialize_timeline(again) == data


def test_serialization_is_stable(graph, registry):
    assert serialize_graph(graph) == serialize_graph(graph)
    assert serialize_registry(registry) == serialize_registry(registry)


# ----------------------------------------------------------- bad syntax

def test_rejects_non_json():
    with pytest.raises(DocumentSyntaxError):
        parse_graph(b"{not json")


def test_rejects_wrong_version(graph):
    data = _edit(serialize_graph(graph), lambda d: d.update(format_version=99))
    with pytest.raises(DocumentSyntaxError, match="format_version"):
        parse_graph(data)


def test_rejects_missing_field(graph):
    data = _edit(serialize_graph(graph), lambda d: d.pop("events"))
    with pytest.raises(DocumentSyntaxError, match="events"):
        parse_graph(data)


def test_rejects_wrong_field_type(graph):
    data = _edit(serialize_graph(graph), lambda d: d.update(seed="zero"))
    with pytest.raises(DocumentSyntaxError, match="seed"):
        parse_graph(data)


def test_rejects_bad_allen_code(graph):
    # "full" is no relation code: serialize_graph writes all 13 codes instead
    for codes in (["zz"], ["full"]):
        def mutate(d):
            d["relations"] = [{"source": d["events"][0]["event_id"],
                               "target": d["events"][1]["event_id"],
                               "coarse": "before", "allen": codes}]
        with pytest.raises(DocumentSyntaxError, match="allen"):
            parse_graph(_edit(serialize_graph(graph), mutate))


# ----------------------------------------------------- dangling references

def test_rejects_unknown_owner(graph):
    def mutate(d):
        d["objects"].append({"id": 900, "type_key": "cup", "owner": 901,
                             "home_poi": "nowhere"})
    with pytest.raises(DanglingReferenceError, match="owner"):
        parse_graph(_edit(serialize_graph(graph), mutate))


def test_rejects_unknown_event_actor(graph):
    data = _edit(serialize_graph(graph), lambda d: d["events"][0].update(actor=555))
    with pytest.raises(DanglingReferenceError, match="actor"):
        parse_graph(data)


def test_rejects_unknown_patient(graph):
    data = _edit(serialize_graph(graph), lambda d: d["events"][0].update(patient=777))
    with pytest.raises(DanglingReferenceError, match="patient"):
        parse_graph(data)


def test_rejects_relation_to_unknown_event(graph):
    def mutate(d):
        d["relations"] = [{"source": d["events"][0]["event_id"], "target": 4242,
                           "coarse": "before", "allen": ["b"]}]
    with pytest.raises(DanglingReferenceError, match="4242"):
        parse_graph(_edit(serialize_graph(graph), mutate))


# --------------------------------------------------------- bad invariants

def test_rejects_duplicate_entity_id(graph):
    def mutate(d):
        d["objects"].append(dict(d["actors"][0], type_key="cup", home_poi="x"))
        d["objects"][-1] = {"id": d["actors"][0]["id"], "type_key": "cup",
                            "owner": None, "home_poi": "x"}
    with pytest.raises(InvariantError, match="duplicate"):
        parse_graph(_edit(serialize_graph(graph), mutate))


def test_rejects_camera_id_reuse(graph):
    data = _edit(serialize_graph(graph), lambda d: d["actors"][0].update(id=0))
    with pytest.raises(InvariantError, match="camera"):
        parse_graph(data)


def test_rejects_duplicate_event_id(graph):
    def mutate(d):
        d["events"][1]["event_id"] = d["events"][0]["event_id"]
    with pytest.raises(InvariantError, match="duplicate"):
        parse_graph(_edit(serialize_graph(graph), mutate))


def test_rejects_nonpositive_duration(graph):
    data = _edit(serialize_graph(graph), lambda d: d["events"][0].update(duration_s=0))
    with pytest.raises(InvariantError, match="duration"):
        parse_graph(data)


def test_rejects_interaction_without_actor_patient(graph):
    def mutate(d):
        d["events"][0].update(kind="interaction", patient=None)
    with pytest.raises(InvariantError, match="patient"):
        parse_graph(_edit(serialize_graph(graph), mutate))


def test_rejects_self_relation(graph):
    def mutate(d):
        eid = d["events"][0]["event_id"]
        d["relations"] = [{"source": eid, "target": eid,
                           "coarse": "before", "allen": ["b"]}]
    with pytest.raises(InvariantError, match="differ"):
        parse_graph(_edit(serialize_graph(graph), mutate))


def test_rejects_inverted_region_bounds(registry):
    def mutate(d):
        r = d["episodes"][0]["regions"][0]
        r["bounds"] = [r["bounds"][1], r["bounds"][0]]
    with pytest.raises(InvariantError, match="inverted|bounds"):
        parse_registry(_edit(serialize_registry(registry), mutate))


def test_rejects_poi_outside_bounds(registry):
    def mutate(d):
        d["episodes"][0]["regions"][0]["pois"][0]["position"] = [9e9, 0, 0]
    with pytest.raises(InvariantError, match="outside"):
        parse_registry(_edit(serialize_registry(registry), mutate))


def test_rejects_duplicate_poi_key(registry):
    def mutate(d):
        pois = d["episodes"][0]["regions"][0]["pois"]
        pois.append(dict(pois[0]))
    with pytest.raises(InvariantError, match="duplicate"):
        parse_registry(_edit(serialize_registry(registry), mutate))


def test_rejects_unknown_action_in_transition(registry):
    def mutate(d):
        poi = d["episodes"][0]["regions"][0]["pois"][0]
        poi["transitions"]["made_up_action"] = []
    with pytest.raises(UnknownActionInTransition, match="made_up_action"):
        parse_registry(_edit(serialize_registry(registry), mutate))


def test_rejects_undeclared_transition_target(registry):
    def mutate(d):
        poi = d["episodes"][0]["regions"][0]["pois"][0]
        src = next(iter(poi["transitions"]))
        poi["transitions"][src] = ["ghost_action"]
    with pytest.raises(UnknownActionInTransition, match="ghost_action"):
        parse_registry(_edit(serialize_registry(registry), mutate))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
def test_rejects_numbers_that_are_not_finite_floats(graph, registry, literal):
    # json decodes each of these, the last to an int past the float range
    def with_number(data: bytes, mutate) -> bytes:
        return _edit(data, mutate).replace(b'"NUMBER"', literal.encode())

    def event_duration(d):
        d["events"][0]["duration_s"] = "NUMBER"

    def region_corner(d):
        d["episodes"][0]["regions"][0]["bounds"][1][0] = "NUMBER"

    with pytest.raises(DocumentSyntaxError, match="duration_s.*not a finite number"):
        parse_graph(with_number(serialize_graph(graph), event_duration))
    with pytest.raises(DocumentSyntaxError, match="coordinate is not a finite number"):
        parse_registry(with_number(serialize_registry(registry), region_corner))


def test_timeline_rejects_bad_interval():
    tl = EventTimeline(intervals={0: (0, 10)}, fps=25)
    data = _edit(serialize_timeline(tl), lambda d: d["intervals"].append([1, 5, 5]))
    with pytest.raises(InvariantError, match="start"):
        parse_timeline(data)


# ------------------------------------- one defect at each id and reference rule

def _set(section, index, **fields):
    def mutate(d):
        d[section][index].update(fields)
    return mutate


def _set_to_id(section, index, field, source, source_index):
    """Sets a field to the id of another entity of the document."""
    def mutate(d):
        d[section][index][field] = d[source][source_index]["id"]
    return mutate


def _drop(section, index, field):
    return lambda d: d[section][index].pop(field)


# the fixture graph: actors 1-6, objects 7-11; a patient may be an actor or
# an object, so it has no wrong kind, and the camera's id 0 is never declared
GRAPH_DEFECTS = [
    pytest.param(_set("objects", 0, owner="1"), DocumentSyntaxError, "field 'owner'",
                 "objects[0]", id="owner-wrong-type"),
    pytest.param(_set("objects", 0, owner=True), DocumentSyntaxError, "field 'owner'",
                 "objects[0]", id="owner-a-bool"),
    pytest.param(_set("objects", 0, owner=901), DanglingReferenceError, "owner 901",
                 "objects[0]", id="owner-dangling"),
    pytest.param(_set_to_id("objects", 0, "owner", "objects", 1), DanglingReferenceError,
                 "owner 8", "objects[0]", id="owner-an-object"),
    pytest.param(_set("events", 0, patient="7"), DocumentSyntaxError, "field 'patient'",
                 "events[0]", id="patient-wrong-type"),
    pytest.param(_set("events", 0, patient=777), DanglingReferenceError, "patient 777",
                 "events[0]", id="patient-dangling"),
    pytest.param(_set("events", 0, patient=0), DanglingReferenceError, "patient 0",
                 "events[0]", id="patient-the-camera"),
    pytest.param(_set("events", 0, actor=1.0), DocumentSyntaxError, "field 'actor'",
                 "events[0]", id="actor-wrong-type"),
    pytest.param(_set("events", 0, actor=None), DocumentSyntaxError, "field 'actor'",
                 "events[0]", id="actor-null"),
    pytest.param(_drop("events", 0, "actor"), DocumentSyntaxError, "field 'actor'",
                 "events[0]", id="actor-missing"),
    pytest.param(_set("events", 0, actor=555), DanglingReferenceError, "actor 555",
                 "events[0]", id="actor-dangling"),
    pytest.param(_set_to_id("events", 0, "actor", "objects", 0), DanglingReferenceError,
                 "actor 7", "events[0]", id="actor-an-object"),
    pytest.param(_set_to_id("objects", 0, "id", "actors", 0), InvariantError,
                 "duplicate entity id 1", "objects[0]", id="object-shares-an-actor-id"),
    pytest.param(_set_to_id("objects", 1, "id", "objects", 0), InvariantError,
                 "duplicate entity id 7", "objects[1]", id="object-shares-an-object-id"),
    pytest.param(_set_to_id("actors", 1, "id", "actors", 0), InvariantError,
                 "duplicate entity id 1", "actors[1]", id="actor-shares-an-actor-id"),
    pytest.param(_set("actors", 0, id=-1), InvariantError, "0 is the camera", "actors[0]",
                 id="actor-id-negative"),
    pytest.param(_set("objects", 0, id=0), InvariantError, "0 is the camera",
                 "objects[0]", id="object-id-of-the-camera"),
    pytest.param(_set("objects", 0, id="7"), DocumentSyntaxError, "field 'id'",
                 "objects[0]", id="object-id-wrong-type"),
    # what the binaries' entity table cannot store: a u16 id, a u8 name length
    pytest.param(_set("actors", 5, id=65536), InvariantError,
                 "actor id 65536 is past 65535", "actors[5]", id="actor-id-past-u16"),
    pytest.param(_set("actors", 0, name="é" * 128), InvariantError,
                 "name of 256 UTF-8 bytes is longer than the 255", "actors[0]",
                 id="actor-name-past-255-bytes"),
    pytest.param(_set("objects", 0, type_key="é" * 128), InvariantError,
                 "type key of 256 UTF-8 bytes", "objects[0]",
                 id="object-type-key-past-255-bytes"),
]


def test_graph_ids_and_names_at_the_entity_table_bounds_parse(graph):
    def mutate(d):
        d["actors"].append({**d["actors"][0], "id": 65535, "name": "é" * 127 + "a"})
        d["objects"][0]["type_key"] = "b" * 255
    parsed = parse_graph(_edit(serialize_graph(graph), mutate))
    assert (parsed.actors[-1].id.id, parsed.actors[-1].name) == (65535, "é" * 127 + "a")
    assert parsed.objects[0].type_key == "b" * 255


@pytest.mark.parametrize("mutate, error, named, location", GRAPH_DEFECTS)
def test_graph_id_and_reference_rules(graph, mutate, error, named, location):
    assert [a.id.id for a in graph.actors] == [1, 2, 3, 4, 5, 6]
    assert [o.id.id for o in graph.objects] == [7, 8, 9, 10, 11]
    with pytest.raises(error, match=rf"{named}.* \(at {re.escape(location)}\)$") as info:
        parse_graph(_edit(serialize_graph(graph), mutate))
    assert info.value.location == location


def _first_poi(mutate):
    def edit(d):
        mutate(d["episodes"][0]["regions"][0]["pois"][0])
    return edit


def _first_transition_to(target):
    def mutate(poi):
        poi["transitions"][next(iter(poi["transitions"]))] = [target]
    return mutate


# an undeclared action is refused at the location of the POI that names it,
# as every other registry defect is
@pytest.mark.parametrize("mutate", [
    _first_poi(lambda poi: poi["valid_actions"].append("made_up")),
    _first_poi(lambda poi: poi["transitions"].update(made_up=[])),
    _first_poi(_first_transition_to("made_up")),
], ids=["valid-action", "transition-source", "transition-target"])
def test_registry_undeclared_action_rule(registry, mutate):
    data = _edit(serialize_registry(registry), mutate)
    with pytest.raises(UnknownActionInTransition, match="'made_up'") as info:
        parse_registry(data)
    assert isinstance(info.value, DocumentError)
    assert info.value.location == "episodes[0].regions[0].pois[0]"
    assert str(info.value).endswith(" (at episodes[0].regions[0].pois[0])")


def _long_type_key(d):
    d["object_types"].append("é" * 128)


@pytest.mark.parametrize("mutate, location", [
    (_long_type_key, "object_types"),
    (_first_poi(lambda poi: poi["object_slots"].append("é" * 128)),
     "episodes[0].regions[0].pois[0]"),
], ids=["object-types", "object-slots"])
def test_registry_refuses_a_type_key_past_255_utf8_bytes(registry, mutate, location):
    # an object's type key is its name in the binaries' entity table
    with pytest.raises(InvariantError, match=r"^type key of 256 UTF-8 bytes is longer "
                                             r"than the 255 an entity table holds") as info:
        parse_registry(_edit(serialize_registry(registry), mutate))
    assert info.value.location == location
