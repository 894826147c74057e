"""Document round trips plus rejection of malformed or inconsistent input."""

from __future__ import annotations

import json

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
