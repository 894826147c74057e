"""Proto-language rendering and the HTTP refinement fallback path."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from storysim.allen import Coarse, coarse_to_allen
from storysim.default_registry import build_default_registry
from storysim.model import (
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
    PoiSpec,
    RegionSpec,
    TemporalRelation,
)
from storysim.pipeline import CorpusConfig, build_story
from storysim.procgen import GenConfig
from storysim.scheduling import EventTimeline
from storysim.textgen import (
    ProtoText,
    RefineConfig,
    Sentence,
    plural_verb,
    proto_text,
    refine,
)


def _action(key, phrase, category=ActionCategory.MANIPULATION):
    return ActionSpec(key=key, category=category, duration_range_s=(2.0, 6.0),
                      requires_object=False, is_movement_only=False,
                      verb_phrase=phrase)


def mini_registry() -> CapabilityRegistry:
    actions = {
        "drink_coffee": _action("drink_coffee", "drinks a coffee"),
        "wipe_counter": _action("wipe_counter", "wipes the counter"),
        "chat": _action("chat", "chats", ActionCategory.SOCIAL),
        "hand_over": _action("hand_over", "hands a mug", ActionCategory.SOCIAL),
    }
    poi = PoiSpec("k.counter", (1.0, 1.0, 0.0), tuple(actions),
                  {a: tuple(actions) for a in actions}, ("mug",))
    region = RegionSpec("k", "kitchen", ((0, 0, 0), (8, 8, 3)), (poi,))
    episode = EpisodeSpec("home", "household", (region,))
    return CapabilityRegistry(episodes=(episode,), actor_models=("female_a", "male_a"),
                              object_types=("mug",), actions=actions)


def actor(aid, name, gender):
    model = "female_a" if gender is Gender.FEMALE else "male_a"
    return Actor(EntityId(aid, EntityKind.ACTOR), name, gender, model)


def ev(eid, aid, action, kind=EventKind.ACTION, patient=None):
    return Event(eid, EntityId(aid, EntityKind.ACTOR), action, patient,
                 "k.counter", 4.0, kind)


def story(actors, events, relations=(), spans=None):
    graph = GestGraph(actors=tuple(actors), objects=(), events=tuple(events),
                      relations=tuple(relations), region_plan=("k",), seed=0)
    if spans is None:
        spans = {e.event_id: (100 * i, 100 * i + 100) for i, e in enumerate(events)}
    return graph, EventTimeline(intervals=spans, fps=25)


ANNA = actor(1, "Anna", Gender.FEMALE)
BEN = actor(2, "Ben", Gender.MALE)


# -------------------------------------------------------------- rendering

def test_single_event_sentence():
    graph, tl = story([ANNA], [ev(0, 1, "drink_coffee")])
    proto = proto_text(graph, tl, mini_registry())
    assert proto.full_text == "Anna drinks a coffee in the kitchen."
    assert proto.sentences == (Sentence("Anna drinks a coffee in the kitchen.", (0,)),)


def test_repeated_subject_becomes_pronoun():
    graph, tl = story([ANNA], [ev(0, 1, "drink_coffee"), ev(1, 1, "wipe_counter")])
    proto = proto_text(graph, tl, mini_registry())
    assert proto.full_text == ("Anna drinks a coffee in the kitchen. "
                               "Then she wipes the counter in the kitchen.")


def test_male_pronoun():
    graph, tl = story([BEN], [ev(0, 2, "drink_coffee"), ev(1, 2, "wipe_counter")])
    proto = proto_text(graph, tl, mini_registry())
    assert "Then he wipes" in proto.full_text


def test_actor_switch_uses_after_that():
    graph, tl = story([ANNA, BEN], [ev(0, 1, "drink_coffee"), ev(1, 2, "chat")])
    proto = proto_text(graph, tl, mini_registry())
    assert proto.sentences[1].text == "After that, Ben chats in the kitchen."


def test_same_time_connectives_alternate():
    events = [ev(0, 1, "drink_coffee"), ev(1, 2, "wipe_counter"),
              ev(2, 1, "wipe_counter"), ev(3, 2, "drink_coffee")]
    relations = [
        TemporalRelation(0, 1, Coarse.SAME_TIME, coarse_to_allen(Coarse.SAME_TIME)),
        TemporalRelation(1, 2, Coarse.SAME_TIME, coarse_to_allen(Coarse.SAME_TIME)),
        TemporalRelation(2, 3, Coarse.SAME_TIME, coarse_to_allen(Coarse.SAME_TIME)),
    ]
    spans = {0: (0, 100), 1: (0, 100), 2: (10, 110), 3: (10, 110)}
    graph, tl = story([ANNA, BEN], events, relations, spans)
    proto = proto_text(graph, tl, mini_registry())
    texts = [s.text for s in proto.sentences]
    assert texts[1].startswith("At the same time,")
    assert texts[2].startswith("Meanwhile,")
    assert texts[3].startswith("At the same time,")


def test_interaction_pair_is_one_joint_sentence():
    a = ev(0, 1, "chat", EventKind.INTERACTION, EntityId(2, EntityKind.ACTOR))
    b = ev(1, 2, "chat", EventKind.INTERACTION, EntityId(1, EntityKind.ACTOR))
    rel = TemporalRelation(0, 1, Coarse.SAME_TIME, coarse_to_allen(Coarse.SAME_TIME))
    graph, tl = story([ANNA, BEN], [a, b], [rel], {0: (0, 100), 1: (0, 100)})
    proto = proto_text(graph, tl, mini_registry())
    assert len(proto.sentences) == 1
    assert proto.sentences[0].text == "Anna and Ben chat in the kitchen."
    assert proto.sentences[0].event_ids == (0, 1)


def test_exchange_names_giver_first():
    # the lower event_id marks the giver, regardless of schedule order
    g = ev(0, 2, "hand_over", EventKind.EXCHANGE, EntityId(1, EntityKind.ACTOR))
    r = ev(1, 1, "hand_over", EventKind.EXCHANGE, EntityId(2, EntityKind.ACTOR))
    rel = TemporalRelation(0, 1, Coarse.SAME_TIME, coarse_to_allen(Coarse.SAME_TIME))
    graph, tl = story([ANNA, BEN], [g, r], [rel], {0: (0, 100), 1: (0, 100)})
    proto = proto_text(graph, tl, mini_registry())
    assert proto.sentences[0].text == "Ben hands a mug to Anna in the kitchen."


def test_every_event_covered_once_in_start_order():
    registry = build_default_registry()
    cfg = CorpusConfig(gen=GenConfig(master_seed=4))
    for index in range(6):
        graph, timeline, _ = build_story(cfg, registry, index)
        proto = proto_text(graph, timeline, registry)
        seen: list[int] = []
        for s in proto.sentences:
            seen.extend(s.event_ids)
        expected = {e.event_id for e in graph.events
                    if e.kind is not EventKind.MOVEMENT}
        assert sorted(seen) == sorted(expected)
        starts = [min(timeline.start(i) for i in s.event_ids)
                  for s in proto.sentences]
        assert starts == sorted(starts)
        assert proto.full_text == " ".join(s.text for s in proto.sentences)


def test_plural_verb():
    assert plural_verb("chats") == "chat"
    assert plural_verb("waves") == "wave"
    assert plural_verb("does a stretch") == "do a stretch"
    assert plural_verb("has a snack") == "have a snack"
    assert plural_verb("is idle") == "are idle"
    assert plural_verb("tosses a ball") == "toss a ball"
    assert plural_verb("stretches their legs") == "stretch their legs"
    assert plural_verb("carries a box") == "carry a box"


# ------------------------------------------------------------- refinement

class _StubHandler(BaseHTTPRequestHandler):
    behavior = "echo"
    last_request: dict = {}

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        _StubHandler.last_request = {
            "payload": payload,
            "auth": self.headers.get("Authorization"),
            "model": self.headers.get("X-Model"),
        }
        if _StubHandler.behavior == "error":
            self.send_response(500)
            self.end_headers()
            return
        if _StubHandler.behavior == "empty":
            body = json.dumps({"text": ""}).encode()
        elif _StubHandler.behavior == "upper":
            body = json.dumps({"text": payload["text"].upper()}).encode()
        else:
            body = json.dumps({"text": payload["text"]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/refine"
    server.shutdown()
    thread.join()


PROTO = ProtoText((Sentence("Anna waves in the kitchen.", (0,)),),
                  "Anna waves in the kitchen.")


def test_refine_disabled_returns_proto():
    assert refine(PROTO, RefineConfig()) == (PROTO.full_text, False)


def test_refine_round_trip(stub_server, monkeypatch):
    monkeypatch.setenv("REFINE_API_TOKEN", "sekret")
    _StubHandler.behavior = "upper"
    out = refine(PROTO, RefineConfig(endpoint_url=stub_server, model="tiny-1"))
    assert out == (PROTO.full_text.upper(), True)
    req = _StubHandler.last_request
    assert req["payload"]["text"] == PROTO.full_text
    assert "prompt" in req["payload"]
    assert req["auth"] == "Bearer sekret"
    assert req["model"] == "tiny-1"


def test_refine_server_error_falls_back(stub_server):
    _StubHandler.behavior = "error"
    out = refine(PROTO, RefineConfig(endpoint_url=stub_server))
    assert out == (PROTO.full_text, False)


def test_refine_empty_text_falls_back(stub_server):
    _StubHandler.behavior = "empty"
    out = refine(PROTO, RefineConfig(endpoint_url=stub_server))
    assert out == (PROTO.full_text, False)


def test_refine_unreachable_endpoint_falls_back():
    cfg = RefineConfig(endpoint_url="http://127.0.0.1:9/nope", timeout_s=0.2)
    assert refine(PROTO, cfg) == (PROTO.full_text, False)
