"""Deterministic proto-language for a scheduled story, plus an optional
HTTP refinement hook.

One clause per non-movement event, ordered by start frame.  Interaction
and exchange pairs collapse into a single joint sentence.  Connectives
mark the temporal texture: "Then" continues an actor's own chain,
"At the same time" / "Meanwhile" (alternating) mark same_time-related
events, "After that" marks a switch to another actor's thread.  A
repeated subject inside one region block becomes a gendered pronoun.

Refinement posts {prompt, text} to a configured endpoint and falls back
to the proto text on any failure; corpus generation never depends on it.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass

from .allen import Coarse
from .errors import InvariantError
from .model import CapabilityRegistry, EventKind, Gender, GestGraph
from .scheduling import EventTimeline
from .simulation import paired_events

log = logging.getLogger(__name__)

REFINE_TOKEN_ENV = "REFINE_API_TOKEN"
REFINE_PROMPT = ("Rewrite the following scene description as natural, fluent "
                 "English prose. Keep every actor, action, place and the "
                 "temporal order exactly as stated; do not add or drop facts.")

_IRREGULAR_PLURAL = {"does": "do", "goes": "go", "has": "have", "is": "are"}
_PRONOUN = {Gender.FEMALE: "she", Gender.MALE: "he"}


@dataclass(frozen=True)
class Sentence:
    text: str
    event_ids: tuple[int, ...]


@dataclass(frozen=True)
class ProtoText:
    sentences: tuple[Sentence, ...]
    full_text: str


@dataclass(frozen=True)
class RefineConfig:
    endpoint_url: str | None = None
    model: str = ""
    timeout_s: float = 30.0


def plural_verb(phrase: str) -> str:
    """Third-person-plural form of a verb phrase ("chats" -> "chat")."""
    head, _, rest = phrase.partition(" ")
    if head in _IRREGULAR_PLURAL:
        head = _IRREGULAR_PLURAL[head]
    elif head.endswith(("sses", "ches", "shes", "xes", "zes")):
        head = head[:-2]
    elif head.endswith("ies") and len(head) > 4:
        head = head[:-3] + "y"
    elif head.endswith("s") and not head.endswith("ss"):
        head = head[:-1]
    return f"{head} {rest}" if rest else head


def proto_text(graph: GestGraph, timeline: EventTimeline,
               registry: CapabilityRegistry) -> ProtoText:
    """The template text of a scheduled story; InvariantError if it lacks an event."""
    actors = {a.id.id: a for a in graph.actors}
    events = graph.event_index()
    same_time: dict[int, set[int]] = {}
    for rel in graph.relations:
        if rel.coarse is Coarse.SAME_TIME:
            same_time.setdefault(rel.source, set()).add(rel.target)
            same_time.setdefault(rel.target, set()).add(rel.source)

    # joint sentences: pair interactions/exchanges by mutual patients
    partner_of: dict[int, int] = {}
    for ev, partner in paired_events(graph):
        if partner is not None:
            partner_of[ev.event_id] = partner.event_id
            partner_of[partner.event_id] = ev.event_id

    told = [e for e in graph.events if e.kind is not EventKind.MOVEMENT]
    for ev in told:
        if ev.event_id not in timeline.intervals:
            raise InvariantError(f"event {ev.event_id} is not in the timeline")
    ordered = sorted(told, key=lambda e: (timeline.start(e.event_id), e.event_id))

    sentences: list[Sentence] = []
    emitted: set[int] = set()
    prev_ids: tuple[int, ...] = ()
    prev_subjects: tuple[int, ...] = ()
    prev_region: str | None = None
    meanwhile_next = False

    for ev in ordered:
        if ev.event_id in emitted:
            continue
        ids = [ev.event_id]
        partner_id = partner_of.get(ev.event_id)
        if partner_id is not None and partner_id not in emitted:
            ids.append(partner_id)
        emitted.update(ids)

        region = registry.region_of_poi(ev.poi)
        room = registry.region(region).name
        actor = actors[ev.actor.id]
        spec = registry.actions[ev.action]

        connective = ""
        if prev_ids:
            linked = any(t in same_time.get(s, ())
                         for s in ids for t in prev_ids)
            if linked:
                connective = "Meanwhile," if meanwhile_next else "At the same time,"
                meanwhile_next = not meanwhile_next
            elif actor.id.id in prev_subjects:
                connective = "Then"
            else:
                connective = "After that,"

        if len(ids) == 2 and ev.kind is EventKind.EXCHANGE:
            receiver = actors[events[partner_id].actor.id]
            giver = actor
            if partner_id < ev.event_id:
                giver, receiver = receiver, giver
            clause = (f"{giver.name} {spec.verb_phrase} to {receiver.name} "
                      f"in the {room}")
            subjects = (giver.id.id, receiver.id.id)
        elif len(ids) == 2:
            other = actors[events[partner_id].actor.id]
            clause = (f"{actor.name} and {other.name} {plural_verb(spec.verb_phrase)} "
                      f"in the {room}")
            subjects = (actor.id.id, other.id.id)
        else:
            subject = actor.name
            if (region == prev_region and prev_subjects == (actor.id.id,)):
                pronoun = _PRONOUN[actor.gender]
                subject = pronoun if connective else pronoun.capitalize()
            clause = f"{subject} {spec.verb_phrase} in the {room}"
            subjects = (actor.id.id,)

        text = f"{connective} {clause}.".strip()
        sentences.append(Sentence(text, tuple(sorted(ids))))
        prev_ids = tuple(ids)
        prev_subjects = subjects
        prev_region = region

    full = " ".join(s.text for s in sentences)
    return ProtoText(tuple(sentences), full)


def refine(proto: ProtoText, config: RefineConfig) -> tuple[str, bool]:
    """(text, refined): the configured endpoint's prose and True, or the
    proto text unchanged and False when no endpoint is set or on any
    failure."""
    if not config.endpoint_url:
        return proto.full_text, False
    try:
        # imported here: urllib.request pulls in http.client and email,
        # which every importer of the package would otherwise pay for
        import urllib.request

        headers = {"Content-Type": "application/json"}
        token = os.environ.get(REFINE_TOKEN_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        if config.model:
            headers["X-Model"] = config.model
        body = json.dumps({"prompt": REFINE_PROMPT, "text": proto.full_text})
        request = urllib.request.Request(config.endpoint_url, data=body.encode("utf-8"),
                                         headers=headers, method="POST")
        # urlopen raises HTTPError on a non-2xx status
        with urllib.request.urlopen(request, timeout=config.timeout_s) as resp:
            refined = json.loads(resp.read())["text"]
        if not isinstance(refined, str) or not refined:
            raise ValueError("endpoint returned no text")
        return refined, True
    except Exception as exc:  # degrade to identity, never fail the corpus
        log.warning("refinement failed (%s); keeping proto text", exc)
        return proto.full_text, False
