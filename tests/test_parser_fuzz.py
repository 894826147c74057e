"""The corpus readers fail closed: any bytes either parse or raise a
StorysimError subclass.  Inputs are arbitrary bytes, real files cut and
byte-mutated, and real JSON documents with one node replaced or one key
dropped."""

from __future__ import annotations

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from storysim import binio
from storysim.collectors import collect_story_relations
from storysim.default_registry import build_default_registry
from storysim.documents import (jsonl_lines, parse_graph, parse_manifest, parse_registry,
                                parse_timeline, serialize_graph, serialize_registry,
                                serialize_timeline)
from storysim.errors import StorysimError
from storysim.pipeline import CorpusConfig, build_story, generate_corpus, probe_docs
from storysim.procgen import GenConfig, generate_story

FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None)


REGISTRY = build_default_registry()


def _real_files() -> dict[str, bytes]:
    """The documents and binaries of one seed-7 story; the frame log is
    cut to its first frames so mutations land in headers and entity
    tables as often as in payloads.  The manifest is a 2-story corpus's."""
    cfg = CorpusConfig(gen=GenConfig(master_seed=7))
    with tempfile.TemporaryDirectory() as corpus:
        generate_corpus(corpus, cfg, REGISTRY, stories=2)
        manifest = (Path(corpus) / "manifest.json").read_bytes()
    graph, timeline, log = build_story(cfg, REGISTRY, 0)
    probes = probe_docs("story_00000", graph, timeline, log, REGISTRY, cfg.probe,
                        "train")
    log = replace(log, positions=log.positions[:3], yaws=log.yaws[:3])
    return {
        "clips.jsonl": probes["probes/clips.jsonl"],
        "graph.json": serialize_graph(graph),
        "manifest.json": manifest,
        "timeline.json": serialize_timeline(timeline),
        "registry.json": serialize_registry(REGISTRY),
        "framelog.bin": bytes(binio.framelog_bytes(log)),
        "relations.bin": bytes(binio.relations_bytes(
            collect_story_relations(log), log.fps, log.entity_ids, log.entity_kinds,
            log.entity_names)),
    }


REAL = _real_files()
PARSERS = {
    "clips.jsonl": jsonl_lines,
    "graph.json": parse_graph,
    "manifest.json": parse_manifest,
    "timeline.json": parse_timeline,
    "registry.json": parse_registry,
    "framelog.bin": binio.parse_framelog,
    "relations.bin": binio.parse_relations,
}
DOCUMENTS = ("graph.json", "timeline.json", "registry.json", "manifest.json")


def parses_or_fails_closed(name: str, data: bytes):
    """Anything but a StorysimError propagates and fails the test."""
    try:
        PARSERS[name](data)
    except StorysimError:
        pass


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_real_files_parse(name):
    PARSERS[name](REAL[name])


@pytest.mark.parametrize("name", sorted(PARSERS))
@FUZZ
@given(data=st.binary(max_size=512))
@example(data=b"[" * 100_000)
@example(data=b'{"format_version": ' + b"1" * 5000 + b"}")
@example(data=b"GTFL")
@example(data=b"GTSR\x01\x00\x19\x00\x00\x00\x00\x00")
# version 2 relations of no entity, then of one, each with a stray payload byte
@example(data=b"GTSR\x02\x00\x19\x00\x00\x00\x00\x00\x00")
@example(data=b"GTSR\x02\x00\x19\x00\x01\x00\x00\x00\x00\x00\x00\x06camera\x00")
# version 4 relations of no entity over one frame, then of one, each with a
# stray payload byte
@example(data=b"GTSR\x04\x00\x19\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00")
@example(data=b"GTSR\x04\x00\x19\x00\x01\x00\x00\x00\x01\x00\x00\x00"
              b"\x00\x00\x00\x06camera\x00")
# version 4 framelogs of the camera over two frames: no bitmap byte, no run,
# a first run at frame 1, a set pad bit, equal runs at frames 0 and 1, and
# a run more than the payload holds
@example(data=b"GTFL\x04\x00\x19\x00\x01\x00\x00\x00\x02\x00\x00\x00"
              b"\x00\x00\x00\x06camera")
@example(data=b"GTFL\x04\x00\x19\x00\x01\x00\x00\x00\x02\x00\x00\x00"
              b"\x00\x00\x00\x06camera\x00")
@example(data=b"GTFL\x04\x00\x19\x00\x01\x00\x00\x00\x02\x00\x00\x00"
              b"\x00\x00\x00\x06camera\x40" + bytes(32))
@example(data=b"GTFL\x04\x00\x19\x00\x01\x00\x00\x00\x02\x00\x00\x00"
              b"\x00\x00\x00\x06camera\xa0" + bytes(32))
@example(data=b"GTFL\x04\x00\x19\x00\x01\x00\x00\x00\x02\x00\x00\x00"
              b"\x00\x00\x00\x06camera\xc0" + bytes(64))
@example(data=b"GTFL\x04\x00\x19\x00\x01\x00\x00\x00\x02\x00\x00\x00"
              b"\x00\x00\x00\x06camera\xc0" + bytes(32))
# version 4 files of one run per column under a frame_count of 2**32 - 1,
# past the dense bound, then of 1,000,000, inside it but past the bitmap:
# the camera's framelog, then the relations of the camera and a cup
@example(data=b"GTFL\x04\x00\x19\x00\x01\x00\x00\x00\xff\xff\xff\xff"
              b"\x00\x00\x00\x06camera\x80" + bytes(32))
@example(data=b"GTSR\x04\x00\x19\x00\x02\x00\x00\x00\xff\xff\xff\xff"
              b"\x00\x00\x00\x06camera\x01\x00\x02\x03cup\xc0" + bytes(26))
@example(data=b"GTFL\x04\x00\x19\x00\x01\x00\x00\x00\x40\x42\x0f\x00"
              b"\x00\x00\x00\x06camera\x80" + bytes(32))
@example(data=b"GTSR\x04\x00\x19\x00\x02\x00\x00\x00\x40\x42\x0f\x00"
              b"\x00\x00\x00\x06camera\x01\x00\x02\x03cup\xc0" + bytes(26))
# version 4 files of one frame with a non-finite value: the camera's
# framelog with a NaN x, then the relations of the camera and a cup with
# an infinite distance
@example(data=b"GTFL\x04\x00\x19\x00\x01\x00\x00\x00\x01\x00\x00\x00"
              b"\x00\x00\x00\x06camera\x80"
              + b"\x00\x00\x00\x00\x00\x00\xf8\x7f" + bytes(24))
@example(data=b"GTSR\x04\x00\x19\x00\x02\x00\x00\x00\x01\x00\x00\x00"
              b"\x00\x00\x00\x06camera\x01\x00\x02\x03cup\xc0"
              + b"\x00\x00\x80\x7f" * 2 + bytes(18))
def test_arbitrary_bytes(name, data):
    parses_or_fails_closed(name, data)


@pytest.mark.parametrize("name", sorted(PARSERS))
@FUZZ
@given(cut=st.floats(0.0, 1.0),
       flips=st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 255)),
                      max_size=4))
def test_mutated_prefixes_of_real_files(name, cut, flips):
    data = bytearray(REAL[name][:round(len(REAL[name]) * cut)])
    for at, value in flips:
        if data:
            data[at % len(data)] = value
    parses_or_fails_closed(name, bytes(data))


_json_value = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4)
    | st.integers() | st.sampled_from([0, -1, 10**400, -(10**400)])
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def _nodes(doc, path=()):
    """(path, value) of every node of a decoded JSON document."""
    yield path, doc
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in children:
        yield from _nodes(value, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    head, *rest = path
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[head] = _replaced(doc[head], rest, value)
    return copy


@pytest.mark.parametrize("name", DOCUMENTS)
@FUZZ
@given(pick=st.integers(0, 2**20), value=_json_value)
def test_real_documents_with_a_node_replaced(name, pick, value):
    doc = json.loads(REAL[name])
    nodes = list(_nodes(doc))
    path, _ = nodes[pick % len(nodes)]
    parses_or_fails_closed(name, json.dumps(_replaced(doc, path, value)).encode())


@pytest.mark.parametrize("name", DOCUMENTS)
@FUZZ
@given(pick=st.integers(0, 2**20))
def test_real_documents_with_a_key_dropped(name, pick):
    doc = json.loads(REAL[name])
    keyed = [(path, node) for path, node in _nodes(doc) if isinstance(node, dict) and node]
    path, node = keyed[pick % len(keyed)]
    smaller = dict(node)
    smaller.pop(sorted(smaller)[pick % len(smaller)])
    parses_or_fails_closed(name, json.dumps(_replaced(doc, path, smaller)).encode())


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), index=st.integers(0, 50),
       chains=st.integers(1, 3), regions=st.integers(1, 3), actors=st.integers(1, 4))
def test_generated_graphs_round_trip(seed, index, chains, regions, actors):
    cfg = GenConfig(master_seed=seed, chains_per_actor=chains, regions_to_visit=regions,
                    max_actors_per_region=actors)
    try:
        graph = generate_story(cfg, REGISTRY, index)
    except StorysimError:
        return  # a config the generator cannot draw from
    data = serialize_graph(graph)
    assert parse_graph(data) == graph
    assert serialize_graph(parse_graph(data)) == data
