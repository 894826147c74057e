"""Deterministic multi-actor story corpora with frame-accurate ground
truth.

The pipeline runs in stages: procedural story graphs (procgen), Allen
algebra constraint solving into frame schedules (allen, scheduling),
kinematic 3D execution (simulation), frame-aligned annotation
(collectors), proto-language text (textgen), probe task labels
(probes), and corpus assembly with verification (pipeline, cli).
"""

from .allen import (AllenRelation, Coarse, RelationSet, coarse_to_allen,
                    compose, converse, relation_between, check_relation)
from .errors import (CorruptCorpus, DanglingReferenceError, DocumentError,
                     DocumentSyntaxError, EmptyRegistry,
                     InconsistentNetwork, InvariantError, NoFreeSlot,
                     NoValidAction, StorysimError, UnknownActionInTransition,
                     UnschedulableDisjunction, ValidationFailure)
from .model import (CAMERA_ID, ActionCategory, ActionSpec, Actor,
                    CapabilityRegistry, EntityId, EntityKind, EpisodeSpec,
                    Event, EventKind, Gender, GestGraph, ObjectEntity,
                    PoiSpec, RegionSpec, TemporalRelation)
from .scheduling import (EventTimeline, TemporalNetwork, closure, duration_frames,
                         schedule)
from .procgen import GenConfig, generate_story, story_seed
from .simulation import (FrameLog, World, ground, insert_movements, simulate,
                         validate, visible_mask)
from .binio import Runs
from .collectors import (PairRelation, collect_event_mappings, collect_story_relations,
                         compute_pair_relation)
from .textgen import ProtoText, RefineConfig, proto_text, refine
from .probes import (ClipSpec, ProbeConfig, extract_story_clips, hybrid_sample,
                     labels_document, split_stories)
from .default_registry import build_default_registry
from .pipeline import (CorpusConfig, assemble_story, compute_stats,
                       corpus_digest, generate_corpus, verify)

__version__ = "0.1.0"

__all__ = [
    "AllenRelation", "Coarse", "RelationSet", "coarse_to_allen", "compose",
    "converse", "relation_between", "check_relation",
    "StorysimError", "DocumentError", "DocumentSyntaxError", "DanglingReferenceError",
    "InvariantError", "UnknownActionInTransition", "InconsistentNetwork",
    "UnschedulableDisjunction",
    "EmptyRegistry", "NoValidAction", "NoFreeSlot", "ValidationFailure", "CorruptCorpus",
    "CAMERA_ID", "ActionCategory", "ActionSpec", "Actor", "CapabilityRegistry",
    "EntityId", "EntityKind", "EpisodeSpec", "Event", "EventKind", "Gender",
    "GestGraph", "ObjectEntity", "PoiSpec", "RegionSpec", "TemporalRelation",
    "EventTimeline", "TemporalNetwork", "closure",
    "duration_frames", "schedule",
    "GenConfig", "generate_story", "story_seed",
    "FrameLog", "World", "ground", "insert_movements",
    "simulate", "validate", "visible_mask",
    "Runs", "PairRelation", "collect_event_mappings",
    "collect_story_relations", "compute_pair_relation",
    "ProtoText", "RefineConfig", "proto_text", "refine",
    "ClipSpec", "ProbeConfig", "extract_story_clips",
    "hybrid_sample", "labels_document", "split_stories",
    "build_default_registry",
    "CorpusConfig", "assemble_story", "compute_stats", "corpus_digest",
    "generate_corpus", "verify",
]
