"""Spans around calls into storysim's layers, recorded from outside the
package.

`Tracer.install` replaces each target function with a wrapper in every
loaded `storysim` module that holds it, because `pipeline` (and others)
import stage functions by name.  Methods are wrapped on their class.
Spans (name, start, end, parent, story id) stay in memory until the run
writes them out.  A wrapper running in a forked pool worker calls straight
through, so a parallel run records parent-side spans only.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span
    story: str | None


def _count_simulate(counts, log):
    counts["simulation.frames"] += log.frame_count
    counts["simulation.entity_frames"] += log.frame_count * log.entity_count


def _count_records(counts, records):
    counts["collectors.records"] += len(records)


def _count_labels(counts, labels):
    counts["probes.clips"] += 1
    counts["probes.pairs"] += len(labels["pairs"])


def _count_oracle(counts, _labels):
    counts["probes_oracle.clips"] += 1


# (defining module, attribute, span name, result counter).  Functions called
# thousands of times per story are in COUNTED instead: no span, only a call
# count named "<name>.calls".
SPANNED = [
    ("storysim.procgen", "generate_story", "procgen.generate_story", None),
    # story_category lives in pipeline but only replays procgen's first draw.
    ("storysim.pipeline", "story_category", "procgen.story_category", None),
    ("storysim.scheduling", "schedule", "scheduling.schedule", None),
    ("storysim.simulation", "validate", "simulation.validate", None),
    ("storysim.simulation", "ground", "simulation.ground", None),
    ("storysim.simulation", "insert_movements", "simulation.insert_movements", None),
    ("storysim.simulation", "simulate", "simulation.simulate", _count_simulate),
    ("storysim.simulation", "visible_mask", "simulation.visible_mask", None),
    ("storysim.collectors", "collect_story_relations",
     "collectors.collect_story_relations", _count_records),
    ("storysim.collectors", "collect_event_mappings",
     "collectors.collect_event_mappings", None),
    ("storysim.binio", "write_relations", "binio.write", None),
    ("storysim.binio", "write_framelog", "binio.write", None),
    ("storysim.binio", "read_relations", "binio.read", None),
    ("storysim.binio", "read_framelog", "binio.read", None),
    ("storysim.documents", "serialize_graph", "documents.serialize", None),
    ("storysim.documents", "serialize_timeline", "documents.serialize", None),
    ("storysim.documents", "serialize_registry", "documents.serialize", None),
    ("storysim.documents", "parse_graph", "documents.parse", None),
    ("storysim.documents", "parse_timeline", "documents.parse", None),
    ("storysim.documents", "parse_registry", "documents.parse", None),
    ("storysim.textgen", "proto_text", "textgen.proto_text", None),
    ("storysim.probes", "extract_story_clips", "probes.extract_story_clips", None),
    ("storysim.probes", "label_clip", "probes.label_clip", _count_labels),
    ("storysim.probes_oracle", "oracle_clip", "probes_oracle.oracle_clip", _count_oracle),
    ("storysim.pipeline", "build_story", "pipeline.build_story", None),
    ("storysim.pipeline", "assemble_story", "pipeline.assemble_story", None),
    ("storysim.pipeline", "generate_corpus", "pipeline.generate_corpus", None),
    ("storysim.pipeline", "verify", "pipeline.verify", None),
    ("storysim.pipeline", "compute_stats", "pipeline.compute_stats", None),
]
COUNTED = [
    ("storysim.scheduling", "TemporalNetwork.constrain", "scheduling.constrain"),
    ("storysim.scheduling", "closure", "scheduling.closure"),
    ("storysim.collectors", "compute_pair_relation", "collectors.compute_pair_relation"),
]
# assemble_story(cfg, registry, story_index, story_dir, split)
_STORY_INDEX_ARG = {"pipeline.assemble_story": 2}

SELF_S = sorted({name for _, _, name, _ in SPANNED} - {"pipeline.build_story"})
COUNTS = sorted(["simulation.frames", "simulation.entity_frames", "collectors.records",
                 "probes.clips", "probes.pairs", "probes_oracle.clips"]
                + [f"{name}.calls" for _, _, name in COUNTED])


class Tracer:
    """Records spans while installed and not paused."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.story: str | None = None
        self.batch = ""  # prefix that keeps story ids unique across batches
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._paused = False
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        self._paused, was = True, self._paused
        try:
            yield
        finally:
            self._paused = was

    def _off(self) -> bool:
        return self._paused or os.getpid() != self._pid

    def _spanned(self, fn, name, counter):
        story_arg = _STORY_INDEX_ARG.get(name)

        def wrapper(*args, **kwargs):
            if self._off():
                return fn(*args, **kwargs)
            outer_story = self.story
            if story_arg is not None:
                self.story = f"{self.batch}story_{args[story_arg]:05d}"
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.story)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.story = outer_story
            if counter is not None:
                counter(self.counts, result)
            return result

        return wrapper

    def _counted(self, fn, name):
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            if not self._off():
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        targets = [(mod, attr, lambda fn, n=name, c=counter: self._spanned(fn, n, c))
                   for mod, attr, name, counter in SPANNED]
        targets += [(mod, attr, lambda fn, n=name: self._counted(fn, n))
                    for mod, attr, name in COUNTED]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "storysim" or n.startswith("storysim."))]
        for mod_name, attr, make in targets:
            owner = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, make(original))
                continue
            original = getattr(owner, attr)
            wrapper = make(original)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    self._patch(module, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def story_seconds(self) -> list[float]:
        """Per story: total duration of its outermost spans."""
        per_story: Counter = Counter()
        for span in self.spans:
            if span.story is None:
                continue
            parent = self.spans[span.parent] if span.parent >= 0 else None
            if parent is None or parent.story != span.story:
                per_story[span.story] += span.end - span.start
        return list(per_story.values())

    def root_seconds(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent < 0)

    def layer_metrics(self, stories: int) -> dict[str, tuple[float, str]]:
        """Per-layer self time and counts per story, label_clip call
        percentiles and per-story time percentiles."""
        per = max(stories, 1)
        self_s = Counter()
        for span, s in zip(self.spans, self.self_times()):
            self_s[span.name] += s
        out = {f"{name}.self_s": (self_s[name] / per, "s/story") for name in SELF_S}
        out.update({name: (self.counts[name] / per, "count/story") for name in COUNTS})
        label_ms = [1e3 * (s.end - s.start) for s in self.spans
                    if s.name == "probes.label_clip"]
        out["probes.label_clip.p50_ms"] = (_quantile(label_ms, 0.5), "ms")
        out["probes.label_clip.p90_ms"] = (_quantile(label_ms, 0.9), "ms")
        story_s = self.story_seconds()
        out["pipeline.story_s.p50"] = (_quantile(story_s, 0.5), "s")
        out["pipeline.story_s.p90"] = (_quantile(story_s, 0.9), "s")
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _quantile(values: list[float], q: float) -> float:
    """Inclusive quantile; 0.0 when the layer made no calls."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
