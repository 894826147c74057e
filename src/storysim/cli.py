"""Command line entry points.

  storysim generate --stories N --seed S --out DIR [...]
  storysim simulate --graph PATH --out DIR [--registry PATH]
  storysim text --graph PATH --timeline PATH [--registry PATH]
  storysim probes --corpus DIR [--out DIR] [label options]
  storysim stats --corpus DIR
  storysim verify --corpus DIR
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import binio
from .default_registry import build_default_registry
from .documents import json_document, parse_graph, parse_registry, parse_timeline
from .errors import StorysimError, ValidationFailure
from .pipeline import (CorpusConfig, HashedFiles, compute_stats, generate_corpus,
                       load_manifest, probe_docs, simulate_graph, simulated_files,
                       story_entries, verify, write_files)
from .probes import ProbeConfig
from .procgen import GenConfig
from .simulation import validate
from .textgen import RefineConfig, proto_text


def _load_registry(path: str | None):
    if path is None:
        return build_default_registry()
    return parse_registry(Path(path).read_bytes())


def _config(args, make):
    """make(), where a ValueError is a bad command-line value: exit 2."""
    try:
        return make()
    except ValueError as exc:
        args.parser.error(str(exc))


def _cmd_generate(args) -> int:
    if args.stories < 0:
        args.parser.error("--stories must not be negative")
    if args.workers < 1:
        args.parser.error("--workers must be at least 1")
    cfg = _config(args, lambda: CorpusConfig(
        gen=GenConfig(master_seed=args.seed, chains_per_actor=args.chains_per_actor,
                      max_actors_per_region=args.max_actors_per_region,
                      regions_to_visit=args.regions),
        fps=args.fps,
        refine=RefineConfig(endpoint_url=args.refine_endpoint, model=args.refine_model)))
    registry = _load_registry(args.registry)
    manifest = generate_corpus(args.out, cfg, registry, args.stories,
                               workers=args.workers)
    errors = [e for e in manifest["stories"] if "error" in e]
    print(f"generated {len(manifest['stories']) - len(errors)}/{args.stories} "
          f"stories under {args.out}")
    for e in errors:
        print(f"  {e['story_id']}: {e['error']}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_simulate(args) -> int:
    cfg = _config(args, lambda: CorpusConfig(fps=args.fps))
    registry = _load_registry(args.registry)
    graph = parse_graph(Path(args.graph).read_bytes())
    graph, timeline, log = simulate_graph(cfg, registry, graph)
    files, records = simulated_files(graph, timeline, log)
    write_files(Path(args.out), files, {})
    print(f"simulated {log.frame_count} frames, {records} relation records "
          f"-> {args.out}")
    return 0


def _cmd_text(args) -> int:
    registry = _load_registry(args.registry)
    graph = parse_graph(Path(args.graph).read_bytes())
    issues = validate(graph, registry)
    if issues:
        raise ValidationFailure(issues)
    timeline = parse_timeline(Path(args.timeline).read_bytes())
    print(proto_text(graph, timeline, registry).full_text)
    return 0


def _cmd_probes(args) -> int:
    corpus = Path(args.corpus)
    manifest = load_manifest(corpus)
    root = HashedFiles(corpus, "", {"registry.json": manifest["registry_hash"]})
    registry = root.require("registry.json", parse_registry)
    flags = {"motion_threshold_m": args.motion_threshold,
             "min_event_s": args.min_event_s,
             "ambiguity_eps_m": args.ambiguity_eps_m,
             "ambiguity_eps_deg": args.ambiguity_eps_deg}
    cfg = _config(args, lambda: replace(ProbeConfig(**manifest["config"]["probe"]),
                                        **{k: v for k, v in flags.items()
                                           if v is not None}))
    out_root = Path(args.out) if args.out else corpus
    in_place = out_root.resolve() == corpus.resolve()
    derived = []
    for entry in story_entries(manifest):
        story_id = entry["story_id"]
        # a story whose inputs fail their manifest hashes is refused
        story = HashedFiles(corpus / story_id, f"{story_id}/",
                            {name: entry["files"][name] for name in
                             ("graph.json", "timeline.json", "framelog.bin")})
        graph = story.require("graph.json", parse_graph)
        timeline = story.require("timeline.json", parse_timeline)
        log = binio.frame_log(*story.require("framelog.bin", binio.parse_framelog))
        derived.append((entry, probe_docs(story_id, graph, timeline, log, registry,
                                          cfg, entry["split"])))
    # written only once every story is derived, so a refused story leaves
    # every file as it was
    n_clips = 0
    for entry, docs in derived:
        # the manifest, and so these hashes, is written only in place
        write_files(out_root / entry["story_id"], docs, entry["files"])
        n_clips += docs["probes/clips.jsonl"].count(b"\n")
    if in_place:
        manifest["config"]["probe"] = asdict(cfg)
        (corpus / "manifest.json").write_bytes(json_document(manifest))
    print(f"derived {n_clips} clips -> {out_root}")
    return 0


def _cmd_stats(args) -> int:
    sys.stdout.write(json_document(compute_stats(args.corpus)).decode("utf-8"))
    return 0


def _cmd_verify(args) -> int:
    report = verify(args.corpus)
    for check in report["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        print(f"{mark} {check['name']}: {check['details']}")
    print("PASS" if report["ok"] else "FAIL")
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storysim",
        description="Deterministic multi-actor story corpus generator with "
                    "frame-accurate ground truth.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a corpus of stories")
    p.add_argument("--stories", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--registry", default=None, help="registry JSON "
                   "(default: bundled registry)")
    p.add_argument("--out", required=True)
    p.add_argument("--chains-per-actor", type=int, default=1)
    p.add_argument("--max-actors-per-region", type=int, default=4)
    p.add_argument("--regions", type=int, default=2)
    p.add_argument("--fps", type=int, default=25)
    p.add_argument("--refine-endpoint", default=None)
    p.add_argument("--refine-model", default="")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_generate, parser=p)

    p = sub.add_parser("simulate", help="simulate one graph document")
    p.add_argument("--graph", required=True)
    p.add_argument("--registry", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--fps", type=int, default=25)
    p.set_defaults(func=_cmd_simulate, parser=p)

    p = sub.add_parser("text", help="print proto text for a scheduled graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--timeline", required=True)
    p.add_argument("--registry", default=None)
    p.set_defaults(func=_cmd_text)

    p = sub.add_parser("probes", help="re-derive probe clips and labels")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default=None)
    for flag in ("--motion-threshold", "--min-event-s", "--ambiguity-eps-m",
                 "--ambiguity-eps-deg"):
        p.add_argument(flag, type=float, default=None,
                       help="default: the value in the corpus manifest")
    p.set_defaults(func=_cmd_probes, parser=p)

    p = sub.add_parser("stats", help="recompute corpus statistics")
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("verify", help="replay all oracles against a corpus")
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationFailure as exc:  # a graph simulate or text cannot take: exit 2
        for issue in exc.issues:
            print(f"{issue['code']} (event {issue['event_id']}): "
                  f"{issue['message']}", file=sys.stderr)
        return 2
    except (StorysimError, OSError) as exc:  # OSError: a missing or unreadable path
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
