"""Fast self-test of the benchmark at a tiny size (two stories per batch,
one batch per run, about half a minute).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that span self times are >= 0 and sum to at most their root span, that
per-artifact bytes add up to bytes_per_story, that corpus and
corpus-parallel write the same bytes, that another seed changes the
digest, and that a digest differing from an earlier run's is flagged.
Exits 1 and lists what failed otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from types import SimpleNamespace

import run

STORIES = 2
SEED = 3


def digests(result) -> list[str]:
    return [b["digest"] for b in result["batches"]]


def main() -> int:
    if not (run.SRC / "storysim" / "__init__.py").is_file():
        print(f"storysim sources not found under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]}
             for kind in ("end_to_end", "per_layer")}
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems: list[str] = []

    def check(ok: bool, message: str):
        if not ok:
            problems.append(message)

    def bench(workload: str, seed: int, trace: bool):
        result, tracer = run.run(workload, seed, 0, trace, work, stories=STORIES,
                                 setup_samples=1)
        tag = f"{workload} seed {seed} trace {int(trace)}"
        check(result["correct"] and result["failed"] == 0,
              f"{tag}: not correct: {result['failures']}")
        want = units["per_layer" if trace else "end_to_end"]
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(got == want, f"{tag}: metrics/units differ from BENCHMARK.json: "
                           f"missing {sorted(want.keys() - got.keys())}, "
                           f"extra {sorted(got.keys() - want.keys())}, "
                           f"units {[n for n in want.keys() & got.keys() if want[n] != got[n]]}")
        check(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                  for m in result["metrics"].values()), f"{tag}: a metric is not a number")
        return result, tracer

    try:
        for workload in ("corpus", "corpus-parallel", "scenes"):
            plain, _ = bench(workload, SEED, False)
            traced, tracer = bench(workload, SEED, True)
            check(digests(traced) == digests(plain),
                  f"{workload}: traced run wrote other bytes than the untraced run")
            per_kind = sum(m["value"] for n, m in traced["metrics"].items()
                           if n.startswith("bytes."))
            check(math.isclose(per_kind, plain["bytes_per_story"]),
                  f"{workload}: bytes.* sum {per_kind} != bytes_per_story")
            selfs = tracer.self_times()
            check(bool(tracer.spans), f"{workload}: traced run recorded no spans")
            check(min(selfs, default=0.0) >= -1e-9, f"{workload}: negative self time")
            subtree = [0.0] * len(tracer.spans)
            for i in range(len(tracer.spans) - 1, -1, -1):  # children follow parents
                subtree[i] += selfs[i]
                if tracer.spans[i].parent >= 0:
                    subtree[tracer.spans[i].parent] += subtree[i]
            for span, total in zip(tracer.spans, subtree):
                if span.parent < 0:
                    check(total <= span.end - span.start + 1e-9,
                          f"{workload}: self times under {span.name} exceed its span")
            if workload == "corpus":
                corpus_digests = digests(plain)
            elif workload == "corpus-parallel":
                check(digests(plain) == corpus_digests,
                      "corpus-parallel digest differs from corpus at the same seed")
        other, _ = bench("corpus", SEED + 1, False)
        check(digests(other) != corpus_digests, "another seed gave the same digest")

        fake = SimpleNamespace(master_seed=1, stories=1, digest="a", check_failures=[])
        run.check_known_digests(work / "fake.json", "k", [fake])
        fake.digest = "b"
        run.check_known_digests(work / "fake.json", "k", [fake])
        check(bool(fake.check_failures), "a changed digest was not flagged")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
