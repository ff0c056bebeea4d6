"""Record the outputs every benchmark run is checked against.

    python3 perfbench/make_reference.py --seeds 0-63

Writes ``reference.json`` beside this file:

* ``tables.digest`` — SHA-256 of the ``repro all --no-stats`` stdout (one
  cold run in a fresh interpreter); cold and warm runs must both match it;
* ``tables.requests`` — detection requests one ``repro all`` plans,
  the unit of ``attempted`` for the table workloads;
* ``tables.programs`` — programs in the evaluation subset;
* ``corpus_distinct.counts[seed]`` — gpt-4 / BP1 [tp, fp, tn, fn] over the
  seed's distinct stream, computed without the engine.

Run it only at a commit whose outputs are known good: every later run is
judged against these values.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import distinct
import run


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("0-63"))
    args = parser.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    from repro.eval.experiments import default_subset
    from repro.engine import collect_default_plans

    work = run.HERE / ".work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    (work / "cache").mkdir(parents=True)
    try:
        digest = run._spawn(
            work, ["--workload", "tables_cold", "--cache", str(work / "cache")], "cold"
        )["digest"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    subset = default_subset()
    plans = collect_default_plans(subset)
    counts = {}
    for seed in args.seeds:
        counts[str(seed)] = distinct.expected_counts(distinct.generate(seed))
        print(f"seed {seed}: {counts[str(seed)]}", file=sys.stderr)
    reference = {
        "tables": {
            "digest": digest,
            "requests": sum(len(plan.requests) for plan in plans),
            "programs": len(subset.records),
        },
        "corpus_distinct": {"programs": distinct.DEFAULT_COUNT, "counts": counts},
    }
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
