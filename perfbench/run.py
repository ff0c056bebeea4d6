"""End-to-end benchmark of the paper reproduction, one workload per call.

    python3 perfbench/run.py --workload tables_cold --seed 1 --seconds 40 --trace 0

Each iteration runs in a fresh interpreter (``worker.py``) with the
default serial executor and one BLAS thread.  ``--trace 0`` reports the
end-to-end metrics over the iterations that fit in ``--seconds``, each
time scaled to the reference host speed (``calibrate.py``); ``--trace 1``
runs one iteration with span wrappers installed, then untraced ones, and
reports the per-layer metrics plus ``trace.overhead_s``.  Every output is
checked against ``reference.json``; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import calibrate  # beside this script, so first on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tables_cold", "tables_warm", "corpus_distinct")
#: Fresh interpreters that only set up, so ``setup_s`` has enough samples.
SETUP_PROBES = 3
#: Each timed child must finish well inside the per-run limit.
CHILD_TIMEOUT_S = 150
#: One process, one thread: numpy's BLAS pool would otherwise compete with
#: the interpreter for the host's few cores.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: The traced run fails when spans cover less than half its wall time.
MAX_OTHER_SHARE = 0.5


def _spawn(work: Path, worker_args: List[str], tag: str) -> Dict:
    """One fresh interpreter; returns its result plus ``setup_s``."""
    result_path = work / f"{tag}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update(SINGLE_THREAD_ENV)
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *worker_args, "--result", str(result_path)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(worker_args)} exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - spawned
    # Set-up is scaled by the loops timed right after it; the workload by
    # the mean of the probes sampled during it, whose own time comes out.
    result["setup_scale"] = calibrate.REFERENCE_S / statistics.median(result["cal_s"])
    result["scale"] = result["setup_scale"]
    probes = result["probe_s"]
    if probes:
        result["scale"] = calibrate.REFERENCE_S / statistics.fmean(probes)
        result["wall_s"] -= sum(probes)
        result["cpu_s"] -= sum(probes)
    return result


class Workload:
    """Inputs and the per-iteration child invocation of one workload."""

    def __init__(self, name: str, seed: int, work: Path, reference: Dict) -> None:
        self.name = name
        self.work = work
        self.reference = reference
        self.count = 0
        self.prime_digest = None
        self.expected = None
        self.expected_source = "recorded"
        if name == "tables_warm":
            # The primed directory is copied fresh for every iteration:
            # each run rewrites costmodel.json, so reusing one directory
            # would not give byte-identical starting states.  A primed
            # directory whose output matched the reference is kept per
            # source digest, so later runs of the same code skip priming.
            self.primed = HERE / ".out" / f"primed-{_source_digest()[:16]}"
            if not self.primed.is_dir():
                fresh = work / "primed"
                fresh.mkdir()
                self.prime_digest = _spawn(
                    work, ["--workload", "tables_cold", "--cache", str(fresh)], "prime"
                )["digest"]
                if self.prime_digest == reference["tables"]["digest"]:
                    fresh.rename(self.primed)
                else:
                    self.primed = fresh
        elif name == "corpus_distinct":
            sys.path.insert(0, str(ROOT / "src"))
            import distinct

            programs = distinct.generate(seed)
            self.programs_path = work / "programs.pkl"
            with open(self.programs_path, "wb") as fh:
                pickle.dump(programs, fh)
            recorded = reference["corpus_distinct"]["counts"].get(str(seed))
            self.expected = recorded if recorded is not None else distinct.expected_counts(programs)
            self.expected_source = "recorded" if recorded is not None else "computed"

    def iterate(self, trace_out: str = "") -> Dict:
        self.count += 1
        tag = f"it{self.count}"
        extra = ["--trace-out", trace_out] if trace_out else []
        if self.name == "corpus_distinct":
            return _spawn(
                self.work,
                ["--workload", "distinct", "--programs", str(self.programs_path), *extra],
                tag,
            )
        cache = self.work / f"cache-{tag}"
        if self.name == "tables_warm":
            shutil.copytree(self.primed, cache)
        else:
            cache.mkdir()
        try:
            return _spawn(self.work, ["--workload", self.name, "--cache", str(cache), *extra], tag)
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    def check(self, result: Dict) -> Tuple[int, int]:
        """(attempted, failed) requests of one iteration against the reference."""
        if self.name == "corpus_distinct":
            attempted = result["programs"]
            scored = sum(result["counts"])
            failed = (attempted - scored) + result["label_mismatches"]
            if result["counts"] != self.expected:
                failed = attempted
            return attempted, min(failed, attempted)
        attempted = self.reference["tables"]["requests"]
        return attempted, 0 if result["digest"] == self.reference["tables"]["digest"] else attempted

    def programs_per_s(self, result: Dict) -> float:
        programs = result["programs"] if self.name == "corpus_distinct" else self.reference["tables"]["programs"]
        return programs / result["wall_s"]


def _measure(workload: Workload, seconds: float, *, minimum: int) -> List[Dict]:
    """Untraced iterations until the next one would overrun ``seconds``."""
    results: List[Dict] = []
    start = time.monotonic()
    while True:
        results.append(workload.iterate())
        elapsed = time.monotonic() - start
        if len(results) >= minimum and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    out_dir = HERE / ".out"
    out_dir.mkdir(exist_ok=True)  # before Workload: it may keep a primed cache there
    work = HERE / ".work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = Workload(args.workload, args.seed, work, reference)
        began = time.monotonic()  # inputs are ready: measuring starts here
        setup_probes = [_spawn(work, ["--workload", "setup"], f"setup{i}")
                        for i in range(SETUP_PROBES)]
        traced = None
        if args.trace:
            trace_path = out_dir / f"spans-{args.workload}.jsonl"
            traced = workload.iterate(trace_out=str(trace_path))
        remaining = args.seconds - (time.monotonic() - began)
        runs = _measure(workload, remaining, minimum=1 if args.trace else 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = 0
    for result in runs + ([traced] if traced else []):
        a, f = workload.check(result)
        attempted += a
        failed += f
    notes = []
    if workload.prime_digest is not None and workload.prime_digest != reference["tables"]["digest"]:
        notes.append("priming run output differs from the reference")
        failed = attempted
    if failed:
        notes.append(f"{failed} of {attempted} requests failed or differ from the reference")

    median = statistics.median
    walls = [r["wall_s"] for r in runs]
    if args.trace:
        spans = traced["spans"]
        metrics = {}
        for name, value in spans.items():
            metrics[name] = _metric(value, _span_unit(name))
        overhead = traced["wall_s"] * traced["scale"] - median(
            [r["wall_s"] * r["scale"] for r in runs])
        metrics["trace.overhead_s"] = _metric(overhead, "s")
        if spans["other.self_s"] > MAX_OTHER_SHARE * traced["wall_s"]:
            notes.append(
                f"spans cover too little: other.self_s={spans['other.self_s']:.3f}s "
                f"of {traced['wall_s']:.3f}s traced wall"
            )
        if args.workload == "tables_warm" and (
            spans["engine.cache_get.hit_ratio"] != 1.0 or spans["llm.generate.calls"] != 0
        ):
            notes.append("warm run was not served entirely from the cache")
    else:
        # Times are scaled to the reference host speed (calibrate.py) per
        # interpreter, then the median is taken over the interpreters.
        metrics = {
            "setup_s": _metric(
                median([r["setup_s"] * r["setup_scale"] for r in setup_probes + runs]), "s"),
            "wall_s": _metric(median([r["wall_s"] * r["scale"] for r in runs]), "s"),
            "cpu_s": _metric(median([r["cpu_s"] * r["scale"] for r in runs]), "s"),
            "peak_rss_mb": _metric(median([r["peak_rss_mb"] for r in runs]), "MB"),
            "programs_per_s": _metric(
                median([workload.programs_per_s(r) / r["scale"] for r in runs]), "1/s"),
        }
    correct = not notes
    env = {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "iterations": len(runs),
        "setup_probes": SETUP_PROBES,
        "samples": {
            key: [r[key] for r in runs]
            for key in ("wall_s", "cpu_s", "peak_rss_mb", "scale", "probe_s",
                        "setup_s", "setup_scale", "cal_s")
        },
        "setup_probe_s": [r["setup_s"] for r in setup_probes],
        "setup_probe_scale": [r["setup_scale"] for r in setup_probes],
        "reference": workload.expected_source,
        "notes": notes,
        "error_rate": failed / attempted,
        "result": {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics},
    }
    record_name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_dir / record_name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={len(runs)} commit={env['commit']} python={env['python']} nproc={env['nproc']}")
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'error_rate':<34} {record['error_rate']:>14.6g} ({failed} of {attempted} requests)")
    print(f"  iteration wall_s (unscaled): median {median(walls):.4f} s, "
          f"all {[round(w, 4) for w in walls]}")
    print(f"  iteration scale: {[round(r['scale'], 4) for r in runs]}")
    for note in notes:
        print(f"  NOTE: {note}")
    print(json.dumps(record["result"]))
    return 0


def _span_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {
        "calls": "count",
        "self_s": "s",
        "p50_ms": "ms",
        "p95_ms": "ms",
        "distinct_ratio": "ratio",
        "hit_ratio": "ratio",
        "tokens_per_s": "1/s",
    }[suffix]


if __name__ == "__main__":
    sys.exit(main())
