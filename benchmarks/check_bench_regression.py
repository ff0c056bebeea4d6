"""Benchmark regression gate: floors from the baseline, trends from history.

Run after ``bench_engine_throughput.py``, ``bench_scheduler.py``,
``bench_dispatch.py``, ``bench_async.py``, ``bench_speculation.py``,
``bench_cascade.py``, ``bench_corpus_stream.py``,
``bench_chaos.py`` and ``bench_static_tier.py`` have written
``BENCH_engine.json`` / ``BENCH_scheduler.json`` / ``BENCH_dispatch.json``
/ ``BENCH_async.json`` / ``BENCH_speculation.json`` /
``BENCH_cascade.json`` / ``BENCH_corpus_stream.json`` / ``BENCH_chaos.json`` /
``BENCH_static_tier.json`` to the repo root::

    python benchmarks/check_bench_regression.py

Exits non-zero (failing the CI job) when any measured number falls below
its floor in ``benchmarks/baselines/BENCH_baseline.json``.  The floors are
deliberately conservative — CI machines are slower and noisier than dev
boxes — so a failure here means a real scheduling/executor regression, not
jitter.

Every invocation also appends one JSON line per run to
``benchmarks/BENCH_history.jsonl`` — the measured numbers, the floors they
were held to, and the verdict — so performance over time can be read
straight out of the repo checkout (CI uploads the file as an artifact).

On top of the static floors, the gate holds each metric to its own
**trailing trend**: a fresh measurement below ``p50_fraction`` (0.7×) of
the trailing-window median of previously *passing* runs fails the gate
even when it clears the static floor — catching slow driftic regressions
the conservative floors would let through.  The trailing p95 is printed
alongside for context.  With fewer than ``min_points`` (3) historical
points the trend check is warn-only, so fresh clones and newly added
benchmarks never fail on an empty history.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = Path(__file__).resolve().parent / "baselines" / "BENCH_baseline.json"
HISTORY_PATH = Path(__file__).resolve().parent / "BENCH_history.jsonl"

#: Trend gate tuning: how far below the trailing median a passing run may
#: fall, how many history points arm the gate, and how far back it looks.
TREND_P50_FRACTION = 0.7
TREND_MIN_POINTS = 3
TREND_WINDOW = 20


def _load(path: Path) -> dict:
    if not path.exists():
        sys.exit(f"missing {path.name}: run the benchmarks first")
    return json.loads(path.read_text(encoding="utf-8"))


def load_history(path: Path) -> List[dict]:
    """Parsed ``BENCH_history.jsonl`` records, oldest first.

    Corrupt lines (interrupted appends, merge damage) are skipped — the
    trend gate degrades to warn-only rather than crashing the CI job over
    a damaged history artifact.
    """
    if not path.exists():
        return []
    records: List[dict] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def _quantile(ordered: List[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted sample."""
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def evaluate_trends(
    measured: Dict[str, float],
    history: List[dict],
    *,
    min_points: int = TREND_MIN_POINTS,
    window: int = TREND_WINDOW,
    p50_fraction: float = TREND_P50_FRACTION,
) -> Tuple[List[str], bool]:
    """Hold each fresh measurement to its trailing-window history.

    For every metric label, collects that metric from the last ``window``
    *passing* history records (failed runs would drag the reference down
    and mask a real regression).  With at least ``min_points`` points the
    check is enforcing: a fresh value below ``p50_fraction`` × trailing
    p50 is a trend regression.  Below that many points it only reports.
    Returns the report lines and whether any metric failed.
    """
    lines: List[str] = []
    failed = False
    for label, value in measured.items():
        series: List[float] = []
        for record in history:
            if record.get("status") != "ok":
                continue
            results = record.get("results")
            if not isinstance(results, dict):
                continue
            point = results.get(label)
            if isinstance(point, (int, float)) and not isinstance(point, bool):
                series.append(float(point))
        series = series[-window:]
        if len(series) < min_points:
            lines.append(
                f"[bench-trend] {label}: {len(series)} historical point(s),"
                f" need {min_points} — warn-only"
            )
            continue
        ordered = sorted(series)
        p50 = _quantile(ordered, 0.50)
        p95 = _quantile(ordered, 0.95)
        threshold = p50 * p50_fraction
        if value < threshold:
            failed = True
            lines.append(
                f"[bench-trend] {label}: {value:g} < {p50_fraction:g}× trailing"
                f" p50 {p50:g} (n={len(series)}, p95 {p95:g}) TREND-REGRESSION"
            )
        else:
            lines.append(
                f"[bench-trend] {label}: {value:g} vs trailing p50 {p50:g}"
                f" / p95 {p95:g} (n={len(series)}) ok"
            )
    return lines, failed


def main() -> int:
    baseline = _load(BASELINE_PATH)
    engine = _load(REPO_ROOT / "BENCH_engine.json")
    scheduler = _load(REPO_ROOT / "BENCH_scheduler.json")
    dispatch = _load(REPO_ROOT / "BENCH_dispatch.json")
    async_io = _load(REPO_ROOT / "BENCH_async.json")
    speculation = _load(REPO_ROOT / "BENCH_speculation.json")
    cascade = _load(REPO_ROOT / "BENCH_cascade.json")
    corpus_stream = _load(REPO_ROOT / "BENCH_corpus_stream.json")
    chaos = _load(REPO_ROOT / "BENCH_chaos.json")
    static_tier = _load(REPO_ROOT / "BENCH_static_tier.json")

    checks = [
        (
            "engine thread-pool speedup vs serial",
            engine["speedup_thread_pool_vs_serial"],
            baseline["engine"]["min_speedup_thread_pool_vs_serial"],
        ),
        (
            "scheduler interleaved speedup vs sequential tables",
            scheduler["speedup_interleaved_vs_sequential"],
            baseline["scheduler"]["min_speedup_interleaved_vs_sequential"],
        ),
        (
            "scheduler interleaved throughput (req/s)",
            scheduler["interleaved_all_tables"]["requests_per_second"],
            baseline["scheduler"]["min_interleaved_requests_per_second"],
        ),
        (
            "dispatch LPT+adaptive speedup vs plan-order static chunks",
            dispatch["speedup_dynamic_lpt_vs_ordered"],
            baseline["dispatch"]["min_speedup_dynamic_lpt_vs_ordered"],
        ),
        (
            "async-native backend speedup vs thread backend",
            async_io["speedup_async_vs_thread"],
            baseline["async"]["min_speedup_async_vs_thread"],
        ),
        (
            "speculative p95 speedup vs non-speculative (tail-heavy adapter)",
            speculation["speedup_speculative_vs_off_p95"],
            baseline["speculation"]["min_speedup_speculative_vs_off_p95"],
        ),
        (
            "cascade end-to-end speedup vs LLM-only (remote backend)",
            cascade["speedup_cascade_vs_llm_only"],
            baseline["cascade"]["min_speedup_cascade_vs_llm_only"],
        ),
        (
            "cascade accuracy margin (1pt budget + gain, in points)",
            cascade["accuracy_margin_pts"],
            baseline["cascade"]["min_accuracy_margin_pts"],
        ),
        (
            "corpus-stream throughput ratio (stream vs materialised)",
            corpus_stream["throughput_ratio_stream_vs_materialised"],
            baseline["corpus_stream"]["min_throughput_ratio_stream_vs_materialised"],
        ),
        (
            "corpus-stream peak-RSS reduction (materialised vs stream)",
            corpus_stream["rss_reduction_materialised_vs_stream"],
            baseline["corpus_stream"]["min_rss_reduction_materialised_vs_stream"],
        ),
        (
            "chaos goodput ratio under 10% injected transient faults",
            chaos["goodput_ratio_vs_fault_free"],
            baseline["chaos"]["min_goodput_ratio_vs_fault_free"],
        ),
        (
            "chaos completed-run fraction (zero aborts)",
            chaos["completed_run_fraction"],
            baseline["chaos"]["min_completed_run_fraction"],
        ),
        (
            "static-tier recall on the full corpus",
            static_tier["recall"],
            baseline["static_tier"]["min_recall"],
        ),
        (
            "static-tier precision on the full corpus",
            static_tier["precision"],
            baseline["static_tier"]["min_precision"],
        ),
        (
            "static-tier analyzer throughput (records/s)",
            static_tier["records_per_second"],
            baseline["static_tier"]["min_records_per_second"],
        ),
    ]

    failed = False
    for label, measured, floor in checks:
        status = "ok" if measured >= floor else "REGRESSION"
        print(f"[bench-gate] {label}: {measured:g} (floor {floor:g}) {status}")
        if measured < floor:
            failed = True

    # Trend gate: reference history is read before this run is appended,
    # so a run never competes against itself.
    history = load_history(HISTORY_PATH)
    measured_by_label = {label: measured for label, measured, _ in checks}
    trend_lines, trend_failed = evaluate_trends(measured_by_label, history)
    for line in trend_lines:
        print(line)
    failed = failed or trend_failed

    record = {
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "status": "regression" if failed else "ok",
        "trend_failed": trend_failed,
        "results": measured_by_label,
        "floors": {label: floor for label, _, floor in checks},
    }
    with HISTORY_PATH.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"[bench-gate] appended run to {HISTORY_PATH.relative_to(REPO_ROOT)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
