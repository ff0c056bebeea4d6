"""Goodput under fault injection — the fault-tolerance plane's benchmark.

A long evaluation run against remote model APIs will see transient
failures: rate limits, dropped connections, the occasional malformed
batch.  Before the fault-tolerance plane, any one of them aborted the
whole run — goodput under faults was zero.  With ``--retries`` the
dispatcher backs failing chunks off and re-dispatches them, the executor
seam (:class:`~repro.engine.executors.SubmitStream`) guarantees one
chunk's failure cancels nothing else, and exhausted retries degrade to
explicit failed results instead of an exception.

This benchmark injects a deterministic 10% transient-fault rate (plus a
pinch of malformed batches) through
:class:`~repro.llm.adapters.ChaosAdapter` and gates on **goodput**: the
chaotic runs must score at least ``MIN_GOODPUT_RATIO`` of the records
the fault-free run scores, and *every* chaotic trial must complete —
zero aborted runs.  With the retry budget here recovery is actually
total (the chaos-equivalence tests pin bit-identical confusions), so the
measured ratio is 1.0 and the floor only absorbs future policy changes.
Writes ``BENCH_chaos.json`` (repo root); CI's
``check_bench_regression.py`` compares it against the committed floor.
"""

import json
import time
from pathlib import Path

from conftest import run_once

from repro.engine import ExecutionEngine, build_requests
from repro.llm.adapters import ChaosAdapter, reset_chaos_attempts
from repro.llm.zoo import create_model
from repro.prompting.strategy import PromptStrategy

#: Fraction of prompts scheduled to fail transiently on first attempt.
TRANSIENT_RATIO = 0.10
#: A pinch of wrong-length batches exercises the malformed-response path.
MALFORMED_RATIO = 0.02
#: Retry budget; thread workers share one attempt registry, so one retry
#: per scheduled failure would already suffice (pigeonhole bound).
RETRIES = 3
RETRY_BASE_MS = 1.0
JOBS = 8
BATCH_SIZE = 8
#: Chaotic trials; every one must complete without an abort.
TRIALS = 3
#: Asserted floor — equal to the committed baseline (benchmarks/baselines/),
#: so the regression gate stays the deciding check on noisy CI runners.
MIN_GOODPUT_RATIO = 0.95

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"


def _measure(records, *, chaos, salt="bench-chaos"):
    """One run: scored (non-failed) record count, wall time, telemetry."""
    model = create_model("gpt-4")
    if chaos:
        reset_chaos_attempts()
        model = ChaosAdapter(
            model,
            transient_ratio=TRANSIENT_RATIO,
            malformed_ratio=MALFORMED_RATIO,
            fail_attempts=1,
            salt=salt,
        )
    requests = build_requests(model, PromptStrategy.BP1, records)
    with ExecutionEngine(
        jobs=JOBS,
        executor_kind="thread",
        batch_size=BATCH_SIZE,
        retries=RETRIES,
        retry_base_ms=RETRY_BASE_MS,
    ) as engine:
        start = time.perf_counter()
        store = engine.run(requests)
        elapsed = time.perf_counter() - start
        stats = engine.telemetry.snapshot()
    scored = sum(1 for r in store.results if not r.failed)
    return scored, elapsed, stats


def test_goodput_under_injected_faults(benchmark, subset):
    records = subset.records

    clean_scored, clean_s, _ = _measure(records, chaos=False)
    assert clean_scored == len(records)

    trials = []
    aborted = 0

    def _chaotic_trials():
        nonlocal aborted
        for trial in range(TRIALS):
            try:
                scored, elapsed, stats = _measure(
                    records, chaos=True, salt=f"bench-chaos-{trial}"
                )
            except Exception:  # an abort is exactly what the plane must prevent
                aborted += 1
                continue
            trials.append(
                {
                    "scored": scored,
                    "seconds": round(elapsed, 4),
                    "retries": stats["retries"],
                    "giveups": stats["retry_giveups"],
                    "failed": stats["failed_requests"],
                }
            )

    run_once(benchmark, _chaotic_trials)

    completed_fraction = (TRIALS - aborted) / TRIALS
    goodput_ratio = (
        min(t["scored"] for t in trials) / clean_scored if trials else 0.0
    )
    payload = {
        "requests": len(records),
        "trials": TRIALS,
        "jobs": JOBS,
        "batch_size": BATCH_SIZE,
        "transient_ratio": TRANSIENT_RATIO,
        "malformed_ratio": MALFORMED_RATIO,
        "retries": RETRIES,
        "fault_free": {"scored": clean_scored, "seconds": round(clean_s, 4)},
        "chaotic_trials": trials,
        "aborted_runs": aborted,
        "completed_run_fraction": round(completed_fraction, 4),
        "goodput_ratio_vs_fault_free": round(goodput_ratio, 4),
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    print()
    total_retries = sum(t["retries"] for t in trials)
    print(
        f"chaos: goodput {goodput_ratio:.2f}x fault-free over {TRIALS} trials "
        f"({aborted} aborted) at {TRANSIENT_RATIO:.0%} transient + "
        f"{MALFORMED_RATIO:.0%} malformed faults; {total_retries} retries "
        f"(floor {MIN_GOODPUT_RATIO}x, zero aborts)"
    )

    assert aborted == 0, f"{aborted}/{TRIALS} chaotic runs aborted"
    assert goodput_ratio >= MIN_GOODPUT_RATIO, (
        f"goodput under {TRANSIENT_RATIO:.0%} transient faults must stay >= "
        f"{MIN_GOODPUT_RATIO}x the fault-free scored-record count, got "
        f"{goodput_ratio:.2f}x"
    )
