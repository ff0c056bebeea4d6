"""Async-native model I/O — event-loop awaits vs. thread-offloaded sync calls.

The paper's workload is hundreds of independent detection prompts fanned
out against remote LLM APIs: latency-bound I/O, the regime where threads
are the wrong concurrency primitive.  A thread backend overlaps at most
``--jobs`` blocking calls — inside one chunk, ``generate_batch`` walks its
prompts *serially*, so a chunk of B prompts against a 50 ms API costs
B x 50 ms of wall time no matter how many threads exist.  The async-native
path dispatches each chunk as a coroutine: ``generate_batch_async`` fans
the whole chunk out in one gather, and every latency overlaps on one event
loop.

This benchmark pins that difference at **equal ``--jobs``**: the same
requests against simulated 50 ms-latency adapters (deterministic per-prompt
jitter, so both backends execute identical sleeps), thread backend vs.
async backend.  Responses must be bit-identical — the async path is a pure
transport change — and the async backend must be at least ``MIN_SPEEDUP``
times faster.  Writes ``BENCH_async.json`` (repo root); CI's
``check_bench_regression.py`` compares it against the committed floor.
"""

import json
import time
from pathlib import Path

from conftest import run_once

from repro.engine import ExecutionEngine, build_requests
from repro.llm.zoo import create_model
from repro.prompting.strategy import PromptStrategy

#: Simulated per-call network latency — the paper's remote-API regime.
MODEL_LATENCY_S = 0.05
#: Deterministic per-prompt jitter (same prompt -> same sleep in each run).
LATENCY_JITTER_S = 0.01
N_RECORDS = 32
#: Equal on both backends: thread-pool width there, offload-pool width here.
JOBS = 4
BATCH_SIZE = 8
#: Asserted floor — equal to the committed baseline (benchmarks/baselines/),
#: like every other benchmark, so the regression gate stays the deciding
#: check on noisy CI runners.
MIN_SPEEDUP = 2.0
#: What the tentpole demands on a healthy machine (~5x measured); tracked
#: in the emitted payload, enforced as a floor only through MIN_SPEEDUP.
TARGET_SPEEDUP = 3.0

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_async.json"


def _build_requests(records):
    model = create_model(
        "gpt-4", latency_s=MODEL_LATENCY_S, latency_jitter_s=LATENCY_JITTER_S
    )
    return build_requests(model, PromptStrategy.BP1, records)


def _fingerprint(store):
    return [(r.model, r.strategy, r.record_name, r.response) for r in store]


def _measure(records, executor_kind):
    """Fresh engine and model per measurement; returns (fingerprint, s, stats)."""
    requests = _build_requests(records)
    with ExecutionEngine(
        jobs=JOBS, executor_kind=executor_kind, batch_size=BATCH_SIZE
    ) as engine:
        start = time.perf_counter()
        store = engine.run(requests)
        elapsed = time.perf_counter() - start
        return _fingerprint(store), elapsed, engine.telemetry.snapshot()


def test_async_native_vs_thread_backend(benchmark, subset):
    records = subset.records[:N_RECORDS]

    thread_results, thread_s, _ = _measure(records, "thread")
    async_results, async_s, async_stats = run_once(
        benchmark, lambda: _measure(records, "async")
    )

    n_requests = len(thread_results)
    speedup = thread_s / async_s
    payload = {
        "requests": n_requests,
        "jobs": JOBS,
        "batch_size": BATCH_SIZE,
        "simulated_latency_s": MODEL_LATENCY_S,
        "simulated_latency_jitter_s": LATENCY_JITTER_S,
        "thread_backend": {
            "seconds": round(thread_s, 4),
            "requests_per_second": round(n_requests / thread_s, 2),
        },
        "async_backend": {
            "seconds": round(async_s, 4),
            "requests_per_second": round(n_requests / async_s, 2),
            "inflight_peak": async_stats["async_inflight_peak"],
        },
        "speedup_async_vs_thread": round(speedup, 2),
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    print()
    print(
        f"async I/O: thread backend {thread_s * 1000:.0f}ms, "
        f"async-native {async_s * 1000:.0f}ms ({speedup:.1f}x) at jobs={JOBS} "
        f"(target {TARGET_SPEEDUP}x, floor {MIN_SPEEDUP}x)"
    )

    # Pure transport refactor: identical responses either way.
    assert async_results == thread_results
    assert speedup >= MIN_SPEEDUP, (
        f"async-native backend must be >= {MIN_SPEEDUP}x the thread backend "
        f"at equal jobs, got {speedup:.2f}x"
    )
