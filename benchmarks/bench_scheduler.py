"""Cross-table scheduler throughput — interleaved vs. sequential table runs.

The five table drivers used to execute one after another: each table's
final chunks leave most executor workers idle (a table with 4 chunks on a
16-wide pool wastes 12 slots for its whole wave), and the pool drains
completely between tables.  The scheduler concatenates every table's
requests into **one** engine run, so chunks from all tables fill the pool
at once.

The simulated models take *heterogeneous* per-call latencies
(``MODEL_LATENCY_S`` — a slow Llama, a fast GPT-3.5, models in between)
plus deterministic per-prompt jitter (``LATENCY_JITTER_S``), standing in
for the network round-trips that dominate real API calls; a uniform
latency would hide exactly the straggler effects the scheduler exists to
absorb.  The jitter is drawn from the prompt text, so both schedules sleep
identically for identical requests — the comparison stays apples to
apples.  The tables are shrunk so that each one alone cannot saturate the
pool — exactly the regime (few in-flight requests per table, many tables,
wildly uneven per-table cost) where cross-table interleaving pays.  Plans
are built outside the timed region, and each path gets freshly built
plans; their ``prepare`` step, which fine-tunes the cross-validation folds
(CPU work both paths share), runs inside it.
Code features come from the process-wide source memo, so the sequential
path, timed first, featurises the 12 sources (about 1 ms each) and the
interleaved path finds them memoised.  The Inspector baseline is
excluded: it is not model work.

Responses are unaffected by scheduling, so both paths must produce
identical table rows — and the interleaved run must be at least
``MIN_SPEEDUP`` times faster.  Writes ``BENCH_scheduler.json`` (repo root);
CI's ``check_bench_regression.py`` compares it against the committed
baseline.
"""

import json
import time
from pathlib import Path

from conftest import run_once

from repro.dataset.drbml import DRBMLDataset
from repro.engine import (
    ExecutionEngine,
    results_fingerprint,
    run_plans,
    run_plans_sequential,
)
from repro.eval.experiments import (
    plan_table2,
    plan_table3,
    plan_table4,
    plan_table5,
    plan_table6,
)
from repro.llm.zoo import create_model
from repro.prompting.strategy import PromptStrategy

#: Simulated per-call latency per model (cheap stand-ins for network time).
#: Distinct values per model: the slow Llama's chunks are the stragglers
#: the interleaved schedule has to absorb.
MODEL_LATENCY_S = {
    "gpt-3.5-turbo": 0.004,
    "gpt-4": 0.012,
    "starchat-beta": 0.008,
    "llama2-7b": 0.025,
}
#: Deterministic per-prompt jitter on top (same prompt -> same sleep).
LATENCY_JITTER_S = 0.004
N_RECORDS = 12
JOBS = 16
#: Two chunks per (model, strategy) group: no single table fills the pool.
BATCH_SIZE = 6
N_FOLDS = 2
#: The committed floor CI enforces (see benchmarks/baselines/).
MIN_SPEEDUP = 1.5

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_scheduler.json"


def _build_plans(records):
    """All five tables, shrunk and latency-simulated."""
    dataset = DRBMLDataset(records=list(records))

    def factory(name):
        return create_model(
            name, latency_s=MODEL_LATENCY_S[name], latency_jitter_s=LATENCY_JITTER_S
        )

    return [
        plan_table2(dataset, model_factory=factory),
        plan_table3(
            dataset,
            include_inspector=False,
            models=("gpt-4", "gpt-3.5-turbo"),
            strategies=(PromptStrategy.BP1, PromptStrategy.AP1),
            model_factory=factory,
        ),
        plan_table4(dataset, models=("starchat-beta",), n_folds=N_FOLDS, model_factory=factory),
        plan_table5(dataset, models=("gpt-4", "llama2-7b"), model_factory=factory),
        plan_table6(dataset, models=("llama2-7b",), n_folds=N_FOLDS, model_factory=factory),
    ]


def _measure(runner, plans):
    """Fresh engine per measurement; returns (results, seconds, telemetry)."""
    with ExecutionEngine(jobs=JOBS, batch_size=BATCH_SIZE) as engine:
        start = time.perf_counter()
        results = runner(plans, engine=engine)
        elapsed = time.perf_counter() - start
        return results, elapsed, engine.telemetry.snapshot()


def test_scheduler_interleaved_vs_sequential_tables(benchmark, subset):
    records = subset.records[:N_RECORDS]

    sequential_results, sequential_s, sequential_stats = _measure(
        run_plans_sequential, _build_plans(records)
    )
    interleaved_results, interleaved_s, interleaved_stats = run_once(
        benchmark, lambda: _measure(run_plans, _build_plans(records))
    )

    n_requests = interleaved_stats["requests"]
    speedup = sequential_s / interleaved_s
    payload = {
        "tables": sorted(interleaved_results),
        "records_per_table": len(records),
        "requests": n_requests,
        "jobs": JOBS,
        "batch_size": BATCH_SIZE,
        "simulated_latency_s": MODEL_LATENCY_S,
        "simulated_latency_jitter_s": LATENCY_JITTER_S,
        "sequential_tables": {
            "seconds": round(sequential_s, 4),
            "requests_per_second": round(n_requests / sequential_s, 2),
            "telemetry": sequential_stats,
        },
        "interleaved_all_tables": {
            "seconds": round(interleaved_s, 4),
            "requests_per_second": round(n_requests / interleaved_s, 2),
            "telemetry": interleaved_stats,
        },
        "speedup_interleaved_vs_sequential": round(speedup, 2),
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    print()
    print(
        f"scheduler: sequential tables {sequential_s * 1000:.0f}ms, "
        f"interleaved all-tables {interleaved_s * 1000:.0f}ms ({speedup:.1f}x)"
    )

    # Pure scheduling refactor: identical rows either way.
    assert results_fingerprint(interleaved_results) == results_fingerprint(sequential_results)
    assert interleaved_stats["runs"] == 1, "interleaving must be a single engine run"
    assert speedup >= MIN_SPEEDUP, (
        f"interleaved all-tables must be >= {MIN_SPEEDUP}x sequential, got {speedup:.2f}x"
    )
