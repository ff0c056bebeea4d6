"""Batched, cached, parallel execution of model evaluation work.

Every path that evaluates a language model over DRB-ML records — the
pipeline facade, the ``run_tableN`` experiment drivers, the fine-tuning
cross-validation and the benchmark harness — routes through this package
instead of looping over ``model.generate`` itself.

Module map
----------

``core``
    :class:`ExecutionEngine` — accepts batches of
    :class:`DetectionRequest`, chunks them per (model, strategy) with
    cost-model-driven sizes and LPT (longest-processing-time-first) order,
    dispatches the chunks through one completion-order loop on the
    executor's ``submit_stream`` — speculation, retry/backoff and circuit
    breakers are per-chunk decisions inside it, so they compose —
    satisfies repeats from the cache, and returns an order-preserving
    :class:`RunResultStore`.  Every executor runs the same chunk body — a
    step function that splits cache hits from misses, hands the misses to
    a blocking or awaiting driver, stores and scores.  Also offers a
    generic ``map`` for non-LLM work (the Inspector baseline).  For
    distributed executors it ships picklable chunk payloads to a
    module-level worker — the cache snapshot is broadcast once per run,
    not pickled per chunk — and merges cache/telemetry deltas back.
``cascade``
    :class:`CascadeRouter` / :class:`CascadePolicy` — the tiered detection
    cascade (``--cascade``): records are scored through an ordered ladder
    of cheap tiers (static analyzer, dynamic inspector, fast zoo models)
    and only low-confidence or disagreeing verdicts escalate to the
    request's own model, the implicit final tier.  Each tier's batch is
    re-emitted through the engine's plain executor, so every scheduling
    feature composes per tier.
``faults``
    The fault-tolerance plane: the error taxonomy
    (:class:`TransientModelError` / :class:`PermanentModelError` /
    :class:`MalformedResponseError` under :class:`ModelError`, with
    :func:`classify_error` mapping arbitrary exceptions into it),
    :class:`RetryPolicy` (exponential backoff with deterministic seeded
    jitter; ``--retries``), per-model
    :class:`CircuitBreaker` s in a :class:`BreakerBoard` keyed on
    ``cache_identity``, and the :class:`RunJournal` (``--journal``) — an
    append-only JSONL checkpoint of completed chunk outcomes an
    interrupted run resumes from without re-invoking models.
``costmodel``
    :class:`CostModel` — per-(model ``cache_identity``, strategy) EWMA of
    observed seconds-per-request, fed by chunk telemetry, driving LPT
    ordering and adaptive chunk sizing; optionally persisted as
    ``costmodel.json`` beside the response cache.  Tier adapters publish a
    ``cost_prior_s`` planning prior (:meth:`CostModel.set_prior`) so
    unobserved cheap tiers never block LPT ordering.
``requests``
    The request/result dataclasses and the *only* implementation of
    response scoring → confusion-count assembly (modes ``"detection"``,
    ``"pairs"``, ``"pairs-strict"``; see the module docstring).
``executors``
    The executor registry: :class:`SerialExecutor` (reference),
    :class:`ThreadPoolExecutor`, :class:`ProcessPoolExecutor` (shards
    CPU-bound work across processes) and :class:`AsyncExecutor` (a
    persistent asyncio loop — the seam for real async API adapters).  A
    backend implements two contracts — order-preserving ``map(fn, items)``
    and completion-order ``submit``/``submit_stream`` (incremental
    submission, settled futures drained as they finish) — plus
    ``close()``; register a factory with :func:`register_executor` to
    make it selectable via ``--executor``.
``scheduler``
    The cross-table run scheduler: :class:`TablePlan` (a table's requests
    plus its reducer) and :func:`run_all_tables`, which interleaves every
    table's mixed-model request batches into **one** engine run so model
    latency overlaps across tables instead of serialising five drivers.
``cache``
    :class:`ResponseCache` — thread-safe LRU keyed on the content hash of
    ``(model.cache_identity, prompt)``, persisted as a directory of
    size-bounded append-only JSONL segments written atomically
    (``--cache`` on the CLI).  Entry-count *and* byte budgets
    (``max_bytes``) and lazy TTL expiry (``ttl_s``) share one victim rule:
    expired first, then the most reclaimed per cost-model
    second-to-regenerate (see :meth:`ResponseCache._select_victim_locked`).
    :meth:`ResponseCache.store_stats` scans a store without loading it
    (``repro cache stats``).
``snapshot``
    The zero-copy broadcast plane for distributed runs:
    :func:`publish_snapshot` encodes the warm cache once into a
    shared-memory block (length-prefixed binary layout; pickle-temp-file
    fallback), workers attach a :class:`SharedSnapshotView` and
    binary-search it in place instead of deserialising private copies.
``telemetry``
    :class:`EngineTelemetry` — one declared table of counters and gauges
    (:data:`~repro.engine.telemetry.METRICS`: requests, model calls,
    cache hits/misses, wall time, …) recorded through ``add``/``gauge``,
    with a one-line ``format_stats`` for the CLI and a ``snapshot`` dict
    for ``BENCH_engine.json``.

Guarantee: the engine is a pure execution refactor.  For the deterministic
simulated models, confusion counts are bit-identical across executors,
batch sizes, chunk order, speculation, retried faults, cache states and
scheduling (interleaved vs. per-table) —
enforced by ``tests/engine/test_equivalence`` and
``tests/engine/test_scheduler``.
"""

from repro.engine.cache import CacheStats, ResponseCache, cache_key
from repro.engine.cascade import (
    DEFAULT_CASCADE_TIERS,
    DEFAULT_ESCALATE_BELOW,
    CascadePolicy,
    CascadeRouter,
    CascadeTier,
    build_tier_model,
)
from repro.engine.core import (
    DEFAULT_STREAM_WINDOW,
    ExecutionEngine,
    resolve_engine,
)
from repro.engine.costmodel import CostModel
from repro.engine.faults import (
    DEFAULT_BREAKER_COOLDOWN_S,
    DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_RETRY_BASE_MS,
    BreakerBoard,
    CircuitBreaker,
    MalformedResponseError,
    ModelError,
    PermanentModelError,
    RetryPolicy,
    RunJournal,
    TransientModelError,
    classify_error,
    is_retryable,
)
from repro.engine.executors import (
    EXECUTOR_KINDS,
    AsyncExecutor,
    ProcessPoolExecutor,
    SerialExecutor,
    ThreadPoolExecutor,
    available_executors,
    create_executor,
    register_executor,
)
from repro.engine.requests import (
    FAILED_RESPONSE,
    SCORING_MODES,
    SHED_RESPONSE,
    DetectionRequest,
    RunResult,
    RunResultStore,
    build_requests,
    confusion_from_results,
    failed_result,
    iter_requests,
    response_confidence,
    score_response,
    shed_result,
)
from repro.engine.snapshot import (
    PublishedSnapshot,
    SharedSnapshotView,
    encode_snapshot,
    load_snapshot,
    publish_snapshot,
    retire_snapshot,
)
from repro.engine.scheduler import (
    DEFAULT_TABLES,
    TablePlan,
    collect_default_plans,
    results_fingerprint,
    run_all_tables,
    run_plans,
    run_plans_sequential,
    run_plans_streaming,
)
from repro.engine.telemetry import EngineTelemetry

__all__ = [
    "CacheStats",
    "ResponseCache",
    "cache_key",
    "DEFAULT_CASCADE_TIERS",
    "DEFAULT_ESCALATE_BELOW",
    "CascadePolicy",
    "CascadeRouter",
    "CascadeTier",
    "build_tier_model",
    "DEFAULT_STREAM_WINDOW",
    "ExecutionEngine",
    "resolve_engine",
    "CostModel",
    "DEFAULT_BREAKER_COOLDOWN_S",
    "DEFAULT_BREAKER_THRESHOLD",
    "DEFAULT_RETRY_BASE_MS",
    "BreakerBoard",
    "CircuitBreaker",
    "MalformedResponseError",
    "ModelError",
    "PermanentModelError",
    "RetryPolicy",
    "RunJournal",
    "TransientModelError",
    "classify_error",
    "is_retryable",
    "EXECUTOR_KINDS",
    "AsyncExecutor",
    "ProcessPoolExecutor",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "available_executors",
    "create_executor",
    "register_executor",
    "FAILED_RESPONSE",
    "SCORING_MODES",
    "SHED_RESPONSE",
    "DetectionRequest",
    "RunResult",
    "RunResultStore",
    "build_requests",
    "confusion_from_results",
    "failed_result",
    "iter_requests",
    "response_confidence",
    "score_response",
    "shed_result",
    "PublishedSnapshot",
    "SharedSnapshotView",
    "encode_snapshot",
    "load_snapshot",
    "publish_snapshot",
    "retire_snapshot",
    "DEFAULT_TABLES",
    "TablePlan",
    "collect_default_plans",
    "results_fingerprint",
    "run_all_tables",
    "run_plans",
    "run_plans_sequential",
    "run_plans_streaming",
    "EngineTelemetry",
]
