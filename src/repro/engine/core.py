"""The execution engine: batched, cached, parallel model evaluation.

:class:`ExecutionEngine` is the single funnel every evaluation path uses to
call a language model.  Given a sequence of
:class:`~repro.engine.requests.DetectionRequest`, it

1. groups requests by (model instance, strategy, scoring mode) and splits
   each group into chunks — sized by ``batch_size``, optionally *adapted*
   per group by the cost model (smaller chunks for slow models, larger for
   fast/cached ones) and ordered longest-processing-time first (LPT) so
   expensive groups never become a straggler tail;
2. dispatches the chunks over the configured executor (serial, thread
   pool, process pool or async — see :mod:`repro.engine.executors`)
   through **one** completion-order loop (:meth:`_dispatch`) on the
   executor's ``submit_stream`` seam, merging each chunk the moment it
   completes.  On an **async-native** executor (``native_async``, the
   ``AsyncExecutor``) the chunk work item is a coroutine: model I/O is
   awaited on the event loop under the executor's ``jobs``-wide
   semaphore;
3. inside a chunk, runs **one** chunk body (:func:`_chunk_steps`): it
   renders the strategy's prompt phases via
   :func:`~repro.prompting.chains.strategy_batch_phases`, satisfies what it
   can from the response cache and hands only the misses to its driver —
   blocking ``generate_batch`` for the serial, thread and process
   executors, awaited ``generate_batch_async`` for the async one;
4. scores each response (:func:`~repro.engine.requests.score_response`) and
   writes each scored chunk straight into its slots of the result store, so
   completion order never leaks into output order.

Every chunk's elapsed time is fed back into the engine's
:class:`~repro.engine.costmodel.CostModel` and the per-(model, strategy)
telemetry groups, so a long-lived engine schedules its *next* run with
measured latencies.

Speculation, retries and circuit breakers are per-chunk decisions inside
the one dispatch loop, so they compose:

* **speculation** (``speculate=True``): a chunk running past
  ``speculate_after`` times the cost model's p95 estimate gets a duplicate
  copy in idle capacity (optionally on a cheaper fallback model) — the
  first completion wins, the loser is cancelled or its result dropped, and
  only the winner feeds results, cache and telemetry;
* **retries** (``retries=N``): a failed copy first defers to a live
  sibling; otherwise a retryable failure within budget re-enters the loop
  after a deterministic exponential backoff; otherwise the chunk gives up
  through its model's circuit breaker and surfaces explicit positional
  ``RunResult(failed=True)`` entries.  With ``retries=0`` the first error
  propagates after outstanding work is cancelled (fail-fast);
* **breakers** (see :mod:`repro.engine.faults`): per-model breakers open
  after consecutive given-up chunks and route affected chunks to the
  cascade's next-cheaper tier (when a
  :class:`~repro.engine.cascade.CascadePolicy` is configured) or fail them
  without a model call.

With ``deadline=SECONDS`` the planner (:meth:`_plan_deadline`) sheds the
lowest-value chunks when the predicted makespan exceeds the budget; shed
requests surface as explicit ``skipped`` results, never silently.  A
``journal`` checkpoint lets an interrupted run resume skipping
already-completed work.

For *distributed* executors (``executor.distributed`` is true, e.g. the
process pool) the work item crossing the boundary must be picklable, so the
engine ships self-contained ``(chunk, snapshot_ref)`` payloads to the
module-level :func:`_score_chunk_payload` worker (the same chunk body over
snapshot-backed cache get/put), then merges the returned
entry deltas and telemetry back in the parent.  The cache snapshot is
**broadcast once per run** through :mod:`repro.engine.snapshot`: the parent
encodes it once — by default into a shared-memory block workers attach
read-only and binary-search in place, with a pickle-temp-file fallback —
and every payload carries only the small ``(kind, locator, token)``
reference, memoised per worker per run.

Because scoring preserves request order and the simulated models are
deterministic functions of (model, strategy, code), the engine's output is
bit-identical across executors, chunk orders and sizings, speculation,
retried faults and cache states — the engine changes *how* the calls run,
never *what* they return.  (With a non-deterministic model the cache pins
the first response per prompt.)
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import statistics
import time
from collections import OrderedDict, deque
from typing import (
    Callable,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.engine.cache import ResponseCache, cache_key
from repro.engine.cascade import CascadePolicy, CascadeRouter
from repro.engine.costmodel import CostModel
from repro.engine.executors import create_executor
from repro.engine.faults import (
    DEFAULT_BREAKER_COOLDOWN_S,
    DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_RETRY_BASE_MS,
    BreakerBoard,
    MalformedResponseError,
    RetryPolicy,
    RunJournal,
    chunk_journal_key,
    is_retryable,
    request_key,
)
from repro.engine.requests import (
    DetectionRequest,
    RunResult,
    RunResultStore,
    failed_result,
    score_response,
    shed_result,
)
from repro.engine.snapshot import (
    SnapshotPayloadRef,
    _WORKER_SNAPSHOTS as _worker_snapshot_memo,
    load_snapshot,
    publish_snapshot,
    retire_snapshot,
)
from repro.engine.telemetry import EngineTelemetry, process_rss_kb
from repro.prompting.chains import strategy_batch_phases

__all__ = [
    "DEFAULT_STREAM_WINDOW",
    "ExecutionEngine",
    "resolve_engine",
]

T = TypeVar("T")
R = TypeVar("R")

#: The quantile of a group's per-request latency distribution that a chunk
#: must overshoot (scaled by ``speculate_after``) before a duplicate copy is
#: launched — speculation keys on the *tail* of the distribution, so a
#: naturally noisy group needs a larger excursion than a steady one.
SPECULATION_QUANTILE = 0.95

#: How often the dispatch loop re-checks in-flight chunks against their
#: speculation thresholds and the backoff heap for matured retries
#: (seconds).  Engine attribute ``speculation_poll_s`` overrides it per
#: instance (benchmarks/tests tighten it).
DEFAULT_SPECULATION_POLL_S = 0.01

#: Default window size (requests resident at once) for
#: :meth:`ExecutionEngine.run_streaming` — large enough that chunking, LPT
#: ordering and adaptive sizing see a representative population, small
#: enough that peak RSS stays O(window) on million-record corpora.
DEFAULT_STREAM_WINDOW = 2048

_IndexedRequest = Tuple[int, DetectionRequest]

#: What executing one chunk produces in-process: the scored results plus
#: hit/miss/model-call counters and the chunk's wall time.
_ChunkOutcome = Tuple[List[Tuple[int, RunResult]], Dict[str, int], float]

#: What a distributed chunk worker sends back: a chunk outcome plus the
#: cache entry delta the parent must merge.
_DistributedOutcome = Tuple[List[Tuple[int, RunResult]], Dict[str, str], Dict[str, int], float]

#: A published cache snapshot reference crossing the process boundary:
#: ``(kind, shm-name-or-path, unique broadcast token)``.
_SnapshotRef = SnapshotPayloadRef


def resolve_engine(engine: Optional["ExecutionEngine"]) -> "ExecutionEngine":
    """The caller's engine, or the default: a fresh serial, uncached one.

    The single definition of "no engine given" — every driver that accepts
    an optional ``engine`` funnels through here, so default semantics can
    never drift between the table drivers and the cross-validation loop.
    """
    return engine if engine is not None else ExecutionEngine()


def _identity(chunk: Sequence[_IndexedRequest]) -> str:
    """The cache identity of the model a chunk runs on."""
    model = chunk[0][1].model
    return getattr(model, "cache_identity", model.name)


def _rewrite(chunk: Sequence[_IndexedRequest], model) -> List[_IndexedRequest]:
    """The chunk's requests re-pointed at ``model`` (a reroute or fallback)."""
    return [(index, dataclasses.replace(request, model=model)) for index, request in chunk]


def _partition_cached(
    prompts: Sequence[str],
    get_response: Callable[[str], Optional[str]],
) -> Tuple[List[Optional[str]], List[int]]:
    """Split a prompt batch into cache hits and miss positions.

    Returns ``(responses, miss_positions)`` where ``responses`` holds the
    cached response per prompt (``None`` at every miss position).
    """
    responses: List[Optional[str]] = [None] * len(prompts)
    miss_positions: List[int] = []
    for position, prompt in enumerate(prompts):
        cached = get_response(prompt)
        if cached is not None:
            responses[position] = cached
        else:
            miss_positions.append(position)
    return responses, miss_positions


def _require_batch_length(
    responses: List[str], n_prompts: int, method: str = "generate_batch"
) -> List[str]:
    """Reject a wrong-length model batch before it is consumed.

    Zipping a short response list against miss positions silently
    truncates: the unfilled positions keep their ``None`` placeholder and
    score garbage downstream.  Both chunk drivers pass every
    ``generate_batch``/``generate_batch_async`` result through this guard,
    so a misbehaving adapter fails loudly at the wire instead.
    """
    if len(responses) != n_prompts:
        raise MalformedResponseError(
            f"{method} returned {len(responses)} responses for {n_prompts} prompts"
        )
    return responses


def _chunk_steps(
    chunk: Sequence[_IndexedRequest],
    get_response: Optional[Callable[[str], Optional[str]]],
    put_response: Optional[Callable[[str, str], None]],
) -> Generator[List[str], List[str], Tuple[List[Tuple[int, RunResult]], Dict[str, int]]]:
    """The one chunk body, as a step function that does no I/O itself.

    Builds the strategy's prompt phases (one, or AP2's two), splits each
    phase into cache hits and misses, yields the miss prompts and receives
    their responses, stores the fresh entries and finally scores the
    chunk.  Returns ``(scored, counters)`` with ``counters`` holding
    ``hits``/``misses`` (cache lookups), ``calls`` (prompts sent to the
    model) and ``wire`` (one per yielded batch).  ``get_response`` and
    ``put_response`` are ``None`` when caching is off: every prompt then
    goes to the model and no lookup is counted.

    The drivers own the wire: :func:`_drive_chunk` calls
    ``generate_batch`` (serial and thread executors, and the process
    worker with snapshot-backed get/put) and
    :meth:`ExecutionEngine._await_chunk` awaits ``generate_batch_async``
    (the async executor), so cache and scoring semantics cannot drift
    between executors.
    """
    counters = {"hits": 0, "misses": 0, "calls": 0, "wire": 0}
    phases = strategy_batch_phases(chunk[0][1].strategy, [r.code for _, r in chunk])
    prompts = next(phases)
    while True:
        if get_response is None:
            responses: List[Optional[str]] = [None] * len(prompts)
            miss_positions = list(range(len(prompts)))
        else:
            responses, miss_positions = _partition_cached(prompts, get_response)
            counters["hits"] += len(prompts) - len(miss_positions)
            counters["misses"] += len(miss_positions)
        if miss_positions:
            generated = yield [prompts[i] for i in miss_positions]
            counters["calls"] += len(miss_positions)
            counters["wire"] += 1
            for position, response in zip(miss_positions, generated):
                responses[position] = response
                if put_response is not None:
                    put_response(prompts[position], response)
        try:
            prompts = phases.send(responses)  # type: ignore[arg-type]
        except StopIteration as done:
            final = done.value
            break
    scored = [
        (index, score_response(request, response))
        for (index, request), response in zip(chunk, final)
    ]
    return scored, counters


def _drive_chunk(
    chunk: Sequence[_IndexedRequest],
    get_response: Optional[Callable[[str], Optional[str]]] = None,
    put_response: Optional[Callable[[str, str], None]] = None,
) -> _ChunkOutcome:
    """Run :func:`_chunk_steps` with blocking ``generate_batch`` calls."""
    start = time.perf_counter()
    model = chunk[0][1].model
    steps = _chunk_steps(chunk, get_response, put_response)
    try:
        prompts = next(steps)
        while True:
            responses = list(model.generate_batch(prompts))
            prompts = steps.send(_require_batch_length(responses, len(prompts)))
    except StopIteration as done:
        scored, counters = done.value
    return scored, counters, time.perf_counter() - start


# ---------------------------------------------------------------------------
# broadcast-once cache shipping (the process-backend hot path)
# ---------------------------------------------------------------------------
#
# The mechanics live in :mod:`repro.engine.snapshot`: the parent publishes
# the warm cache once per run into a shared-memory block whose compact
# binary layout workers attach and binary-search *in place*, with a
# pickle temp file as the automatic fallback.
# These module-level aliases are the engine's seam (tests monkeypatch
# ``_publish_snapshot`` here) and keep ``_score_chunk_payload`` self-contained
# for pickling.

_publish_snapshot = publish_snapshot
_retire_snapshot = retire_snapshot
_load_published_snapshot = load_snapshot
#: Worker-side memo (same object as :data:`repro.engine.snapshot._WORKER_SNAPSHOTS`).
_WORKER_SNAPSHOTS = _worker_snapshot_memo


def _score_chunk_payload(
    payload: Tuple[Sequence[_IndexedRequest], Optional[_SnapshotRef]],
) -> _DistributedOutcome:
    """Score one chunk in a worker process (no shared state with the parent).

    ``payload`` is ``(chunk, snapshot_ref)`` where ``snapshot_ref`` points
    at the run's published read-only cache snapshot (or is ``None`` when
    caching is off).  The worker cannot mutate the parent cache, so it
    runs :func:`_drive_chunk` with get/put functions backed by the
    snapshot plus a local delta, and returns the entries it generated
    alongside the chunk's counters and wall time; the parent merges them
    as each chunk completes.  Chunks from the same run cannot see each
    other's fresh entries — with deterministic models that only costs
    duplicate calls, never changes a response.
    """
    chunk, snapshot_ref = payload
    cache_entries, loaded_kind = _load_published_snapshot(snapshot_ref)
    new_entries: Dict[str, str] = {}
    get_response = put_response = None
    if cache_entries is not None:
        identity = _identity(chunk)

        def get_response(prompt: str) -> Optional[str]:
            key = cache_key(identity, prompt)
            return cache_entries.get(key, new_entries.get(key))

        def put_response(prompt: str, response: str) -> None:
            new_entries[cache_key(identity, prompt)] = response

    # The driver times only the chunk's own work: the one-time snapshot
    # attach/load above must not be charged to this (model, strategy)
    # group's cost estimate, or the first chunk per worker would skew the
    # EWMA.
    scored, counters, elapsed = _drive_chunk(chunk, get_response, put_response)
    # First genuine shm attach in this worker for this run's token; the
    # parent folds it into telemetry's `shm_attach`.
    counters["attach"] = 1 if loaded_kind == "shm" else 0
    return scored, new_entries, counters, elapsed


class ExecutionEngine:
    """Runs batches of detection requests through an executor and a cache.

    Parameters
    ----------
    executor:
        An executor with ``submit(fn, item)`` and ``submit_stream(fn)``
        (chunk dispatch) plus order-preserving ``map(fn, items)``
        (:meth:`map`); defaults to
        :class:`~repro.engine.executors.SerialExecutor`.  Anything without
        ``submit``/``submit_stream`` is rejected with :class:`TypeError`.
    jobs:
        Shorthand: build the executor via
        :func:`~repro.engine.executors.create_executor` with this width.
    executor_kind:
        Backend name (``"serial"``, ``"thread"``, ``"process"``,
        ``"async"`` or anything registered); combines with ``jobs``.
        Mutually exclusive with ``executor``.
    cache:
        A :class:`~repro.engine.cache.ResponseCache`, or ``None`` to call
        the model for every request.
    batch_size:
        Baseline requests per chunk; one chunk is one executor work item
        and at most one ``generate_batch`` call per chain phase.  With
        ``adaptive_batching`` the cost model scales each group's actual
        chunk size around this baseline (within ``[batch_size / 4,
        batch_size * 4]``, never below 1).
    lpt:
        Dispatch chunks longest-processing-time first, using the cost
        model's estimates.  Groups never observed keep plan order.
    adaptive_batching:
        Let the cost model shrink chunk sizes for slow groups and grow
        them for fast ones.  Off: every chunk is exactly ``batch_size``.
    cost_model:
        A :class:`~repro.engine.costmodel.CostModel` to share/persist;
        defaults to a fresh in-memory one.  It is always fed with observed
        chunk latencies, even when ``lpt`` and ``adaptive_batching`` are
        off.
    speculate:
        Tail-latency control: watch in-flight
        chunks against the cost model's per-chunk quantile estimate and,
        when one overshoots its threshold while idle capacity exists,
        launch a duplicate copy — the first completion wins, the loser is
        cancelled (or its result dropped), and only the winner feeds the
        result store, cache, telemetry counters and cost model, so results
        stay bit-identical with speculation on or off.  Needs an executor
        with ``capacity > 1``; composes with ``retries``.
    speculate_after:
        Straggler threshold multiplier: a chunk becomes a speculation
        candidate once its elapsed time exceeds ``speculate_after`` times
        the cost model's ``SPECULATION_QUANTILE`` (p95) estimate for the
        whole chunk.  Larger values speculate later (less duplicated
        work); smaller values race sooner.
    deadline:
        Per-run latency budget in seconds.  When the cost model predicts
        the run's makespan exceeds it, the planner sheds the
        lowest-value chunks (highest seconds-per-request — the fewest
        scored requests per second of budget) until the prediction fits.
        Shed requests surface as explicit ``RunResult`` skips
        (``skipped=True``), never silently dropped, and telemetry records
        predicted vs. actual makespan.  ``None`` (default) disables the
        budget entirely.
    stream_window:
        Window size for :meth:`run_streaming`: at most this many requests
        are materialised, planned and in flight at once.  ``None`` keeps
        :data:`DEFAULT_STREAM_WINDOW`.  Has no effect on :meth:`run`.
    cascade:
        A :class:`~repro.engine.cascade.CascadePolicy` to route every
        batch through cheap detector tiers first, escalating only
        low-confidence or disagreeing verdicts to the request's own model
        (see :mod:`repro.engine.cascade`).  ``None`` (default) keeps the
        single-tier behaviour bit-identical to an engine without the
        parameter.
    speculate_fallback:
        Cross-backend speculation: a callable mapping a straggling chunk's
        model to a *cheaper fallback model* (usually
        ``CascadePolicy.fallback_model``).  When set and ``speculate`` is
        on, the duplicate copy of an overdue chunk runs on the fallback
        model instead of re-running the same backend; whichever verdict
        lands first is merged under the existing exactly-once rules.
        ``None`` (default) keeps duplicates same-backend — bit-identical
        responses, speculation on or off.
    retries:
        Per-chunk retry budget (default 0 = fail fast: the first chunk
        error propagates after outstanding work is cancelled).  With
        ``retries > 0`` a retryable failure (see
        :func:`~repro.engine.faults.is_retryable`) re-enters the dispatch
        loop after an exponential backoff with deterministic jitter
        instead of blocking a worker or cancelling unrelated chunks;
        exhausted retries surface as explicit ``RunResult(failed=True)``
        entries in position, so the run completes with partial results
        instead of aborting.  Composes with ``speculate``: a failed copy
        whose sibling is still running defers to it before any retry.
    retry_base_ms:
        First-retry backoff in milliseconds; doubles per attempt, scaled
        by a jitter factor seeded from the chunk identity (never the
        wall clock), so retried runs stay reproducible.
    breaker_threshold / breaker_cooldown_s:
        Per-model circuit breakers (active with ``retries > 0``, keyed on
        ``cache_identity``): after ``breaker_threshold``
        consecutive chunk failures on one model its breaker opens for
        ``breaker_cooldown_s`` seconds, then admits a single half-open
        probe.  While open, affected chunks route to the cascade's
        next-cheaper tier when a ``cascade`` policy is configured, else
        they fail explicitly without a model call.
    journal:
        Optional run-journal path (or a prebuilt
        :class:`~repro.engine.faults.RunJournal`): every completed
        chunk's outcomes are appended durably, and requests whose
        outcome is already journaled are answered from the journal
        without re-dispatching — an interrupted ``repro all`` resumes
        where it died.  ``None`` (default) disables checkpointing.
    """

    def __init__(
        self,
        *,
        executor=None,
        jobs: Optional[int] = None,
        executor_kind: Optional[str] = None,
        cache: Optional[ResponseCache] = None,
        batch_size: int = 32,
        telemetry: Optional[EngineTelemetry] = None,
        lpt: bool = True,
        adaptive_batching: bool = True,
        cost_model: Optional[CostModel] = None,
        speculate: bool = False,
        speculate_after: float = 1.5,
        deadline: Optional[float] = None,
        stream_window: Optional[int] = None,
        cascade: Optional[CascadePolicy] = None,
        speculate_fallback: Optional[Callable] = None,
        retries: int = 0,
        retry_base_ms: float = DEFAULT_RETRY_BASE_MS,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        breaker_cooldown_s: float = DEFAULT_BREAKER_COOLDOWN_S,
        journal=None,
    ) -> None:
        if executor is not None and (jobs is not None or executor_kind is not None):
            raise ValueError("pass either executor or jobs/executor_kind, not both")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if speculate_after <= 0:
            raise ValueError("speculate_after must be > 0")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be > 0 seconds or None")
        if stream_window is not None and stream_window < 1:
            raise ValueError("stream_window must be >= 1 or None")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if retry_base_ms <= 0:
            raise ValueError("retry_base_ms must be > 0")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if breaker_cooldown_s < 0:
            raise ValueError("breaker_cooldown_s must be >= 0")
        self.executor = (
            executor
            if executor is not None
            else create_executor(jobs or 1, kind=executor_kind)
        )
        for method in ("submit", "submit_stream"):
            if not callable(getattr(self.executor, method, None)):
                raise TypeError(
                    f"executor {self.executor!r} has no {method}(); chunk dispatch "
                    "needs submit(fn, item) and submit_stream(fn)"
                )
        self.cache = cache
        self.batch_size = batch_size
        self.telemetry = telemetry or EngineTelemetry()
        self.lpt = lpt
        self.adaptive_batching = adaptive_batching
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.speculate = speculate
        self.speculate_after = speculate_after
        self.speculate_fallback = speculate_fallback
        self.cascade = cascade
        self.cascade_router = (
            CascadeRouter(cascade, telemetry=self.telemetry) if cascade is not None else None
        )
        self.retry_policy = RetryPolicy(retries=retries, base_ms=retry_base_ms)
        self.breakers = BreakerBoard(
            threshold=breaker_threshold, cooldown_s=breaker_cooldown_s
        )
        if journal is None or isinstance(journal, RunJournal):
            self.journal = journal
        else:
            self.journal = RunJournal(journal)
        self.deadline = deadline
        self.stream_window = stream_window if stream_window is not None else DEFAULT_STREAM_WINDOW
        #: Poll interval of the dispatch loop while speculation or a
        #: backoff is pending; tests and benchmarks tighten it to race
        #: short synthetic chunks.
        self.speculation_poll_s = DEFAULT_SPECULATION_POLL_S
        #: The deadline planner's post-shedding makespan prediction for the
        #: most recent run (0.0 when no deadline is set).
        self._predicted_makespan_s = 0.0
        #: Live/peak chunk coroutines; touched only on the executor's loop
        #: thread, so no lock is needed.
        self._inflight = 0
        self._inflight_peak = 0

    # -- the main entry point -------------------------------------------------------

    def run(self, requests: Iterable[DetectionRequest]) -> RunResultStore:
        """Execute every request; results come back in request order.

        With a ``deadline``, requests the planner shed to fit the budget
        come back as explicit ``skipped`` results in their original
        positions — the store always holds exactly one result per request.
        """
        indexed: List[_IndexedRequest] = list(enumerate(requests))
        start = time.perf_counter()
        results, shed = self._execute_indexed(indexed)
        elapsed = time.perf_counter() - start
        self.telemetry.add(runs=1, wall_time_s=elapsed)
        self._record_deadline(elapsed, shed)
        return RunResultStore(results)

    def run_counts(self, requests: Iterable[DetectionRequest]):
        """Shorthand: execute and fold straight into confusion counts."""
        return self.run(requests).confusion()

    def run_streaming(self, requests: Iterable[DetectionRequest]) -> Iterator[RunResult]:
        """Execute a request *stream* in bounded windows, yielding results.

        At most ``stream_window`` requests are pulled from the iterator,
        planned and dispatched at a time, so peak residency is O(window) no
        matter how large the stream — the producer is never run ahead of
        consumption by more than one window.  Within each window the full
        machinery of :meth:`run` applies unchanged: (model, strategy)
        grouping, cost-model adaptive chunk sizing, LPT ordering,
        completion-order merge, speculation, retries and the response cache
        — and a ``deadline`` budgets each window independently.  Results are
        yielded in request order as each window drains; for the same
        requests the result sequence is element-identical to
        ``run(list(requests))`` (modulo per-window deadline shedding, which a
        whole-run budget cannot match window for window).

        Distributed executors re-broadcast the cache snapshot per window, so
        later windows see entries earlier windows populated.
        """
        iterator = iter(requests)
        start = time.perf_counter()
        try:
            while True:
                batch: List[_IndexedRequest] = list(
                    enumerate(itertools.islice(iterator, self.stream_window))
                )
                if not batch:
                    break
                window_start = time.perf_counter()
                results, shed = self._execute_indexed(batch)
                self._record_deadline(time.perf_counter() - window_start, shed)
                yield from results
        finally:
            # One wall-clock observation per streamed run, recorded even if
            # the consumer abandons the stream early.
            self.telemetry.add(runs=1, wall_time_s=time.perf_counter() - start)

    def _record_deadline(self, actual_s: float, shed: int) -> None:
        """One deadline-budgeted batch: budget, predicted vs actual, sheds."""
        if self.deadline is None:
            return
        self.telemetry.gauge(
            deadline_budget_s=self.deadline,
            deadline_predicted_s=self._predicted_makespan_s,
            deadline_actual_s=actual_s,
        )
        self.telemetry.add(deadline_shed=shed)

    def run_streaming_counts(self, requests: Iterable[DetectionRequest]):
        """Shorthand: stream-execute and fold into confusion counts.

        Nothing is buffered: each result is folded the moment its window
        drains, so this is the O(window)-memory counterpart of
        :meth:`run_counts`.
        """
        from repro.engine.requests import confusion_from_results

        return confusion_from_results(self.run_streaming(requests))

    def _execute_indexed(
        self, indexed: List[_IndexedRequest]
    ) -> Tuple[List[Optional[RunResult]], int]:
        """Plan and dispatch one materialised batch (a whole run or a window).

        Returns the results in request order plus the number of requests the
        deadline planner shed.  Shared by :meth:`run` (one batch = the whole
        run) and :meth:`run_streaming` (one batch per window).  With a
        cascade policy the batch routes down the tier ladder, each tier's
        sub-batch executing through :meth:`_execute_plain` — so streaming
        windows, LPT, speculation and the cache compose per tier unchanged.
        """
        if self.cascade_router is not None:
            return self.cascade_router.execute(indexed, self._execute_plain)
        return self._execute_plain(indexed)

    def _execute_plain(
        self, indexed: List[_IndexedRequest]
    ) -> Tuple[List[Optional[RunResult]], int]:
        """Single-tier plan/dispatch: journal-skip, chunk, shed, run, merge."""
        total = len(indexed)
        results: List[Optional[RunResult]] = [None] * total
        if self.journal is not None:
            indexed = self._journal_filter(indexed, results)
        chunks, shed = self._chunk(indexed)
        for index, request in shed:
            results[index] = shed_result(request)
        self._run_chunks(chunks, results)
        self.telemetry.add(requests=total)
        # RSS is sampled beside the resident count, so the two peaks show
        # how many requests were held at once and what holding them cost.
        self.telemetry.gauge(resident_requests_peak=total, peak_rss_kb=process_rss_kb())
        return results, len(shed)

    # -- generic parallel map (non-LLM work, e.g. the Inspector baseline) ----------

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Run ``fn`` over ``items`` on the engine's executor, with telemetry.

        With a distributed executor, ``fn`` and every item must be picklable
        (a module-level function or a method of a picklable instance).
        """
        items = list(items)
        start = time.perf_counter()
        mapped = self.executor.map(fn, items)
        self.telemetry.add(
            requests=len(items), runs=1, wall_time_s=time.perf_counter() - start
        )
        return mapped

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        """Release the executor's pool/loop (idempotent).

        The cache and cost model are left untouched — persistence stays an
        explicit decision (:meth:`ResponseCache.save` /
        :meth:`CostModel.save` / the pipeline's ``save_cache``).
        """
        close = getattr(self.executor, "close", None)
        if callable(close):
            close()

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ------------------------------------------------------------------

    def _capacity(self) -> int:
        """How many chunks the executor genuinely runs at once."""
        return max(
            1, int(getattr(self.executor, "capacity", getattr(self.executor, "jobs", 1)))
        )

    def _chunk(
        self, indexed: Sequence[_IndexedRequest]
    ) -> Tuple[List[List[_IndexedRequest]], List[_IndexedRequest]]:
        """Group, size, budget and order the work items for this run.

        1. group requests by (model, strategy, scoring) in plan order;
        2. size each group's chunks — ``batch_size``, or scaled by the cost
           model's per-request estimate relative to the median group so
           slow groups split finer and fast groups batch coarser;
        3. with a ``deadline``, shed the lowest-value chunks until the
           predicted makespan fits the budget (shed requests are returned,
           not dropped);
        4. order the chunks LPT (estimated chunk seconds, descending).
           Stable sort: without estimates the run keeps plan order exactly,
           so a cold engine behaves like the pre-cost-model engine.

        Returns ``(chunks, shed_requests)``.
        """
        groups: "OrderedDict[Tuple[int, str, str], List[_IndexedRequest]]" = OrderedDict()
        for index, request in indexed:
            key = (id(request.model), request.strategy.value, request.scoring)
            groups.setdefault(key, []).append((index, request))

        estimates: Dict[Tuple[int, str, str], Optional[float]] = {}
        for key, group in groups.items():
            model = group[0][1].model
            identity = getattr(model, "cache_identity", model.name)
            strategy_name = group[0][1].strategy.value
            # Cold-start fix for non-LLM tiers: a model advertising
            # cost_prior_s (the cascade's analyzer/inspector adapters)
            # prices as cheap-but-unknown instead of returning None and
            # blocking LPT ordering for the whole plan.  Observations
            # always shadow the prior (planning_estimate), and the prior
            # never feeds quantile_estimate — no speculation on groups
            # whose spread was never measured.
            prior = getattr(model, "cost_prior_s", None)
            if prior is not None:
                self.cost_model.set_prior(identity, strategy_name, prior)
            estimates[key] = self.cost_model.planning_estimate(identity, strategy_name)
        known = [cost for cost in estimates.values() if cost is not None and cost > 0]
        median_cost = statistics.median(known) if known else None

        chunks: List[List[_IndexedRequest]] = []
        chunk_costs: List[float] = []
        for key, group in groups.items():
            cost = estimates[key]
            size = self.batch_size
            if (
                self.adaptive_batching
                and cost is not None
                and cost > 0
                and median_cost is not None
            ):
                scaled = int(round(self.batch_size * median_cost / cost))
                size = max(1, max(self.batch_size // 4, min(self.batch_size * 4, scaled)))
            per_request = cost if cost is not None else (median_cost or 0.0)
            for start in range(0, len(group), size):
                chunk = group[start : start + size]
                chunks.append(chunk)
                chunk_costs.append(per_request * len(chunk))
        shed: List[_IndexedRequest] = []
        if self.deadline is not None:
            chunks, chunk_costs, shed = self._plan_deadline(chunks, chunk_costs)
        if self.lpt and known:
            order = sorted(range(len(chunks)), key=lambda i: -chunk_costs[i])
            chunks = [chunks[i] for i in order]
        return chunks, shed

    def _plan_deadline(
        self,
        chunks: List[List[_IndexedRequest]],
        chunk_costs: List[float],
    ) -> Tuple[List[List[_IndexedRequest]], List[float], List[_IndexedRequest]]:
        """Shed the lowest-value chunks until the predicted makespan fits.

        The makespan prediction is the list-scheduling lower bound
        ``max(total_cost / capacity, longest_chunk)``.  While it exceeds
        the budget, chunks are shed highest seconds-per-request first —
        the *cheapest-value* work: a slow group delivers the fewest scored
        requests per second of budget, so shedding it buys the most time
        per lost answer.  Chunks with no cost estimate are never shed
        (there is no evidence against them, and a cold engine must behave
        exactly like one without a deadline).
        """
        capacity = self._capacity()

        def predicted(keep: Sequence[bool]) -> float:
            costs = [cost for cost, kept in zip(chunk_costs, keep) if kept and cost > 0]
            if not costs:
                return 0.0
            return max(sum(costs) / capacity, max(costs))

        keep = [True] * len(chunks)
        prediction = predicted(keep)
        if prediction > self.deadline:
            shed_order = sorted(
                (i for i in range(len(chunks)) if chunk_costs[i] > 0),
                key=lambda i: -(chunk_costs[i] / len(chunks[i])),
            )
            # A shed only sticks if it lowers the prediction: when the
            # longest chunk dominates the bound, shedding anything else
            # discards answers for zero makespan gain.  Multiple passes,
            # because removing the dominant chunk can flip the binding
            # bound to total/capacity, making earlier-skipped sheds
            # worthwhile after all.
            progressed = True
            while prediction > self.deadline and progressed:
                progressed = False
                for i in shed_order:
                    if not keep[i]:
                        continue
                    keep[i] = False
                    candidate = predicted(keep)
                    if candidate < prediction:
                        prediction = candidate
                        progressed = True
                        if prediction <= self.deadline:
                            break
                    else:
                        keep[i] = True
        self._predicted_makespan_s = prediction
        if all(keep):
            return chunks, chunk_costs, []
        shed = [request for i, chunk in enumerate(chunks) if not keep[i] for request in chunk]
        kept_chunks = [chunk for i, chunk in enumerate(chunks) if keep[i]]
        kept_costs = [cost for i, cost in enumerate(chunk_costs) if keep[i]]
        return kept_chunks, kept_costs, shed

    def _run_chunks(
        self,
        chunks: Sequence[Sequence[_IndexedRequest]],
        results: List[Optional[RunResult]],
    ) -> None:
        """Dispatch every chunk and merge each outcome the moment it lands.

        In-process executors run :meth:`_run_chunk` on the chunk itself —
        or, on an async-native executor, the coroutine
        :meth:`_await_chunk`, whose model I/O is awaited on the
        executor's loop under its ``jobs``-wide semaphore.  Distributed
        executors run the module-level :func:`_score_chunk_payload` on
        ``(chunk, snapshot_ref)``: the cache snapshot is published exactly
        once per run (a shared-memory block workers attach in place, or
        the temp-file fallback; see :mod:`repro.engine.snapshot`), fresh
        worker entries fold back into the parent cache, and the snapshot
        is retired when the run finishes — including on error; workers
        already attached keep their mapping alive, so retirement never
        races a merge.

        A ``None`` outcome is a chunk the fault layer gave up on: every
        request gets an explicit positional ``failed`` result and nothing
        feeds the cache, telemetry counters, cost model or journal —
        mirroring how deadline-shed work is handled.  Telemetry and cost
        attribution go to the chunk that actually ran (a breaker reroute or
        a fallback-model duplicate); the journal keys on the *original*
        requests so a resume finds them.
        """
        distributed = bool(getattr(self.executor, "distributed", False))
        async_native = not distributed and bool(
            getattr(self.executor, "native_async", False)
        )
        published = None
        if distributed:
            if self.cache is not None:
                published = _publish_snapshot(self.cache.snapshot_entries())
                self.telemetry.add(broadcast_publishes=1, broadcast_bytes=published.nbytes)
            snapshot_ref = published.payload if published is not None else None
            fn: Callable = _score_chunk_payload
            make_item: Callable = lambda chunk: (chunk, snapshot_ref)
        else:
            fn = self._await_chunk if async_native else self._run_chunk
            make_item = lambda chunk: chunk
            self._inflight_peak = 0  # peak is per run; telemetry keeps the max
        try:
            for chunk_index, outcome, executed in self._dispatch(fn, chunks, make_item):
                original = chunks[chunk_index]
                if outcome is None:
                    for index, request in original:
                        results[index] = failed_result(request)
                    self.telemetry.add(failed_requests=len(original))
                    continue
                if distributed:
                    scored, new_entries, counters, elapsed = outcome
                    self._merge_worker_entries(executed, new_entries)
                else:
                    scored, counters, elapsed = outcome
                for index, result in scored:
                    results[index] = result
                self._record_chunk(executed, counters, elapsed)
                self._journal_record(original, scored)
        finally:
            _retire_snapshot(published)
        if async_native:
            self.telemetry.gauge(async_inflight_peak=self._inflight_peak)

    def _dispatch(
        self,
        fn: Callable,
        chunks: Sequence[Sequence[_IndexedRequest]],
        make_item: Callable,
    ) -> Iterator[Tuple[int, Optional[object], Sequence[_IndexedRequest]]]:
        """The one completion-order dispatch loop.

        Yields ``(chunk_index, outcome, executed_chunk)`` as chunks settle:
        ``outcome`` is the work item's result, or ``None`` when the fault
        layer gave up; ``executed_chunk`` is the chunk that actually ran
        (the original, a breaker reroute onto a cheaper cascade tier, or a
        fallback-model duplicate).  Work goes through the executor's
        ``submit_stream``, so one copy's failure never cancels unrelated
        work, and every settled copy is decided on its own:

        * speculation — once nothing is queued, a running chunk past its
          threshold (:meth:`_chunk_threshold_s`) gets one duplicate in an
          idle slot;
        * success — the first copy of a chunk to succeed is merged exactly
          once; its siblings are cancelled, or their results dropped when
          they already run on a thread/process worker, so the cache,
          telemetry and cost model are never double-fed;
        * failure — a copy whose sibling is still running defers to it;
          otherwise a retryable error within the retry budget goes to the
          backoff heap (held here, never slept in a worker, so a retrying
          chunk costs no executor capacity until it is due); otherwise,
          with ``retries > 0``, the chunk gives up through its model's
          breaker; with ``retries == 0`` the error propagates and the
          ``finally`` cancels everything outstanding.

        Breakers observe successes and *final* failures only — a flake a
        retry then fixes is not evidence against a model, so whether a run
        degrades never depends on scheduling order.

        Submission is bounded at ``capacity`` when a chunk can be
        speculated (its group has a p95 estimate: every in-flight copy is
        then genuinely running, so its elapsed time is attributable and
        idle capacity is real), when retries are on (breakers gate each
        chunk as it is submitted, and a chunk that opens one must stop
        the work queued behind it), and when the executor runs one item
        at a time (the serial backend runs ``submit`` inline, so a
        fail-fast run stops at the failing chunk).  Otherwise every chunk
        is submitted up front to keep process and async pools fed.
        """
        stream = self.executor.submit_stream(fn)
        capacity = self._capacity()
        policy = self.retry_policy
        thresholds: List[Optional[float]] = [None] * len(chunks)
        if self.speculate and capacity > 1:
            thresholds = [self._chunk_threshold_s(chunk) for chunk in chunks]
        speculating = any(threshold is not None for threshold in thresholds)
        bounded = speculating or policy.enabled or capacity == 1
        bound = capacity if bounded else len(chunks)
        pending: deque = deque((index, 0) for index in range(len(chunks)))
        #: Backoff heap: (ready_at, chunk_index, attempt).
        delayed: List[Tuple[float, int, int]] = []
        #: chunk index -> its in-flight copies (original and duplicate).
        copies: Dict[int, list] = {}
        #: chunk index -> (start, attempt, executed chunk) of a running original.
        running: Dict[int, Tuple[float, int, Sequence[_IndexedRequest]]] = {}
        speculated: set = set()
        resolved: set = set()
        outstanding = len(chunks)

        def submit(index, attempt, chunk, duplicate=False, on_fallback=False) -> None:
            future = stream.submit(
                make_item(chunk), (index, attempt, chunk, duplicate, on_fallback)
            )
            copies.setdefault(index, []).append(future)

        try:
            while outstanding:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, index, attempt = heapq.heappop(delayed)
                    pending.append((index, attempt))
                while pending and stream.inflight < bound:
                    index, attempt = pending.popleft()
                    routed = chunks[index]
                    if policy.enabled:
                        routed = self._breaker_route(routed)
                    if routed is None:
                        self.telemetry.add(breaker_short_circuits=1)
                        resolved.add(index)
                        outstanding -= 1
                        yield index, None, chunks[index]
                        continue
                    submit(index, attempt, routed)
                    running[index] = (time.perf_counter(), attempt, routed)
                if not stream.inflight:
                    if delayed:
                        # Nothing runs until the next backoff matures.
                        time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                    continue
                timeout = self.speculation_poll_s if speculating or delayed else None
                for tag, future in stream.wait(timeout):
                    index, attempt, executed, duplicate, on_fallback = tag
                    if index in resolved:
                        # The losing copy of a race that already resolved.
                        if duplicate:
                            self.telemetry.add(speculation_wasted=1)
                        continue
                    copies[index].remove(future)
                    error = future.exception()
                    if not duplicate or error is None:
                        running.pop(index, None)
                    if error is None:
                        resolved.add(index)
                        outstanding -= 1
                        for sibling in copies.pop(index):
                            sibling.cancel()
                        if policy.enabled:
                            self.breakers.breaker(_identity(executed)).record_success()
                        if duplicate:
                            self.telemetry.add(
                                speculation_won=1,
                                speculation_fallback_won=1 if on_fallback else 0,
                            )
                        yield index, future.result(), executed
                        continue
                    if copies[index]:
                        # A sibling is still running: let it decide the
                        # chunk, or speculation would *add* a failure mode
                        # on exactly the flaky backends it exists for.
                        if duplicate:
                            self.telemetry.add(speculation_wasted=1)
                        continue
                    if policy.allows(attempt) and is_retryable(error):
                        self.telemetry.add(retries=1)
                        delay = policy.delay_s(
                            attempt, key=f"{_identity(executed)}|{index}"
                        )
                        heapq.heappush(
                            delayed, (time.monotonic() + delay, index, attempt + 1)
                        )
                        continue
                    if not policy.enabled:
                        raise error
                    opened = self.breakers.breaker(_identity(executed)).record_failure()
                    self.telemetry.add(breaker_opens=int(opened), retry_giveups=1)
                    resolved.add(index)
                    outstanding -= 1
                    yield index, None, executed
                idle = capacity - stream.inflight
                if not speculating or pending or idle <= 0:
                    # Freed slots belong to queued originals first; a
                    # duplicate jumping the queue would push first-copy
                    # work *behind* re-executed work.
                    continue
                now = time.perf_counter()
                overdue: List[Tuple[float, int]] = []
                for index, (start, _attempt, _chunk) in running.items():
                    threshold = thresholds[index]
                    if threshold is not None and index not in speculated:
                        elapsed = now - start
                        if elapsed > threshold:
                            overdue.append((elapsed / threshold, index))
                # Most overdue first: the worst straggler gets the first
                # idle slot.  One duplicate per chunk, ever; with a
                # ``speculate_fallback`` mapping it races a cheaper model.
                overdue.sort(reverse=True)
                for _, index in overdue[:idle]:
                    _start, attempt, chunk = running[index]
                    fallback_model = None
                    if self.speculate_fallback is not None:
                        fallback_model = self.speculate_fallback(chunk[0][1].model)
                    on_fallback = fallback_model is not None
                    if on_fallback:
                        chunk = _rewrite(chunk, fallback_model)
                    submit(index, attempt, chunk, True, on_fallback)
                    speculated.add(index)
                    self.telemetry.add(
                        speculation_launched=1,
                        speculation_fallback_launched=1 if on_fallback else 0,
                    )
        finally:
            for index, _attempt, _chunk, duplicate, _fallback in stream.close():
                if duplicate and index in resolved:
                    # A duplicate abandoned because its original won.
                    self.telemetry.add(speculation_wasted=1)

    def _chunk_threshold_s(self, chunk: Sequence[_IndexedRequest]) -> Optional[float]:
        """Elapsed seconds after which ``chunk`` counts as a straggler.

        ``speculate_after`` times the cost model's p95 per-request estimate
        for the chunk's group, scaled by the chunk length.  ``None`` when
        the group has never been observed — with no evidence of what
        "normal" looks like, a chunk can never be declared overdue.
        """
        quantile = self.cost_model.quantile_estimate(
            _identity(chunk), chunk[0][1].strategy.value, SPECULATION_QUANTILE
        )
        if quantile is None or quantile <= 0:
            return None
        return self.speculate_after * quantile * len(chunk)

    def _merge_worker_entries(
        self, chunk: Sequence[_IndexedRequest], new_entries: Dict[str, str]
    ) -> None:
        """Fold a distributed worker's fresh cache entries into the parent."""
        if self.cache is None or not new_entries:
            return
        identity = _identity(chunk)
        for key, response in new_entries.items():
            self.cache.put_key(key, response, identity=identity)

    def _breaker_route(
        self, chunk: Sequence[_IndexedRequest]
    ) -> Optional[Sequence[_IndexedRequest]]:
        """Gate one chunk through its model's circuit breaker.

        Closed (or half-open admitting this probe): the chunk runs as-is.
        Open: walk down the cascade ladder (when a policy is configured)
        to the next-cheaper tier whose breaker admits the work and rewrite
        the requests onto that model.  ``None`` when every candidate is
        open or there is no ladder — the caller surfaces explicit failed
        results without a model call.
        """
        model = chunk[0][1].model
        current = model
        seen = set()
        while True:
            identity = getattr(current, "cache_identity", current.name)
            if identity in seen:  # ladder cycle guard
                return None
            seen.add(identity)
            if self.breakers.breaker(identity).allow():
                if current is model:
                    return chunk
                self.telemetry.add(breaker_reroutes=1)
                return _rewrite(chunk, current)
            if self.cascade is None:
                return None
            current = self.cascade.fallback_model(current)
            if current is None:
                return None

    def _journal_key(self, request: DetectionRequest) -> str:
        model = request.model
        identity = getattr(model, "cache_identity", model.name)
        return request_key(
            identity, request.strategy.value, request.scoring, request.record.name
        )

    def _journal_filter(
        self,
        indexed: List[_IndexedRequest],
        results: List[Optional[RunResult]],
    ) -> List[_IndexedRequest]:
        """Answer journaled requests in place; return the remaining work.

        A journaled response is *re-scored* through the same deterministic
        ``score_response`` path it originally took, so a resumed run's
        results are bit-identical to an uninterrupted one — without ever
        touching the model.  Journaled shed entries replay as skips;
        failures are never journaled, so a resume retries them.
        """
        remaining: List[_IndexedRequest] = []
        hits = 0
        for index, request in indexed:
            payload = self.journal.get(self._journal_key(request))
            result = None
            if payload is not None:
                if payload.get("skipped"):
                    result = shed_result(request)
                elif isinstance(payload.get("response"), str):
                    result = score_response(request, payload["response"])
            if result is not None:
                results[index] = result
                hits += 1
            else:
                remaining.append((index, request))
        if hits:
            self.telemetry.add(journal_hits=hits)
        return remaining

    def _journal_record(
        self,
        chunk: Sequence[_IndexedRequest],
        scored: Sequence[Tuple[int, RunResult]],
    ) -> None:
        """Durably append one completed chunk's outcomes to the journal.

        Keys are per-request content hashes over the *original* requests,
        so resume hits survive re-drawn chunk boundaries and
        breaker-rerouted execution alike.  Failed results are excluded —
        a resume should retry them, not replay the failure.
        """
        if self.journal is None or not scored:
            return
        by_index = {index: request for index, request in chunk}
        entries: Dict[str, Dict[str, object]] = {}
        for index, result in scored:
            request = by_index.get(index)
            if request is None or result.failed:
                continue
            entries[self._journal_key(request)] = {
                "record": request.record.name,
                "response": result.response,
                "skipped": result.skipped,
            }
        if not entries:
            return
        self.journal.record(chunk_journal_key(sorted(entries)), entries)
        self.telemetry.add(journal_appends=1)

    def _record_chunk(
        self,
        chunk: Sequence[_IndexedRequest],
        counters: Dict[str, int],
        elapsed: float,
    ) -> None:
        """Fold one completed chunk into telemetry and the cost model."""
        request = chunk[0][1]
        model = request.model
        self.telemetry.add(
            model_calls=counters["calls"],
            wire_calls=counters["wire"],
            cache_hits=counters["hits"],
            cache_misses=counters["misses"],
            # Distributed chunks report their worker's first shm attach;
            # local chunks never set the key.
            shm_attach=counters.get("attach", 0),
        )
        self.telemetry.record_group(
            model.name,
            request.strategy.value,
            requests=len(chunk),
            seconds=elapsed,
            hits=counters["hits"],
            misses=counters["misses"],
            calls=counters["calls"],
        )
        self.cost_model.observe(_identity(chunk), request.strategy.value, elapsed / len(chunk))

    def _cache_io(
        self, chunk: Sequence[_IndexedRequest]
    ) -> Tuple[Optional[Callable[[str], Optional[str]]], Optional[Callable[[str, str], None]]]:
        """The engine cache's get/put for one chunk's model (``None`` pair uncached)."""
        cache = self.cache
        if cache is None:
            return None, None
        identity = _identity(chunk)
        return (
            lambda prompt: cache.get(identity, prompt),
            lambda prompt, response: cache.put(identity, prompt, response),
        )

    def _run_chunk(self, chunk: Sequence[_IndexedRequest]) -> _ChunkOutcome:
        """One serial/thread work item: a same-(model, strategy, scoring) chunk.

        Counters are collected locally and merged by the dispatching thread
        (:meth:`_record_chunk`), keeping worker threads off the telemetry
        lock and giving every chunk an attributable wall time.
        """
        return _drive_chunk(chunk, *self._cache_io(chunk))

    async def _await_chunk(self, chunk: Sequence[_IndexedRequest]) -> _ChunkOutcome:
        """One async work item: :func:`_chunk_steps` with awaited model I/O."""
        self._inflight += 1
        self._inflight_peak = max(self._inflight_peak, self._inflight)
        try:
            start = time.perf_counter()
            model = chunk[0][1].model
            steps = _chunk_steps(chunk, *self._cache_io(chunk))
            try:
                prompts = next(steps)
                while True:
                    responses = list(await model.generate_batch_async(prompts))
                    prompts = steps.send(
                        _require_batch_length(responses, len(prompts), "generate_batch_async")
                    )
            except StopIteration as done:
                scored, counters = done.value
            return scored, counters, time.perf_counter() - start
        finally:
            self._inflight -= 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cache = f"cache={len(self.cache)} entries" if self.cache is not None else "no cache"
        return (
            f"<ExecutionEngine executor={self.executor!r}"
            f" batch_size={self.batch_size} lpt={self.lpt} {cache}>"
        )
