"""The fault-tolerant execution plane (PR 9).

What is pinned here:

* the **error taxonomy** and :func:`classify_error` — adapters raise
  typed failures, arbitrary exceptions map onto the taxonomy, and only
  :class:`PermanentModelError` is non-retryable;
* :class:`RetryPolicy` — exponential backoff whose jitter is a pure
  function of ``(key, attempt)``, so retried runs stay reproducible;
* :class:`CircuitBreaker` state transitions (closed → open → half-open
  → closed) driven by an injected clock, no sleeping;
* :class:`RunJournal` durability: atomic create, fsync'd appends, and
  damage-tolerant loads (truncated tails, garbage lines);
* the headline chaos guarantee: with ``retries`` enabled, a run under
  deterministic fault injection (:class:`ChaosAdapter`) is
  **bit-identical** to the fault-free run on every executor backend;
* graceful degradation: exhausted retries yield positional
  ``failed=True`` results (never an abort), open breakers short-circuit
  to failed results or reroute to the cascade's cheap tier;
* journal resume: a re-run with the same journal replays finished work
  without invoking the model at all;
* the executor seam the retry plane stands on — ``SubmitStream`` never
  cancels unrelated futures.
"""

import threading
import time

import pytest

from repro.engine import (
    CascadePolicy,
    CostModel,
    ExecutionEngine,
    build_requests,
    confusion_from_results,
)
from repro.engine.executors import create_executor
from repro.engine.faults import (
    BreakerBoard,
    CircuitBreaker,
    MalformedResponseError,
    ModelError,
    PermanentModelError,
    RetryPolicy,
    RunJournal,
    TransientModelError,
    chunk_journal_key,
    classify_error,
    is_retryable,
    request_key,
)
from repro.engine.requests import FAILED_RESPONSE
from repro.eval.experiments import default_subset
from repro.eval.metrics import ConfusionCounts
from repro.llm.adapters import ChaosAdapter, reset_chaos_attempts
from repro.llm.base import LanguageModel
from repro.llm.zoo import create_model
from repro.prompting.strategy import PromptStrategy


@pytest.fixture(scope="module")
def subset():
    return default_subset()


@pytest.fixture(scope="module")
def records(subset):
    return subset.records[:40]


@pytest.fixture(scope="module")
def clean_counts(records):
    """Fault-free reference confusion over the test slice."""
    requests = build_requests(
        create_model("gpt-4"), PromptStrategy.BP1, records, scoring="detection"
    )
    with ExecutionEngine(jobs=1) as engine:
        return engine.run_counts(requests)


# -- error taxonomy ---------------------------------------------------------------


class TestTaxonomy:
    def test_taxonomy_subclasses_runtime_error(self):
        # Pre-taxonomy call sites assert RuntimeError; the taxonomy must
        # keep satisfying them.
        for cls in (TransientModelError, PermanentModelError, MalformedResponseError):
            assert issubclass(cls, ModelError)
            assert issubclass(cls, RuntimeError)

    def test_classified_errors_pass_through(self):
        assert classify_error(PermanentModelError("401")) is PermanentModelError
        assert classify_error(MalformedResponseError("short")) is MalformedResponseError
        assert classify_error(TransientModelError("429")) is TransientModelError

    def test_network_errors_classify_transient(self):
        for exc in (ConnectionError("reset"), TimeoutError("slow"), OSError("io")):
            assert classify_error(exc) is TransientModelError

    def test_unknown_errors_default_transient(self):
        assert classify_error(ValueError("odd")) is TransientModelError

    def test_only_permanent_is_non_retryable(self):
        assert not is_retryable(PermanentModelError("bad key"))
        assert is_retryable(TransientModelError("429"))
        assert is_retryable(MalformedResponseError("short batch"))
        assert is_retryable(ConnectionError("reset"))
        assert is_retryable(ValueError("odd"))


# -- retry policy -----------------------------------------------------------------


class TestRetryPolicy:
    def test_disabled_by_default(self):
        policy = RetryPolicy()
        assert not policy.enabled
        assert not policy.allows(0)

    def test_allows_counts_attempts(self):
        policy = RetryPolicy(retries=2)
        assert policy.enabled
        assert policy.allows(0) and policy.allows(1)
        assert not policy.allows(2)

    def test_delay_is_deterministic(self):
        policy = RetryPolicy(retries=3, base_ms=50.0)
        assert policy.delay_s(1, "chunk-7") == policy.delay_s(1, "chunk-7")
        assert policy.delay_s(1, "chunk-7") != policy.delay_s(1, "chunk-8")
        assert policy.delay_s(0, "chunk-7") != policy.delay_s(1, "chunk-7")

    def test_delay_grows_exponentially_within_jitter_band(self):
        policy = RetryPolicy(retries=8, base_ms=50.0, max_ms=10**9)
        for attempt in range(6):
            backoff_s = 50.0 * (2.0 ** attempt) / 1000.0
            delay = policy.delay_s(attempt, "key")
            assert 0.5 * backoff_s <= delay < backoff_s

    def test_delay_caps_at_max_ms(self):
        policy = RetryPolicy(retries=32, base_ms=50.0, max_ms=200.0)
        assert policy.delay_s(30, "key") < 0.2


# -- circuit breakers -------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker("m", threshold=3, cooldown_s=10.0, clock=FakeClock())
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.state == "closed" and breaker.allow()
        assert breaker.record_failure() is True  # third consecutive: opens
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.open_events == 1

    def test_success_resets_the_failure_run(self):
        breaker = CircuitBreaker("m", threshold=2, cooldown_s=10.0, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # run broken by the success

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker("m", threshold=1, cooldown_s=10.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.allow()  # the half-open probe
        assert breaker.state == "half-open"
        assert not breaker.allow()  # a second caller waits on the probe

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker("m", threshold=1, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens_for_another_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker("m", threshold=1, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        assert breaker.record_failure() is True  # probe failed: re-open
        assert breaker.open_events == 2
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()  # next probe after the fresh cooldown

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            CircuitBreaker("m", threshold=0)

    def test_board_registers_one_breaker_per_identity(self):
        board = BreakerBoard(threshold=1, cooldown_s=10.0, clock=FakeClock())
        assert board.breaker("gpt-4") is board.breaker("gpt-4")
        assert board.breaker("gpt-4") is not board.breaker("bard")
        board.breaker("gpt-4").record_failure()
        board.breaker("bard").record_failure()
        assert board.open_events() == 2


# -- run journal ------------------------------------------------------------------


class TestRunJournal:
    def entries(self, *names):
        return {
            request_key("gpt-4", "bp1", "detection", name): {
                "response": f"yes ({name})",
            }
            for name in names
        }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.journal"
        journal = RunJournal(path)
        assert len(journal) == 0 and journal.appends == 0
        entries = self.entries("DRB001", "DRB002")
        journal.record(chunk_journal_key(sorted(entries)), entries)
        assert len(journal) == 2 and journal.appends == 1
        key = request_key("gpt-4", "bp1", "detection", "DRB001")
        assert key in journal
        assert journal.get(key)["response"] == "yes (DRB001)"
        # A fresh instance reloads the same state from disk.
        assert len(RunJournal(path)) == 2

    def test_missing_file_is_an_empty_journal(self, tmp_path):
        journal = RunJournal(tmp_path / "absent.journal")
        assert len(journal) == 0

    def test_truncated_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "run.journal"
        journal = RunJournal(path)
        journal.record("c1", self.entries("DRB001"))
        journal.record("c2", self.entries("DRB002"))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 12])  # crash mid-append
        assert len(RunJournal(path)) == 1

    def test_garbage_lines_are_skipped(self, tmp_path):
        path = tmp_path / "run.journal"
        journal = RunJournal(path)
        journal.record("c1", self.entries("DRB001"))
        with open(path, "ab") as handle:
            handle.write(b"not json at all\n")
            handle.write(b"123\n")
            handle.write(b'{"chunk": "c2", "entries": "not-a-dict"}\n')
        assert len(RunJournal(path)) == 1

    def test_empty_record_is_a_noop(self, tmp_path):
        path = tmp_path / "run.journal"
        journal = RunJournal(path)
        journal.record("c1", {})
        assert journal.appends == 0
        assert not path.exists()

    def test_keys_are_stable_and_distinct(self):
        assert request_key("m", "bp1", "detection", "r") == request_key(
            "m", "bp1", "detection", "r"
        )
        assert request_key("m", "bp1", "detection", "r1") != request_key(
            "m", "bp1", "detection", "r2"
        )
        assert chunk_journal_key(["a", "b"]) == chunk_journal_key(["a", "b"])
        assert chunk_journal_key(["a", "b"]) != chunk_journal_key(["a", "c"])


# -- chaos equivalence ------------------------------------------------------------

# Every backend runs model chunks in one process, which shares one chaos
# attempt registry, so ``retries >= fail_attempts`` suffices for recovery.
def _warm_cost_model(seconds_per_request: float = 1e-5) -> CostModel:
    cost_model = CostModel()
    for _ in range(3):
        cost_model.observe(create_model("gpt-4").cache_identity, "BP1", seconds_per_request)
    return cost_model


CHAOS_CONFIGS = [
    pytest.param(dict(jobs=1, batch_size=5), id="serial"),
    pytest.param(dict(jobs=3, batch_size=7), id="thread-pool"),
    # Speculation composes with retries.  The warmed estimate is far below
    # a chaotic chunk's real cost, so duplicates race failing and hanging
    # originals throughout the run.
    pytest.param(
        dict(jobs=3, batch_size=7, speculate=True, cost_model=_warm_cost_model()),
        id="thread-pool-speculate",
    ),
    pytest.param(dict(jobs=3, executor_kind="process", batch_size=8), id="process-pool"),
    pytest.param(dict(jobs=4, executor_kind="async", batch_size=5), id="async"),
]


class TestChaosEquivalence:
    @pytest.mark.parametrize("config", CHAOS_CONFIGS)
    def test_chaotic_run_is_bit_identical_to_fault_free(
        self, config, records, clean_counts, request
    ):
        reset_chaos_attempts()
        model = ChaosAdapter(
            create_model("gpt-4"),
            transient_ratio=0.2,
            malformed_ratio=0.1,
            hang_ratio=0.1,
            hang_s=0.001,
            fail_attempts=1,
            salt=f"equiv-{request.node.callspec.id}",
        )
        requests = build_requests(model, PromptStrategy.BP1, records, scoring="detection")
        with ExecutionEngine(retries=3, **config) as engine:
            counts = engine.run_counts(requests)
            snap = engine.telemetry.snapshot()
        assert counts.as_row() == clean_counts.as_row()
        assert snap["failed_requests"] == 0

    def test_zero_retries_keeps_the_fail_fast_contract(self, records):
        reset_chaos_attempts()
        model = ChaosAdapter(
            create_model("gpt-4"),
            transient_ratio=1.0,
            fail_attempts=1,
            salt="fail-fast",
        )
        requests = build_requests(model, PromptStrategy.BP1, records, scoring="detection")
        with ExecutionEngine(jobs=1, batch_size=8) as engine:
            with pytest.raises(TransientModelError):
                engine.run_counts(requests)


# -- graceful degradation ---------------------------------------------------------


class TestExhaustedRetries:
    def test_exhaustion_yields_positional_failed_results(self, records):
        reset_chaos_attempts()
        # Every prompt chaotic, schedule effectively never drains: retries
        # must exhaust and every request must come back failed-in-place.
        model = ChaosAdapter(
            create_model("gpt-4"),
            transient_ratio=1.0,
            fail_attempts=10**6,
            salt="exhaustion",
        )
        requests = build_requests(model, PromptStrategy.BP1, records, scoring="detection")
        with ExecutionEngine(
            jobs=2, batch_size=8, retries=2, retry_base_ms=1.0, breaker_threshold=10**6
        ) as engine:
            store = engine.run(requests)
            snap = engine.telemetry.snapshot()
        assert len(store.results) == len(records)
        assert [r.record_name for r in store.results] == [r.name for r in records]
        assert all(r.failed for r in store.results)
        assert all(r.response.startswith(FAILED_RESPONSE[:-1]) for r in store.results)
        assert all(r.prediction is False for r in store.results)
        # Failed results never contaminate the confusion counts.
        assert confusion_from_results(store.results).as_row() == ConfusionCounts().as_row()
        assert snap["failed_requests"] == len(records)
        assert snap["retry_giveups"] > 0
        assert snap["retries"] > 0


class PermanentlyDownModel(LanguageModel):
    """A backend whose credentials are bad: every call fails permanently."""

    def __init__(self):
        self.name = "permanently-down"
        self.context_window = 8192

    def generate(self, prompt: str) -> str:
        raise PermanentModelError("401 unauthorized")


class TestCircuitBreakerInTheEngine:
    def test_open_breaker_short_circuits_without_cascade(self, records):
        requests = build_requests(
            PermanentlyDownModel(), PromptStrategy.BP1, records[:12], scoring="detection"
        )
        with ExecutionEngine(
            jobs=2,
            batch_size=3,
            retries=1,
            retry_base_ms=1.0,
            breaker_threshold=1,
            breaker_cooldown_s=300.0,
        ) as engine:
            store = engine.run(requests)
            snap = engine.telemetry.snapshot()
        assert len(store.results) == 12
        assert all(r.failed for r in store.results)
        assert snap["breaker_opens"] >= 1
        assert snap["breaker_short_circuits"] >= 1
        assert snap["retries"] == 0  # permanent errors are never retried

    def test_open_breaker_reroutes_to_the_cascade_tier(self, records):
        requests = build_requests(
            PermanentlyDownModel(), PromptStrategy.BP1, records[:12], scoring="detection"
        )
        cascade = CascadePolicy.from_spec("static", escalate_below=1.0)
        with ExecutionEngine(
            jobs=2,
            batch_size=3,
            retries=1,
            retry_base_ms=1.0,
            breaker_threshold=1,
            breaker_cooldown_s=300.0,
            cascade=cascade,
        ) as engine:
            store = engine.run(requests)
            snap = engine.telemetry.snapshot()
        assert len(store.results) == 12
        assert snap["breaker_opens"] >= 1
        assert snap["breaker_reroutes"] >= 1
        # Rerouted chunks are answered by the static tier instead of
        # failing: strictly fewer failures than the no-cascade run.
        failed = [r for r in store.results if r.failed]
        assert len(failed) < 12


# -- journal resume ---------------------------------------------------------------


class PoisonedModel(LanguageModel):
    """Asserts the resume contract: any model call is a test failure."""

    def __init__(self, inner: LanguageModel):
        self.inner = inner
        self.name = inner.name
        self.context_window = inner.context_window

    @property
    def cache_identity(self) -> str:
        return self.inner.cache_identity

    def generate(self, prompt: str) -> str:
        raise AssertionError("model invoked during a fully-journaled resume")


class CountingModel(LanguageModel):
    def __init__(self, inner: LanguageModel):
        self.inner = inner
        self.name = inner.name
        self.context_window = inner.context_window
        self.calls = 0

    @property
    def cache_identity(self) -> str:
        return self.inner.cache_identity

    def generate(self, prompt: str) -> str:
        self.calls += 1
        return self.inner.generate(prompt)


class TestJournalResume:
    def first_run(self, path, records):
        requests = build_requests(
            create_model("gpt-4"), PromptStrategy.BP1, records, scoring="detection"
        )
        with ExecutionEngine(jobs=1, batch_size=5, journal=str(path)) as engine:
            store = engine.run(requests)
            snap = engine.telemetry.snapshot()
        return store, snap

    def test_resume_replays_without_model_calls(self, tmp_path, records):
        path = tmp_path / "run.journal"
        slice_ = records[:30]
        first_store, first_snap = self.first_run(path, slice_)
        assert first_snap["journal_appends"] > 0
        assert first_snap["journal_hits"] == 0

        poisoned = PoisonedModel(create_model("gpt-4"))
        requests = build_requests(poisoned, PromptStrategy.BP1, slice_, scoring="detection")
        with ExecutionEngine(jobs=1, batch_size=5, journal=str(path)) as engine:
            store = engine.run(requests)
            snap = engine.telemetry.snapshot()
        assert snap["journal_hits"] == 30
        assert [r.response for r in store.results] == [
            r.response for r in first_store.results
        ]
        assert [r.prediction for r in store.results] == [
            r.prediction for r in first_store.results
        ]

    def test_partial_journal_reinvokes_only_missing_work(self, tmp_path, records):
        path = tmp_path / "run.journal"
        slice_ = records[:30]
        first_store, _ = self.first_run(path, slice_)

        # Keep the header and the first half of the chunk lines — as if
        # the first run died mid-way.
        lines = path.read_bytes().splitlines(keepends=True)
        header, chunks = lines[0], lines[1:]
        kept = chunks[: len(chunks) // 2]
        path.write_bytes(b"".join([header] + kept))
        journaled = len(RunJournal(path))
        assert 0 < journaled < 30

        counting = CountingModel(create_model("gpt-4"))
        requests = build_requests(counting, PromptStrategy.BP1, slice_, scoring="detection")
        with ExecutionEngine(jobs=1, batch_size=5, journal=str(path)) as engine:
            store = engine.run(requests)
            snap = engine.telemetry.snapshot()
        assert snap["journal_hits"] == journaled
        assert counting.calls == 30 - journaled
        assert [r.response for r in store.results] == [
            r.response for r in first_store.results
        ]

    def test_skipped_entries_run_again(self, tmp_path, records):
        """A journal entry marked ``"skipped"`` (older versions wrote one
        for a request shed without asking the model) holds no answer: the
        resume runs that request again instead of replaying the sentinel."""
        path = tmp_path / "run.journal"
        slice_ = records[:10]
        reference = ExecutionEngine().run(
            build_requests(create_model("gpt-4"), PromptStrategy.BP1, slice_)
        )
        identity = create_model("gpt-4").cache_identity
        entries = {}
        for position, (record, result) in enumerate(zip(slice_, reference)):
            shed = position < 4
            entries[request_key(identity, PromptStrategy.BP1.value, "detection", record.name)] = {
                "record": record.name,
                "response": "[shed: deadline budget exceeded]" if shed else result.response,
                "skipped": shed,
            }
        RunJournal(path).record(chunk_journal_key(sorted(entries)), entries)

        counting = CountingModel(create_model("gpt-4"))
        requests = build_requests(counting, PromptStrategy.BP1, slice_)
        with ExecutionEngine(jobs=1, batch_size=5, journal=str(path)) as engine:
            store = engine.run(requests)
            snap = engine.telemetry.snapshot()
        assert counting.calls == 4
        assert snap["journal_hits"] == 6
        assert store.results == reference.results
        # The re-run answers are journaled without the old marker.
        resumed = RunJournal(path)
        for record in slice_[:4]:
            key = request_key(identity, PromptStrategy.BP1.value, "detection", record.name)
            assert "skipped" not in resumed.get(key)

    def test_failed_results_are_not_journaled(self, tmp_path, records):
        reset_chaos_attempts()
        path = tmp_path / "run.journal"
        slice_ = records[:10]
        model = ChaosAdapter(
            create_model("gpt-4"),
            transient_ratio=1.0,
            fail_attempts=10**6,
            salt="journal-failed",
        )
        requests = build_requests(model, PromptStrategy.BP1, slice_, scoring="detection")
        with ExecutionEngine(
            jobs=1,
            batch_size=5,
            retries=1,
            retry_base_ms=1.0,
            breaker_threshold=10**6,
            journal=str(path),
        ) as engine:
            store = engine.run(requests)
        assert all(r.failed for r in store.results)
        # Nothing journaled: a resume must retry the failed work, not
        # replay the failure.
        assert len(RunJournal(path)) == 0


# -- the seams the retry plane stands on ------------------------------------------


class TestSubmitStream:
    def test_failure_cancels_nothing(self):
        executor = create_executor(jobs=2, kind="thread")
        release = threading.Event()

        def work(item):
            if item == "boom":
                raise TransientModelError("boom")
            release.wait(5.0)
            return "slow-done"

        try:
            stream = executor.submit_stream(work)
            stream.submit("boom", tag="boom")
            stream.submit("slow", tag="slow")
            settled = {}
            deadline = time.monotonic() + 5.0
            while "boom" not in settled and time.monotonic() < deadline:
                for tag, future in stream.wait(0.05):
                    settled[tag] = future
            assert isinstance(settled["boom"].exception(), TransientModelError)
            # The unrelated slow item is still running, not cancelled.
            release.set()
            while "slow" not in settled and time.monotonic() < deadline:
                for tag, future in stream.wait(0.05):
                    settled[tag] = future
            assert settled["slow"].result() == "slow-done"
        finally:
            stream.close()
            executor.close()
