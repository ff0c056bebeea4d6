"""Engine mechanics: batching, cache accounting, telemetry, generate_batch."""

import asyncio

import pytest

from repro.engine import (
    EXECUTOR_KINDS,
    AsyncExecutor,
    DetectionRequest,
    ExecutionEngine,
    ProcessPoolExecutor,
    ResponseCache,
    SerialExecutor,
    ThreadPoolExecutor,
    available_executors,
    build_requests,
    create_executor,
    register_executor,
)
from repro.eval.experiments import default_subset
from repro.llm.finetune import FineTuneConfig, FineTuner
from repro.llm.zoo import create_model
from repro.prompting.strategy import PromptStrategy
from repro.prompting.templates import render_prompt


@pytest.fixture(scope="module")
def records():
    return default_subset().records[:16]


class TestGenerateBatch:
    def test_default_implementation_matches_generate(self, records):
        """The LanguageModel default must equal a per-prompt generate loop."""
        model = create_model("starchat-beta")
        prompts = [render_prompt(PromptStrategy.BP1, r.trimmed_code) for r in records[:6]]
        reference = [create_model("starchat-beta").generate(p) for p in prompts]
        assert model.generate_batch(prompts) == reference

    def test_empty_batch(self):
        assert create_model("gpt-4").generate_batch([]) == []


def _square(x):
    """Module-level so the process pool can pickle it."""
    return x * x


class TestExecutors:
    def test_create_executor_selects_backend(self):
        assert isinstance(create_executor(1), SerialExecutor)
        pool = create_executor(6)
        assert isinstance(pool, ThreadPoolExecutor)
        assert pool.jobs == 6

    def test_create_executor_by_kind(self):
        assert isinstance(create_executor(4, kind="serial"), SerialExecutor)
        assert isinstance(create_executor(4, kind="thread"), ThreadPoolExecutor)
        with create_executor(2, kind="process") as process:
            assert isinstance(process, ProcessPoolExecutor)
            assert process.jobs == 2
        with create_executor(4, kind="async") as async_:
            assert isinstance(async_, AsyncExecutor)

    def test_registry_lists_builtin_kinds(self):
        assert set(EXECUTOR_KINDS) <= set(available_executors())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            create_executor(2, kind="quantum")

    def test_register_custom_backend(self):
        register_executor("test-custom", lambda jobs: SerialExecutor())
        try:
            assert isinstance(create_executor(3, kind="test-custom"), SerialExecutor)
        finally:
            from repro.engine import executors

            executors._EXECUTOR_FACTORIES.pop("test-custom", None)

    def test_map_preserves_order(self):
        items = list(range(40))
        with ThreadPoolExecutor(jobs=4) as pool:
            assert pool.map(lambda x: x * x, items) == [x * x for x in items]

    def test_process_map_preserves_order(self):
        items = list(range(40))
        with ProcessPoolExecutor(jobs=3) as pool:
            assert pool.distributed
            assert pool.map(_square, items) == [x * x for x in items]

    def test_async_map_preserves_order(self):
        items = list(range(40))
        with AsyncExecutor(jobs=8) as pool:
            assert pool.map(lambda x: x * x, items) == [x * x for x in items]

    def test_async_map_awaits_coroutine_functions(self):
        """async def work items run natively — the real-API adapter seam."""

        async def slow_square(x):
            await asyncio.sleep(0)
            return x * x

        with AsyncExecutor(jobs=4) as pool:
            assert pool.map(slow_square, list(range(10))) == [x * x for x in range(10)]

    def test_thread_pool_is_persistent_across_maps(self):
        pool = ThreadPoolExecutor(jobs=2)
        try:
            pool.map(lambda x: x, [1, 2, 3])
            first = pool._pool
            assert first is not None
            pool.map(lambda x: x, [4, 5, 6])
            assert pool._pool is first
        finally:
            pool.close()
        assert pool._pool is None

    def test_closed_executor_rejects_map(self):
        for executor in (
            SerialExecutor(),
            ThreadPoolExecutor(jobs=2),
            ProcessPoolExecutor(jobs=2),
            AsyncExecutor(jobs=2),
        ):
            executor.close()
            assert executor.closed
            with pytest.raises(RuntimeError):
                executor.map(_square, [1, 2])
            executor.close()  # idempotent

    def test_executors_propagate_exceptions(self):
        def boom(x):
            raise RuntimeError("boom")

        for executor in (SerialExecutor(), ThreadPoolExecutor(jobs=2), AsyncExecutor(jobs=2)):
            with executor, pytest.raises(RuntimeError, match="boom"):
                executor.map(boom, [1, 2])

    def test_rejects_bad_jobs(self):
        for cls in (ThreadPoolExecutor, ProcessPoolExecutor, AsyncExecutor):
            with pytest.raises(ValueError):
                cls(jobs=0)


class TestEngineLifecycle:
    def test_engine_close_closes_executor(self):
        engine = ExecutionEngine(jobs=4)
        engine.close()
        assert engine.executor.closed

    def test_engine_context_manager(self, records):
        with ExecutionEngine(jobs=2) as engine:
            counts = engine.run_counts(
                build_requests(create_model("gpt-4"), PromptStrategy.BP1, records[:4])
            )
            assert counts.total == 4
        assert engine.executor.closed

    def test_rejects_executor_plus_kind(self):
        with pytest.raises(ValueError):
            ExecutionEngine(executor=SerialExecutor(), executor_kind="thread")
        with pytest.raises(ValueError):
            ExecutionEngine(executor=SerialExecutor(), jobs=4)


class TestEngineRun:
    def test_counts_total_matches_records(self, records):
        engine = ExecutionEngine()
        counts = engine.run_counts(
            build_requests(create_model("gpt-4"), PromptStrategy.BP1, records)
        )
        assert counts.total == len(records)

    def test_cache_hit_miss_accounting(self, records):
        engine = ExecutionEngine(cache=ResponseCache())
        requests = build_requests(create_model("gpt-4"), PromptStrategy.BP1, records)
        engine.run(requests)
        snap = engine.telemetry.snapshot()
        assert snap["cache_misses"] == len(records)
        assert snap["cache_hits"] == 0
        assert snap["model_calls"] == len(records)

        engine.run(requests)
        snap = engine.telemetry.snapshot()
        assert snap["cache_hits"] == len(records)
        assert snap["model_calls"] == len(records)  # no new calls
        assert snap["cache_hit_rate"] == 0.5

    def test_results_preserve_request_order(self, records):
        model = create_model("gpt-4")
        requests = build_requests(model, PromptStrategy.BP1, records)
        store = ExecutionEngine(jobs=4, batch_size=3).run(requests)
        assert [r.record_name for r in store] == [r.name for r in records]

    def test_mixed_strategy_batch(self, records):
        model = create_model("gpt-3.5-turbo")
        requests = build_requests(model, PromptStrategy.BP1, records[:4]) + build_requests(
            model, PromptStrategy.ADVANCED, records[:4], scoring="pairs"
        )
        store = ExecutionEngine(batch_size=2).run(requests)
        assert len(store) == 8
        assert [r.strategy for r in store] == ["BP1"] * 4 + ["ADVANCED"] * 4
        assert all(r.pairs is not None for r in list(store)[4:])

    def test_generic_map_counts_requests(self, records):
        engine = ExecutionEngine(jobs=2)
        assert engine.map(lambda r: r.has_race, records) == [r.has_race for r in records]
        assert engine.telemetry.snapshot()["requests"] == len(records)

    def test_rejects_unknown_scoring(self, records):
        with pytest.raises(ValueError):
            DetectionRequest(
                model=create_model("gpt-4"),
                strategy=PromptStrategy.BP1,
                record=records[0],
                scoring="nope",
            )


class TestCacheIdentity:
    def test_uncalibrated_model_does_not_share_cache(self):
        calibrated = create_model("gpt-4")
        uncalibrated = create_model("gpt-4", calibrated=False)
        assert calibrated.cache_identity != uncalibrated.cache_identity

    def test_finetuned_models_have_distinct_identities(self, records):
        """Two adapters trained on different folds must never share entries."""
        from repro.dataset.pairs import build_basic_pairs

        tuner = FineTuner(
            base=create_model("llama2-7b"), config=FineTuneConfig.for_model("llama2-7b")
        )
        tuned_a = tuner.fit(build_basic_pairs(records[:8]))
        tuned_b = tuner.fit(build_basic_pairs(records[8:16]))
        assert tuned_a.name == tuned_b.name
        assert tuned_a.cache_identity != tuned_b.cache_identity
        assert tuned_a.cache_identity != tuned_a.base.cache_identity


class _WrongLengthModel:
    """A misbehaving adapter whose batch call drops the last response.

    Module-level and stateless so the process pool can pickle it — the
    wrong-length guard must fire identically in worker processes.
    """

    name = "wrong-length"
    context_window = 4096
    cache_identity = "wrong-length"
    has_native_async = True

    def generate(self, prompt):
        return "yes"

    def generate_batch(self, prompts):
        return ["yes"] * (len(prompts) - 1)  # silently short

    async def generate_async(self, prompt):
        return "yes"

    async def generate_batch_async(self, prompts):
        return ["yes"] * (len(prompts) - 1)


class TestWrongLengthBatchGuard:
    """A wrong-count generate_batch must raise, never zip-truncate.

    Before the guard, the short response list zipped against the miss
    positions and the unfilled slots kept ``None`` — scored as garbage
    downstream instead of failing at the wire.
    """

    def _requests(self, records):
        return build_requests(_WrongLengthModel(), PromptStrategy.BP1, records[:8])

    def test_cached_serial_path_raises(self, records):
        engine = ExecutionEngine(batch_size=4, cache=ResponseCache(64))
        with pytest.raises(RuntimeError, match="returned 3 responses for 4 prompts"):
            engine.run(self._requests(records))

    def test_uncached_serial_path_raises(self, records):
        engine = ExecutionEngine(batch_size=4, cache=None)
        with pytest.raises(RuntimeError, match="generate_batch returned"):
            engine.run(self._requests(records))

    def test_process_worker_path_raises(self, records):
        with ExecutionEngine(
            jobs=2, executor_kind="process", batch_size=4, cache=ResponseCache(64)
        ) as engine:
            with pytest.raises(RuntimeError, match="generate_batch returned"):
                engine.run(self._requests(records))

    @pytest.mark.parametrize(
        "kind, method",
        [
            ("serial", "generate_batch"),
            ("thread", "generate_batch"),
            ("process", "generate_batch"),
        ],
    )
    def test_every_executor_path_raises(self, records, kind, method):
        with ExecutionEngine(jobs=2, executor_kind=kind, batch_size=4) as engine:
            with pytest.raises(RuntimeError, match=f"{method} returned 3 responses for 4"):
                engine.run(self._requests(records))

    def test_async_native_path_raises(self, records):
        # Uncached: every prompt of the chunk goes straight to
        # generate_batch_async.
        with ExecutionEngine(jobs=2, executor_kind="async", batch_size=4) as engine:
            with pytest.raises(RuntimeError, match="generate_batch_async returned 3 responses for 4"):
                engine.run(self._requests(records))

    def test_async_coalesced_path_raises(self, records):
        # Cached: the chunk's misses are gathered into one
        # generate_batch_async call and scattered back to their slots.
        with ExecutionEngine(
            jobs=2, executor_kind="async", batch_size=4, cache=ResponseCache(64)
        ) as engine:
            with pytest.raises(RuntimeError, match="generate_batch_async returned 3 responses for 4"):
                engine.run(self._requests(records))


class TestWireCallCounter:
    def test_serial_wire_calls_count_batch_invocations(self, records):
        """One wire call per chunk's generate_batch, not one per prompt."""
        model = create_model("gpt-4")
        engine = ExecutionEngine(batch_size=4, cache=ResponseCache(1024))
        engine.run(build_requests(model, PromptStrategy.BP1, records))
        snap = engine.telemetry.snapshot()
        assert snap["model_calls"] == len(records)
        assert snap["wire_calls"] == len(records) // 4  # one per chunk
        # A warm rerun touches the wire zero times.
        engine.run(build_requests(model, PromptStrategy.BP1, records))
        snap = engine.telemetry.snapshot()
        assert snap["wire_calls"] == len(records) // 4
        assert "wire_calls=" in engine.telemetry.format_stats()


class TestTelemetryTable:
    """Every counter and gauge is declared once in ``METRICS``; the
    snapshot keys and the ``[engine]`` line are what the CLI has always
    printed."""

    SNAPSHOT_KEYS = [
        "requests", "model_calls", "wire_calls", "cache_hits", "cache_misses",
        "cache_hit_rate", "runs", "wall_time_s", "requests_per_second",
        "async_inflight_peak", "resident_requests_peak", "peak_rss_kb",
        "broadcast_publishes", "broadcast_bytes", "shm_attach",
        "speculation_launched", "speculation_won", "speculation_wasted",
        "speculation_fallback_launched", "speculation_fallback_won",
        "failed_requests", "retries", "retry_giveups", "breaker_opens",
        "breaker_reroutes", "breaker_short_circuits", "journal_hits",
        "journal_appends", "cascade_requests", "cascade_escalated",
        "deadline_shed", "deadline_budget_s", "deadline_predicted_s",
        "deadline_actual_s",
    ]

    def test_snapshot_keys_follow_the_table(self):
        from repro.engine.telemetry import METRICS, EngineTelemetry

        snap = EngineTelemetry().snapshot()
        assert list(snap) == self.SNAPSHOT_KEYS == [name for name, _ in METRICS]
        assert snap["wall_time_s"] == 0.0 and isinstance(snap["wall_time_s"], float)
        assert snap["requests"] == 0 and isinstance(snap["requests"], int)

    def test_only_declared_names_record(self):
        from repro.engine.telemetry import EngineTelemetry

        telemetry = EngineTelemetry()
        with pytest.raises(KeyError):
            telemetry.add(no_such_counter=1)
        with pytest.raises(KeyError):
            telemetry.add(peak_rss_kb=1)  # a gauge, not a counter
        with pytest.raises(KeyError):
            telemetry.gauge(requests=1)  # a counter, not a gauge

    def test_gauges_keep_peak_or_last_value(self):
        from repro.engine.telemetry import EngineTelemetry

        telemetry = EngineTelemetry()
        telemetry.gauge(resident_requests_peak=7, deadline_budget_s=2.0)
        telemetry.gauge(resident_requests_peak=3, deadline_budget_s=1.0)
        snap = telemetry.snapshot()
        assert snap["resident_requests_peak"] == 7
        assert snap["deadline_budget_s"] == 1.0

    def test_since_subtracts_every_counter(self):
        from repro.engine.telemetry import COUNTERS, EngineTelemetry

        telemetry = EngineTelemetry()
        telemetry.add(**{name: 1 for name in COUNTERS})
        before = telemetry.snapshot()
        telemetry.add(requests=3, cache_hits=1, cache_misses=1, runs=1, wall_time_s=0.5)
        line = telemetry.format_stats(executor_name="serial", since=before)
        assert line == (
            "[engine] executor=serial requests=3 model_calls=0 wire_calls=0 "
            "cache_hit_rate=50.0% wall=0.50s throughput=6.0 req/s"
        )
