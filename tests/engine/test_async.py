"""The async-native I/O path: adapters, dispatch, telemetry.

The contract pinned here:

* the engine's async-native dispatch awaits model I/O on the executor's
  event loop — at most ``jobs`` chunk coroutines in flight — and with
  simulated latency beats the thread backend at equal ``--jobs`` (the full benchmark lives in
  ``benchmarks/bench_async.py``);
* ``AsyncRemoteAdapter`` and the zoo's native ``generate_async`` produce
  byte-identical responses to their sync counterparts.

Bit-identical *confusion counts* across the async-native configurations
are pinned in ``tests/engine/test_equivalence.py``.
"""

import asyncio
import time

import pytest

from repro.engine import ExecutionEngine, ResponseCache, build_requests
from repro.eval.experiments import default_subset
from repro.llm.adapters import AsyncRemoteAdapter
from repro.llm.zoo import create_model
from repro.prompting.strategy import PromptStrategy
from repro.prompting.templates import render_prompt


@pytest.fixture(scope="module")
def records():
    return default_subset().records[:16]


def run_async(coro):
    return asyncio.run(coro)


class TestModelAsyncProtocol:
    def test_zoo_generate_async_matches_sync(self, records):
        model = create_model("gpt-4")
        prompts = [render_prompt(PromptStrategy.BP1, r.trimmed_code) for r in records[:6]]
        reference = [create_model("gpt-4").generate(p) for p in prompts]
        assert run_async(model.generate_batch_async(prompts)) == reference
        assert [run_async(model.generate_async(p)) for p in prompts] == reference

    def test_default_async_offload_matches_sync(self):
        """A sync-only model still works through the async protocol."""
        from repro.llm.base import LanguageModel

        class MinimalModel(LanguageModel):
            name = "minimal"

            def generate(self, prompt):
                return f"echo:{len(prompt)}"

        model = MinimalModel()
        prompts = ["one", "two two", "three three three"]
        assert run_async(model.generate_batch_async(prompts)) == model.generate_batch(prompts)
        assert run_async(model.generate_async("x")) == model.generate("x")

    def test_zoo_async_latency_overlaps(self):
        """N concurrent 30ms calls must take ~one latency, not N of them."""
        model = create_model("gpt-4", latency_s=0.03)
        prompts = [
            render_prompt(PromptStrategy.BP1, f"int main() {{ int x{i}; }}")
            for i in range(8)
        ]
        start = time.perf_counter()
        run_async(model.generate_batch_async(prompts))
        elapsed = time.perf_counter() - start
        assert elapsed < 8 * 0.03  # strictly better than the serial sum

    def test_remote_adapter_matches_inner_content(self, records):
        inner = create_model("gpt-4")
        adapter = AsyncRemoteAdapter(inner, latency_s=0.0)
        prompt = render_prompt(PromptStrategy.BP1, records[0].trimmed_code)
        reference = create_model("gpt-4").generate(prompt)
        assert adapter.generate(prompt) == reference
        assert run_async(adapter.generate_async(prompt)) == reference
        assert adapter.cache_identity == inner.cache_identity

    def test_remote_adapter_max_concurrency_bounds_inflight(self):
        inner = create_model("gpt-4")
        adapter = AsyncRemoteAdapter(inner, latency_s=0.01, max_concurrency=2)
        inflight = {"now": 0, "peak": 0}
        original = adapter._call

        async def tracking_call(prompt):
            inflight["now"] += 1
            inflight["peak"] = max(inflight["peak"], inflight["now"])
            try:
                return await original(prompt)
            finally:
                inflight["now"] -= 1

        adapter._call = tracking_call
        prompts = [
            render_prompt(PromptStrategy.BP1, f"int main() {{ int y{i}; }}")
            for i in range(6)
        ]
        run_async(adapter.generate_batch_async(prompts))
        assert inflight["peak"] <= 2

    def test_remote_adapter_rejects_bad_parameters(self):
        inner = create_model("gpt-4")
        with pytest.raises(ValueError):
            AsyncRemoteAdapter(inner, latency_s=-1)
        with pytest.raises(ValueError):
            AsyncRemoteAdapter(inner, max_concurrency=0)


class TestEngineAsyncNative:
    def test_inflight_bounded_by_jobs(self, records):
        """Chunk coroutines overlap on the one loop, at most ``jobs`` at once."""
        model = create_model("gpt-4", latency_s=0.02)
        requests = build_requests(model, PromptStrategy.BP1, records)
        with ExecutionEngine(jobs=8, executor_kind="async", batch_size=2) as engine:
            start = time.perf_counter()
            engine.run(requests)
            elapsed = time.perf_counter() - start
        peak = engine.telemetry.snapshot()["async_inflight_peak"]
        assert peak > 1
        assert peak <= 8
        assert elapsed < len(records) * 0.02  # latencies overlapped

    def test_inflight_peak_is_per_run(self, records):
        """A small run after a wide one must not inherit the earlier peak."""
        with ExecutionEngine(jobs=16, executor_kind="async", batch_size=1) as engine:
            engine.run(build_requests(create_model("gpt-4"), PromptStrategy.BP1, records))
            wide_peak = engine._inflight_peak
            engine.run(build_requests(create_model("gpt-4"), PromptStrategy.BP1, records[:1]))
            assert engine._inflight_peak == 1  # reset, not carried over
        assert engine.telemetry.snapshot()["async_inflight_peak"] == wide_peak  # keeps max
        assert f"inflight_peak={wide_peak}" in engine.telemetry.format_stats()

    def test_wire_calls_without_coalescing_count_per_chunk_calls(self, records):
        with ExecutionEngine(jobs=4, executor_kind="async", batch_size=4) as engine:
            engine.run(build_requests(create_model("gpt-4"), PromptStrategy.BP1, records))
        snap = engine.telemetry.snapshot()
        assert snap["wire_calls"] == len(records) // 4  # one per chunk
        assert snap["model_calls"] == len(records)

    def test_zoo_models_report_native_async(self):
        assert create_model("gpt-4").has_native_async
        assert AsyncRemoteAdapter(create_model("gpt-4")).has_native_async

    @pytest.mark.parametrize("kind", ["serial", "thread", "async", "process"])
    def test_one_wire_call_per_chunk_with_misses(self, records, kind):
        """Every executor runs the same chunk body: a chunk whose prompts
        all hit the cache makes no wire call, any other chunk exactly one."""
        model = create_model("gpt-4")
        cache = ResponseCache()
        with ExecutionEngine(batch_size=4, cache=cache) as warmer:
            warmer.run(build_requests(model, PromptStrategy.BP1, records[:8]))
        with ExecutionEngine(
            jobs=2, executor_kind=kind, batch_size=4, adaptive_batching=False, cache=cache
        ) as engine:
            store = engine.run(build_requests(model, PromptStrategy.BP1, records))
        snap = engine.telemetry.snapshot()
        # Records 0-7 fill the first two chunks from the warm cache; the
        # other two chunks miss on every prompt.
        assert snap["cache_hits"] == 8
        assert snap["model_calls"] == len(records) - 8
        assert snap["wire_calls"] == 2
        assert store.responses() == [
            model.generate(render_prompt(PromptStrategy.BP1, r.trimmed_code)) for r in records
        ]

    def test_async_beats_thread_backend_at_equal_jobs(self, records):
        """The tentpole's speedup claim, at smoke-test scale (full version:
        benchmarks/bench_async.py with the committed CI floor)."""

        def measure(kind):
            model = create_model("gpt-4", latency_s=0.03)
            with ExecutionEngine(jobs=2, executor_kind=kind, batch_size=8) as engine:
                start = time.perf_counter()
                store = engine.run(build_requests(model, PromptStrategy.BP1, records))
                return [(r.record_name, r.response) for r in store], (
                    time.perf_counter() - start
                )

        thread_fp, thread_s = measure("thread")
        async_fp, async_s = measure("async")
        assert async_fp == thread_fp
        assert thread_s / async_s > 1.5  # conservative smoke floor

    def test_engine_rejects_jobs_with_explicit_executor(self):
        from repro.engine import AsyncExecutor

        with pytest.raises(ValueError):
            ExecutionEngine(executor=AsyncExecutor(jobs=2), jobs=4)

    def test_cached_async_rerun_hits_without_model_calls(self, records):
        with ExecutionEngine(jobs=8, executor_kind="async", cache=ResponseCache()) as engine:
            first = engine.run(build_requests(create_model("gpt-4"), PromptStrategy.BP1, records))
            second = engine.run(build_requests(create_model("gpt-4"), PromptStrategy.BP1, records))
        assert first.responses() == second.responses()
        snap = engine.telemetry.snapshot()
        assert snap["cache_hits"] == len(records)
        assert snap["model_calls"] == len(records)
