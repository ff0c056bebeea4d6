"""Completion-order dispatch, cost-model scheduling and the process backend's cache.

Three contracts are pinned here:

* the executors' completion-order contract — ``submit`` /
  ``submit_stream`` semantics, including cancellation and close behaviour,
  and the engine's fail-fast propagation on top of it;
* the engine's dispatch equivalence — completion-order merging, LPT
  ordering and adaptive chunk sizing never change results, only wall
  time;
* every backend sends a prompt repeated across chunks to the model once,
  as the serial one does: the process backend runs model chunks in
  process, against the live response cache, and a chunk never starts
  while an earlier one asking the same question is unfinished.
"""

import threading
import time

import pytest

from repro.engine import (
    AsyncExecutor,
    CostModel,
    ExecutionEngine,
    ProcessPoolExecutor,
    ResponseCache,
    SerialExecutor,
    ThreadPoolExecutor,
    build_requests,
)
from repro.eval.experiments import default_subset
from repro.llm.zoo import create_model
from repro.prompting.strategy import PromptStrategy


@pytest.fixture(scope="module")
def records():
    return default_subset().records[:16]


def _square(x):
    """Module-level so the process pool can pickle it."""
    return x * x


def _drain(stream, timeout_s: float = 30.0):
    """Every ``(tag, result)`` a stream settles, in completion order."""
    settled = []
    deadline = time.monotonic() + timeout_s
    while stream.inflight:
        assert time.monotonic() < deadline, "stream did not drain"
        settled += [(tag, future.result()) for tag, future in stream.wait(0.05)]
    return settled


class TestMapUnordered:
    """The completion-order contract ``map_unordered`` used to provide,
    now pinned on ``submit_stream`` and on the engine's dispatch loop."""

    @pytest.mark.parametrize(
        "make_executor",
        [
            pytest.param(lambda: SerialExecutor(), id="serial"),
            pytest.param(lambda: ThreadPoolExecutor(jobs=4), id="thread"),
            pytest.param(lambda: ProcessPoolExecutor(jobs=2), id="process"),
            pytest.param(lambda: AsyncExecutor(jobs=4), id="async"),
        ],
    )
    def test_yields_every_index_exactly_once(self, make_executor):
        items = list(range(20))
        with make_executor() as executor:
            stream = executor.submit_stream(_square)
            for index, item in enumerate(items):
                stream.submit(item, tag=index)
            pairs = _drain(stream)
        assert sorted(index for index, _ in pairs) == items
        assert all(result == index * index for index, result in pairs)

    def test_empty_items(self):
        with ThreadPoolExecutor(jobs=2) as pool:
            stream = pool.submit_stream(_square)
            assert stream.inflight == 0
            assert stream.wait(0.01) == []
            assert stream.close() == []

    def test_thread_pool_yields_in_completion_order(self):
        """A fast item submitted after a slow one comes back first."""

        def sleepy(seconds):
            time.sleep(seconds)
            return seconds

        with ThreadPoolExecutor(jobs=2) as pool:
            stream = pool.submit_stream(sleepy)
            stream.submit(0.2, tag=0)
            stream.submit(0.0, tag=1)
            (first_tag, _), *_ = stream.wait(5.0)
            stream.close()
        assert first_tag == 1

    def test_serial_streams_lazily_in_order(self):
        """Serial work runs inline at submit — nothing before, nothing after."""
        calls = []

        def record(x):
            calls.append(x)
            return x

        executor = SerialExecutor()
        stream = executor.submit_stream(record)
        assert calls == []  # nothing runs until an item is submitted
        stream.submit(1, tag=0)
        assert calls == [1]
        assert [(tag, future.result()) for tag, future in stream.wait()] == [(0, 1)]
        assert stream.close() == []
        assert calls == [1]  # abandoning the stream runs nothing more

    def test_exception_propagates_and_cancels_rest(self, records):
        """Fail-fast (``retries=0``): the first chunk error reaches the
        caller and chunks still queued on the pool are cancelled."""
        calls = []
        lock = threading.Lock()

        class BoomModel:
            name = "boom"
            cache_identity = "boom"

            def generate_batch(self, prompts):
                with lock:
                    calls.append(len(prompts))
                    first = len(calls) == 1
                time.sleep(0.02)
                if first:
                    raise RuntimeError("boom")
                return ["yes"] * len(prompts)

        from repro.engine.requests import DetectionRequest

        requests = [
            DetectionRequest(model=BoomModel(), strategy=PromptStrategy.BP1, record=r)
            for r in records
        ]
        # Two workers and no speculation or retries: every chunk is
        # submitted up front, so most of them are still queued.
        with ExecutionEngine(jobs=2, executor_kind="thread", batch_size=1) as engine:
            with pytest.raises(RuntimeError, match="boom"):
                engine.run(requests)
        assert len(calls) < len(records)

    def test_abandoning_iterator_cancels_pending(self):
        calls = []

        def slow(x):
            calls.append(x)
            time.sleep(0.02)
            return x

        with ThreadPoolExecutor(jobs=1) as pool:
            stream = pool.submit_stream(slow)
            for item in range(10):
                stream.submit(item, tag=item)
            assert stream.wait(5.0)  # the first item settles
            abandoned = stream.close()  # consumer walks away; queued futures cancelled
        assert abandoned and 0 not in abandoned
        assert len(calls) < 10


class TestSubmit:
    def test_submit_returns_future_with_result(self):
        for executor in (SerialExecutor(), ThreadPoolExecutor(jobs=2), AsyncExecutor(jobs=2)):
            with executor:
                assert executor.submit(_square, 7).result(timeout=10) == 49

    def test_process_submit(self):
        with ProcessPoolExecutor(jobs=2) as pool:
            assert pool.submit(_square, 7).result(timeout=30) == 49

    def test_submit_propagates_exception_through_future(self):
        def boom(x):
            raise ValueError("bad item")

        for executor in (SerialExecutor(), ThreadPoolExecutor(jobs=2), AsyncExecutor(jobs=2)):
            with executor:
                with pytest.raises(ValueError, match="bad item"):
                    executor.submit(boom, 1).result(timeout=10)

    def test_closed_executor_rejects_submit_and_submit_stream(self):
        for executor in (
            SerialExecutor(),
            ThreadPoolExecutor(jobs=2),
            ProcessPoolExecutor(jobs=2),
            AsyncExecutor(jobs=2),
        ):
            executor.close()
            with pytest.raises(RuntimeError):
                executor.submit(_square, 1)
            with pytest.raises(RuntimeError):
                executor.submit_stream(_square)

    def test_async_submit_awaits_coroutine_functions(self):
        async def acc(x):
            return x + 1

        with AsyncExecutor(jobs=2) as pool:
            assert pool.submit(acc, 41).result(timeout=10) == 42


def _pending_loop_tasks(pool) -> int:
    """How many tasks (besides the probe itself) are alive on the pool's loop."""
    import asyncio

    async def probe(_item):
        return len([t for t in asyncio.all_tasks() if t is not asyncio.current_task()])

    return pool.submit(probe, None).result(timeout=10)


def _assert_no_leaked_tasks(pool, timeout_s: float = 2.0) -> None:
    """Cancelled tasks need a few loop iterations to unwind; poll briefly."""
    deadline = time.monotonic() + timeout_s
    while True:
        pending = _pending_loop_tasks(pool)
        if pending == 0:
            return
        if time.monotonic() > deadline:
            raise AssertionError(f"{pending} tasks leaked on the executor loop")
        time.sleep(0.02)


class TestAsyncCancellation:
    """The async-native contract: closing a stream — what the engine does
    when a coroutine raises or the run is abandoned — cancels queued *and*
    in-flight coroutines, no tasks leak onto the loop, and the loop stays
    reusable for the next run."""

    def test_abandoned_iterator_cancels_queued_and_inflight(self):
        import asyncio

        started = []

        async def item(x):
            if x == 0:
                return x  # the one fast item the consumer waits for
            started.append(x)
            await asyncio.sleep(30)  # would hang the test if not cancelled
            return x

        with AsyncExecutor(jobs=2) as pool:
            stream = pool.submit_stream(item)
            for x in range(10):
                stream.submit(x, tag=x)
            settled = stream.wait(5.0)
            assert [(tag, future.result()) for tag, future in settled] == [(0, 0)]
            stream.close()  # consumer walks away
            _assert_no_leaked_tasks(pool)
            # Queued coroutines beyond the jobs-wide semaphore never ran.
            assert len(started) < 10

    def test_raising_coroutine_cancels_rest_and_loop_stays_usable(self):
        import asyncio

        async def boom(x):
            if x == 0:
                raise RuntimeError("boom")
            await asyncio.sleep(30)
            return x

        with AsyncExecutor(jobs=4) as pool:
            stream = pool.submit_stream(boom)
            for x in range(8):
                stream.submit(x, tag=x)
            settled = stream.wait(5.0)
            assert [tag for tag, _ in settled] == [0]
            with pytest.raises(RuntimeError, match="boom"):
                settled[0][1].result()
            stream.close()  # fail fast: the rest is cancelled
            _assert_no_leaked_tasks(pool)

            # The loop is reusable: a fresh stream on the same executor
            # completes normally after the failed one.
            async def fine(x):
                await asyncio.sleep(0)
                return x * 2

            stream = pool.submit_stream(fine)
            for index, x in enumerate([1, 2, 3]):
                stream.submit(x, tag=index)
            assert sorted(_drain(stream)) == [(0, 2), (1, 4), (2, 6)]

    def test_ordered_map_cancels_siblings_on_error(self):
        """Blocking map: one raising coroutine must cancel the rest — an
        aborted ordered-dispatch run cannot keep calling models behind it."""
        import asyncio

        completed = []

        async def item(x):
            if x == 0:
                raise RuntimeError("boom")
            await asyncio.sleep(0.2)
            completed.append(x)
            return x

        with AsyncExecutor(jobs=8) as pool:
            with pytest.raises(RuntimeError, match="boom"):
                pool.map(item, list(range(8)))
            _assert_no_leaked_tasks(pool)
        assert completed == []  # siblings were cancelled, not run to completion

    def test_cancelled_semaphore_waiters_release_their_slot(self):
        """Coroutines cancelled while waiting for an inflight slot must not
        poison the semaphore for later submissions."""
        import asyncio

        async def slow(x):
            await asyncio.sleep(30)
            return x

        with AsyncExecutor(jobs=1) as pool:
            stream = pool.submit_stream(slow)
            for x in range(5):
                stream.submit(x, tag=x)
            stream.close()  # nothing consumed: everything cancels
            _assert_no_leaked_tasks(pool)

            async def quick(x):
                return x + 1

            # jobs=1: if a cancelled waiter leaked the slot this
            # submission would never acquire the semaphore.
            assert pool.submit(quick, 1).result(timeout=10) == 2

    def test_engine_async_run_after_failed_run_is_clean(self, records):
        """A raising model aborts the run; the same engine then completes a
        healthy run with bit-identical results to a fresh serial engine."""

        class FlakyModel:
            name = "flaky"
            cache_identity = "flaky"

            def generate(self, prompt):
                raise RuntimeError("model down")

            def generate_batch(self, prompts):
                raise RuntimeError("model down")

            async def generate_batch_async(self, prompts):
                raise RuntimeError("model down")

        from repro.engine.requests import DetectionRequest

        flaky = FlakyModel()
        flaky_requests = [
            DetectionRequest(model=flaky, strategy=PromptStrategy.BP1, record=r)
            for r in records[:6]
        ]
        reference = ExecutionEngine().run(
            build_requests(create_model("gpt-4"), PromptStrategy.BP1, records)
        )
        with ExecutionEngine(jobs=8, executor_kind="async", batch_size=2) as engine:
            with pytest.raises(RuntimeError, match="model down"):
                engine.run(flaky_requests)
            _assert_no_leaked_tasks(engine.executor)
            store = engine.run(
                build_requests(create_model("gpt-4"), PromptStrategy.BP1, records)
            )
        assert [(r.record_name, r.response) for r in store] == [
            (r.record_name, r.response) for r in reference
        ]


class _MapOnlyExecutor:
    """An executor without the completion-order contract (map only)."""

    name = "map-only"

    def map(self, fn, items):
        return [fn(item) for item in items]


class TestEngineDispatch:
    def test_rejects_unknown_dispatch(self):
        """One dispatch loop serves every run: there is no mode to pick."""
        with pytest.raises(TypeError):
            ExecutionEngine(dispatch="ordered")

    @pytest.mark.parametrize("config_id,config", [
        ("thread", dict(jobs=4, batch_size=5)),
        ("async", dict(jobs=4, executor_kind="async", batch_size=5)),
        ("process", dict(jobs=2, executor_kind="process", batch_size=5)),
    ])
    def test_dynamic_matches_ordered_responses(self, records, config_id, config):
        """LPT-ordered, adaptively sized chunks give the same store,
        response for response, as plan-order fixed-size chunks."""

        def requests():
            fast, slow = create_model("gpt-4"), create_model("llama2-7b")
            return build_requests(fast, PromptStrategy.BP1, records) + build_requests(
                slow, PromptStrategy.BP1, records
            )

        with ExecutionEngine(lpt=False, adaptive_batching=False, **config) as engine:
            ordered = engine.run(requests())
        # Plan order puts the fast model first; these estimates make LPT
        # flip it and adaptive sizing re-cut both groups.
        cost_model = CostModel()
        cost_model.observe(create_model("gpt-4").cache_identity, "BP1", 0.001)
        cost_model.observe(create_model("llama2-7b").cache_identity, "BP1", 0.1)
        with ExecutionEngine(cost_model=cost_model, **config) as engine:
            chunks = engine._chunk(list(enumerate(requests())))
            assert chunks[0][0][1].model.name == "llama2-7b"
            lpt = engine.run(requests())
        assert [(r.model, r.record_name, r.response) for r in lpt] == [
            (r.model, r.record_name, r.response) for r in ordered
        ]

    def test_lpt_and_adaptive_keep_results_after_warmup(self, records):
        """A warmed cost model reorders and resizes chunks; results hold."""
        cost_model = CostModel()
        reference = None
        with ExecutionEngine(
            jobs=4, batch_size=4, cost_model=cost_model, cache=ResponseCache()
        ) as engine:
            for _ in range(3):  # run 1 cold, runs 2-3 LPT + adaptive + cached
                requests = []
                for name in ("gpt-4", "llama2-7b"):
                    requests += build_requests(
                        create_model(name), PromptStrategy.BP1, records
                    )
                    requests += build_requests(
                        create_model(name), PromptStrategy.ADVANCED, records, scoring="pairs"
                    )
                store = engine.run(requests)
                fingerprint = [(r.model, r.strategy, r.record_name, r.response) for r in store]
                if reference is None:
                    reference = fingerprint
                assert fingerprint == reference
        assert len(cost_model) == 4  # every (model, strategy) group observed

    def test_executor_without_submit_is_rejected(self):
        with pytest.raises(TypeError, match="submit"):
            ExecutionEngine(executor=_MapOnlyExecutor())

    def test_results_preserve_request_order_under_dynamic(self, records):
        model = create_model("gpt-4")
        with ExecutionEngine(jobs=4, batch_size=3) as engine:
            store = engine.run(build_requests(model, PromptStrategy.BP1, records))
        assert [r.record_name for r in store] == [r.name for r in records]

    def test_group_telemetry_recorded(self, records):
        engine = ExecutionEngine(cache=ResponseCache())
        engine.run(build_requests(create_model("gpt-4"), PromptStrategy.BP1, records))
        groups = engine.telemetry.group_snapshot()
        assert len(groups) == 1
        group = groups[0]
        assert group["model"] == "gpt-4"
        assert group["strategy"] == "BP1"
        assert group["requests"] == len(records)
        assert group["model_calls"] == len(records)
        assert group["cache_hit_rate"] == 0.0
        # A warm rerun flips the hit rate without new model calls.
        engine.run(build_requests(create_model("gpt-4"), PromptStrategy.BP1, records))
        group = engine.telemetry.group_snapshot()[0]
        assert group["requests"] == 2 * len(records)
        assert group["model_calls"] == len(records)
        assert group["cache_hit_rate"] == 0.5
        stats = engine.telemetry.format_group_stats(top_k=3)
        assert "gpt-4/BP1" in stats and "slowest groups" in stats


class TestCostModelScheduling:
    def _requests(self, records, fast, slow):
        return build_requests(fast, PromptStrategy.BP1, records) + build_requests(
            slow, PromptStrategy.BP1, records
        )

    def test_lpt_orders_slow_group_first(self, records):
        fast = create_model("gpt-4")
        slow = create_model("llama2-7b")
        cost_model = CostModel()
        cost_model.observe(fast.cache_identity, "BP1", 0.001)
        cost_model.observe(slow.cache_identity, "BP1", 0.1)
        engine = ExecutionEngine(batch_size=4, cost_model=cost_model, adaptive_batching=False)
        chunks = engine._chunk(list(enumerate(self._requests(records[:8], fast, slow))))
        # Plan order puts the fast model first; LPT must flip that.
        assert chunks[0][0][1].model is slow
        assert chunks[-1][0][1].model is fast

    def test_adaptive_sizing_shrinks_slow_chunks(self, records):
        fast = create_model("gpt-4")
        slow = create_model("llama2-7b")
        cost_model = CostModel()
        cost_model.observe(fast.cache_identity, "BP1", 0.001)
        cost_model.observe(slow.cache_identity, "BP1", 0.1)
        engine = ExecutionEngine(batch_size=4, cost_model=cost_model, lpt=False)
        chunks = engine._chunk(list(enumerate(self._requests(records[:8], fast, slow))))
        slow_sizes = {len(c) for c in chunks if c[0][1].model is slow}
        fast_sizes = {len(c) for c in chunks if c[0][1].model is fast}
        assert max(slow_sizes) < 4  # slow group split finer than batch_size
        assert max(fast_sizes) > 4  # fast group batched coarser

    def test_cold_cost_model_keeps_plan_order_and_uniform_chunks(self, records):
        fast = create_model("gpt-4")
        slow = create_model("llama2-7b")
        engine = ExecutionEngine(batch_size=4)
        chunks = engine._chunk(list(enumerate(self._requests(records[:8], fast, slow))))
        assert [len(c) for c in chunks] == [4, 4, 4, 4]
        assert chunks[0][0][1].model is fast  # plan order untouched


class TestRepeatedQuestions:
    @pytest.mark.parametrize("kind", ["thread", "process", "async"])
    def test_repeat_across_chunks_costs_one_model_call(self, records, kind):
        """One record twice, in two chunks that would run at once: the later
        chunk waits for the earlier one's responses, so every executor asks
        the model as often as the serial one and gives the same responses."""
        repeated = [records[0], records[1], records[2], records[0]]

        def run(**config):
            model = create_model("gpt-4", latency_s=0.02)
            with ExecutionEngine(cache=ResponseCache(), batch_size=2, **config) as engine:
                store = engine.run(build_requests(model, PromptStrategy.BP1, repeated))
                return store.responses(), engine.telemetry.snapshot()

        serial, serial_snap = run()
        parallel, parallel_snap = run(executor_kind=kind, jobs=2)
        assert serial_snap["model_calls"] == 3
        assert parallel_snap["model_calls"] == serial_snap["model_calls"]
        assert parallel_snap["cache_hits"] == serial_snap["cache_hits"] == 1
        assert parallel == serial

    @pytest.mark.parametrize("retries", [0, 1])
    @pytest.mark.parametrize("kind", ["thread", "async"])
    def test_a_failed_ask_sends_its_waiters_back(self, records, kind, retries):
        """The first call asking the shared record fails after the other
        chunk has started to wait for it: the waiter asks for itself.  Fail
        fast, the error propagates and the engine closes; with a retry, the
        failed chunk finds that answer in the cache, and the run makes the
        serial run's calls and gives its responses."""
        from repro.engine import TransientModelError
        from repro.llm.base import LanguageModel

        class FirstCallFails(LanguageModel):
            def __init__(self):
                self.inner = create_model("gpt-4")
                self.name, self.context_window = self.inner.name, self.inner.context_window
                self.lock, self.calls = threading.Lock(), 0

            @property
            def cache_identity(self):
                return self.inner.cache_identity

            def generate(self, prompt):
                return self.inner.generate(prompt)

            def generate_batch(self, prompts):
                if any(shared in prompt for prompt in prompts):
                    with self.lock:
                        self.calls += 1
                        first = self.calls == 1
                    if first:
                        time.sleep(0.1)  # the other chunk now waits for this answer
                        raise TransientModelError("503")
                return self.inner.generate_batch(prompts)

        repeated = [records[0], records[1], records[2], records[0]]
        shared = records[0].trimmed_code
        serial = ExecutionEngine(cache=ResponseCache(), batch_size=2).run(
            build_requests(create_model("gpt-4"), PromptStrategy.BP1, repeated)
        )
        done = []

        def run():
            try:
                with ExecutionEngine(
                    cache=ResponseCache(), batch_size=2, executor_kind=kind, jobs=2,
                    retries=retries, retry_base_ms=1,
                ) as engine:
                    model = FirstCallFails()
                    store = engine.run(build_requests(model, PromptStrategy.BP1, repeated))
                    done.append((store.responses(), engine.telemetry.snapshot()))
            except BaseException as exc:  # reported by the assertion below
                done.append(exc)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert done, "a chunk kept waiting for a prompt whose ask failed"
        if not retries:
            assert isinstance(done[0], TransientModelError)
            return
        assert not isinstance(done[0], BaseException), done[0]
        responses, snap = done[0]
        assert responses == serial.responses()
        assert snap["retries"] == 1 and snap["failed_requests"] == 0
        assert snap["model_calls"] == 3
