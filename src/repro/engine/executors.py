"""Pluggable executors: how the engine maps work over request chunks.

An executor implements two contracts:

* ``map(fn, items) -> list`` — the *ordered* contract: results in input
  order, exceptions propagated.  The Inspector baseline (through
  :meth:`~repro.engine.core.ExecutionEngine.cached_map`) and ``repro
  analyze --jobs`` run on it.
* ``submit(fn, item) -> Future`` plus ``submit_stream(fn) -> SubmitStream``
  — the *completion-order* contract the engine dispatches every chunk
  through: work is submitted incrementally and drained as it settles, and
  a work-item failure is delivered in its future without cancelling
  unrelated futures.  The engine's one dispatch loop decides per chunk
  what a failure means (defer to a speculative sibling, retry after
  backoff, give up through a breaker, or propagate and cancel the rest).
  A closed executor raises :class:`RuntimeError` from ``submit`` and
  ``submit_stream`` alike.

Four backends ship here, listed once in :data:`EXECUTORS` and selectable
via :func:`create_executor` (the CLI's ``--executor``/``--jobs`` flags and
``ExecutionEngine(executor_kind=..., jobs=...)``):

* :class:`SerialExecutor` (``"serial"``) — the reference backend; runs work
  items in submission order on the calling thread.  The engine's equivalence
  guarantee is stated against this backend.
* :class:`ThreadPoolExecutor` (``"thread"``) — fans work items out over one
  persistent pool of worker threads.  Overlaps model latency (network time
  for real API clients); the pool is created lazily on first ``map`` and
  lives until :meth:`~ThreadPoolExecutor.close`.
* :class:`ProcessPoolExecutor` (``"process"``) — a thread pool whose
  ordered ``map`` alone runs across worker *processes*.  The CPU-bound
  non-LLM work that goes through ``map`` (the Inspector verdicts of
  :meth:`~repro.engine.core.ExecutionEngine.cached_map`) scales past the
  GIL; model chunks, which wait on the model, run on its ``jobs`` threads
  in process, against the engine's live response cache.
* :class:`AsyncExecutor` (``"async"``) — runs work items concurrently on a
  persistent asyncio event loop in a background thread.  Synchronous
  functions are offloaded to the loop's thread pool of width ``jobs``;
  native ``async def`` functions are awaited directly under a semaphore of
  the same width.  ``native_async = True`` tells the engine to dispatch
  awaitable chunk coroutines here, so model I/O is awaited on the loop —
  concurrency bounded by the semaphore, not by threads.

Every backend owns whatever pool/loop it creates: ``close()`` releases it
(idempotent), the executors are context managers, and a closed executor
raises :class:`RuntimeError` on further ``map`` calls.  The engine and the
CLI close their executor after a run.

A custom backend implements ``map`` and ``submit`` (``submit_stream``
comes for free from :class:`_BaseExecutor`) and plugs in through
``ExecutionEngine(executor=...)``.
"""

from __future__ import annotations

import concurrent.futures
import inspect
import threading
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

if TYPE_CHECKING:  # asyncio loads with the first AsyncExecutor loop, not on import
    import asyncio

__all__ = [
    "EXECUTORS",
    "EXECUTOR_KINDS",
    "SubmitStream",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "AsyncExecutor",
    "create_executor",
]

T = TypeVar("T")
R = TypeVar("R")


class SubmitStream:
    """Completion-order drain over *dynamically* submitted work items.

    Work is submitted incrementally (:meth:`submit` tags each item), so a
    retried chunk can *re-enter* after its backoff and a speculative
    duplicate can join its straggling original.  :meth:`wait` blocks until
    at least one in-flight future settles and hands back ``(tag, future)``
    pairs **without inspecting them** — a failed future is just a
    completed future whose ``exception()`` is set, and nothing else in
    flight is touched.  The caller owns every decision about a failure;
    to fail fast it stops draining and calls :meth:`close`, which cancels
    whatever has not started.  Not thread-safe: one dispatcher thread
    drives it, like the engine's dispatch loop.
    """

    def __init__(self, executor: "_BaseExecutor", fn: Callable[[T], R]) -> None:
        self._executor = executor
        self._fn = fn
        self._inflight: Dict["concurrent.futures.Future[R]", object] = {}

    def submit(self, item: T, tag: object) -> "concurrent.futures.Future[R]":
        """Schedule one work item; ``tag`` comes back with its future."""
        future = self._executor.submit(self._fn, item)
        self._inflight[future] = tag
        return future

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    def wait(self, timeout: Optional[float] = None) -> List[Tuple[object, "concurrent.futures.Future[R]"]]:
        """Settled ``(tag, future)`` pairs, blocking up to ``timeout``.

        Returns as soon as any in-flight future completes (empty list on
        timeout or when nothing is in flight).  Futures are removed from
        the stream as they are handed back; failed ones cancel nothing.
        """
        if not self._inflight:
            return []
        done, _ = concurrent.futures.wait(
            list(self._inflight),
            timeout=timeout,
            return_when=concurrent.futures.FIRST_COMPLETED,
        )
        return [(self._inflight.pop(future), future) for future in done]

    def close(self) -> List[object]:
        """Cancel whatever has not started yet; return the abandoned tags.

        Futures already running on a thread/process worker run to
        completion and their results are dropped; the async backend
        cancels in-flight coroutines too.
        """
        tags = list(self._inflight.values())
        for future in self._inflight:
            future.cancel()
        self._inflight.clear()
        return tags


class _BaseExecutor:
    """Shared close/context-manager plumbing for the pooled backends."""

    name = "base"

    def __init__(self) -> None:
        self._closed = False

    @property
    def capacity(self) -> int:
        """How many work items this backend genuinely runs at once.

        The engine's tail-latency control reads this: speculative
        re-execution only duplicates a straggler when fewer than
        ``capacity`` work items are in flight (a duplicate that queues
        behind the straggler helps nobody).  Every backend runs ``jobs``
        items (the async backend's coroutine semaphore is ``jobs`` wide).
        """
        return getattr(self, "jobs", 1)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")

    def close(self) -> None:
        """Release pooled resources; further ``map``/``submit`` calls raise."""
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(self, fn: Callable[[T], R], item: T) -> "concurrent.futures.Future[R]":
        """Schedule one work item; returns a future for its result."""
        raise NotImplementedError

    def submit_stream(self, fn: Callable[[T], R]) -> "SubmitStream":
        """A :class:`SubmitStream` over this backend (see its docstring).

        The completion-order contract: work items are submitted
        incrementally, failures are delivered in their futures instead
        of tearing the stream down, and unrelated futures are never
        cancelled by one item's failure — which is what lets the
        engine's dispatch loop retry failed chunks after backoff and race
        speculative duplicates while the rest of the run keeps flowing.
        """
        self._check_open()
        return SubmitStream(self, fn)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(_BaseExecutor):
    """Run every work item in order on the calling thread."""

    name = "serial"
    jobs = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        self._check_open()
        return [fn(item) for item in items]

    def submit(self, fn: Callable[[T], R], item: T) -> "concurrent.futures.Future[R]":
        """Run the item immediately; the returned future is already done."""
        self._check_open()
        future: "concurrent.futures.Future[R]" = concurrent.futures.Future()
        try:
            future.set_result(fn(item))
        except BaseException as exc:  # propagate through future.result()
            future.set_exception(exc)
        return future

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<SerialExecutor>"


class ThreadPoolExecutor(_BaseExecutor):
    """Fan work items out over one persistent pool of worker threads.

    The pool is created lazily on the first ``map`` call and reused for
    every later one, so repeated engine runs (the CLI's ``repro all``, the
    benchmark harness) never pay thread start-up cost twice.  ``close()``
    shuts the pool down; use the executor as a context manager to scope it.
    """

    name = "thread"

    def __init__(self, jobs: int = 4) -> None:
        super().__init__()
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        with self._lock:
            self._check_open()
            if self._pool is None:
                self._pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.jobs, thread_name_prefix="repro-engine"
                )
            return self._pool

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        self._check_open()
        items = list(items)
        if len(items) <= 1 or self.jobs == 1:
            return [fn(item) for item in items]
        return list(self._ensure_pool().map(fn, items))

    def submit(self, fn: Callable[[T], R], item: T) -> "concurrent.futures.Future[R]":
        return self._ensure_pool().submit(fn, item)

    def close(self) -> None:
        with self._lock:
            super().close()
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ThreadPoolExecutor jobs={self.jobs}>"


class ProcessPoolExecutor(ThreadPoolExecutor):
    """A thread pool whose ordered ``map`` runs across worker processes.

    ``submit``/``submit_stream`` — every model chunk the engine dispatches —
    run on the inherited ``jobs`` threads, in process: model calls wait on
    I/O, and in process they read and fill the live response cache, so no
    prompt is sent twice.  Only ``map`` crosses the process boundary, on a
    second pool of ``jobs`` worker processes created lazily on the first
    ``map``: that is where the CPU-bound non-LLM work (Inspector verdicts)
    scales past the GIL.  ``fn`` given to ``map`` must be a module-level
    callable and every item/result must be picklable.  ``close()`` shuts
    both pools down.
    """

    name = "process"

    def __init__(self, jobs: int = 4) -> None:
        super().__init__(jobs=jobs)
        self._processes: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def _ensure_processes(self) -> concurrent.futures.ProcessPoolExecutor:
        with self._lock:
            self._check_open()
            if self._processes is None:
                self._processes = concurrent.futures.ProcessPoolExecutor(max_workers=self.jobs)
            return self._processes

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        self._check_open()
        items = list(items)
        if not items:
            return []
        return list(self._ensure_processes().map(fn, items))

    def close(self) -> None:
        super().close()
        with self._lock:
            if self._processes is not None:
                self._processes.shutdown(wait=True)
                self._processes = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ProcessPoolExecutor jobs={self.jobs}>"


class AsyncExecutor(_BaseExecutor):
    """Run work items concurrently on a persistent asyncio event loop.

    The loop runs in a dedicated background thread for the executor's whole
    lifetime.  ``map`` submits one task per item and gathers the results in
    input order:

    * a plain function is offloaded to a dedicated thread pool of width
      ``jobs`` (asyncio's *default* executor caps at ``min(32, cpus + 4)``
      threads, which would silently undercut larger ``jobs`` values), so
      today's synchronous simulated models work unchanged;
    * an ``async def`` function is awaited natively under a semaphore of
      the same width — the engine's async-native dispatch path runs
      chunk coroutines through exactly this seam, so in-flight concurrency
      is bounded by the semaphore, **not** by a thread count.

    ``native_async`` advertises the seam: the engine sees it and dispatches
    awaitable chunk coroutines (model I/O awaited on the loop) instead of
    offloading synchronous chunk functions to the thread pool.
    """

    name = "async"
    #: The engine dispatches coroutine chunk functions to this backend.
    native_async = True

    def __init__(self, jobs: int = 8) -> None:
        super().__init__()
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._lock = threading.Lock()

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        import asyncio

        with self._lock:
            self._check_open()
            if self._loop is None:
                self._loop = asyncio.new_event_loop()
                self._pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.jobs, thread_name_prefix="repro-async-worker"
                )
                # Make the dedicated pool the loop's default executor, so
                # every sync offload on this loop — including
                # ``asyncio.to_thread`` inside a model's default
                # ``generate_batch_async`` — gets the full ``jobs`` width
                # instead of asyncio's global min(32, cpus + 4) cap.
                self._loop.set_default_executor(self._pool)
                # Bounds native-coroutine concurrency for submit(); binds to
                # the loop on first acquire (Python >= 3.10 semantics).
                self._semaphore = asyncio.Semaphore(self.jobs)
                self._thread = threading.Thread(
                    target=self._loop.run_forever,
                    name="repro-async-executor",
                    daemon=True,
                )
                self._thread.start()
            return self._loop

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        self._check_open()
        items = list(items)
        if not items:
            return []
        import asyncio

        loop = self._ensure_loop()
        pool = self._pool
        is_async = inspect.iscoroutinefunction(fn)

        async def _gather() -> List[R]:
            semaphore = asyncio.Semaphore(self.jobs)
            running = asyncio.get_running_loop()

            async def _one(item: T) -> R:
                async with semaphore:
                    if is_async:
                        return await fn(item)
                    return await running.run_in_executor(pool, fn, item)

            # Explicit tasks instead of bare coroutines: when one work item
            # raises, gather re-raises immediately but would leave sibling
            # tasks running — an aborted run must not keep issuing model
            # calls in the background, so cancel them and wait them out.
            tasks = [running.create_task(_one(item)) for item in items]
            try:
                return await asyncio.gather(*tasks)
            except BaseException:
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
                raise

        return list(asyncio.run_coroutine_threadsafe(_gather(), loop).result())

    def submit(self, fn: Callable[[T], R], item: T) -> "concurrent.futures.Future[R]":
        """Schedule one item on the loop; sync fns offload to the thread pool.

        Native coroutine functions are bounded by a ``jobs``-wide semaphore
        and sync functions by the ``jobs``-worker offload pool, so
        ``submit`` keeps the same concurrency limit as ``map``.
        """
        import asyncio

        self._check_open()
        loop = self._ensure_loop()
        pool, semaphore = self._pool, self._semaphore

        if inspect.iscoroutinefunction(fn):

            async def _run() -> R:
                async with semaphore:  # type: ignore[union-attr]
                    return await fn(item)

        else:

            async def _run() -> R:
                running = asyncio.get_running_loop()
                return await running.run_in_executor(pool, fn, item)

        return asyncio.run_coroutine_threadsafe(_run(), loop)

    def close(self) -> None:
        with self._lock:
            super().close()
            loop, thread, pool = self._loop, self._thread, self._pool
            self._loop = self._thread = self._pool = None
            self._semaphore = None
        if loop is None:
            return
        import asyncio

        # Cancel whatever is still pending and let it unwind *on* the loop
        # before stopping it — otherwise orphaned coroutines would be
        # garbage-collected after loop.close() and their cleanup (semaphore
        # releases, ...) would hit a dead loop.
        async def _drain_pending() -> None:
            tasks = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

        try:
            asyncio.run_coroutine_threadsafe(_drain_pending(), loop).result(timeout=10)
        except (concurrent.futures.TimeoutError, RuntimeError):  # pragma: no cover
            pass  # a wedged task must not make close() hang forever
        loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=10)
        loop.close()
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<AsyncExecutor jobs={self.jobs}>"


#: Every built-in backend: ``kind -> factory(jobs)``, in the order the
#: CLI's ``--executor`` choices list them.
EXECUTORS: Dict[str, Callable[[int], object]] = {
    "serial": lambda jobs: SerialExecutor(),
    "thread": lambda jobs: ThreadPoolExecutor(jobs=jobs),
    "process": lambda jobs: ProcessPoolExecutor(jobs=jobs),
    "async": lambda jobs: AsyncExecutor(jobs=jobs),
}

#: The built-in backend names (the CLI's ``--executor`` choices).
EXECUTOR_KINDS: Tuple[str, ...] = tuple(EXECUTORS)


def create_executor(jobs: int = 1, kind: Optional[str] = None):
    """Build a built-in executor from :data:`EXECUTORS`.

    ``kind=None`` keeps the historical ``--jobs`` semantics: ``jobs <= 1``
    selects the serial backend, anything larger a thread pool of that width.
    An explicit ``kind`` picks that backend directly with ``max(jobs, 1)``
    workers.
    """
    if kind is None:
        kind = "serial" if jobs <= 1 else "thread"
    try:
        factory = EXECUTORS[kind]
    except KeyError as exc:
        raise ValueError(
            f"unknown executor kind {kind!r}; expected one of {EXECUTOR_KINDS}"
        ) from exc
    return factory(max(jobs, 1))
