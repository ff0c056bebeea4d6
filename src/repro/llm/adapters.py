"""Model adapters: fine-tuning heads and transport wrappers.

Two kinds of adapter live here:

* :class:`LowRankAdapter` — the QLoRA analogue.  The paper fine-tunes
  Llama2-7b and StarChat-beta with QLoRA (LoRA attention dimension 64,
  dropout 0.1).  At simulation scale the trainable component is a logistic
  head over hashed n-gram code features, factored through a fixed random
  projection of rank ``rank`` — i.e. only ``rank + 1`` parameters are
  trained on top of a frozen featurisation, which is the structural point
  of a LoRA adapter.
* :class:`AsyncRemoteAdapter` — a *transport* adapter: it wraps any
  :class:`~repro.llm.base.LanguageModel` in a simulated remote API client
  with configurable per-call network latency and jitter, implemented
  natively on asyncio.  The sync path blocks for the latency like a
  requests-style client; the async path awaits it like an aiohttp-style
  client, so an event loop can keep thousands of calls in flight at once.
  This is the shape a real ``AsyncAnthropic``/``AsyncOpenAI`` adapter
  takes — swap the ``asyncio.sleep`` for the real awaited HTTP call.
* :class:`FlakyTailAdapter` — a transport adapter simulating a *heavy-tail*
  remote API: a deterministic subset of prompts hangs for ``tail_latency_s``
  on its **first** attempt (a flaky connection, a stuck provider queue) and
  answers at base latency on retries.  Response *content* is always the
  wrapped model's and never changes — only timing is flaky — which is
  exactly the regime the engine's speculative re-execution targets: a
  duplicate of the straggling chunk completes at base speed while the
  original is still hanging.
* :class:`ChaosAdapter` — the fault-injection harness: it wraps any model
  in *deterministic* schedules of transient exceptions, malformed (wrong
  length) batch responses and hangs, selected per prompt from the prompt
  text.  Which prompts misbehave, how many attempts they misbehave for,
  and what every prompt ultimately answers are all pure functions of the
  inputs — so a run with chaos on plus enough retries must produce
  confusion counts bit-identical to a fault-free run, which is exactly
  the property ``tests/engine/test_faults.py`` pins.
* :class:`StaticAnalyzerModel` / :class:`InspectorTierModel` — *tier*
  adapters: they present the repo's non-LLM detectors (the static race
  analyzer from ``repro.analysis`` and the dynamic inspector from
  ``repro.dynamic``) behind the :class:`LanguageModel` interface so the
  cascade router in ``repro.engine.cascade`` can schedule, price and cache
  them exactly like any model.  Responses are rendered in the same shapes
  the simulated zoo produces (so ``score_response`` parses them unchanged)
  and carry an explicit ``[confidence=X.XX]`` marker that
  ``repro.engine.requests.response_confidence`` reads for escalation
  decisions.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.static_race import StaticRaceDetector, StaticRaceReport
from repro.dynamic.inspector import InspectorLikeDetector, InspectorRunResult
from repro.llm.base import LanguageModel
from repro.llm.behavior import deterministic_uniform, simulated_latency
from repro.llm.features import PROGRAM_ERRORS, extract_code_from_prompt
from repro.llm.responses import render_pairs_response
from repro.llm.zoo import _classify_request, _is_analysis_request
from repro.prompting.strategy import PromptStrategy

if TYPE_CHECKING:  # the async paths import asyncio when they first run
    import asyncio

__all__ = [
    "AsyncRemoteAdapter",
    "ChaosAdapter",
    "FlakyTailAdapter",
    "InspectorTierModel",
    "LowRankAdapter",
    "StaticAnalyzerModel",
    "reset_chaos_attempts",
]

#: Process-wide chaos attempt registry: (model name, salt, prompt) ->
#: calls that have touched the prompt in *this* process.  Module-level on
#: purpose: every copy of a ChaosAdapter, a pickled one included, shares
#: these counts, so copying the adapter never restarts a prompt's chaos.
_CHAOS_ATTEMPTS: Dict[Tuple[str, str, str], int] = {}
_CHAOS_LOCK = threading.Lock()


def reset_chaos_attempts() -> None:
    """Forget all chaos attempt counts (test isolation between runs)."""
    with _CHAOS_LOCK:
        _CHAOS_ATTEMPTS.clear()


def _sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-z))


class AsyncRemoteAdapter(LanguageModel):
    """A simulated remote API client around any language model.

    Parameters
    ----------
    inner:
        The wrapped model; it supplies the response *content* (and the
        cache identity).  It should itself be latency-free — this adapter
        owns the transport latency.
    latency_s:
        Base per-call network latency in seconds.
    latency_jitter_s:
        Extra per-call latency in ``[0, latency_jitter_s)``, drawn
        deterministically from the prompt text, so two runs over the same
        prompts sleep identically (benchmarks stay apples-to-apples).
    max_concurrency:
        Optional cap on concurrently in-flight async calls through this
        adapter — the analogue of an HTTP client's connection-pool limit.
        ``None`` leaves concurrency to the caller (the async executor's
        ``jobs``-wide semaphore).
    """

    def __init__(
        self,
        inner: LanguageModel,
        *,
        latency_s: float = 0.05,
        latency_jitter_s: float = 0.0,
        max_concurrency: Optional[int] = None,
    ) -> None:
        if latency_s < 0 or latency_jitter_s < 0:
            raise ValueError("latencies must be >= 0")
        if max_concurrency is not None and max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1 or None")
        self.inner = inner
        self.name = inner.name
        self.context_window = inner.context_window
        self.latency_s = latency_s
        self.latency_jitter_s = latency_jitter_s
        self.max_concurrency = max_concurrency
        # asyncio primitives bind to a loop; create the semaphore lazily on
        # the loop that first uses it and rebuild if the loop changes (the
        # AsyncExecutor recreates its loop after close()).
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._semaphore_loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def cache_identity(self) -> str:
        # Transport latency never changes the response content, so the
        # adapter shares cached responses with its inner model.
        return self.inner.cache_identity

    def _call_delay(self, prompt: str) -> float:
        return simulated_latency(
            self.latency_s, self.latency_jitter_s, self.name, "remote-latency", prompt
        )

    def generate(self, prompt: str) -> str:
        """Sync client behaviour: block the calling thread for the latency."""
        delay = self._call_delay(prompt)
        if delay > 0:
            time.sleep(delay)
        return self.inner.generate(prompt)

    async def generate_async(self, prompt: str) -> str:
        """Async client behaviour: await the latency on the event loop."""
        semaphore = self._ensure_semaphore()
        if semaphore is None:
            return await self._call(prompt)
        async with semaphore:
            return await self._call(prompt)

    # generate_batch_async comes from the LanguageModel default, which
    # gathers the native generate_async — every call's latency (and the
    # max_concurrency semaphore) applies per call within one gather.

    async def _call(self, prompt: str) -> str:
        import asyncio

        delay = self._call_delay(prompt)
        if delay > 0:
            await asyncio.sleep(delay)
        return self.inner.generate(prompt)

    def _ensure_semaphore(self) -> Optional[asyncio.Semaphore]:
        if self.max_concurrency is None:
            return None
        import asyncio

        loop = asyncio.get_running_loop()
        if self._semaphore is None or self._semaphore_loop is not loop:
            self._semaphore = asyncio.Semaphore(self.max_concurrency)
            self._semaphore_loop = loop
        return self._semaphore

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<AsyncRemoteAdapter inner={self.inner!r} latency_s={self.latency_s}"
            f" jitter_s={self.latency_jitter_s}>"
        )


class FlakyTailAdapter(LanguageModel):
    """A simulated remote API with deterministic heavy-tail first-call latency.

    Parameters
    ----------
    inner:
        The wrapped model; it supplies the response content (and the cache
        identity — timing never changes what a prompt answers).
    latency_s:
        Base per-call latency in seconds, paid by every call.
    tail_latency_s:
        What a *tail* call costs instead: the first attempt at a tail
        prompt hangs this long, modelling a flaky wire call.  Later
        attempts at the same prompt (a speculative duplicate, a retry)
        pay only ``latency_s`` — the hang is per *call*, not per prompt.
    tail_ratio:
        Fraction of prompts that are tail prompts, selected
        deterministically from the prompt text (same prompts hang in
        every run, so benchmarks comparing schedules stay
        apples-to-apples).

    Determinism: *which* prompts hang and *what* every prompt answers are
    both pure functions of the inputs.  Only the per-prompt attempt
    counter is stateful, and it only ever shortens latency — so confusion
    counts are bit-identical across executors, speculation on/off and
    repeated runs.
    """

    def __init__(
        self,
        inner: LanguageModel,
        *,
        latency_s: float = 0.01,
        tail_latency_s: float = 0.5,
        tail_ratio: float = 0.1,
    ) -> None:
        if latency_s < 0 or tail_latency_s < 0:
            raise ValueError("latencies must be >= 0")
        if not 0.0 <= tail_ratio <= 1.0:
            raise ValueError("tail_ratio must be in [0, 1]")
        self.inner = inner
        self.name = inner.name
        self.context_window = inner.context_window
        self.latency_s = latency_s
        self.tail_latency_s = tail_latency_s
        self.tail_ratio = tail_ratio
        self._attempts: Dict[str, int] = {}
        self._lock = threading.Lock()

    @property
    def cache_identity(self) -> str:
        # Transport flakiness never changes response content, so the
        # adapter shares cached responses with its inner model.
        return self.inner.cache_identity

    def is_tail_prompt(self, prompt: str) -> bool:
        """Whether ``prompt`` is one of the deterministically flaky ones."""
        return (
            deterministic_uniform(self.name, "flaky-tail", prompt) < self.tail_ratio
        )

    def _call_delay(self, prompt: str) -> float:
        with self._lock:
            attempt = self._attempts.get(prompt, 0)
            self._attempts[prompt] = attempt + 1
        if attempt == 0 and self.is_tail_prompt(prompt):
            return self.tail_latency_s
        return self.latency_s

    def generate(self, prompt: str) -> str:
        delay = self._call_delay(prompt)
        if delay > 0:
            time.sleep(delay)
        return self.inner.generate(prompt)

    async def generate_async(self, prompt: str) -> str:
        """Await the (possibly tail) latency on the loop, never a thread."""
        import asyncio

        delay = self._call_delay(prompt)
        if delay > 0:
            await asyncio.sleep(delay)
        return self.inner.generate(prompt)

    # generate_batch / generate_batch_async come from the LanguageModel
    # defaults: the sync batch walks prompts serially (one hung call stalls
    # the whole chunk — the straggler regime), while the async batch
    # gathers generate_async so only the tail call itself hangs.

    def __getstate__(self):
        # A pickled copy drops the lock and the attempt history: it starts
        # its own attempt count, which only affects timing, never content.
        state = self.__dict__.copy()
        state["_lock"] = None
        state["_attempts"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<FlakyTailAdapter inner={self.inner!r} latency_s={self.latency_s}"
            f" tail_latency_s={self.tail_latency_s} tail_ratio={self.tail_ratio}>"
        )


class ChaosAdapter(LanguageModel):
    """Deterministic fault injection around any language model.

    Each prompt is assigned at most one chaos mode by partitioning a
    single deterministic uniform draw over the prompt text:

    * **transient** — the first ``fail_attempts`` calls touching the
      prompt raise :class:`~repro.engine.faults.TransientModelError`;
    * **malformed** — the first ``fail_attempts`` batch calls containing
      the prompt return a batch of the *wrong length* (and single-prompt
      calls raise
      :class:`~repro.engine.faults.MalformedResponseError` directly), so
      the engine's batch-length guard is what classifies the failure;
    * **hang** — the first ``fail_attempts`` calls sleep/await
      ``hang_s`` extra before answering (timing chaos only).

    After its scheduled misbehaviour a prompt answers exactly what the
    wrapped model answers — content is never perturbed, so with enough
    retries a chaotic run is bit-identical to a fault-free one.  One
    failing call consumes the schedule of *every* chaotic prompt it
    carried, and attempt counters live in a process-wide registry keyed
    on ``(model name, salt, prompt)``, which every copy of the adapter
    shares.  A chunk's calls misbehave at most ``fail_attempts`` times,
    so ``retries >= fail_attempts`` guarantees recovery.  Counters
    only change *when* a prompt recovers, never *what* it answers; tests
    sharing a salt should call :func:`reset_chaos_attempts` between
    runs.
    """

    def __init__(
        self,
        inner: LanguageModel,
        *,
        transient_ratio: float = 0.0,
        malformed_ratio: float = 0.0,
        hang_ratio: float = 0.0,
        hang_s: float = 0.05,
        fail_attempts: int = 1,
        salt: str = "chaos",
    ) -> None:
        for label, ratio in (
            ("transient_ratio", transient_ratio),
            ("malformed_ratio", malformed_ratio),
            ("hang_ratio", hang_ratio),
        ):
            if not 0.0 <= ratio <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {ratio}")
        if transient_ratio + malformed_ratio + hang_ratio > 1.0:
            raise ValueError("chaos ratios must sum to <= 1.0")
        if hang_s < 0:
            raise ValueError("hang_s must be >= 0")
        if fail_attempts < 0:
            raise ValueError("fail_attempts must be >= 0")
        self.inner = inner
        self.name = inner.name
        self.context_window = inner.context_window
        self.transient_ratio = transient_ratio
        self.malformed_ratio = malformed_ratio
        self.hang_ratio = hang_ratio
        self.hang_s = hang_s
        self.fail_attempts = fail_attempts
        self.salt = salt

    @property
    def cache_identity(self) -> str:
        # Chaos never changes response content, so the adapter shares
        # cached responses (and its circuit breaker) with its inner model.
        return self.inner.cache_identity

    def chaos_mode(self, prompt: str) -> Optional[str]:
        """The prompt's scheduled misbehaviour, or ``None``.

        One uniform draw partitioned into disjoint intervals, so a
        prompt has exactly one mode and the schedule is a pure function
        of ``(name, salt, prompt)``.
        """
        draw = deterministic_uniform(self.name, f"{self.salt}-mode", prompt)
        if draw < self.transient_ratio:
            return "transient"
        if draw < self.transient_ratio + self.malformed_ratio:
            return "malformed"
        if draw < self.transient_ratio + self.malformed_ratio + self.hang_ratio:
            return "hang"
        return None

    def _misbehaves(self, prompt: str, mode: Optional[str]) -> bool:
        if mode is None:
            return False
        key = (self.name, self.salt, prompt)
        with _CHAOS_LOCK:
            attempt = _CHAOS_ATTEMPTS.get(key, 0)
            _CHAOS_ATTEMPTS[key] = attempt + 1
        return attempt < self.fail_attempts

    def _survey(self, prompts: List[str]) -> Tuple[int, int, bool]:
        """Consume every prompt's schedule for one call, then report.

        Returns ``(transient, drop, hang)``.  Surveying the whole batch
        before misbehaving matters: raising on the first chaotic prompt
        would leave later prompts' budgets unconsumed, so a chunk with k
        chaotic prompts would need k failing attempts to drain — the
        required retry budget would scale with fault density instead of
        worker count.
        """
        transient = drop = 0
        hang = False
        for prompt in prompts:
            mode = self.chaos_mode(prompt)
            if self._misbehaves(prompt, mode):
                if mode == "transient":
                    transient += 1
                elif mode == "malformed":
                    drop += 1
                else:
                    hang = True
        return transient, drop, hang

    def generate(self, prompt: str) -> str:
        from repro.engine.faults import MalformedResponseError, TransientModelError

        mode = self.chaos_mode(prompt)
        if self._misbehaves(prompt, mode):
            if mode == "transient":
                raise TransientModelError(
                    f"injected transient fault ({self.name})"
                )
            if mode == "malformed":
                raise MalformedResponseError(
                    f"injected malformed response ({self.name})"
                )
            time.sleep(self.hang_s)
        return self.inner.generate(prompt)

    def generate_batch(self, prompts) -> List[str]:
        from repro.engine.faults import TransientModelError

        prompts = list(prompts)
        transient, drop, hang = self._survey(prompts)
        if hang:
            time.sleep(self.hang_s)
        if transient:
            raise TransientModelError(f"injected transient fault ({self.name})")
        responses = self.inner.generate_batch(prompts)
        # A wrong-length batch: the engine's length guard is what turns
        # this into MalformedResponseError.
        return responses[: len(responses) - drop] if drop else responses

    async def generate_batch_async(self, prompts) -> List[str]:
        import asyncio

        from repro.engine.faults import TransientModelError

        prompts = list(prompts)
        transient, drop, hang = self._survey(prompts)
        if hang:
            await asyncio.sleep(self.hang_s)
        if transient:
            raise TransientModelError(f"injected transient fault ({self.name})")
        responses = await self.inner.generate_batch_async(prompts)
        return responses[: len(responses) - drop] if drop else responses

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ChaosAdapter inner={self.inner!r}"
            f" transient={self.transient_ratio} malformed={self.malformed_ratio}"
            f" hang={self.hang_ratio} fail_attempts={self.fail_attempts}>"
        )


@functools.lru_cache(maxsize=8)
def adapter_projection(input_dim: int, rank: int, seed: int) -> np.ndarray:
    """The frozen ``(input_dim, rank)`` projection of a :class:`LowRankAdapter`.

    A pure function of its arguments, so every adapter with the same shape
    and seed shares one read-only array instead of drawing its own (a
    512 x 64 projection is 262 KB).
    """
    projection = np.random.default_rng(seed).standard_normal((input_dim, rank))
    projection.setflags(write=False)
    return projection


@dataclass
class LowRankAdapter:
    """A trainable low-rank logistic head.

    Parameters
    ----------
    input_dim:
        Dimensionality of the (frozen) feature vectors.
    rank:
        LoRA rank: the trained weight vector lives in a ``rank``-dimensional
        subspace spanned by a fixed random projection.
    dropout:
        Feature dropout applied during training only.
    seed:
        Seed for the projection matrix and dropout masks.

    Only ``weights`` and ``bias`` are trained and stored.  The projection
    is derived, not stored: :attr:`projection` reads
    :func:`adapter_projection` of ``(input_dim, rank, seed)``, so an
    adapter rebuilt from a cache entry that never scores or trains draws
    no random matrix.
    """

    input_dim: int = 512
    rank: int = 64
    dropout: float = 0.1
    seed: int = 0
    weights: np.ndarray = field(init=False, repr=False)
    bias: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        self.weights = np.zeros(self.rank, dtype=np.float64)
        self.bias = 0.0

    @property
    def projection(self) -> np.ndarray:
        """The frozen ``(input_dim, rank)`` projection, drawn on first use."""
        return adapter_projection(self.input_dim, self.rank, self.seed)

    # -- inference ----------------------------------------------------------------

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Probability of the positive class for one vector or a batch."""
        single = features.ndim == 1
        batch = features.reshape(1, -1) if single else features
        logits = batch @ self.projection @ self.weights + self.bias
        probs = _sigmoid(logits)
        return float(probs[0]) if single else probs

    # -- training -----------------------------------------------------------------

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        *,
        learning_rate: float = 0.2,
        epochs: int = 40,
        batch_size: int = 4,
        l2: float = 1e-3,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Mini-batch gradient descent on the cross-entropy loss.

        A lone fit is :func:`fit_adapters` over one adapter, starting from
        the head's current weights and bias; by default the shuffling and
        dropout RNG is ``default_rng(seed + 1)``.  Returns the final
        epoch's average training loss (useful for tests asserting that
        training actually reduces the loss).
        """
        if features.shape[0] != labels.shape[0]:
            raise ValueError("features and labels must have the same length")
        (loss,) = fit_adapters(
            [self],
            [features @ self.projection],
            [labels],
            learning_rates=[learning_rate],
            epochs=epochs,
            batch_size=batch_size,
            l2=l2,
            rngs=[rng or np.random.default_rng(self.seed + 1)],
        )
        return loss


def _batch_loss(probs: np.ndarray, targets: np.ndarray, axis: int) -> np.ndarray:
    eps = 1e-9
    return -np.mean(
        targets * np.log(probs + eps) + (1 - targets) * np.log(1 - probs + eps), axis=axis
    )


def fit_adapters(
    adapters: Sequence[LowRankAdapter],
    projected: Sequence[np.ndarray],
    labels: Sequence[np.ndarray],
    *,
    learning_rates: Sequence[float],
    epochs: int,
    batch_size: int,
    l2: float = 1e-3,
    rngs: Sequence[np.random.Generator],
) -> List[float]:
    """Train K adapters in lockstep; return each one's final-epoch loss.

    Adapter ``k`` trains on ``projected[k]`` (its features already through
    its projection, shape ``(n_k, rank)``) and ``labels[k]`` with its own
    learning rate and RNG, from its current weights and bias, and comes out
    with exactly the weights, bias and loss it would get trained alone:
    every operation below is the
    per-adapter one, stacked along a leading axis of length K, so each
    element sees the same float operations in the same order.

    Each epoch, every adapter draws its permutation and then its dropout
    mask from its own RNG.  The mini-batches all adapters have in full
    (``min(n_k) // batch_size`` of them) then run as one stacked step each:
    ``(K, b, rank) @ (K, rank, 1)`` logits, ``(K, rank, b) @ (K, b, 1)``
    weight gradients and a per-adapter learning-rate column.  The rest of
    each adapter's rows — its ragged last batch — run alone with the same
    step on 2-D arrays.  Only the final epoch computes the loss: it touches
    neither the RNGs nor the weights.
    """
    count = len(adapters)
    if count == 0:
        return []
    if not (len(projected) == len(labels) == len(learning_rates) == len(rngs) == count):
        raise ValueError("adapters, projected, labels, learning_rates and rngs differ in length")
    rank, dropout = adapters[0].rank, adapters[0].dropout
    if any(a.rank != rank or a.dropout != dropout for a in adapters):
        raise ValueError("lockstep adapters must share rank and dropout")
    sizes = [rows.shape[0] for rows in projected]
    if any(p.shape != (n, rank) or y.shape != (n,) for p, y, n in zip(projected, labels, sizes)):
        raise ValueError("each adapter needs (n, rank) projected rows and n labels")
    steps = min(sizes) // batch_size
    lockstep = steps * batch_size
    weights = np.stack([a.weights for a in adapters]).reshape(count, rank, 1)
    bias = np.array([a.bias for a in adapters], dtype=np.float64).reshape(count, 1, 1)
    rates = np.array(learning_rates, dtype=np.float64).reshape(count, 1, 1)
    batches = np.empty((steps, count, batch_size, rank))
    batches_t = batches.transpose(0, 1, 3, 2)
    targets = np.empty((steps, count, batch_size, 1))
    losses = [float("inf")] * count
    for epoch in range(epochs):
        final = epoch == epochs - 1
        rest = []
        for k in range(count):
            order = rngs[k].permutation(sizes[k])
            rows = projected[k][order]
            if dropout > 0:
                mask = rngs[k].random(rows.shape) >= dropout
                rows = rows * mask / (1.0 - dropout)
            target = labels[k][order]
            batches[:, k] = rows[:lockstep].reshape(steps, batch_size, rank)
            targets[:, k] = target[:lockstep].reshape(steps, batch_size, 1)
            rest.append((rows[lockstep:], target[lockstep:]))
        step_losses = []
        for batch, batch_t, target in zip(batches, batches_t, targets):
            probs = _sigmoid(batch @ weights + bias)
            error = probs - target
            weights -= rates * (batch_t @ error / batch_size + l2 * weights)
            bias -= rates * (np.add.reduce(error, axis=1, keepdims=True) / batch_size)
            if final:
                step_losses.append(_batch_loss(probs, target, axis=1)[:, 0])
        for k, (rows, target) in enumerate(rest):
            w, b, rate = weights[k, :, 0], float(bias[k, 0, 0]), float(rates[k, 0, 0])
            batch_losses = [float(loss[k]) for loss in step_losses]
            for start in range(0, rows.shape[0], batch_size):
                batch, y = rows[start : start + batch_size], target[start : start + batch_size]
                m = batch.shape[0]
                probs = _sigmoid(batch @ w + b)
                error = probs - y
                w -= rate * (batch.T @ error / m + l2 * w)
                b -= rate * float(np.add.reduce(error) / m)
                if final:
                    batch_losses.append(float(_batch_loss(probs, y, axis=0)))
            bias[k, 0, 0] = b
            if final and batch_losses:
                losses[k] = float(np.mean(batch_losses))
    for k, adapter in enumerate(adapters):
        adapter.weights = weights[k, :, 0].copy()
        adapter.bias = float(bias[k, 0, 0])
    return losses


def _confidence_marker(value: float) -> str:
    return f"\n[confidence={max(0.0, min(1.0, value)):.2f}]"


def _pair_element(site) -> Tuple[str, int, int, str]:
    """(expr, line, col, op) element from an AccessSite or AccessEvent."""
    expr = getattr(site, "expr_text", "") or getattr(site, "variable", "unknown")
    return (expr, site.line, site.col, "W" if site.is_write else "R")


class _DetectorTierModel(LanguageModel):
    """Common scaffolding for cascade tier adapters over non-LLM detectors.

    Subclasses implement :meth:`_analyze` returning ``(verdict, pairs,
    confidence)`` where ``verdict`` is ``None`` when the detector could not
    process the snippet at all, ``pairs`` is a list of 2-tuples of pair
    elements and ``confidence`` is the detector's self-assessment in
    ``[0, 1]``.  Responses reuse the zoo's renderer shapes so
    ``score_response`` parses them unchanged, and end with a
    ``[confidence=X.XX]`` marker for the cascade's escalation decision.
    """

    #: Planning-time cost prior in seconds/request; consumed by the engine's
    #: CostModel cold-start path so an unobserved tier prices as
    #: cheap-but-unknown instead of blocking LPT ordering.
    cost_prior_s: float = 0.01
    #: Human label used in dependence-analysis (AP2 chain 1) responses.
    analysis_label = "analysis"
    context_window = 1 << 20

    def _analyze(self, code: str):
        raise NotImplementedError

    def _verdict_text(self, verdict: Optional[bool], pairs: List) -> str:
        raise NotImplementedError

    def generate(self, prompt: str) -> str:
        code = extract_code_from_prompt(prompt)
        verdict, pairs, confidence = self._analyze(code)
        if _is_analysis_request(prompt):
            # AP2 chain 1: intermediate text, never scored — no marker.
            return self._render_analysis(verdict, pairs)
        strategy = _classify_request(prompt)
        if strategy.requests_pairs:
            if verdict is None:
                body = "analysis unavailable for this snippet."
            else:
                pair = pairs[0] if (verdict and pairs) else None
                body = render_pairs_response(
                    bool(verdict),
                    pair,
                    well_formed=True,
                    word_ops=strategy is PromptStrategy.ADVANCED,
                )
        else:
            body = self._verdict_text(verdict, pairs)
        return body + _confidence_marker(confidence)

    def _render_analysis(self, verdict: Optional[bool], pairs: List) -> str:
        if verdict is None:
            return "The code could not be fully analyzed; treating accesses conservatively."
        lines: List[str] = []
        if pairs:
            lines.append(
                f"The following conflicting accesses were found by {self.analysis_label}:"
            )
            for (expr, line, _col, op), _second in pairs[:6]:
                kind = "write" if op == "W" else "read"
                lines.append(f"- {kind} of {expr} at line {line}")
        else:
            lines.append(
                "No loop-carried data dependences between concurrent iterations were identified."
            )
        return "\n".join(lines)

    @staticmethod
    def _subject(pairs: List) -> str:
        if pairs:
            return pairs[0][0][0]
        return "a shared variable"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


class StaticAnalyzerModel(_DetectorTierModel):
    """The static race analyzer behind the :class:`LanguageModel` interface.

    Extremely cheap — the canonical tier-0 of the cascade.  The confidence
    marker is the report's own self-assessment: for racy verdicts the
    per-rule calibrated confidence of the strongest fired ``DRD-*``
    diagnostic, for clean verdicts the MHP/mutex proof certainty minus a
    deduction per assumption-bearing suppression class (see
    :class:`repro.analysis.static_race.StaticRaceReport.confidence`) — so
    well-supported verdicts on either side clear the cascade's default
    escalation threshold and only genuinely uncertain records pay for a
    stronger tier.  Carries its own ``cache_identity`` (``tier:static``) so the
    :class:`~repro.engine.costmodel.CostModel` prices and the cache stores
    it independently of any LLM.
    """

    name = "tier:static"
    cost_prior_s = 0.002
    analysis_label = "static data dependence analysis"

    def __init__(self, detector: Optional[StaticRaceDetector] = None) -> None:
        self.detector = detector or StaticRaceDetector()

    def _analyze(self, code: str):
        try:
            report: StaticRaceReport = self.detector.analyze_source(code)
        except PROGRAM_ERRORS:
            # A malformed program: unusable verdict.
            return None, [], 0.0
        pairs = [(_pair_element(p.first), _pair_element(p.second)) for p in report.pairs]
        return report.has_race, pairs, report.confidence

    def _verdict_text(self, verdict: Optional[bool], pairs: List) -> str:
        if verdict is None:
            return "static analysis could not process the snippet."
        if verdict:
            return (
                f"yes. Static analysis flagged {len(pairs)} conflicting access pair(s): "
                f"concurrent iterations may update {self._subject(pairs)} without "
                "sufficient synchronization."
            )
        return (
            "no. Static analysis proved every shared access either synchronized "
            "or iteration-private."
        )


class InspectorTierModel(_DetectorTierModel):
    """The dynamic inspector behind the :class:`LanguageModel` interface.

    Under-approximate and moderately priced: a witnessed conflict is near
    ground truth, a clean run only covers the schedules executed.  The
    natural mid-tier between the static analyzer and a full LLM.
    """

    name = "tier:inspector"
    cost_prior_s = 0.01
    analysis_label = "dynamic execution"

    def __init__(
        self,
        detector: Optional[InspectorLikeDetector] = None,
        *,
        num_threads: int = 4,
    ) -> None:
        self.detector = detector or InspectorLikeDetector()
        self.num_threads = num_threads

    def _analyze(self, code: str):
        try:
            result: InspectorRunResult = self.detector.analyze_source(
                code, name="cascade-tier", num_threads=self.num_threads
            )
        except PROGRAM_ERRORS:
            return None, [], 0.0
        if result.failed and result.runs <= 0:
            return None, [], result.confidence
        pairs = [(_pair_element(p.first), _pair_element(p.second)) for p in result.pairs]
        return result.has_race, pairs, result.confidence

    def _verdict_text(self, verdict: Optional[bool], pairs: List) -> str:
        if verdict is None:
            return "the interpreter could not execute this snippet."
        if verdict:
            return (
                f"yes. The interpreter witnessed conflicting concurrent accesses to "
                f"{self._subject(pairs)} during execution."
            )
        return (
            "no. All exercised interleavings executed cleanly with the shared "
            "accesses properly synchronized."
        )
