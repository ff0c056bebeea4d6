"""Language model interface.

Every model in the zoo — and every fine-tuned wrapper — implements
:class:`LanguageModel`: plain text in, plain text out, plus a convenience
chat form.  The evaluation harness and the prompt chains only ever talk to
this interface, so swapping a simulated model for a real API client would not
change any downstream code.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Sequence

__all__ = ["ChatMessage", "LanguageModel"]


@dataclass(frozen=True)
class ChatMessage:
    """One message of a chat conversation."""

    role: str  # "system" | "user" | "assistant"
    content: str


class LanguageModel(abc.ABC):
    """Abstract text-in/text-out model.

    Error contract
    --------------
    Adapters wrapping fallible transports should raise the engine's
    error taxonomy (:mod:`repro.engine.faults`):
    :class:`~repro.engine.faults.TransientModelError` for failures a
    retry may fix (rate limits, timeouts, dropped connections),
    :class:`~repro.engine.faults.PermanentModelError` for failures it
    cannot (bad credentials, unknown model), and
    :class:`~repro.engine.faults.MalformedResponseError` when the
    backend answered with an unusable payload.  Unclassified exceptions
    are mapped by :func:`~repro.engine.faults.classify_error`, so
    pre-taxonomy adapters keep working — the taxonomy just routes
    retries and circuit breakers more precisely.
    """

    #: Human-readable model identifier (e.g. ``"gpt-4"``).
    name: str = "model"
    #: Maximum prompt size in tokens (the paper filters inputs to 4k).
    context_window: int = 4096

    @abc.abstractmethod
    def generate(self, prompt: str) -> str:
        """Produce a completion for ``prompt``."""

    def generate_batch(self, prompts: Sequence[str]) -> List[str]:
        """Produce completions for many prompts (same order as the input).

        The default implementation simply loops over :meth:`generate`;
        adapters wrapping real APIs or local inference servers should
        override it with a true batched call.  The execution engine only
        ever talks to models through this method.  A per-prompt
        completion that is not text raises
        :class:`~repro.engine.faults.MalformedResponseError` here rather
        than corrupting scoring downstream.
        """
        completions = []
        for prompt in prompts:
            completion = self.generate(prompt)
            if not isinstance(completion, str):
                # Imported lazily: repro.engine.requests imports this
                # module, so a module-level engine import would cycle.
                from repro.engine.faults import MalformedResponseError

                raise MalformedResponseError(
                    f"model {self.name!r} returned a non-text completion "
                    f"({type(completion).__name__})"
                )
            completions.append(completion)
        return completions

    async def generate_async(self, prompt: str) -> str:
        """Produce a completion without blocking the event loop.

        The default offloads the synchronous :meth:`generate` to a worker
        thread, so any model is usable from the async execution path.
        Adapters whose transport is natively asynchronous (aiohttp-style
        API clients, the simulated zoo models) override this with a real
        coroutine — that is what lets thousands of calls be in flight on
        one event loop instead of one per pool thread.
        """
        import asyncio  # loaded only by the async paths, not on import

        return await asyncio.to_thread(self.generate, prompt)

    async def generate_batch_async(self, prompts: Sequence[str]) -> List[str]:
        """Batched async generation (same order as the input).

        The default picks the most concurrent correct path available: a
        model that overrides :meth:`generate_async` gets a gather over it
        (every call's latency overlaps on the loop); a sync-only model
        gets its own :meth:`generate_batch` offloaded to a worker thread
        in one piece, preserving whatever batching the adapter implements.
        Natively-batched adapters should override this with one awaited
        call — the engine's async dispatch path only ever talks to models
        through this method.
        """
        import asyncio

        prompts = list(prompts)
        if self.has_native_async:
            return list(
                await asyncio.gather(*(self.generate_async(p) for p in prompts))
            )
        return await asyncio.to_thread(self.generate_batch, prompts)

    @property
    def has_native_async(self) -> bool:
        """Whether this model's async methods are more than a thread offload.

        True when :meth:`generate_async` or :meth:`generate_batch_async`
        is overridden.  :meth:`generate_batch_async`'s default checks
        this to choose between a gather over :meth:`generate_async` and
        one offloaded :meth:`generate_batch`.
        """
        return (
            type(self).generate_async is not LanguageModel.generate_async
            or type(self).generate_batch_async is not LanguageModel.generate_batch_async
        )

    @property
    def cache_identity(self) -> str:
        """Key namespace for the response cache.

        Two model instances may share cached responses only when their
        identities match.  The default — the model name — is right for
        stateless models whose behaviour is fully determined by the name;
        models with trained state (see
        :class:`~repro.llm.finetune.FineTunedModel`) must extend it with a
        content fingerprint of that state.
        """
        return self.name

    def chat(self, messages: Sequence[ChatMessage]) -> str:
        """Chat-style entry point: concatenates the conversation and generates.

        The simulated models do not maintain conversational state beyond what
        is present in the transcript, which matches how the paper drives the
        real models (one detection request per code snippet).
        """
        transcript = "\n\n".join(f"[{m.role}] {m.content}" for m in messages)
        return self.generate(transcript)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
