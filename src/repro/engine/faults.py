"""Fault-tolerance primitives for the execution engine.

The engine built by PRs 1-8 is fast but fail-fast: one transient
backend hiccup inside a chunk worker used to propagate out of the
dispatcher, cancel every outstanding future and abort the whole run.
This module supplies the pieces that turn that into graceful
degradation:

* An **error taxonomy** (:class:`TransientModelError`,
  :class:`PermanentModelError`, :class:`MalformedResponseError`) that
  model adapters raise and :func:`classify_error` maps arbitrary
  exceptions onto.  All three subclass :class:`ModelError` which itself
  subclasses :class:`RuntimeError`, so pre-taxonomy call sites that
  assert ``RuntimeError`` keep working unchanged.
* A :class:`RetryPolicy` — exponential backoff with *deterministic*
  seeded jitter (no wall-clock randomness), so two runs with the same
  configuration retry on the same schedule and stay reproducible.
* :class:`CircuitBreaker` / :class:`BreakerBoard` — per-model-identity
  breakers that open after a run of consecutive failures, cool down,
  and let a single half-open probe through before closing again.
* A :class:`RunJournal` — an append-only JSONL checkpoint of completed
  chunk outcomes, written with the same atomic-create / fsync-append
  discipline as the response cache's segments, so an interrupted run
  can resume and skip already-scored work.

The module is deliberately import-light (stdlib only at import time) so
``repro.llm.base`` can raise the taxonomy without creating an import
cycle through the engine package.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "ModelError",
    "TransientModelError",
    "PermanentModelError",
    "MalformedResponseError",
    "classify_error",
    "is_retryable",
    "RetryPolicy",
    "CircuitBreaker",
    "BreakerBoard",
    "RunJournal",
    "chunk_journal_key",
    "request_key",
    "DEFAULT_BREAKER_THRESHOLD",
    "DEFAULT_BREAKER_COOLDOWN_S",
    "DEFAULT_RETRY_BASE_MS",
]

#: Consecutive chunk failures on one model identity before its breaker opens.
DEFAULT_BREAKER_THRESHOLD = 5
#: Seconds an open breaker waits before letting a half-open probe through.
DEFAULT_BREAKER_COOLDOWN_S = 30.0
#: First-retry backoff in milliseconds (doubles per attempt).
DEFAULT_RETRY_BASE_MS = 50.0


# -- error taxonomy ---------------------------------------------------------------


class ModelError(RuntimeError):
    """Base class for classified model-call failures.

    Subclasses ``RuntimeError`` so existing ``pytest.raises(RuntimeError)``
    call sites (the batch-length guard) keep passing when
    those sites switch to raising the taxonomy.
    """


class TransientModelError(ModelError):
    """A failure worth retrying: rate limit, timeout, dropped connection."""


class PermanentModelError(ModelError):
    """A failure retries cannot fix: bad credentials, unknown model, 4xx."""


class MalformedResponseError(ModelError):
    """The backend answered, but with an unusable payload (e.g. a batch of
    the wrong length).  Retryable — flaky backends often malform under
    load and answer correctly on the next attempt."""


def classify_error(error: BaseException) -> type:
    """Map an arbitrary exception to its taxonomy class.

    Already-classified errors pass through.  Network-ish stdlib errors
    (:class:`ConnectionError`, :class:`TimeoutError`, :class:`OSError`)
    classify transient.  Everything else defaults to transient too:
    retries are bounded, so the cost of optimistically retrying an
    unknown failure is a few backoff cycles, while misclassifying a
    recoverable blip as permanent forfeits the whole chunk.
    """
    if isinstance(error, ModelError):
        return type(error)
    if isinstance(error, (ConnectionError, TimeoutError, OSError)):
        return TransientModelError
    return TransientModelError


def is_retryable(error: BaseException) -> bool:
    """Whether the retry policy should re-dispatch after ``error``."""
    return not issubclass(classify_error(error), PermanentModelError)


# -- retry policy -----------------------------------------------------------------


def _deterministic_unit(key: str, attempt: int) -> float:
    """Uniform [0, 1) derived from ``(key, attempt)`` — stable across runs."""
    digest = hashlib.sha256(f"{key}|{attempt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``delay_s(attempt, key)`` returns ``base_ms * 2**attempt`` (capped at
    ``max_ms``) scaled by a jitter factor in ``[0.5, 1.0)`` seeded from
    ``(key, attempt)`` — two runs with the same inputs back off on the
    same schedule, so retried runs stay bit-reproducible.
    """

    retries: int = 0
    base_ms: float = DEFAULT_RETRY_BASE_MS
    max_ms: float = 5000.0

    @property
    def enabled(self) -> bool:
        return self.retries > 0

    def allows(self, attempt: int) -> bool:
        """Whether a failure on ``attempt`` (0-based) may be retried."""
        return attempt < self.retries

    def delay_s(self, attempt: int, key: str = "") -> float:
        backoff_ms = min(self.base_ms * (2.0 ** attempt), self.max_ms)
        jitter = 0.5 + 0.5 * _deterministic_unit(key, attempt)
        return (backoff_ms * jitter) / 1000.0


# -- circuit breakers -------------------------------------------------------------


class CircuitBreaker:
    """Per-model-identity breaker: closed -> open -> half-open -> closed.

    The breaker opens after ``threshold`` *consecutive* failures, stays
    open for ``cooldown_s``, then admits exactly one half-open probe.  A
    probe success closes it (and resets the failure run); a probe
    failure re-opens it for another cooldown.  ``clock`` is injectable
    so tests can drive state transitions without sleeping.
    """

    def __init__(
        self,
        identity: str,
        threshold: int = DEFAULT_BREAKER_THRESHOLD,
        cooldown_s: float = DEFAULT_BREAKER_COOLDOWN_S,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"breaker threshold must be >= 1, got {threshold}")
        self.identity = identity
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        #: Times this breaker transitioned closed/half-open -> open.
        self.open_events = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Whether a request to this identity may be dispatched now."""
        with self._lock:
            if self._state == "closed":
                return True
            if self._probe_inflight:
                return False
            if self._clock() - self._opened_at >= self.cooldown_s:
                self._state = "half-open"
                self._probe_inflight = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._consecutive_failures = 0
            self._probe_inflight = False

    def record_failure(self) -> bool:
        """Count one failure; returns True when this one opened the breaker."""
        with self._lock:
            self._consecutive_failures += 1
            self._probe_inflight = False
            opened = False
            if (
                self._state == "half-open"
                or self._consecutive_failures >= self.threshold
            ):
                if self._state != "open":
                    self.open_events += 1
                    opened = True
                self._state = "open"
                self._opened_at = self._clock()
            return opened


class BreakerBoard:
    """Registry of :class:`CircuitBreaker` keyed on model ``cache_identity``."""

    def __init__(
        self,
        threshold: int = DEFAULT_BREAKER_THRESHOLD,
        cooldown_s: float = DEFAULT_BREAKER_COOLDOWN_S,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, identity: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(identity)
            if breaker is None:
                breaker = CircuitBreaker(
                    identity, self.threshold, self.cooldown_s, self._clock
                )
                self._breakers[identity] = breaker
            return breaker

    def open_events(self) -> int:
        """Total open transitions across every identity (telemetry)."""
        with self._lock:
            return sum(b.open_events for b in self._breakers.values())


# -- run journal ------------------------------------------------------------------

_JOURNAL_FORMAT = "repro-run-journal"
_JOURNAL_VERSION = 1


def request_key(
    identity: str, strategy_value: str, scoring: str, record_name: str
) -> str:
    """Stable per-request journal key (independent of chunk boundaries)."""
    payload = "\x1f".join((identity, strategy_value, scoring, record_name))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def chunk_journal_key(keys: Iterable[str]) -> str:
    """Content hash naming one completed chunk's journal line.

    Diagnostic only — resume keys on the per-request entries, so it stays
    correct even when adaptive batching re-draws chunk boundaries.
    """
    digest = hashlib.sha256()
    for key in keys:
        digest.update(key.encode("ascii", "replace"))
        digest.update(b"\n")
    return digest.hexdigest()


class RunJournal:
    """Append-only JSONL checkpoint of completed chunk outcomes.

    One line per completed chunk, each carrying the per-request outcome
    dicts keyed by :func:`request_key`.  The file is created atomically
    (header written to a temp file, then ``os.replace``-ed into place —
    the response cache's segment discipline) and every append is flushed
    and fsynced, so a crash can lose at most the line being written.
    :meth:`load` skips a truncated tail line the same way the cache's
    segment parser does.

    Keys are content hashes of ``(model identity, strategy, scoring,
    record name)``, not chunk ids, so a resumed run skips finished work
    even if adaptive batching re-draws chunk boundaries.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._completed: Dict[str, Dict[str, Any]] = {}
        self._appends = 0
        self.load()

    def __len__(self) -> int:
        with self._lock:
            return len(self._completed)

    @property
    def appends(self) -> int:
        with self._lock:
            return self._appends

    # -- read side --------------------------------------------------------------

    def load(self) -> int:
        """(Re)load completed outcomes from disk; returns entries loaded.

        Damage-tolerant: a missing file means an empty journal, an
        unparsable or truncated line is skipped, a foreign header
        invalidates only the header line.
        """
        completed: Dict[str, Dict[str, Any]] = {}
        try:
            raw = self.path.read_bytes()
        except OSError:
            with self._lock:
                self._completed = {}
            return 0
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                continue  # truncated tail or corrupt line
            if not isinstance(payload, dict):
                continue
            if payload.get("format") == _JOURNAL_FORMAT:
                continue  # header line
            entries = payload.get("entries")
            if not isinstance(entries, dict):
                continue
            for key, outcome in entries.items():
                if isinstance(key, str) and isinstance(outcome, dict):
                    completed[key] = outcome
        with self._lock:
            self._completed = completed
        return len(completed)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._completed.get(key)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._completed

    # -- write side -------------------------------------------------------------

    def record(self, chunk_key: str, entries: Dict[str, Dict[str, Any]]) -> None:
        """Durably append one completed chunk's outcomes.

        I/O errors are swallowed after the in-memory index is updated:
        a journal that cannot be written must never abort the run it is
        protecting (the same contract as cache/cost-model persistence).
        """
        if not entries:
            return
        line = (
            json.dumps(
                {"chunk": chunk_key, "entries": entries},
                ensure_ascii=False,
                separators=(",", ": "),
            )
            + "\n"
        )
        with self._lock:
            self._completed.update(entries)
            try:
                self._ensure_file_locked()
                with open(self.path, "ab") as handle:
                    handle.write(line.encode("utf-8"))
                    handle.flush()
                    os.fsync(handle.fileno())
                self._appends += 1
            except OSError:
                pass

    def _ensure_file_locked(self) -> None:
        """Atomically create the journal with its header line if absent."""
        if self.path.exists():
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = (
            json.dumps({"format": _JOURNAL_FORMAT, "version": _JOURNAL_VERSION})
            + "\n"
        )
        fd, tmp_name = tempfile.mkstemp(
            prefix=".tmp-journal-", dir=str(self.path.parent)
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(header.encode("utf-8"))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self.path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
