"""Per-run telemetry: what the engine did and how fast.

The engine increments counters from worker threads, so every mutation goes
through a lock.  ``snapshot()`` returns a plain dict for machine-readable
output (the throughput benchmark's ``BENCH_engine.json``), ``format_stats()``
a one-line human summary for the CLI.

Besides the global counters, telemetry keeps a per-``(model, strategy)``
**group** breakdown — requests, model calls, cache hits/misses and summed
chunk wall time — fed by the engine after every chunk completes.
``group_snapshot()`` returns the groups slowest-first (mean seconds per
request) and ``format_group_stats()`` renders the top-k slowest for the
CLI, so a heterogeneous run shows at a glance *which* model/strategy pair
is eating the wall clock.  The same observations drive the cost model's
LPT scheduling (:mod:`repro.engine.costmodel`).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

__all__ = ["EngineTelemetry"]


def _process_rss_kb() -> int:
    """Current resident set size of this process in kB (0 when unreadable).

    Reads ``/proc/self/status`` directly — no psutil dependency — so the
    gauge degrades to 0 on platforms without procfs instead of failing.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


class EngineTelemetry:
    """Thread-safe counters for one engine instance (cumulative across runs)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.model_calls = 0
        #: Actual wire calls: one per ``generate_batch``/
        #: ``generate_batch_async`` invocation, i.e. one per chunk phase
        #: with cache misses.  ``model_calls`` counts the *prompts* that
        #: missed the cache, so with batching the two differ — this is the
        #: number an API rate limiter would see.  One caveat under
        #: ``--speculate``: a losing copy's calls are dropped with its
        #: outcome (they may still be in flight when the run returns, so
        #: their count is unknowable), so with speculation active this is
        #: a lower bound.
        self.wire_calls = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.runs = 0
        self.wall_time_s = 0.0
        #: Speculative re-execution: duplicates launched, races the
        #: duplicate won, and duplicate results that were dropped.
        self.speculation_launched = 0
        self.speculation_won = 0
        self.speculation_wasted = 0
        #: Cross-backend speculation: duplicates that ran on a cheaper
        #: fallback model (subset of launched) and the races they won.
        self.speculation_fallback_launched = 0
        self.speculation_fallback_won = 0
        #: Deadline-aware scheduling: requests shed to fit the budget,
        #: plus the last run's predicted/actual makespan and budget.
        self.deadline_shed = 0
        self.deadline_budget_s = 0.0
        self.deadline_predicted_s = 0.0
        self.deadline_actual_s = 0.0
        #: Peak concurrently-in-flight chunk coroutines (async-native path).
        self.async_inflight_peak = 0
        #: Peak requests resident in one planned batch — a whole run for
        #: ``engine.run``, one window for ``engine.run_streaming`` — so a
        #: streamed run's bounded footprint is observable, not assumed.
        self.resident_requests_peak = 0
        #: Peak process RSS in kB sampled at each batch boundary (0 where
        #: procfs is unavailable).  A gauge, not a delta: it never resets.
        self.peak_rss_kb = 0
        #: Snapshot broadcasts published for distributed runs, and the
        #: encoded bytes they carried (one shared mapping or temp file per
        #: run — *not* bytes-per-worker).
        self.broadcast_publishes = 0
        self.broadcast_bytes = 0
        #: Genuine worker-side shared-memory attaches (at most one per
        #: worker per run; the per-token memo absorbs the rest).  Stays 0
        #: on the temp-file path, so `publishes` vs `attaches` shows which
        #: transport a run actually used.
        self.shm_attach = 0
        #: Fault tolerance: requests surfaced as explicit failed results
        #: (retries exhausted, breaker short-circuit with no fallback).
        self.failed_requests = 0
        #: Chunk re-submissions after a retryable error, and chunks whose
        #: retry budget ran out.
        self.retries = 0
        self.retry_giveups = 0
        #: Circuit breakers: closed→open transitions, chunks rerouted to a
        #: cheaper cascade tier while a breaker was open, and chunks failed
        #: outright because no admissible model remained.
        self.breaker_opens = 0
        self.breaker_reroutes = 0
        self.breaker_short_circuits = 0
        #: Run journal: requests replayed from the journal instead of
        #: re-executed, and journal lines appended this process.
        self.journal_hits = 0
        self.journal_appends = 0
        #: (model, strategy) -> cumulative counters for that group's chunks.
        self._groups: Dict[Tuple[str, str], Dict[str, float]] = {}
        #: tier name -> cumulative cascade counters, in ladder order of
        #: first appearance (the router records tiers cheapest-first).
        self._cascade: Dict[str, Dict[str, int]] = {}

    # -- recording ------------------------------------------------------------------

    def record_requests(self, n: int) -> None:
        with self._lock:
            self.requests += n

    def record_model_calls(self, n: int) -> None:
        with self._lock:
            self.model_calls += n

    def record_wire_calls(self, n: int) -> None:
        with self._lock:
            self.wire_calls += n

    def record_speculation(
        self,
        *,
        launched: int = 0,
        won: int = 0,
        wasted: int = 0,
        fallback_launched: int = 0,
        fallback_won: int = 0,
    ) -> None:
        """Fold speculative re-execution events (all counters cumulative)."""
        with self._lock:
            self.speculation_launched += launched
            self.speculation_won += won
            self.speculation_wasted += wasted
            self.speculation_fallback_launched += fallback_launched
            self.speculation_fallback_won += fallback_won

    def record_cascade(
        self,
        tier: str,
        *,
        requests: int = 0,
        resolved: int = 0,
        escalated: int = 0,
        labeled: int = 0,
        correct: int = 0,
    ) -> None:
        """Fold one cascade tier pass: how many records it saw, kept, sent up.

        ``labeled``/``correct`` track tier accuracy over the records it
        *resolved* whose ground-truth label is known — the number that says
        whether a cheap tier is answering well or merely confidently.
        """
        with self._lock:
            stats = self._cascade.setdefault(
                tier,
                {"requests": 0, "resolved": 0, "escalated": 0, "labeled": 0, "correct": 0},
            )
            stats["requests"] += requests
            stats["resolved"] += resolved
            stats["escalated"] += escalated
            stats["labeled"] += labeled
            stats["correct"] += correct

    def record_deadline(
        self, *, budget_s: float, predicted_s: float, actual_s: float, shed: int
    ) -> None:
        """One deadline-scheduled run: budget, predicted vs actual, sheds."""
        with self._lock:
            self.deadline_budget_s = budget_s
            self.deadline_predicted_s = predicted_s
            self.deadline_actual_s = actual_s
            self.deadline_shed += shed

    def record_broadcast(self, nbytes: int) -> None:
        """One published cache snapshot (shm block or temp file) of ``nbytes``."""
        with self._lock:
            self.broadcast_publishes += 1
            self.broadcast_bytes += nbytes

    def record_shm_attach(self, n: int) -> None:
        """Fold worker-reported first-time shared-memory attaches."""
        if not n:
            return
        with self._lock:
            self.shm_attach += n

    def record_cache(self, hits: int, misses: int) -> None:
        with self._lock:
            self.cache_hits += hits
            self.cache_misses += misses

    def record_run(self, wall_time_s: float) -> None:
        with self._lock:
            self.runs += 1
            self.wall_time_s += wall_time_s

    def record_resident(self, n: int) -> None:
        """One planned batch of ``n`` resident requests (keeps the max).

        Also samples process RSS, so the two peaks land in the same
        ``[engine]`` line: how many requests were held at once, and how much
        memory the process actually touched while holding them.
        """
        rss_kb = _process_rss_kb()
        with self._lock:
            self.resident_requests_peak = max(self.resident_requests_peak, n)
            self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)

    def record_inflight_peak(self, peak: int) -> None:
        """Fold one async run's peak concurrent chunk coroutines (keeps max)."""
        with self._lock:
            self.async_inflight_peak = max(self.async_inflight_peak, peak)

    def record_failed_requests(self, n: int) -> None:
        """Fold requests that completed as explicit failed results."""
        with self._lock:
            self.failed_requests += n

    def record_retries(self, n: int) -> None:
        """Fold chunk re-submissions triggered by retryable errors."""
        with self._lock:
            self.retries += n

    def record_retry_giveups(self, n: int) -> None:
        """Fold chunks whose retry budget was exhausted."""
        with self._lock:
            self.retry_giveups += n

    def record_breaker_opens(self, n: int) -> None:
        """Fold circuit-breaker closed→open transitions."""
        with self._lock:
            self.breaker_opens += n

    def record_breaker_reroutes(self, n: int) -> None:
        """Fold chunks rerouted to a cheaper tier past an open breaker."""
        with self._lock:
            self.breaker_reroutes += n

    def record_breaker_short_circuits(self, n: int) -> None:
        """Fold chunks failed outright because every admissible model's
        breaker was open."""
        with self._lock:
            self.breaker_short_circuits += n

    def record_journal(self, *, hits: int = 0, appends: int = 0) -> None:
        """Fold run-journal activity: replayed requests and appended lines."""
        with self._lock:
            self.journal_hits += hits
            self.journal_appends += appends

    def record_group(
        self,
        model: str,
        strategy: str,
        *,
        requests: int,
        seconds: float,
        hits: int = 0,
        misses: int = 0,
        calls: int = 0,
    ) -> None:
        """Fold one completed chunk into its (model, strategy) group."""
        with self._lock:
            group = self._groups.setdefault(
                (model, strategy),
                {"requests": 0, "seconds": 0.0, "hits": 0, "misses": 0, "calls": 0},
            )
            group["requests"] += requests
            group["seconds"] += seconds
            group["hits"] += hits
            group["misses"] += misses
            group["calls"] += calls

    # -- derived --------------------------------------------------------------------

    @property
    def cache_lookups(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_lookups
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def requests_per_second(self) -> float:
        return self.requests / self.wall_time_s if self.wall_time_s > 0 else 0.0

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict view suitable for JSON serialisation."""
        with self._lock:
            return {
                "requests": self.requests,
                "model_calls": self.model_calls,
                "wire_calls": self.wire_calls,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cache_hit_rate": round(self.cache_hit_rate, 4),
                "runs": self.runs,
                "wall_time_s": round(self.wall_time_s, 4),
                "requests_per_second": round(self.requests_per_second, 2),
                "async_inflight_peak": self.async_inflight_peak,
                "resident_requests_peak": self.resident_requests_peak,
                "peak_rss_kb": self.peak_rss_kb,
                "broadcast_publishes": self.broadcast_publishes,
                "broadcast_bytes": self.broadcast_bytes,
                "shm_attach": self.shm_attach,
                "speculation_launched": self.speculation_launched,
                "speculation_won": self.speculation_won,
                "speculation_wasted": self.speculation_wasted,
                "speculation_fallback_launched": self.speculation_fallback_launched,
                "speculation_fallback_won": self.speculation_fallback_won,
                "failed_requests": self.failed_requests,
                "retries": self.retries,
                "retry_giveups": self.retry_giveups,
                "breaker_opens": self.breaker_opens,
                "breaker_reroutes": self.breaker_reroutes,
                "breaker_short_circuits": self.breaker_short_circuits,
                "journal_hits": self.journal_hits,
                "journal_appends": self.journal_appends,
                "cascade_requests": sum(s["requests"] for s in self._cascade.values()),
                "cascade_escalated": sum(s["escalated"] for s in self._cascade.values()),
                "deadline_shed": self.deadline_shed,
                "deadline_budget_s": round(self.deadline_budget_s, 4),
                "deadline_predicted_s": round(self.deadline_predicted_s, 4),
                "deadline_actual_s": round(self.deadline_actual_s, 4),
            }

    def group_snapshot(self) -> List[Dict[str, object]]:
        """Per-(model, strategy) breakdown, slowest mean latency first.

        ``mean_latency_s`` is summed chunk wall time over requests — it
        includes prompt rendering and scoring, i.e. the *schedulable* cost
        of a request in that group, which is exactly what the cost model
        and a human hunting stragglers both care about.
        """
        with self._lock:
            groups = [
                {
                    "model": model,
                    "strategy": strategy,
                    "requests": int(stats["requests"]),
                    "model_calls": int(stats["calls"]),
                    "cache_hits": int(stats["hits"]),
                    "cache_misses": int(stats["misses"]),
                    "cache_hit_rate": (
                        round(stats["hits"] / (stats["hits"] + stats["misses"]), 4)
                        if stats["hits"] + stats["misses"]
                        else 0.0
                    ),
                    "wall_time_s": round(stats["seconds"], 4),
                    "mean_latency_s": (
                        round(stats["seconds"] / stats["requests"], 6)
                        if stats["requests"]
                        else 0.0
                    ),
                }
                for (model, strategy), stats in self._groups.items()
            ]
        groups.sort(key=lambda g: -g["mean_latency_s"])  # type: ignore[operator]
        return groups

    def cascade_snapshot(self) -> List[Dict[str, object]]:
        """Per-tier cascade breakdown, in the ladder order tiers recorded.

        ``escalation_rate`` is escalated over requests seen;  ``accuracy``
        is correct over labeled resolved records (``None`` when the tier
        resolved nothing labeled), so a cheap tier that answers confidently
        but wrongly is visible at a glance.
        """
        with self._lock:
            tiers = []
            for tier, stats in self._cascade.items():
                requests = stats["requests"]
                labeled = stats["labeled"]
                tiers.append(
                    {
                        "tier": tier,
                        "requests": requests,
                        "resolved": stats["resolved"],
                        "escalated": stats["escalated"],
                        "escalation_rate": (
                            round(stats["escalated"] / requests, 4) if requests else 0.0
                        ),
                        "labeled": labeled,
                        "accuracy": (
                            round(stats["correct"] / labeled, 4) if labeled else None
                        ),
                    }
                )
        return tiers

    def format_group_stats(self, top_k: int = 3) -> str:
        """The top-k slowest (model, strategy) groups, one line each.

        Returns an empty string when no groups were recorded (e.g. a run
        of pure non-LLM work through ``engine.map``).
        """
        groups = self.group_snapshot()
        if not groups or top_k < 1:
            return ""
        shown = groups[:top_k]
        lines = [f"[engine] slowest groups (top {len(shown)} of {len(groups)}):"]
        for group in shown:
            lines.append(
                f"[engine]   {group['model']}/{group['strategy']}: "
                f"requests={group['requests']} "
                f"model_calls={group['model_calls']} "
                f"mean={group['mean_latency_s'] * 1000:.1f}ms/req "
                f"cache_hit_rate={group['cache_hit_rate'] * 100:.1f}%"
            )
        return "\n".join(lines)

    def format_stats(
        self,
        *,
        executor_name: Optional[str] = None,
        since: Optional[Dict[str, float]] = None,
    ) -> str:
        """One-line human-readable summary (printed by the CLI).

        ``since`` — an earlier :meth:`snapshot` — turns the cumulative
        counters into a delta, so a shared engine can report per-phase
        stats (the CLI's per-table lines under ``repro all``).
        """
        snap = self.snapshot()
        if since is not None:
            for key in (
                "requests",
                "model_calls",
                "wire_calls",
                "cache_hits",
                "cache_misses",
                "runs",
                "broadcast_publishes",
                "broadcast_bytes",
                "shm_attach",
                "speculation_launched",
                "speculation_won",
                "speculation_wasted",
                "speculation_fallback_launched",
                "speculation_fallback_won",
                "failed_requests",
                "retries",
                "retry_giveups",
                "breaker_opens",
                "breaker_reroutes",
                "breaker_short_circuits",
                "journal_hits",
                "journal_appends",
                "cascade_requests",
                "cascade_escalated",
                "deadline_shed",
            ):
                snap[key] -= since.get(key, 0)
            snap["wall_time_s"] = round(snap["wall_time_s"] - since.get("wall_time_s", 0.0), 4)
            lookups = snap["cache_hits"] + snap["cache_misses"]
            snap["cache_hit_rate"] = round(snap["cache_hits"] / lookups, 4) if lookups else 0.0
            snap["requests_per_second"] = (
                round(snap["requests"] / snap["wall_time_s"], 2)
                if snap["wall_time_s"] > 0
                else 0.0
            )
        parts = []
        if executor_name:
            parts.append(f"executor={executor_name}")
        parts.append(f"requests={snap['requests']}")
        parts.append(f"model_calls={snap['model_calls']}")
        parts.append(f"wire_calls={snap['wire_calls']}")
        parts.append(f"cache_hit_rate={snap['cache_hit_rate'] * 100:.1f}%")
        parts.append(f"wall={snap['wall_time_s']:.2f}s")
        if snap["requests_per_second"]:
            parts.append(f"throughput={snap['requests_per_second']:.1f} req/s")
        if snap["async_inflight_peak"]:
            parts.append(f"inflight_peak={snap['async_inflight_peak']}")
        if snap["resident_requests_peak"]:
            parts.append(f"resident_peak={snap['resident_requests_peak']}")
        if snap["peak_rss_kb"]:
            parts.append(f"rss_peak={snap['peak_rss_kb'] / 1024:.1f}MB")
        if snap["broadcast_publishes"]:
            parts.append(
                f"broadcast={snap['broadcast_publishes']} publishes/"
                f"{snap['broadcast_bytes']}B shm_attach={snap['shm_attach']}"
            )
        if snap["speculation_launched"]:
            segment = (
                f"speculation={snap['speculation_launched']} launched/"
                f"{snap['speculation_won']} won/{snap['speculation_wasted']} wasted"
            )
            if snap["speculation_fallback_launched"]:
                segment += (
                    f" (fallback {snap['speculation_fallback_launched']} launched/"
                    f"{snap['speculation_fallback_won']} won)"
                )
            parts.append(segment)
        if snap["retries"] or snap["retry_giveups"]:
            parts.append(
                f"retries={snap['retries']} giveups={snap['retry_giveups']}"
            )
        if snap["failed_requests"]:
            parts.append(f"failed={snap['failed_requests']}")
        if (
            snap["breaker_opens"]
            or snap["breaker_reroutes"]
            or snap["breaker_short_circuits"]
        ):
            parts.append(
                f"breaker={snap['breaker_opens']} opened/"
                f"{snap['breaker_reroutes']} rerouted/"
                f"{snap['breaker_short_circuits']} short-circuited"
            )
        if snap["journal_hits"] or snap["journal_appends"]:
            parts.append(
                f"journal={snap['journal_hits']} replayed/"
                f"{snap['journal_appends']} appended"
            )
        if snap["cascade_requests"]:
            tiers = self.cascade_snapshot()
            rendered = ",".join(
                f"{tier['tier']}:{tier['resolved']}/{tier['requests']}" for tier in tiers
            )
            parts.append(f"cascade={rendered} escalated={snap['cascade_escalated']}")
        if snap["deadline_budget_s"]:
            parts.append(
                f"deadline={snap['deadline_budget_s']:.2f}s "
                f"predicted={snap['deadline_predicted_s']:.2f}s "
                f"actual={snap['deadline_actual_s']:.2f}s "
                f"shed={snap['deadline_shed']}"
            )
        return "[engine] " + " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<EngineTelemetry {self.snapshot()}>"
