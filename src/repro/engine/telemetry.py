"""Per-run telemetry: what the engine did and how fast.

Every scalar the engine reports is declared once, in :data:`METRICS`, as a
counter, a gauge or a derived rate.  The engine records through two
methods — :meth:`EngineTelemetry.add` for counters and
:meth:`EngineTelemetry.gauge` for gauges — under a lock, because chunks
complete on worker threads.  ``snapshot()`` returns a plain dict in table
order for machine-readable output (the throughput benchmark's
``BENCH_engine.json``), ``format_stats()`` a one-line human summary for
the CLI whose ``since=`` form subtracts every declared counter.

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

__all__ = ["COUNTERS", "METRICS", "EngineTelemetry", "process_rss_kb"]


def process_rss_kb() -> int:
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


#: How a metric folds.  A counter accumulates (``format_stats(since=)``
#: reports its delta), a peak gauge keeps the largest value recorded, and
#: a rate is derived from the counters whenever a snapshot is taken.
COUNTER, PEAK, RATE = "counter", "peak", "rate"

#: Every scalar the engine reports, declared once, in ``snapshot()`` order.
#: A name ending in ``_s`` holds seconds: a float, rounded to 4 places in
#: snapshots.  Everything else is an integer.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("requests", COUNTER),
    #: Prompts that missed the cache and went to the model.
    ("model_calls", COUNTER),
    #: Actual wire calls: one per ``generate_batch``/``generate_batch_async``
    #: invocation, i.e. one per chunk phase with cache misses — the number
    #: an API rate limiter would see.  Under ``speculate`` a losing copy's
    #: calls are dropped with its outcome (they may still be in flight when
    #: the run returns), so with speculation active this is a lower bound.
    ("wire_calls", COUNTER),
    ("cache_hits", COUNTER),
    ("cache_misses", COUNTER),
    ("cache_hit_rate", RATE),
    ("runs", COUNTER),
    ("wall_time_s", COUNTER),
    ("requests_per_second", RATE),
    #: Peak concurrently-in-flight chunk coroutines (async executor).
    ("async_inflight_peak", PEAK),
    #: Peak requests resident in one planned batch — a whole run for
    #: ``engine.run``, one window for ``engine.run_streaming`` — so a
    #: streamed run's bounded footprint is observable, not assumed.
    ("resident_requests_peak", PEAK),
    #: Peak process RSS in kB sampled at each batch boundary (0 where
    #: procfs is unavailable).
    ("peak_rss_kb", PEAK),
    #: Speculative duplicates launched, races they won, results dropped.
    ("speculation_launched", COUNTER),
    ("speculation_won", COUNTER),
    ("speculation_wasted", COUNTER),
    #: Requests surfaced as explicit failed results.
    ("failed_requests", COUNTER),
    #: Chunk re-submissions after a retryable error, and exhausted budgets.
    ("retries", COUNTER),
    ("retry_giveups", COUNTER),
    #: Circuit breakers: closed→open transitions, chunks rerouted to a
    #: cheaper cascade tier, chunks failed with no admissible model left.
    ("breaker_opens", COUNTER),
    ("breaker_reroutes", COUNTER),
    ("breaker_short_circuits", COUNTER),
    #: Requests replayed from the run journal, and journal lines appended.
    ("journal_hits", COUNTER),
    ("journal_appends", COUNTER),
    #: Records entering any cascade tier, and records a tier sent up.
    ("cascade_requests", COUNTER),
    ("cascade_escalated", COUNTER),
)

_KINDS: Dict[str, str] = dict(METRICS)
COUNTERS: Tuple[str, ...] = tuple(name for name, kind in METRICS if kind == COUNTER)


def _rates(values: Dict[str, float]) -> Dict[str, float]:
    """The derived metrics of one set of counter values."""
    lookups = values["cache_hits"] + values["cache_misses"]
    wall = values["wall_time_s"]
    return {
        "cache_hit_rate": round(values["cache_hits"] / lookups, 4) if lookups else 0.0,
        "requests_per_second": round(values["requests"] / wall, 2) if wall > 0 else 0.0,
    }


class EngineTelemetry:
    """Thread-safe metrics for one engine instance (cumulative across runs)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, float] = {
            name: 0.0 if name.endswith("_s") else 0
            for name, kind in METRICS
            if kind != RATE
        }
        #: (model, strategy) -> cumulative counters for that group's chunks.
        self._groups: Dict[Tuple[str, str], Dict[str, float]] = {}
        #: tier name -> cumulative cascade counters, in ladder order of
        #: first appearance (the router records tiers cheapest-first).
        self._cascade: Dict[str, Dict[str, int]] = {}

    # -- recording ------------------------------------------------------------------

    def add(self, **counts: float) -> None:
        """Add to declared counters, e.g. ``add(cache_hits=3, cache_misses=1)``."""
        with self._lock:
            for name, n in counts.items():
                if _KINDS.get(name) != COUNTER:
                    raise KeyError(f"{name!r} is not a declared counter")
                self._values[name] += n

    def gauge(self, **values: float) -> None:
        """Record declared gauges, each keeping its maximum."""
        with self._lock:
            for name, value in values.items():
                if _KINDS.get(name) != PEAK:
                    raise KeyError(f"{name!r} is not a declared gauge")
                self._values[name] = max(self._values[name], value)

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
            self._values["cascade_requests"] += requests
            self._values["cascade_escalated"] += escalated

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

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict view suitable for JSON serialisation."""
        with self._lock:
            values = dict(self._values)
        rates = _rates(values)
        return {
            name: (
                rates[name]
                if kind == RATE
                else round(values[name], 4) if name.endswith("_s") else values[name]
            )
            for name, kind in METRICS
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
        of pure non-LLM work through ``engine.cached_map``).
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
            for name in COUNTERS:
                snap[name] -= since.get(name, 0)
            snap["wall_time_s"] = round(snap["wall_time_s"], 4)
            snap.update(_rates(snap))
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
        if snap["speculation_launched"]:
            parts.append(
                f"speculation={snap['speculation_launched']} launched/"
                f"{snap['speculation_won']} won/{snap['speculation_wasted']} wasted"
            )
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
        return "[engine] " + " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<EngineTelemetry {self.snapshot()}>"
