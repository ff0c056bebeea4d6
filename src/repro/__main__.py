"""Command-line entry point: regenerate the paper's tables from the terminal.

Usage::

    python -m repro table2            # GPT-3.5 BP1 vs BP2
    python -m repro table3            # Inspector + 4 LLMs x 3 prompts
    python -m repro table4            # basic fine-tuning cross-validation
    python -m repro table5            # variable identification (pre-trained)
    python -m repro table6            # advanced fine-tuning cross-validation
    python -m repro summary           # corpus + dataset statistics
    python -m repro all               # every table through ONE interleaved
                                      # engine run (the cross-table scheduler)

    python -m repro table3 --jobs 8             # thread pool (same results)
    python -m repro table3 --executor process   # Inspector verdicts across
                                      # processes, model chunks on threads
    python -m repro all --executor async --jobs 16   # asyncio backend:
                                      # chunk work awaits model I/O on one
                                      # event loop, at most --jobs chunks
                                      # in flight, one wire call per chunk
                                      # phase with misses
    python -m repro all --sequential            # one engine run per table
    python -m repro all --cache /tmp/repro-cache    # persist responses as
                                      # append-only JSONL segments
    python -m repro all --no-lpt --no-adaptive-batching
                                      # plan-order, fixed-size chunks
    python -m repro all --cache ./c --cache-max-bytes 50000000 --cache-ttl 3600
                                      # byte budget + max entry age
    python -m repro all --no-cache    # call the model for every prompt
    python -m repro all --stream                 # bounded-memory streaming:
                                      # requests are planned and dispatched
                                      # in windows (peak RSS O(window), not
                                      # O(corpus)); identical results
    python -m repro table3 --cascade             # tiered detection cascade:
                                      # static analyzer, then a fast zoo
                                      # model, answer first; only low-
                                      # confidence or disagreeing verdicts
                                      # escalate to the requested LLM
    python -m repro table3 --cascade --cascade-tiers static,inspector,gpt-3.5-turbo
    python -m repro table3 --cascade --escalate-below 0.9   # stricter: more
                                      # records reach the expensive model
    python -m repro table3 --cascade --jobs 4 --speculate
                                      # speculation composes with the
                                      # cascade: a straggler chunk races a
                                      # duplicate on its own model, so the
                                      # tables match the serial cascade
    python -m repro all --retries 3              # fault tolerance: failing
                                      # chunks back off and re-enter the
                                      # dispatcher; models that keep failing
                                      # trip per-model circuit breakers
    python -m repro all --jobs 4 --retries 2 --speculate
                                      # retries and speculation compose:
                                      # stragglers race duplicates, failed
                                      # chunks back off; identical tables
    python -m repro all --retries 3 --journal ./run.journal
                                      # checkpoint completed chunks; an
                                      # interrupted run re-invoked with the
                                      # same journal resumes without new
                                      # model calls for finished work
    python -m repro cache stats --cache ./cache-dir     # segments, live
                                      # entries, dead ratio, bytes — no
                                      # evaluation run
    python -m repro cache compact --cache ./cache-dir
    python -m repro analyze file.c               # static race analyzer:
                                      # structured DRD-* diagnostics with
                                      # line/col spans, text or --json
    python -m repro analyze --corpus --stats     # per-rule fire counts +
                                      # phase-partition telemetry
    python -m repro analyze --corpus --self-lint # CI gate: nonzero exit on
                                      # crashes or malformed diagnostics

``repro all`` plans every table first (requests + reducer), then feeds all
of them to :func:`repro.engine.scheduler.run_all_tables`, which interleaves
the mixed-model request batches into a single
:class:`~repro.engine.core.ExecutionEngine` run — model latency overlaps
across tables instead of the drivers running one after another.  Chunks
are merged in completion order through one dispatch loop — speculation
(``--speculate``), retries (``--retries``) and circuit breakers are
per-chunk decisions inside it, so they compose — and ordered longest-first
by the cost model (``--lpt``); with ``--cache`` the cost model persists as
``costmodel.json`` inside the cache directory, so the next invocation
schedules its *first* run with measured latencies.  Results are
bit-identical to the sequential path and across every scheduling/executor
combination.  After the run the engine prints one stats
line (request count, cache hit rate, wall time) plus the slowest
(model, strategy) groups, unless ``--no-stats`` is given; per-table lines
appear under ``--sequential``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.corpus.generator import build_corpus
from repro.engine import (
    DEFAULT_BREAKER_COOLDOWN_S,
    DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_CASCADE_TIERS,
    DEFAULT_ESCALATE_BELOW,
    DEFAULT_STREAM_WINDOW,
    CascadePolicy,
    CostModel,
    ExecutionEngine,
    ResponseCache,
    EXECUTOR_KINDS,
    collect_default_plans,
    run_all_tables,
    run_plans_streaming,
)
from repro.eval.experiments import default_subset
from repro.eval.reporting import format_confusion_table, format_crossval_table

__all__ = ["main"]

_TABLE_TITLES = {
    "table2": "Table 2 — GPT-3.5-turbo, BP1 vs BP2",
    "table3": "Table 3 — Inspector vs LLM prompt strategies",
    "table4": "Table 4",
    "table5": "Table 5 — variable identification (pre-trained)",
    "table6": "Table 6",
}


def _print_summary(corpus, subset) -> None:
    from repro.corpus import CorpusRegistry

    print(CorpusRegistry(corpus).summary())
    print()
    print(subset.summary())


def _print_result(table: str, result) -> None:
    """Render one table's result in the paper layout."""
    if table in ("table4", "table6"):
        for name, crossval in result.items():
            print(format_crossval_table(crossval.as_rows(), title=f"{_TABLE_TITLES[table]} — {name}"))
            print()
    else:
        print(format_confusion_table(result, title=_TABLE_TITLES[table]))


def _execute(plan, engine: ExecutionEngine, *, stream: bool) -> object:
    """Run one table's plan: ``prepare``, one engine run, reduce.

    ``stream`` routes it through the streaming plan runner instead — same
    rows, O(window) residency.
    """
    if stream:
        return run_plans_streaming([plan], engine=engine)[plan.table]
    return plan.execute(engine)


def _run(table: str, engine: ExecutionEngine, *, stream: bool = False) -> None:
    """One table (or the summary) from one build of the default corpus."""
    corpus = build_corpus()
    subset = default_subset(corpus=corpus)
    if table == "summary":
        _print_summary(corpus, subset)
        return
    (plan,) = collect_default_plans(subset, corpus=corpus, tables=(table,))
    del corpus  # Table 3's plan lets go of it once its prepare has run
    _print_result(table, _execute(plan, engine, stream=stream))


def _print_group_stats(engine: ExecutionEngine, top_k: int = 3) -> None:
    """The slowest (model, strategy) groups of the run, if any were recorded."""
    breakdown = engine.telemetry.format_group_stats(top_k)
    if breakdown:
        print(breakdown)


def _run_all(
    engine: ExecutionEngine,
    *,
    sequential: bool,
    stats: bool,
    stream: bool = False,
) -> None:
    """``repro all``: summary, then every table through the scheduler.

    The corpus is built once: the summary, the ≤4k-token subset every
    table reads and Table 3's Inspector inputs all come from that build.
    """
    corpus = build_corpus()
    subset = default_subset(corpus=corpus)
    _print_summary(corpus, subset)
    print()
    plans = collect_default_plans(subset, corpus=corpus)
    del corpus  # Table 3's plan lets go of it once its prepare has run
    if sequential:
        for plan in plans:
            before = engine.telemetry.snapshot()
            _print_result(plan.table, _execute(plan, engine, stream=stream))
            if stats:
                print(engine.telemetry.format_stats(executor_name=engine.executor.name, since=before))
            print()
        if stats:
            _print_group_stats(engine)
        return
    before = engine.telemetry.snapshot()
    results = run_all_tables(plans=plans, engine=engine, stream=stream)
    for table, result in results.items():
        _print_result(table, result)
        print()
    if stats:
        print(engine.telemetry.format_stats(executor_name=engine.executor.name, since=before))
        _print_group_stats(engine)


def _build_engine(args: argparse.Namespace) -> ExecutionEngine:
    # Built (and validated) in main() before any engine exists.
    cascade_policy: Optional[CascadePolicy] = getattr(args, "cascade_policy", None)
    # The cost model persists beside the cache segments, so a later
    # invocation schedules its first run with this run's latencies.  It is
    # built before the cache because eviction weighs cache entries with
    # the same model's estimates.
    cost_model = (
        CostModel(path=Path(args.cache) / "costmodel.json")
        if args.cache is not None
        else CostModel()
    )
    cache: Optional[ResponseCache] = None
    if not args.no_cache:
        cache = ResponseCache(
            path=args.cache,
            cost_model=cost_model,
            max_bytes=args.cache_max_bytes,
            ttl_s=args.cache_ttl,
        )
    return ExecutionEngine(
        jobs=args.jobs,
        executor_kind=args.executor,
        cache=cache,
        batch_size=args.batch_size,
        lpt=args.lpt,
        adaptive_batching=args.adaptive_batching,
        cost_model=cost_model,
        speculate=args.speculate,
        cascade=cascade_policy,
        retries=args.retries,
        journal=args.journal,
    )


def _run_cache_command(args: argparse.Namespace) -> int:
    """``repro cache stats|compact``: inspect or fold a store, no evaluation."""
    path = Path(args.cache)
    if args.subcommand == "stats":
        stats = ResponseCache.store_stats(path)
        if not stats["segments"]:
            print(f"[cache] {path}: no cache store here (no segment files)")
            return 0
        print(f"[cache] {path}")
        print(f"[cache]   segments={stats['segments']}")
        print(f"[cache]   live_entries={stats['live_entries']}")
        print(f"[cache]   entry_lines={stats['entry_lines']} (dead={stats['dead_entries']})")
        print(f"[cache]   dead_ratio={stats['dead_ratio'] * 100:.1f}%")
        print(f"[cache]   total_bytes={stats['total_bytes']}")
        return 0
    # compact: fold every live entry into a minimal set of fresh segments.
    before = ResponseCache.store_stats(path)
    cache = ResponseCache(path=args.cache)
    if cache.compact() is None:
        print(f"[cache] {path}: nothing on disk to compact")
        return 0
    after = ResponseCache.store_stats(path)
    print(
        f"[cache] compacted {path}: segments {before['segments']} -> "
        f"{after['segments']}, entry_lines {before['entry_lines']} -> "
        f"{after['entry_lines']}, bytes {before['total_bytes']} -> "
        f"{after['total_bytes']}"
    )
    return 0


def main(argv: List[str] | None = None) -> int:
    """Entry point used by ``python -m repro``."""
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] == "analyze":
        # The static-analyzer CLI has its own flag set (--json, --stats,
        # --self-lint, --corpus); delegate before the table parser sees it.
        from repro.analysis.cli import main as analyze_main

        return analyze_main(raw[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables of 'Data Race Detection Using Large Language Models'.",
        epilog=(
            "examples: 'repro all --executor async --jobs 16' runs every table "
            "through one interleaved engine run on the asyncio backend; "
            "'repro table3 --executor process' runs the Inspector verdicts "
            "across processes and model chunks on threads; 'repro all --cache ./cache-dir' persists responses as "
            "append-only JSONL segments plus the scheduling cost model; "
            "'repro all --no-lpt --no-adaptive-batching' dispatches "
            "plan-order, fixed-size chunks (identical results, more "
            "straggler wall time); 'repro all --jobs 4 --retries 2 "
            "--speculate' composes retries with speculation."
        ),
    )
    parser.add_argument(
        "command",
        choices=["table2", "table3", "table4", "table5", "table6", "summary", "all", "cache"],
        help=(
            "which experiment to regenerate ('all' interleaves every table "
            "into one engine run); 'cache' inspects/maintains a --cache "
            "store without running an evaluation; see also 'repro analyze "
            "FILE...' for the static race analyzer CLI"
        ),
    )
    parser.add_argument(
        "subcommand",
        nargs="?",
        default=None,
        help=(
            "for 'cache': stats (segment count, dead-entry ratio, bytes) "
            "or compact (fold the store into minimal fresh segments)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "executor width: 1 = serial, N > 1 = parallel (default: 1, "
            "or 4 when a parallel --executor is selected)"
        ),
    )
    parser.add_argument(
        "--executor",
        choices=list(EXECUTOR_KINDS),
        default=None,
        help=(
            "executor backend: serial (reference), thread (overlaps model "
            "latency), process (CPU-bound non-LLM work (Inspector verdicts) "
            "across processes; model chunks on threads), "
            "async (asyncio event loop).  Results are identical across "
            "backends (default: derived from --jobs)"
        ),
    )
    parser.add_argument(
        "--lpt",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "dispatch chunks longest-processing-time first using the cost "
            "model's observed per-(model, strategy) latencies (plan order "
            "until latencies exist; --no-lpt keeps plan order always)"
        ),
    )
    parser.add_argument(
        "--adaptive-batching",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "let the cost model scale chunk sizes per (model, strategy) "
            "group around --batch-size (slow groups split finer, fast ones "
            "batch coarser); --no-adaptive-batching pins every chunk to "
            "exactly --batch-size"
        ),
    )
    parser.add_argument(
        "--speculate",
        action=argparse.BooleanOptionalAction,
        default=False,
        help=(
            "tail-latency control: race a duplicate of any chunk running "
            "past the cost model's p95 estimate into idle executor "
            "capacity — first completion wins, results are identical; "
            "needs a parallel executor (--jobs N > 1); composes with "
            "--retries (default: off)"
        ),
    )
    parser.add_argument(
        "--cascade",
        action=argparse.BooleanOptionalAction,
        default=False,
        help=(
            "tiered detection cascade: cheap tiers (--cascade-tiers) answer "
            "each record first and only low-confidence or disagreeing "
            "verdicts escalate to the requested model.  --no-cascade is the "
            "reference single-model path (default: off)"
        ),
    )
    parser.add_argument(
        "--cascade-tiers",
        default=None,
        metavar="SPEC",
        help=(
            "comma-separated cheap-tier ladder, cheapest first: 'static', "
            "'inspector' (alias 'dynamic'), or any zoo model name "
            f"(default: {DEFAULT_CASCADE_TIERS})"
        ),
    )
    parser.add_argument(
        "--escalate-below",
        type=float,
        default=None,
        metavar="CONF",
        help=(
            "confidence a cheap-tier verdict must reach to resolve a record "
            "without escalating; 1.0 escalates everything (identical to the "
            f"requested model alone) (default: {DEFAULT_ESCALATE_BELOW})"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "retry each failing chunk up to N times with exponential "
            "backoff and deterministic jitter before surfacing explicit "
            "failed results; retried work re-enters the dispatcher instead "
            "of blocking a worker, and per-model circuit breakers route "
            f"around models that keep failing ({DEFAULT_BREAKER_THRESHOLD} "
            f"consecutive failures open a breaker for "
            f"{DEFAULT_BREAKER_COOLDOWN_S:g} s; default: 0 — fail fast)"
        ),
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help=(
            "append-only JSONL run journal of completed chunk outcomes; "
            "an interrupted run re-invoked with the same journal resumes "
            "by replaying finished work without new model calls "
            "(default: no journal)"
        ),
    )
    parser.add_argument(
        "--sequential",
        action="store_true",
        help="with 'all': run one engine run per table instead of the interleaved scheduler",
    )
    parser.add_argument(
        "--stream",
        action=argparse.BooleanOptionalAction,
        default=False,
        help=(
            "bounded-memory streaming: build, plan and dispatch requests in "
            f"windows of {DEFAULT_STREAM_WINDOW} requests instead of "
            "materialising the whole workload — peak RSS is O(window), "
            "results are identical (default: off)"
        ),
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help=(
            "on-disk response cache: a directory of append-only JSONL "
            "segments, written incrementally and atomically; a path that "
            "is a regular file is rejected (default: in-memory only)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "disable the response cache: every prompt goes to the model "
            "(default: a 65536-entry in-memory cache)"
        ),
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help=(
            "byte budget for the in-memory cache tier: eviction runs until "
            "entries fit, preferring the most bytes reclaimed per cost-model "
            "second-to-regenerate (without a budget a full cache evicts the "
            "entry cheapest to regenerate; default: unbounded)"
        ),
    )
    parser.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "maximum in-memory age of a cache entry; expired entries are "
            "dropped lazily on lookup and evicted first under pressure "
            "(the on-disk store is unaffected; default: no expiry)"
        ),
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=32,
        metavar="N",
        help="requests per engine chunk (default: 32)",
    )
    parser.add_argument(
        "--no-stats",
        action="store_true",
        help="suppress the [engine] stats line after table runs",
    )
    args = parser.parse_args(argv)
    if args.batch_size < 1:
        parser.error("--batch-size must be >= 1")
    if args.jobs is not None and args.jobs < 0:
        parser.error("--jobs must be >= 0 (0 and 1 both mean serial)")
    if args.cache is not None and Path(args.cache).is_file():
        parser.error(
            f"--cache {args.cache} is a file; the cache is a directory of segments"
        )
    if args.jobs is None:
        # --executor without --jobs: parallel backends get a sensible
        # default width instead of a one-worker pool.
        args.jobs = 4 if args.executor not in (None, "serial") else 1
    if args.speculate and (args.executor == "serial" or args.jobs <= 1):
        # A duplicate needs an idle slot; a one-wide executor never has one.
        parser.error(
            "--speculate requires a parallel executor (--jobs N > 1, not --executor serial)"
        )
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if not args.cascade:
        if args.cascade_tiers is not None:
            parser.error("--cascade-tiers requires --cascade")
        if args.escalate_below is not None:
            parser.error("--escalate-below requires --cascade")
    if args.escalate_below is not None and not 0.0 <= args.escalate_below <= 1.0:
        parser.error("--escalate-below must be between 0 and 1")
    args.cascade_policy = None
    if args.cascade:
        try:
            args.cascade_policy = CascadePolicy.from_spec(
                args.cascade_tiers if args.cascade_tiers is not None else DEFAULT_CASCADE_TIERS,
                escalate_below=(
                    args.escalate_below
                    if args.escalate_below is not None
                    else DEFAULT_ESCALATE_BELOW
                ),
            )
        except (KeyError, ValueError) as exc:
            parser.error(f"--cascade-tiers: {exc}")
    if args.cache_max_bytes is not None and args.cache_max_bytes <= 0:
        parser.error("--cache-max-bytes must be > 0")
    if args.cache_ttl is not None and args.cache_ttl <= 0:
        parser.error("--cache-ttl must be > 0 seconds")
    if args.no_cache:
        for flag, value in (
            ("--cache", args.cache),
            ("--cache-max-bytes", args.cache_max_bytes),
            ("--cache-ttl", args.cache_ttl),
        ):
            if value is not None:
                parser.error(f"{flag} has no effect with --no-cache")
    if args.command == "cache":
        if args.subcommand not in ("stats", "compact"):
            parser.error(
                "the 'cache' command takes a subcommand: stats or compact"
            )
        if args.cache is None:
            parser.error("'repro cache' requires --cache PATH (the store to inspect)")
        return _run_cache_command(args)
    if args.subcommand is not None:
        parser.error(
            f"unexpected argument {args.subcommand!r}: only the 'cache' command takes a subcommand"
        )
    if args.sequential and args.command != "all":
        parser.error("--sequential only applies to the 'all' command")
    if args.stream and args.command == "summary":
        parser.error("--stream has no effect on the 'summary' command")
    engine = _build_engine(args)
    try:
        if args.command == "all":
            _run_all(
                engine,
                sequential=args.sequential,
                stats=not args.no_stats,
                stream=args.stream,
            )
        else:
            before = engine.telemetry.snapshot()
            _run(args.command, engine, stream=args.stream)
            if args.command != "summary" and not args.no_stats:
                print(
                    engine.telemetry.format_stats(
                        executor_name=engine.executor.name, since=before
                    )
                )
                _print_group_stats(engine)
        if engine.cache is not None and args.cache is not None:
            engine.cache.save()
            engine.cost_model.save()
    finally:
        engine.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
