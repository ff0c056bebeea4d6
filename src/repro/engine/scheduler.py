"""Cross-table run scheduler: every table's requests in one engine run.

The ``run_tableN`` drivers each split into a **plan** phase (build the
table's :class:`~repro.engine.requests.DetectionRequest` batch plus a
reducer that turns scored results back into table rows) and a **reduce**
phase.  A :class:`TablePlan` captures that split, and this module schedules
collections of plans:

* :func:`run_plans` — the interleaved path.  All plans' requests are
  concatenated into **one** :meth:`ExecutionEngine.run`; the engine chunks
  them by (model, strategy, scoring) across table boundaries and keeps the
  executor saturated for the whole evaluation, so one table's stragglers
  overlap the next table's work instead of leaving workers idle between
  drivers.  Result slices are dispatched back to each plan's reducer.
  Because the combined run flows through the engine's cost-model
  scheduling, the slowest (model, strategy) groups of the *whole*
  evaluation are dispatched first (LPT) and merged in completion order,
  regardless of which table contributed them —
  the scheduler supplies the global workload, the engine the global order.
* :func:`run_plans_sequential` — the reference path: one ``engine.run`` per
  plan, in order, exactly like calling the five drivers one after another.
  Both paths produce bit-identical table rows
  (``tests/engine/test_scheduler.py``); only wall time differs.
* :func:`run_plans_streaming` — the bounded-memory path: every plan's
  requests are fed to :meth:`ExecutionEngine.run_streaming` as **one lazy
  stream** and each plan is reduced the moment its last result arrives, so
  peak residency is O(stream window + largest single plan's results), not
  O(all plans' requests).  Same interleaving benefits as :func:`run_plans`
  within each window; bit-identical rows.
* :func:`run_all_tables` — the user-facing driver behind ``repro all``:
  collects the default plans for Tables 2–6 and runs them interleaved.

Plan *preparation* (``plan.prepare``) carries a table's non-LLM work —
Table 3's Inspector baseline, and the fold fits that build Tables 4 and
6's requests — so by the time :func:`run_plans` executes, every remaining
unit of work is a detection request the engine can interleave freely.
Both go through :meth:`ExecutionEngine.cached_map` (verdicts under
``inspector/v2#…``, adapters under ``adapter/v1#…``), so a warm cache
recomputes neither, and no plan builder takes a cache.

The tiered cascade (``--cascade``) composes through this same plan/reduce
seam: plans only describe requests and reducers, and the cascade router
lives below :meth:`ExecutionEngine.run`, so interleaved, sequential and
streaming scheduling all route each materialised batch down the tier
ladder without any scheduler-level changes.

The fault-tolerance plane (``--retries``, circuit breakers, the run
journal) composes the same way: retries, breaker rerouting and journal
replay all happen below :meth:`ExecutionEngine.run`, and a request the
engine gave up on comes back as an explicit ``failed=True``
:class:`~repro.engine.requests.RunResult` *in position* — result slices
keep their plan's length and order, reducers never count failed entries
(``confusion_from_results`` excludes them), and a partial outage
degrades one table's counts instead of aborting the evaluation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.core import ExecutionEngine, resolve_engine
from repro.engine.requests import DetectionRequest, RunResultStore

__all__ = [
    "DEFAULT_TABLES",
    "TablePlan",
    "collect_default_plans",
    "results_fingerprint",
    "run_all_tables",
    "run_plans",
    "run_plans_sequential",
    "run_plans_streaming",
]

#: The paper's evaluation tables, in presentation order.
DEFAULT_TABLES = ("table2", "table3", "table4", "table5", "table6")


@dataclass
class TablePlan:
    """One table's evaluation, split into requests plus a reducer.

    Attributes
    ----------
    table:
        Key under which :func:`run_plans` files this plan's result
        (``"table2"`` … ``"table6"``).
    requests:
        Every detection request the table needs, in the exact order the
        sequential driver would issue them.
    reduce:
        Turns the scored results (a :class:`RunResultStore` covering
        exactly ``requests``, in order) into the driver's return value —
        table rows or a cross-validation result mapping.
    prepare:
        Optional non-LLM work run on the engine before ``requests`` execute
        (the Inspector baseline, the fold fits).  It may rebuild
        ``requests`` in place; reducers may close over state it fills in.
    """

    table: str
    requests: List[DetectionRequest] = field(default_factory=list)
    reduce: Callable[[RunResultStore], object] = lambda store: store
    prepare: Optional[Callable[[ExecutionEngine], None]] = None

    def execute(self, engine: Optional[ExecutionEngine] = None) -> object:
        """Run just this plan: prepare, one engine run, reduce."""
        engine = resolve_engine(engine)
        if self.prepare is not None:
            self.prepare(engine)
        return self.reduce(engine.run(self.requests))


def collect_default_plans(
    dataset=None,
    *,
    corpus_config=None,
    tables: Sequence[str] = DEFAULT_TABLES,
    model_factory=None,
) -> List[TablePlan]:
    """Build the default plan for every requested table.

    ``dataset`` defaults to the ≤4k-token evaluation subset, built **once**
    and shared by every plan (the sequential CLI path used to rebuild it
    per table).  ``model_factory`` is threaded through to each plan builder
    so benchmarks can inject latency-simulated models.  No builder takes a
    cache: the Inspector and the fits of Tables 4 and 6 run in each plan's
    ``prepare``, through the ``cached_map`` of the engine the plan runs on.
    """
    # Imported lazily: repro.eval.experiments reaches back into this
    # package for TablePlan, and repro.engine must stay importable on its
    # own (requests.py already imports repro.eval leaf modules).
    from repro.eval import experiments

    if dataset is None:
        dataset = experiments.default_subset(corpus_config)
    builders = {
        "table2": experiments.plan_table2,
        "table3": functools.partial(experiments.plan_table3, corpus_config=corpus_config),
        "table4": experiments.plan_table4,
        "table5": experiments.plan_table5,
        "table6": experiments.plan_table6,
    }
    plans = []
    for table in tables:
        try:
            builder = builders[table]
        except KeyError as exc:
            raise ValueError(f"unknown table {table!r}; expected one of {DEFAULT_TABLES}") from exc
        plans.append(builder(dataset, model_factory=model_factory))
    return plans


def results_fingerprint(results: Dict[str, object]) -> Dict[str, object]:
    """Flatten a ``{table: result}`` mapping into comparable plain tuples.

    Row lists become ``(model, prompt, confusion-row)`` tuples and
    cross-validation results become per-fold confusion rows, so two runs
    can be compared with ``==`` regardless of object identity.  This is
    the single definition of "bit-identical table rows" used by the
    equivalence tests and the scheduler benchmark.
    """
    flat: Dict[str, object] = {}
    for table, result in results.items():
        if isinstance(result, dict):  # cross-validation tables (4 and 6)
            flat[table] = {
                name: (
                    [counts.as_row() for counts in crossval.base_folds],
                    [counts.as_row() for counts in crossval.tuned_folds],
                )
                for name, crossval in result.items()
            }
        else:  # row lists (tables 2, 3 and 5)
            flat[table] = [(row.model, row.prompt, row.counts.as_row()) for row in result]
    return flat


def _prepare_all(plans: Sequence[TablePlan], engine: ExecutionEngine) -> None:
    for plan in plans:
        if plan.prepare is not None:
            plan.prepare(engine)


def run_plans(
    plans: Sequence[TablePlan], *, engine: Optional[ExecutionEngine] = None
) -> Dict[str, object]:
    """Execute every plan through **one** interleaved engine run.

    All plans' requests go into a single :meth:`ExecutionEngine.run`; the
    engine's chunking groups them by (model, strategy, scoring) across
    table boundaries, so the executor sees the whole evaluation as one
    stream of mixed-model batches.  Each plan's reducer then receives its
    own slice of the ordered results — bit-identical to what a per-table
    run would have produced.
    """
    engine = resolve_engine(engine)
    plans = list(plans)
    _prepare_all(plans, engine)
    spans: List[Tuple[TablePlan, int, int]] = []
    combined: List[DetectionRequest] = []
    for plan in plans:
        start = len(combined)
        combined.extend(plan.requests)
        spans.append((plan, start, len(combined)))
    store = engine.run(combined)
    return {
        plan.table: plan.reduce(RunResultStore(store.results[start:end]))
        for plan, start, end in spans
    }


def run_plans_sequential(
    plans: Sequence[TablePlan], *, engine: Optional[ExecutionEngine] = None
) -> Dict[str, object]:
    """The reference path: one engine run per plan, in plan order."""
    engine = resolve_engine(engine)
    return {plan.table: plan.execute(engine) for plan in plans}


def run_plans_streaming(
    plans: Sequence[TablePlan],
    *,
    engine: Optional[ExecutionEngine] = None,
) -> Dict[str, object]:
    """Execute every plan through one **streaming** engine run.

    The plans' requests are chained into a single lazy iterator feeding
    :meth:`ExecutionEngine.run_streaming`, so at most one window of requests
    (the engine's ``stream_window``) is ever materialised — a plan whose
    ``requests`` attribute is itself a lazy iterable is consumed without
    listing it.  Because the engine pulls requests strictly ahead of
    delivering their results, each plan's request count is known by the
    time its last result arrives; results are buffered only until their
    plan completes, then reduced and released.  Rows are
    bit-identical to :func:`run_plans` (pinned by the equivalence tests).
    """
    engine = resolve_engine(engine)
    plans = list(plans)
    _prepare_all(plans, engine)
    counts: List[int] = []  # request count per plan, appended at plan exhaustion

    def requests_iter():
        for plan in plans:
            n = 0
            for request in plan.requests:
                n += 1
                yield request
            counts.append(n)

    out: Dict[str, object] = {}
    buffered: List = []
    reduced = 0

    def flush_completed() -> None:
        nonlocal reduced
        while reduced < len(counts) and len(buffered) >= counts[reduced]:
            n = counts[reduced]
            plan = plans[reduced]
            out[plan.table] = plan.reduce(RunResultStore(buffered[:n]))
            del buffered[:n]
            reduced += 1

    for result in engine.run_streaming(requests_iter()):
        buffered.append(result)
        flush_completed()
    flush_completed()  # trailing plans, including zero-request ones
    if reduced != len(plans):
        raise RuntimeError(
            f"streaming run delivered results for {reduced} of {len(plans)} plans; "
            f"{len(buffered)} results left unclaimed"
        )
    return out


def run_all_tables(
    dataset=None,
    *,
    engine: Optional[ExecutionEngine] = None,
    corpus_config=None,
    tables: Sequence[str] = DEFAULT_TABLES,
    model_factory=None,
    plans: Optional[Sequence[TablePlan]] = None,
    interleave: bool = True,
    stream: bool = False,
) -> Dict[str, object]:
    """Regenerate every evaluation table through one interleaved engine run.

    Returns ``{table: result}`` where the result type matches the
    corresponding ``run_tableN`` driver (row lists for Tables 2/3/5,
    per-model cross-validation results for Tables 4/6).  Pass prebuilt
    ``plans`` to skip plan construction (the benchmark harness does, to
    time execution in isolation), or ``interleave=False`` for the
    sequential reference path.  ``stream=True`` routes through
    :func:`run_plans_streaming` (inherently interleaved — it takes
    precedence over ``interleave``) with the engine's ``stream_window``
    requests resident at once.  Each plan's ``prepare`` (the Inspector,
    the fits) runs through ``engine.cached_map``, so a warm cache skips it.
    """
    engine = resolve_engine(engine)
    if plans is None:
        plans = collect_default_plans(
            dataset,
            corpus_config=corpus_config,
            tables=tables,
            model_factory=model_factory,
        )
    if stream:
        return run_plans_streaming(plans, engine=engine)
    runner = run_plans if interleave else run_plans_sequential
    return runner(plans, engine=engine)
