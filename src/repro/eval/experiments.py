"""Experiment drivers for every table of the paper's evaluation section.

Each table is expressed in two phases:

* ``plan_tableN`` — the **plan** phase: build the table's
  :class:`~repro.engine.scheduler.TablePlan` — its
  :class:`~repro.engine.requests.DetectionRequest` batch (dataset →
  prompts), a ``prepare`` step for the non-LLM work (Table 3's Inspector
  baseline, the fold fits of Tables 4 and 6, both through the engine's
  ``cached_map``) and a reducer that will assemble the paper-layout rows
  from scored results.  Planning never calls a model and takes no cache.
* ``run_tableN`` — the familiar driver: execute the plan through an
  :class:`~repro.engine.core.ExecutionEngine` and reduce.  Results are
  unchanged from the pre-plan drivers; the split exists so
  :func:`repro.engine.scheduler.run_all_tables` can interleave **every**
  table's requests into a single engine run instead of serialising five
  drivers.

All drivers accept an optional ``engine`` so callers (the CLI's
``--jobs``/``--executor``/``--cache`` flags, the benchmark harness) can
share one engine — and its cache and telemetry — across tables.  When
omitted, each call gets a fresh serial, uncached engine, which reproduces
the seed behaviour exactly.  ``model_factory`` (default
:func:`repro.llm.zoo.create_model`) lets benchmarks inject e.g.
latency-simulated model instances without changing the plan shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.corpus.generator import CorpusConfig, build_corpus
from repro.corpus.microbenchmark import Microbenchmark
from repro.dataset.drbml import DRBMLDataset
from repro.dataset.records import DRBMLRecord
from repro.dynamic.inspector import InspectorLikeDetector
from repro.eval.crossval import plan_finetune_crossvals
from repro.eval.metrics import ConfusionCounts
from repro.llm.base import LanguageModel
from repro.llm.zoo import available_models, create_model
from repro.prompting.strategy import PromptStrategy

__all__ = [
    "PromptEvaluationRow",
    "iter_detection_requests",
    "evaluate_model_prompt",
    "evaluate_inspector",
    "evaluate_variable_identification",
    "plan_table2",
    "plan_table3",
    "plan_table4",
    "plan_table5",
    "plan_table6",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
    "default_subset",
]

#: Builds a model instance from a zoo name (benchmarks override this).
ModelFactory = Callable[[str], LanguageModel]


@dataclass
class PromptEvaluationRow:
    """One table row: a tool/model under one prompt strategy."""

    model: str
    prompt: str
    counts: ConfusionCounts

    def as_dict(self) -> Dict[str, object]:
        tp, fp, tn, fn, r, p, f1 = self.counts.as_row()
        return {
            "model": self.model,
            "prompt": self.prompt,
            "TP": tp,
            "FP": fp,
            "TN": tn,
            "FN": fn,
            "recall": round(r, 3),
            "precision": round(p, 3),
            "f1": round(f1, 3),
        }


def default_subset(
    config: Optional[CorpusConfig] = None,
    *,
    corpus: Optional[Sequence[Microbenchmark]] = None,
) -> DRBMLDataset:
    """The ≤4k-token evaluation subset used by every experiment (§3.2).

    ``corpus`` is ``build_corpus(config)`` when the caller has built it
    already; by default the corpus is built here.
    """
    if corpus is None:
        corpus = build_corpus(config)
    return DRBMLDataset.from_benchmarks(corpus).token_subset()


def iter_detection_requests(
    model: LanguageModel,
    strategy: PromptStrategy,
    *,
    corpus_config: Optional[CorpusConfig] = None,
    token_limit: Optional[int] = None,
    scoring: Optional[str] = None,
    jobs: int = 1,
):
    """Fully lazy corpus → featurise → request chain for one model/strategy.

    Nothing is materialised: benchmarks are instantiated, featurised into
    records (optionally sharded across ``jobs`` worker processes with
    bounded look-ahead) and wrapped into requests one element at a time as
    the consumer — typically ``ExecutionEngine.run_streaming`` — pulls.
    ``token_limit`` defaults to the §3.2 evaluation budget; pass a different
    limit or ``None``-equivalent large value to keep every record.
    """
    # Lazy imports: same circularity constraint as _resolve_engine.
    from repro.dataset.drbml import iter_default_records
    from repro.dataset.tokenizer import DEFAULT_TOKEN_LIMIT
    from repro.engine import iter_requests

    limit = DEFAULT_TOKEN_LIMIT if token_limit is None else token_limit
    records = iter_default_records(corpus_config, token_limit=limit, jobs=jobs)
    return iter_requests(model, strategy, records, scoring=scoring)


def _resolve_engine(engine):
    """Delegates to :func:`repro.engine.resolve_engine`.

    Imported lazily: ``repro.engine`` depends on the leaf modules of this
    package (metrics, matching), so a module-level import here would be
    circular through ``repro.eval.__init__``.
    """
    from repro.engine import resolve_engine

    return resolve_engine(engine)


# ---------------------------------------------------------------------------
# row-segment bookkeeping shared by the detection-table plans
# ---------------------------------------------------------------------------


class _RowSegments:
    """Maps contiguous result slices back to (model, prompt) table rows."""

    def __init__(self) -> None:
        self._segments: List[tuple] = []

    def add(self, model: str, prompt: str, start: int, end: int) -> None:
        self._segments.append((model, prompt, start, end))

    def reduce(self, store, *, leading_rows: Optional[List[PromptEvaluationRow]] = None):
        from repro.engine import RunResultStore

        rows = list(leading_rows or [])
        for model, prompt, start, end in self._segments:
            counts = RunResultStore(store.results[start:end]).confusion()
            rows.append(PromptEvaluationRow(model=model, prompt=prompt, counts=counts))
        return rows


# ---------------------------------------------------------------------------
# detection experiments (Tables 2 and 3)
# ---------------------------------------------------------------------------


def evaluate_model_prompt(
    model: LanguageModel,
    strategy: PromptStrategy,
    records: Sequence[DRBMLRecord],
    *,
    engine=None,
) -> ConfusionCounts:
    """Run one model under one prompt strategy over the given records."""
    from repro.engine import build_requests

    engine = _resolve_engine(engine)
    return engine.run_counts(build_requests(model, strategy, records, scoring="detection"))


#: How cached Inspector verdicts are spelled in the response cache.
_VERDICTS = {"race": True, "clean": False}


def evaluate_inspector(
    benchmarks: Sequence[Microbenchmark],
    *,
    detector: Optional[InspectorLikeDetector] = None,
    engine=None,
) -> ConfusionCounts:
    """Run the Inspector-like dynamic detector over corpus microbenchmarks.

    The benchmarks go through the engine's ``cached_map``: each verdict is
    looked up under the detector's ``cache_identity`` and the prompt
    ``"<num_threads>\\n<code>"``, stored as ``race``/``clean``, and only the
    misses run, over the engine's executor.
    """
    detector = detector or InspectorLikeDetector()
    benchmarks = list(benchmarks)
    engine = _resolve_engine(engine)
    identity = detector.cache_identity
    predictions = engine.cached_map(
        ((identity, f"{bench.num_threads}\n{bench.code}", bench) for bench in benchmarks),
        lambda misses: engine.executor.map(detector.predict, misses),
        kind="inspect",
        decode=lambda bench, entry: _VERDICTS.get(entry),
        encode=lambda verdict: "race" if verdict else "clean",
    )
    counts = ConfusionCounts()
    for bench, prediction in zip(benchmarks, predictions):
        counts.add(bench.has_race, prediction)
    return counts


def plan_table2(
    dataset: Optional[DRBMLDataset] = None,
    *,
    model_name: str = "gpt-3.5-turbo",
    model_factory: Optional[ModelFactory] = None,
):
    """Plan Table 2: GPT-3.5-turbo with BP1 vs. BP2."""
    from repro.engine import build_requests
    from repro.engine.scheduler import TablePlan

    records = (default_subset() if dataset is None else dataset).records
    model = (model_factory or create_model)(model_name)
    segments = _RowSegments()
    requests = []
    for strategy in (PromptStrategy.BP1, PromptStrategy.BP2):
        start = len(requests)
        requests.extend(build_requests(model, strategy, records, scoring="detection"))
        segments.add(model_name, strategy.value, start, len(requests))
    return TablePlan(table="table2", requests=requests, reduce=segments.reduce)


def run_table2(
    dataset: Optional[DRBMLDataset] = None,
    *,
    model_name: str = "gpt-3.5-turbo",
    engine=None,
) -> List[PromptEvaluationRow]:
    """Table 2: GPT-3.5-turbo with BP1 vs. BP2."""
    return plan_table2(dataset, model_name=model_name).execute(_resolve_engine(engine))


def plan_table3(
    dataset: Optional[DRBMLDataset] = None,
    *,
    corpus_config: Optional[CorpusConfig] = None,
    corpus: Optional[Sequence[Microbenchmark]] = None,
    include_inspector: bool = True,
    models: Optional[Sequence[str]] = None,
    strategies: Sequence[PromptStrategy] = (
        PromptStrategy.BP1,
        PromptStrategy.AP1,
        PromptStrategy.AP2,
    ),
    model_factory: Optional[ModelFactory] = None,
):
    """Plan Table 3: Inspector baseline plus the LLM/strategy grid.

    The Inspector is not an LLM, so its scoring runs in the plan's
    ``prepare`` step (through ``engine.cached_map``, sharing the executor)
    and its row is prepended at reduce time.  Its inputs are the
    benchmarks of ``dataset``'s records, taken from ``corpus`` — which is
    ``build_corpus(corpus_config)`` when the caller has built it already —
    or else from a corpus built in ``prepare``.  The plan lets go of
    ``corpus`` once ``prepare`` has read it, so the engine run that follows
    holds no benchmark.
    """
    from repro.engine import build_requests
    from repro.engine.scheduler import TablePlan

    if dataset is None:
        if corpus is None:
            corpus = build_corpus(corpus_config)
        dataset = default_subset(corpus=corpus)
    factory = model_factory or create_model
    segments = _RowSegments()
    requests = []
    for model_name in models or available_models():
        model = factory(model_name)
        for strategy in strategies:
            start = len(requests)
            requests.extend(
                build_requests(model, strategy, dataset.records, scoring="detection")
            )
            segments.add(model_name, strategy.value, start, len(requests))

    prepared: Dict[str, ConfusionCounts] = {}
    prepare = None
    if include_inspector:
        subset_names = {record.name for record in dataset.records}

        def prepare(engine):
            nonlocal corpus
            source = build_corpus(corpus_config) if corpus is None else corpus
            corpus = None
            benchmarks = [b for b in source if b.name in subset_names]
            prepared["inspector"] = evaluate_inspector(benchmarks, engine=engine)

    def reduce(store):
        leading = []
        if "inspector" in prepared:
            leading.append(
                PromptEvaluationRow(model="Inspector", prompt="N/A", counts=prepared["inspector"])
            )
        return segments.reduce(store, leading_rows=leading)

    return TablePlan(table="table3", requests=requests, reduce=reduce, prepare=prepare)


def run_table3(
    dataset: Optional[DRBMLDataset] = None,
    *,
    corpus_config: Optional[CorpusConfig] = None,
    include_inspector: bool = True,
    models: Optional[Sequence[str]] = None,
    strategies: Sequence[PromptStrategy] = (
        PromptStrategy.BP1,
        PromptStrategy.AP1,
        PromptStrategy.AP2,
    ),
    engine=None,
) -> List[PromptEvaluationRow]:
    """Table 3: Inspector baseline plus four LLMs under BP1/AP1/AP2."""
    plan = plan_table3(
        dataset,
        corpus_config=corpus_config,
        include_inspector=include_inspector,
        models=models,
        strategies=strategies,
    )
    return plan.execute(_resolve_engine(engine))


# ---------------------------------------------------------------------------
# variable identification (Table 5)
# ---------------------------------------------------------------------------


def evaluate_variable_identification(
    model: LanguageModel,
    records: Sequence[DRBMLRecord],
    *,
    engine=None,
) -> ConfusionCounts:
    """Advanced scoring: a positive only counts when the reported pair is right."""
    from repro.engine import build_requests

    engine = _resolve_engine(engine)
    return engine.run_counts(
        build_requests(model, PromptStrategy.ADVANCED, records, scoring="pairs")
    )


def plan_table5(
    dataset: Optional[DRBMLDataset] = None,
    *,
    models: Optional[Sequence[str]] = None,
    model_factory: Optional[ModelFactory] = None,
):
    """Plan Table 5: pre-trained models on variable identification."""
    from repro.engine import build_requests
    from repro.engine.scheduler import TablePlan

    records = (default_subset() if dataset is None else dataset).records
    factory = model_factory or create_model
    segments = _RowSegments()
    requests = []
    for model_name in models or available_models():
        model = factory(model_name)
        start = len(requests)
        requests.extend(
            build_requests(model, PromptStrategy.ADVANCED, records, scoring="pairs")
        )
        segments.add(model_name, "ADVANCED", start, len(requests))
    return TablePlan(table="table5", requests=requests, reduce=segments.reduce)


def run_table5(
    dataset: Optional[DRBMLDataset] = None,
    *,
    models: Optional[Sequence[str]] = None,
    engine=None,
) -> List[PromptEvaluationRow]:
    """Table 5: pre-trained models on detection + variable identification."""
    return plan_table5(dataset, models=models).execute(_resolve_engine(engine))


# ---------------------------------------------------------------------------
# fine-tuning cross-validation (Tables 4 and 6)
# ---------------------------------------------------------------------------


def _plan_crossval_table(
    table: str,
    kind: str,
    dataset: Optional[DRBMLDataset],
    models: Sequence[str],
    n_folds: int,
    seed: int,
    model_factory: Optional[ModelFactory],
):
    """Shared plan builder for Tables 4 and 6.

    Fine-tuning runs in the plan's ``prepare``, like Table 3's Inspector,
    through the engine's ``cached_map``: every model's folds fit as one
    lockstep batch, or come from the engine's cache.  ``prepare`` then
    rebuilds (never extends) the table's requests, which the scheduler
    interleaves with every other table's.
    """
    from repro.engine.scheduler import TablePlan

    dataset = default_subset() if dataset is None else dataset
    requests: List = []
    spans: List[tuple] = []

    def prepare(engine):
        if not dataset.records:
            return  # nothing to hold out or fit on: the table plans no request
        subplans = plan_finetune_crossvals(
            dataset,
            models,
            kind=kind,
            n_folds=n_folds,
            seed=seed,
            model_factory=model_factory,
            engine=engine,
        )
        requests.clear()
        spans.clear()
        for model_name, subplan in zip(models, subplans):
            start = len(requests)
            requests.extend(subplan.requests)
            spans.append((model_name, subplan, start, len(requests)))

    def reduce(store):
        from repro.engine import RunResultStore

        return {
            model_name: subplan.reduce(RunResultStore(store.results[start:end]))
            for model_name, subplan, start, end in spans
        }

    return TablePlan(table=table, requests=requests, reduce=reduce, prepare=prepare)


def plan_table4(
    dataset: Optional[DRBMLDataset] = None,
    *,
    models: Sequence[str] = ("starchat-beta", "llama2-7b"),
    n_folds: int = 5,
    seed: int = 7,
    model_factory: Optional[ModelFactory] = None,
):
    """Plan Table 4: basic fine-tuning (detection) under cross-validation."""
    return _plan_crossval_table("table4", "basic", dataset, models, n_folds, seed, model_factory)


def run_table4(
    dataset: Optional[DRBMLDataset] = None,
    *,
    models: Sequence[str] = ("starchat-beta", "llama2-7b"),
    n_folds: int = 5,
    seed: int = 7,
    engine=None,
):
    """Table 4: basic fine-tuning (detection) under 5-fold cross-validation."""
    plan = plan_table4(dataset, models=models, n_folds=n_folds, seed=seed)
    return plan.execute(_resolve_engine(engine))


def plan_table6(
    dataset: Optional[DRBMLDataset] = None,
    *,
    models: Sequence[str] = ("starchat-beta", "llama2-7b"),
    n_folds: int = 5,
    seed: int = 7,
    model_factory: Optional[ModelFactory] = None,
):
    """Plan Table 6: advanced fine-tuning (variable identification) under CV."""
    return _plan_crossval_table(
        "table6", "advanced", dataset, models, n_folds, seed, model_factory
    )


def run_table6(
    dataset: Optional[DRBMLDataset] = None,
    *,
    models: Sequence[str] = ("starchat-beta", "llama2-7b"),
    n_folds: int = 5,
    seed: int = 7,
    engine=None,
):
    """Table 6: advanced fine-tuning (variable identification) under 5-fold CV."""
    plan = plan_table6(dataset, models=models, n_folds=n_folds, seed=seed)
    return plan.execute(_resolve_engine(engine))
