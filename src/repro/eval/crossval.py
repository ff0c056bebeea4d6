"""Stratified cross-validation of the fine-tuned models (paper §3.5, §4.2-4.3).

For every fold: fine-tune the open-source model on the training records'
prompt–response pairs, then evaluate both the pre-trained model and the
fine-tuned model on the held-out records.  The result aggregates AVG/SD of
recall, precision and F1 across folds — the layout of Tables 4 and 6.

Like the table drivers, cross-validation splits into a **plan** phase
(:func:`plan_finetune_crossval` — trains every fold's adapter, pure CPU
work, and lays out all base/tuned evaluation requests;
:func:`plan_finetune_crossvals` does the same for several models and
trains all their folds' adapters as one lockstep batch) and a **reduce**
phase (:meth:`CrossValPlan.reduce` — slices the ordered results back into
per-fold confusion counts).  :func:`run_finetune_crossval` composes the two
through one engine run; Tables 4 and 6 plan from their ``prepare`` step
and the cross-table scheduler merges the requests into its one run.

The fits go through the engine's ``cached_map``: adapters are stored under
``adapter/v1#<config digest>`` keyed on the training set, so a warm run
rebuilds all of them without a single fit and the tuned models' cache
identities — and therefore their cached responses — come out unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dataset.drbml import DRBMLDataset
from repro.dataset.pairs import build_advanced_pairs, build_basic_pairs
from repro.dataset.records import DRBMLRecord
from repro.eval.metrics import ConfusionCounts, FoldStatistics
from repro.llm.base import LanguageModel
from repro.llm.finetune import FineTuneConfig, FineTuner, fine_tune_all
from repro.llm.zoo import create_model
from repro.prompting.strategy import PromptStrategy

__all__ = [
    "CrossValPlan",
    "CrossValResult",
    "plan_finetune_crossval",
    "plan_finetune_crossvals",
    "run_finetune_crossval",
]


@dataclass
class CrossValResult:
    """Fold-level confusion counts for the base and fine-tuned variants."""

    model: str
    kind: str  # "basic" or "advanced"
    base_folds: List[ConfusionCounts] = field(default_factory=list)
    tuned_folds: List[ConfusionCounts] = field(default_factory=list)

    @property
    def base_stats(self) -> FoldStatistics:
        return FoldStatistics.from_counts(self.base_folds)

    @property
    def tuned_stats(self) -> FoldStatistics:
        return FoldStatistics.from_counts(self.tuned_folds)

    def as_rows(self) -> Dict[str, tuple]:
        """Rows in the Table 4/6 layout keyed by display name."""
        return {
            self.model: self.base_stats.as_row(),
            f"{self.model}-FT": self.tuned_stats.as_row(),
        }


def _fold_requests(model: LanguageModel, records: Sequence[DRBMLRecord], kind: str):
    """Requests scoring one fold's held-out records.

    ``"basic"`` folds use BP1 detection scoring; ``"advanced"`` folds use
    the ADVANCED strategy with pair-correctness scoring — the same two
    scoring modes the Table 2/5 drivers use (``repro.engine.requests``).
    """
    from repro.engine import build_requests

    if kind == "basic":
        return build_requests(model, PromptStrategy.BP1, records, scoring="detection")
    return build_requests(model, PromptStrategy.ADVANCED, records, scoring="pairs")


@dataclass
class CrossValPlan:
    """All of one model's cross-validation requests plus the fold layout.

    ``requests`` holds, for every fold in order, the base model's held-out
    evaluations followed by the tuned model's — the exact order the
    sequential loop issued them, so reducing a slice of an interleaved run
    reproduces its counts bit-for-bit.
    """

    model: str
    kind: str
    requests: List = field(default_factory=list)
    #: Per fold: (base_start, tuned_start, end) offsets into ``requests``.
    fold_spans: List[Tuple[int, int, int]] = field(default_factory=list)

    def reduce(self, store) -> CrossValResult:
        """Slice ordered results back into per-fold confusion counts."""
        from repro.engine import RunResultStore

        result = CrossValResult(model=self.model, kind=self.kind)
        for base_start, tuned_start, end in self.fold_spans:
            result.base_folds.append(
                RunResultStore(store.results[base_start:tuned_start]).confusion()
            )
            result.tuned_folds.append(
                RunResultStore(store.results[tuned_start:end]).confusion()
            )
        return result


def plan_finetune_crossval(
    dataset: DRBMLDataset,
    model_name: str,
    *,
    kind: str = "basic",
    n_folds: int = 5,
    seed: int = 7,
    config: Optional[FineTuneConfig] = None,
    model_factory: Optional[Callable[[str], LanguageModel]] = None,
    engine=None,
) -> CrossValPlan:
    """Plan the paper's fine-tuning cross-validation for one model.

    Fine-tunes every fold's adapter here (CPU-only, no model calls) and
    returns the evaluation requests plus the fold layout.  Parameters match
    :func:`run_finetune_crossval`; ``model_factory`` lets benchmarks inject
    e.g. latency-simulated base models, and ``engine``'s cache stores and
    reuses the adapters.  One model's case of :func:`plan_finetune_crossvals`.
    """
    (plan,) = plan_finetune_crossvals(
        dataset,
        [model_name],
        kind=kind,
        n_folds=n_folds,
        seed=seed,
        config=config,
        model_factory=model_factory,
        engine=engine,
    )
    return plan


def plan_finetune_crossvals(
    dataset: DRBMLDataset,
    model_names: Sequence[str],
    *,
    kind: str = "basic",
    n_folds: int = 5,
    seed: int = 7,
    config: Optional[FineTuneConfig] = None,
    model_factory: Optional[Callable[[str], LanguageModel]] = None,
    engine=None,
) -> List[CrossValPlan]:
    """Plan several models' cross-validation over the same folds, one plan each.

    Every model's fold jobs go to one :func:`~repro.llm.finetune.fine_tune_all`
    call on ``engine``, which trains the adapters its cache does not hold
    in lockstep (both paper models share a shape, so a table's ten adapters
    train as one group).  Every record's training pair is built once per
    call; each fold job takes its training records' pairs, in dataset
    order, so its pairs and ``training_digest`` equal those of the pair
    builder run on that fold's records.  The plans' requests come out in
    the order one model at a time would issue them.
    """
    if kind not in ("basic", "advanced"):
        raise ValueError("kind must be 'basic' or 'advanced'")
    factory = model_factory or create_model
    build_pairs = build_basic_pairs if kind == "basic" else build_advanced_pairs
    assignments = dataset.folds(n_folds=n_folds, seed=seed)
    all_pairs = build_pairs(dataset.records)
    # Per fold: (held-out records, training pairs); the pairs are what
    # build_pairs(dataset.records_for(assignment.train_names)) would build.
    splits = []
    for assignment in assignments:
        wanted = set(assignment.train_names)
        splits.append(
            (
                dataset.records_for(assignment.test_names),
                [pair for record, pair in zip(dataset.records, all_pairs) if record.name in wanted],
            )
        )
    # Per fold, in plan order: (plan, base model, held-out records, tuner, training pairs).
    folds = []
    plans = []
    for model_name in model_names:
        plan = CrossValPlan(model=model_name, kind=kind)
        plans.append(plan)
        for test_records, train_pairs in splits:
            base = factory(model_name)
            tuner = FineTuner(base=base, config=config or FineTuneConfig.for_model(model_name))
            folds.append((plan, base, test_records, tuner, train_pairs))
    tuned_models = fine_tune_all(((tuner, pairs) for _, _, _, tuner, pairs in folds), engine)
    for (plan, base, test_records, _, _), tuned in zip(folds, tuned_models):
        base_start = len(plan.requests)
        plan.requests.extend(_fold_requests(base, test_records, kind))
        tuned_start = len(plan.requests)
        plan.requests.extend(_fold_requests(tuned, test_records, kind))
        plan.fold_spans.append((base_start, tuned_start, len(plan.requests)))
    return plans


def run_finetune_crossval(
    dataset: DRBMLDataset,
    model_name: str,
    *,
    kind: str = "basic",
    n_folds: int = 5,
    seed: int = 7,
    config: Optional[FineTuneConfig] = None,
    engine=None,
) -> CrossValResult:
    """Run the paper's fine-tuning cross-validation for one model.

    Parameters
    ----------
    dataset:
        The ≤4k-token DRB-ML subset.
    model_name:
        ``"starchat-beta"`` or ``"llama2-7b"`` (the open-source models).
    kind:
        ``"basic"`` (Table 4, detection) or ``"advanced"`` (Table 6, variable
        identification).
    """
    from repro.engine import resolve_engine

    engine = resolve_engine(engine)
    plan = plan_finetune_crossval(
        dataset,
        model_name,
        kind=kind,
        n_folds=n_folds,
        seed=seed,
        config=config,
        engine=engine,
    )
    return plan.reduce(engine.run(plan.requests))
