"""Stratified cross-validation of the fine-tuned models (paper §3.5, §4.2-4.3).

For every fold: fine-tune the open-source model on the training records'
prompt–response pairs, then evaluate both the pre-trained model and the
fine-tuned model on the held-out records.  The result aggregates AVG/SD of
recall, precision and F1 across folds — the layout of Tables 4 and 6.

Like the table drivers, cross-validation splits into a **plan** phase
(:func:`plan_finetune_crossval` — trains every fold's adapter, pure CPU
work, and lays out all base/tuned evaluation requests) and a **reduce**
phase (:meth:`CrossValPlan.reduce` — slices the ordered results back into
per-fold confusion counts).  :func:`run_finetune_crossval` composes the two
through one engine run; the cross-table scheduler instead merges the plan's
requests into its single interleaved run.

Given a response cache (the engine's), planning reads each fold's adapter
from it instead of retraining: :class:`~repro.llm.finetune.FineTuner`
stores adapters under ``adapter/v1#<config digest>`` keyed on the training
set, so a warm run rebuilds all of them without a single fit and the
tuned models' cache identities — and therefore their cached responses —
come out unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dataset.drbml import DRBMLDataset
from repro.dataset.pairs import build_advanced_pairs, build_basic_pairs
from repro.dataset.records import DRBMLRecord
from repro.eval.metrics import ConfusionCounts, FoldStatistics
from repro.llm.base import LanguageModel
from repro.llm.finetune import FineTuneConfig, FineTuner
from repro.llm.zoo import create_model
from repro.prompting.strategy import PromptStrategy

__all__ = ["CrossValPlan", "CrossValResult", "plan_finetune_crossval", "run_finetune_crossval"]


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
    cache=None,
) -> CrossValPlan:
    """Plan the paper's fine-tuning cross-validation for one model.

    Fine-tunes every fold's adapter here (CPU-only, no model calls) and
    returns the evaluation requests plus the fold layout.  Parameters match
    :func:`run_finetune_crossval`; ``model_factory`` lets benchmarks inject
    e.g. latency-simulated base models, and ``cache`` (a
    :class:`~repro.engine.cache.ResponseCache`) stores and reuses the
    trained adapters.
    """
    if kind not in ("basic", "advanced"):
        raise ValueError("kind must be 'basic' or 'advanced'")
    factory = model_factory or create_model
    plan = CrossValPlan(model=model_name, kind=kind)
    for assignment in dataset.folds(n_folds=n_folds, seed=seed):
        train_records = dataset.records_for(assignment.train_names)
        test_records = dataset.records_for(assignment.test_names)
        base = factory(model_name)
        pairs = (
            build_basic_pairs(train_records)
            if kind == "basic"
            else build_advanced_pairs(train_records)
        )
        tuner = FineTuner(
            base=base, config=config or FineTuneConfig.for_model(model_name), cache=cache
        )
        tuned = tuner.fit(pairs)
        base_start = len(plan.requests)
        plan.requests.extend(_fold_requests(base, test_records, kind))
        tuned_start = len(plan.requests)
        plan.requests.extend(_fold_requests(tuned, test_records, kind))
        plan.fold_spans.append((base_start, tuned_start, len(plan.requests)))
    return plan


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
        cache=engine.cache,
    )
    return plan.reduce(engine.run(plan.requests))
