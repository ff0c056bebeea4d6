"""Evaluation harness: metrics, pair matching, cross-validation and the
per-table experiment drivers (paper §3.5–§4)."""

from repro.eval.metrics import ConfusionCounts, FoldStatistics, mean_std
from repro.eval.matching import pair_matches, pairs_correct
from repro.eval.crossval import (
    CrossValPlan,
    CrossValResult,
    plan_finetune_crossval,
    plan_finetune_crossvals,
    run_finetune_crossval,
)
from repro.eval.experiments import (
    PromptEvaluationRow,
    evaluate_inspector,
    evaluate_model_prompt,
    evaluate_variable_identification,
    plan_table2,
    plan_table3,
    plan_table4,
    plan_table5,
    plan_table6,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
)
from repro.eval.reporting import format_confusion_table, format_crossval_table

__all__ = [
    "ConfusionCounts",
    "FoldStatistics",
    "mean_std",
    "pair_matches",
    "pairs_correct",
    "CrossValPlan",
    "CrossValResult",
    "plan_finetune_crossval",
    "plan_finetune_crossvals",
    "run_finetune_crossval",
    "PromptEvaluationRow",
    "evaluate_inspector",
    "evaluate_model_prompt",
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
    "format_confusion_table",
    "format_crossval_table",
]
