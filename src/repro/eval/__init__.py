"""Evaluation harness: metrics, pair matching, cross-validation and the
per-table experiment drivers (paper §3.5–§4).

The package re-exports its names lazily, so that the engine can import
``matching`` and ``metrics`` without loading ``crossval`` and
``experiments``, which import every other package.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "metrics": ("ConfusionCounts", "FoldStatistics", "mean_std"),
    "matching": ("pair_matches", "pairs_correct"),
    "crossval": (
        "CrossValPlan",
        "CrossValResult",
        "plan_finetune_crossval",
        "plan_finetune_crossvals",
        "run_finetune_crossval",
    ),
    "experiments": (
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
    ),
    "reporting": ("format_confusion_table", "format_crossval_table"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
