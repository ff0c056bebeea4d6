"""Tests for metrics, pair matching, cross-validation and experiment drivers."""

import pytest
from hypothesis import given, strategies as st

from repro.dataset import DRBMLDataset
from repro.dataset.records import DRBMLRecord, VarPairRecord
from repro.eval import (
    ConfusionCounts,
    evaluate_model_prompt,
    format_confusion_table,
    format_crossval_table,
    mean_std,
    pairs_correct,
    run_finetune_crossval,
    run_table2,
)
from repro.eval.experiments import PromptEvaluationRow, default_subset
from repro.eval.matching import pair_matches
from repro.eval.metrics import FoldStatistics
from repro.llm import create_model
from repro.prompting import PromptStrategy
from repro.prompting.parsing import ParsedPairs


class TestConfusionCounts:
    def test_basic_metrics(self):
        counts = ConfusionCounts(tp=66, fp=55, tn=43, fn=34)
        assert counts.recall == pytest.approx(0.660, abs=1e-3)
        assert counts.precision == pytest.approx(0.545, abs=1e-3)
        assert counts.f1 == pytest.approx(0.597, abs=1e-3)

    def test_add_with_correct_positive_flag(self):
        counts = ConfusionCounts()
        counts.add(True, True, correct_positive=False)
        assert counts.tp == 0 and counts.fn == 1

    def test_add_negative_cases(self):
        counts = ConfusionCounts()
        counts.add(False, True)
        counts.add(False, False)
        assert counts.fp == 1 and counts.tn == 1

    def test_zero_division_guard(self):
        empty = ConfusionCounts()
        assert empty.recall == 0.0 and empty.precision == 0.0 and empty.f1 == 0.0

    def test_addition_operator(self):
        total = ConfusionCounts(tp=1, fp=2, tn=3, fn=4) + ConfusionCounts(tp=4, fp=3, tn=2, fn=1)
        assert (total.tp, total.fp, total.tn, total.fn) == (5, 5, 5, 5)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=10))
    def test_mean_std_bounds(self, values):
        mean, std = mean_std(values)
        assert min(values) - 1e-9 <= mean <= max(values) + 1e-9
        assert std >= 0

    def test_fold_statistics_row(self):
        stats = FoldStatistics.from_counts(
            [ConfusionCounts(tp=10, fp=0, tn=10, fn=0), ConfusionCounts(tp=5, fp=5, tn=5, fn=5)]
        )
        row = stats.as_row()
        assert len(row) == 6 and row[0] == pytest.approx(0.75)


class TestPairMatching:
    def _truth(self):
        return VarPairRecord(
            name=["a[i+1]", "a[i]"], line=[12, 12], col=[12, 5], operation=["R", "W"]
        )

    def test_matching_pair(self):
        assert pair_matches(("a[i]", "a[i+1]"), (12, 12), ("W", "R"), self._truth())

    def test_wrong_line_rejected(self):
        assert not pair_matches(("a[i]", "a[i+1]"), (3, 3), ("W", "R"), self._truth())

    def test_wrong_variable_rejected(self):
        assert not pair_matches(("b", "b"), (12, 12), ("W", "R"), self._truth())

    def test_missing_operations_tolerated(self):
        assert pair_matches(("a", "a"), (12, 12), None, self._truth())

    def test_pairs_correct_requires_race_record(self):
        record = DRBMLRecord(
            ID=1, name="x", DRB_code="", trimmed_code="", code_len=0,
            data_race=0, data_race_label="N1",
        )
        parsed = ParsedPairs(race=True, names=[("a", "a")], lines=[(1, 1)])
        assert not pairs_correct(parsed, record)


class TestExperimentDrivers:
    @pytest.fixture(scope="class")
    def tiny_dataset(self):
        subset = default_subset()
        positives = [r for r in subset.records if r.has_race][:10]
        negatives = [r for r in subset.records if not r.has_race][:10]
        return DRBMLDataset(records=positives + negatives)

    def test_evaluate_model_prompt_counts_everything(self, tiny_dataset):
        counts = evaluate_model_prompt(
            create_model("gpt-4"), PromptStrategy.BP1, tiny_dataset.records
        )
        assert counts.total == len(tiny_dataset.records)

    def test_run_table2_produces_two_rows(self, tiny_dataset):
        rows = run_table2(tiny_dataset)
        assert [r.prompt for r in rows] == ["BP1", "BP2"]
        assert all(r.counts.total == 20 for r in rows)

    def test_crossval_result_has_five_folds(self, tiny_dataset):
        result = run_finetune_crossval(
            tiny_dataset, "llama2-7b", kind="basic", n_folds=5, seed=1
        )
        assert len(result.base_folds) == 5 and len(result.tuned_folds) == 5
        rows = result.as_rows()
        assert "llama2-7b-FT" in rows

    def test_crossval_rejects_bad_kind(self, tiny_dataset):
        with pytest.raises(ValueError):
            run_finetune_crossval(tiny_dataset, "llama2-7b", kind="bogus")

    @pytest.mark.parametrize(
        "builder", ["plan_table2", "plan_table3", "plan_table4", "plan_table5", "plan_table6"]
    )
    def test_empty_dataset_plans_no_request(self, builder):
        """An empty dataset is planned as given, not replaced by the default
        subset; Tables 4 and 6 build their requests in ``prepare``."""
        import repro.eval.experiments as experiments
        from repro.engine import ExecutionEngine

        plan = getattr(experiments, builder)(DRBMLDataset(records=[]))
        with ExecutionEngine() as engine:
            if plan.prepare is not None:
                plan.prepare(engine)
            assert plan.requests == []
            assert engine.telemetry.snapshot()["requests"] == 0

    def test_reporting_formats(self):
        row = PromptEvaluationRow(
            model="gpt-4", prompt="BP1", counts=ConfusionCounts(tp=1, fp=2, tn=3, fn=4)
        )
        table = format_confusion_table([row], title="T")
        assert "gpt-4" in table and "BP1" in table
        cv = format_crossval_table({"m": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)}, title="CV")
        assert "0.500" in cv
