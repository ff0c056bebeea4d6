"""Cross-table scheduler mechanics: plan construction, dispatch, reduction."""

import pytest

from repro.dataset.drbml import DRBMLDataset
from repro.engine import (
    DEFAULT_TABLES,
    ExecutionEngine,
    ResponseCache,
    TablePlan,
    collect_default_plans,
    results_fingerprint,
    run_all_tables,
    run_plans,
)
from repro.eval.experiments import (
    default_subset,
    evaluate_inspector,
    plan_table2,
    plan_table3,
    plan_table4,
    plan_table6,
    run_table2,
    run_table5,
)
from repro.eval.crossval import plan_finetune_crossval, run_finetune_crossval
from repro.llm.zoo import create_model


@pytest.fixture(scope="module")
def subset():
    return default_subset()


@pytest.fixture(scope="module")
def mini(subset):
    return DRBMLDataset(records=subset.records[:20])


def _rows(rows):
    return [(r.model, r.prompt, r.counts.as_row()) for r in rows]


class TestTablePlans:
    def test_plan_execute_equals_driver(self, mini):
        plan_rows = plan_table2(mini).execute()
        assert _rows(plan_rows) == _rows(run_table2(mini))

    def test_plan_requests_match_sequential_order(self, mini):
        """Plan requests preserve the order the sequential driver issued."""
        plan = plan_table2(mini)
        assert len(plan.requests) == 2 * len(mini.records)
        assert [r.strategy.value for r in plan.requests] == (
            ["BP1"] * len(mini.records) + ["BP2"] * len(mini.records)
        )
        assert [r.record.name for r in plan.requests[: len(mini.records)]] == [
            r.name for r in mini.records
        ]

    def test_table3_prepare_runs_inspector(self, mini):
        plan = plan_table3(mini, models=("gpt-4",), include_inspector=True)
        engine = ExecutionEngine()
        rows = plan.execute(engine)
        assert rows[0].model == "Inspector" and rows[0].prompt == "N/A"
        assert rows[0].counts.total > 0

    def test_table3_without_inspector_has_no_prepare(self, mini):
        plan = plan_table3(mini, models=("gpt-4",), include_inspector=False)
        assert plan.prepare is None
        assert all(row.model != "Inspector" for row in plan.execute())

    def test_crossval_plan_reduce_matches_runner(self, mini):
        plan = plan_finetune_crossval(mini, "llama2-7b", kind="basic", n_folds=2)
        engine = ExecutionEngine()
        planned = plan.reduce(engine.run(plan.requests))
        direct = run_finetune_crossval(mini, "llama2-7b", kind="basic", n_folds=2)
        assert [c.as_row() for c in planned.base_folds] == [
            c.as_row() for c in direct.base_folds
        ]
        assert [c.as_row() for c in planned.tuned_folds] == [
            c.as_row() for c in direct.tuned_folds
        ]

    @pytest.mark.parametrize("plan_table", [plan_table4, plan_table6])
    def test_crossval_table_executes_twice_alike(self, mini, plan_table):
        """``prepare`` rebuilds the table's requests instead of appending."""
        plan = plan_table(mini, models=("llama2-7b",), n_folds=2)
        engine = ExecutionEngine(cache=ResponseCache())
        first = plan.execute(engine)
        cold = engine.telemetry.snapshot()
        planned = len(plan.requests)
        second = plan.execute(engine)
        warm = engine.telemetry.snapshot()
        assert results_fingerprint({"t": second}) == results_fingerprint({"t": first})
        assert len(plan.requests) == planned
        assert warm["requests"] == 2 * cold["requests"]
        assert warm["model_calls"] == cold["model_calls"]  # the second run hits only

    def test_crossval_plan_rejects_bad_kind(self, mini):
        with pytest.raises(ValueError):
            plan_finetune_crossval(mini, "llama2-7b", kind="nope")

    def test_model_factory_is_used(self, mini):
        seen = []

        def factory(name):
            seen.append(name)
            return create_model(name)

        plan = plan_table2(mini, model_factory=factory)
        assert seen == ["gpt-3.5-turbo"]
        assert _rows(plan.execute()) == _rows(run_table2(mini))


class TestRunPlans:
    def test_results_keyed_by_table(self, mini):
        results = run_plans([plan_table2(mini)], engine=ExecutionEngine())
        assert set(results) == {"table2"}

    def test_mixed_model_requests_interleave_into_one_run(self, mini):
        """One engine.run covers every plan: requests == sum of plan sizes."""
        plans = [
            plan_table2(mini),
            plan_table3(mini, models=("gpt-4",), include_inspector=False),
        ]
        total = sum(len(p.requests) for p in plans)
        engine = ExecutionEngine(jobs=4, batch_size=6)
        run_plans(plans, engine=engine)
        snap = engine.telemetry.snapshot()
        assert snap["requests"] == total
        assert snap["runs"] == 1

    def test_reducers_get_their_own_slice(self, mini):
        """Two plans over different models reduce to independent rows."""
        plans = [
            plan_table2(mini, model_name="gpt-4"),
            plan_table2(mini, model_name="llama2-7b"),
        ]
        plans[1].table = "table2b"
        results = run_plans(plans, engine=ExecutionEngine(cache=ResponseCache()))
        assert {row.model for row in results["table2"]} == {"gpt-4"}
        assert {row.model for row in results["table2b"]} == {"llama2-7b"}


class TestRunAllTables:
    def test_default_tables_constant(self):
        assert DEFAULT_TABLES == ("table2", "table3", "table4", "table5", "table6")

    def test_unknown_table_rejected(self, mini):
        with pytest.raises(ValueError):
            collect_default_plans(mini, tables=("table7",))

    def test_subset_of_tables(self, mini):
        results = run_all_tables(mini, tables=("table2", "table5"), engine=ExecutionEngine())
        assert set(results) == {"table2", "table5"}
        assert _rows(results["table2"]) == _rows(run_table2(mini))
        assert _rows(results["table5"]) == _rows(run_table5(mini))

    def test_prebuilt_plans_skip_collection(self, mini):
        plan = plan_table2(mini)
        results = run_all_tables(plans=[plan], engine=ExecutionEngine())
        assert _rows(results["table2"]) == _rows(run_table2(mini))

    def test_sequential_flag_matches_interleaved(self, mini):
        tables = ("table2", "table5")
        interleaved = run_all_tables(mini, tables=tables, engine=ExecutionEngine(jobs=4))
        sequential = run_all_tables(
            mini, tables=tables, engine=ExecutionEngine(), interleave=False
        )
        for table in tables:
            assert _rows(interleaved[table]) == _rows(sequential[table])

    def test_inspector_row_present_and_correct(self, mini):
        """The scheduler's table3 keeps the Inspector baseline intact."""
        results = run_all_tables(mini, tables=("table3",), engine=ExecutionEngine(jobs=4))
        rows = results["table3"]
        assert rows[0].model == "Inspector"
        from repro.corpus.generator import build_corpus

        names = {r.name for r in mini.records}
        benchmarks = [b for b in build_corpus(None) if b.name in names]
        assert rows[0].counts.as_row() == evaluate_inspector(benchmarks).as_row()
