"""End-to-end tests of the public pipeline API."""

import pytest

from repro.core import DataRacePipeline, PipelineConfig
from repro.prompting import PromptStrategy


@pytest.fixture(scope="module")
def pipeline():
    return DataRacePipeline(PipelineConfig())


RACY_CODE = """#include <stdio.h>
int main()
{
  int i;
  int counter = 0;
#pragma omp parallel for
  for (i = 0; i < 64; i++)
    counter = counter + 1;
  return 0;
}
"""


class TestPipeline:
    def test_registry_and_dataset_sizes(self, pipeline):
        assert len(pipeline.registry) == 201
        assert len(pipeline.dataset) == 201
        assert len(pipeline.evaluation_subset()) == 198

    def test_detect_returns_outcome_with_response_text(self, pipeline):
        outcome = pipeline.detect(RACY_CODE, model="gpt-4", strategy=PromptStrategy.BP1)
        assert outcome.model == "gpt-4"
        assert outcome.prediction in (True, False)
        assert isinstance(outcome.response, str) and outcome.response

    def test_detect_with_chain_strategy(self, pipeline):
        outcome = pipeline.detect(RACY_CODE, model="gpt-4", strategy=PromptStrategy.AP2)
        assert outcome.strategy == "AP2"

    def test_identify_variables_returns_pairs_structure(self, pipeline):
        outcome = pipeline.identify_variables(RACY_CODE, model="gpt-4")
        assert outcome.pairs is not None

    def test_models_listing(self, pipeline):
        assert len(pipeline.models()) == 4

    def test_model_instances_cached(self, pipeline):
        assert pipeline.model("gpt-4") is pipeline.model("gpt-4")

    def test_inspector_and_static_baselines_work(self, pipeline):
        inspector_result = pipeline.inspector().analyze_source(RACY_CODE, num_threads=2)
        static_report = pipeline.static_detector().analyze_source(RACY_CODE)
        assert inspector_result.has_race
        assert static_report.has_race

    def test_finetune_on_small_subset(self, pipeline):
        names = [r.name for r in pipeline.evaluation_subset().records[:30]]
        tuned = pipeline.finetune("llama2-7b", kind="basic", train_names=names)
        assert tuned.table_label == "Llama-FT"

    def test_score_model_on_small_sample(self, pipeline):
        records = pipeline.evaluation_subset().records[:12]
        counts = pipeline.score_model(model="gpt-4", strategy=PromptStrategy.BP1, records=records)
        assert counts.total == 12

    def test_engine_argument_selects_backend(self):
        from repro.engine import AsyncExecutor, ExecutionEngine

        with ExecutionEngine(executor_kind="async", jobs=4) as engine:
            pipeline = DataRacePipeline(engine=engine)
            assert pipeline.engine is engine
            records = pipeline.evaluation_subset().records[:6]
            counts = pipeline.score_model(
                model="gpt-4", strategy=PromptStrategy.BP1, records=records
            )
            assert counts.total == 6
            assert isinstance(engine.executor, AsyncExecutor)
        assert engine.executor.closed

    def test_close_is_idempotent_and_rebuilds(self):
        pipeline = DataRacePipeline()
        first = pipeline.engine
        pipeline.close()
        pipeline.close()
        assert first.executor.closed  # the pipeline built it, so it closed it
        assert pipeline.engine is not first  # fresh engine after close
        pipeline.close()

    def test_default_engine_is_serial_with_a_cache_sharing_its_cost_model(self):
        from repro.engine import SerialExecutor

        with DataRacePipeline() as pipeline:
            engine = pipeline.engine
            assert isinstance(engine.executor, SerialExecutor)
            assert engine.cache is not None and engine.cache.max_entries == 65536
            assert engine.cache.cost_model is engine.cost_model
            assert pipeline.save_cache() is None  # in-memory: nothing to save

    def test_close_leaves_a_given_engine_open(self):
        from repro.engine import ExecutionEngine

        with ExecutionEngine(jobs=2) as engine:
            with DataRacePipeline(engine=engine) as pipeline:
                pipeline.score_model(records=pipeline.evaluation_subset().records[:4])
            assert not engine.executor.closed
            assert pipeline.engine is engine  # still the caller's engine

    def test_save_cache_writes_the_engines_store_and_a_new_pipeline_reuses_it(
        self, tmp_path
    ):
        from repro.engine import CostModel, ExecutionEngine, ResponseCache

        def engine_on(directory):
            cost_model = CostModel(path=directory / "costmodel.json")
            cache = ResponseCache(path=directory, cost_model=cost_model)
            return ExecutionEngine(cache=cache, cost_model=cost_model)

        records = DataRacePipeline().evaluation_subset().records[:10]
        with engine_on(tmp_path) as engine:
            pipeline = DataRacePipeline(engine=engine)
            cold = pipeline.score_model(model="gpt-4", records=records)
            assert pipeline.save_cache() == str(engine.cache.path)
        assert list(tmp_path.glob("segment-*.jsonl"))
        assert (tmp_path / "costmodel.json").is_file()

        with engine_on(tmp_path) as engine:
            warm = DataRacePipeline(engine=engine).score_model(
                model="gpt-4", records=records
            )
            assert engine.telemetry.snapshot()["model_calls"] == 0
        assert warm.as_row() == cold.as_row()
