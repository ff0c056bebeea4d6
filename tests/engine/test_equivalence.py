"""The engine is a pure execution refactor: every executor/cache/batch
configuration must reproduce the seed's sequential loop bit-for-bit."""

from types import SimpleNamespace

import pytest

from repro.core import DataRacePipeline, PipelineConfig
from repro.dataset.drbml import DRBMLDataset
from repro.engine import (
    CascadePolicy,
    ExecutionEngine,
    ResponseCache,
    build_requests,
    confusion_from_results,
    iter_requests,
    results_fingerprint,
    run_plans,
    run_plans_sequential,
    run_plans_streaming,
)
from repro.eval.experiments import (
    default_subset,
    plan_table2,
    plan_table3,
    plan_table4,
    plan_table5,
    plan_table6,
    run_table2,
    run_table3,
    run_table5,
)
from repro.eval.matching import pairs_correct
from repro.eval.metrics import ConfusionCounts
from repro.llm.zoo import create_model
from repro.prompting.chains import run_strategy
from repro.prompting.parsing import parse_pairs_response, parse_yes_no
from repro.prompting.strategy import PromptStrategy


@pytest.fixture(scope="module")
def subset():
    return default_subset()


def seed_detection_loop(model, strategy, records) -> ConfusionCounts:
    """The seed's one-record-at-a-time scoring loop, kept as the reference."""
    counts = ConfusionCounts()
    for record in records:
        response = run_strategy(model.generate, strategy, record.trimmed_code)
        verdict = parse_yes_no(response)
        counts.add(record.has_race, bool(verdict) if verdict is not None else False)
    return counts


def seed_pairs_loop(model, records) -> ConfusionCounts:
    counts = ConfusionCounts()
    for record in records:
        response = run_strategy(model.generate, PromptStrategy.ADVANCED, record.trimmed_code)
        parsed = parse_pairs_response(response)
        prediction = bool(parsed.race) if parsed.race is not None else parsed.has_pairs
        counts.add(record.has_race, prediction, correct_positive=pairs_correct(parsed, record))
    return counts


ENGINE_CONFIGS = [
    pytest.param(dict(jobs=1), id="serial"),
    pytest.param(dict(jobs=1, batch_size=5), id="serial-small-batches"),
    pytest.param(dict(jobs=6, batch_size=7), id="thread-pool"),
    pytest.param(dict(jobs=4, cache=ResponseCache()), id="thread-pool-cached"),
    pytest.param(dict(jobs=3, executor_kind="process", batch_size=8), id="process-pool"),
    pytest.param(
        dict(jobs=3, executor_kind="process", cache=ResponseCache(), batch_size=8),
        id="process-pool-cached",
    ),
    # A byte budget tight enough to evict constantly mid-run, plus a TTL:
    # the size/TTL eviction tiers may only ever cost extra model calls,
    # never change a response.
    pytest.param(
        dict(
            jobs=4,
            cache=ResponseCache(max_entries=16, max_bytes=4096, ttl_s=60.0),
            batch_size=5,
        ),
        id="thread-pool-tiered-eviction",
    ),
    # The async configs all take the async-native path: chunk coroutines
    # awaiting generate_batch_async on the executor's event loop.
    pytest.param(dict(jobs=8, executor_kind="async", batch_size=7), id="async"),
    pytest.param(dict(jobs=8, executor_kind="async", cache=ResponseCache()), id="async-cached"),
    pytest.param(
        dict(jobs=32, executor_kind="async", batch_size=3),
        id="async-native-high-inflight",
    ),
    pytest.param(
        dict(jobs=4, executor_kind="async", batch_size=5),
        id="async-native-no-cache",
    ),
    pytest.param(
        dict(jobs=12, executor_kind="async", cache=ResponseCache(), batch_size=3),
        id="async-native-cached",
    ),
    # The default configs above all run LPT with adaptive chunk sizing; pin
    # plan-order and no-LPT/no-adaptive combinations explicitly so a
    # default change can never silently drop coverage of either schedule.
    pytest.param(
        dict(jobs=6, batch_size=7, lpt=False, adaptive_batching=False),
        id="thread-pool-ordered-static",
    ),
    pytest.param(
        dict(
            jobs=3,
            executor_kind="process",
            cache=ResponseCache(),
            batch_size=8,
        ),
        id="process-pool-ordered-cached",
    ),
    pytest.param(
        dict(jobs=8, executor_kind="async", batch_size=7, lpt=False),
        id="async-dynamic-no-lpt",
    ),
    # Full escalation through the detection cascade: no cheap-tier verdict
    # can reach the 1.0 threshold, so the request's own model answers every
    # record and the run must reproduce the seed loop bit for bit.
    pytest.param(
        dict(
            jobs=4,
            batch_size=6,
            cascade=CascadePolicy.from_spec("static", escalate_below=1.0),
        ),
        id="cascade-full-escalation",
    ),
]


class TestEngineMatchesSeedLoop:
    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    @pytest.mark.parametrize(
        "strategy", [PromptStrategy.BP1, PromptStrategy.BP2, PromptStrategy.AP2]
    )
    def test_detection_scoring(self, subset, config, strategy):
        records = subset.records[:40]
        reference = seed_detection_loop(create_model("gpt-4"), strategy, records)
        with ExecutionEngine(**config) as engine:
            counts = engine.run_counts(
                build_requests(create_model("gpt-4"), strategy, records, scoring="detection")
            )
        assert counts.as_row() == reference.as_row()

    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_pairs_scoring(self, subset, config):
        records = subset.records[:40]
        reference = seed_pairs_loop(create_model("gpt-3.5-turbo"), records)
        with ExecutionEngine(**config) as engine:
            counts = engine.run_counts(
                build_requests(
                    create_model("gpt-3.5-turbo"), PromptStrategy.ADVANCED, records, scoring="pairs"
                )
            )
        assert counts.as_row() == reference.as_row()

    def test_cached_rerun_is_identical(self, subset):
        """Cache hits must return byte-identical responses, not just counts."""
        records = subset.records[:20]
        engine = ExecutionEngine(cache=ResponseCache())
        model = create_model("gpt-4")
        first = engine.run(build_requests(model, PromptStrategy.BP1, records))
        second = engine.run(build_requests(model, PromptStrategy.BP1, records))
        assert first.responses() == second.responses()
        assert engine.telemetry.snapshot()["cache_hits"] == len(records)


class TestCascadeEquivalence:
    """``--no-cascade`` must be the untouched reference path, and a cascade
    whose threshold no tier can reach must reproduce the LLM-only run byte
    for byte — the cascade may only ever remove expensive calls, never
    change what the final tier would have answered."""

    def test_no_cascade_config_builds_no_router(self):
        with DataRacePipeline() as pipeline:
            assert pipeline.engine.cascade_router is None

    def test_full_escalation_responses_bit_identical(self, subset):
        records = subset.records[:25]
        policy = CascadePolicy.from_spec("static,gpt-3.5-turbo", escalate_below=1.0)
        model = create_model("gpt-4")
        with ExecutionEngine(jobs=4, batch_size=6, cascade=policy) as engine:
            cascaded = engine.run(build_requests(model, PromptStrategy.BP1, records))
        with ExecutionEngine(jobs=4, batch_size=6) as engine:
            reference = engine.run(build_requests(model, PromptStrategy.BP1, records))
        assert cascaded.responses() == reference.responses()
        assert cascaded.confusion().as_row() == reference.confusion().as_row()

    def test_pipeline_cascade_full_escalation_matches_reference(self, subset):
        records = subset.records[:30]
        with DataRacePipeline() as pipeline:
            reference = pipeline.score_model(records=records)
        policy = CascadePolicy.from_spec("static,gpt-3.5-turbo", escalate_below=1.0)
        with ExecutionEngine(cascade=policy) as engine:
            cascaded = DataRacePipeline(engine=engine).score_model(records=records)
        assert cascaded.as_row() == reference.as_row()


class TestDriverEquivalence:
    def test_run_table2_thread_pool_vs_serial(self, subset):
        """Satellite requirement: table 2 identical under both executors."""
        dataset = SimpleNamespace(records=subset.records[:60])
        serial_rows = run_table2(dataset, engine=ExecutionEngine())
        threaded_rows = run_table2(
            dataset, engine=ExecutionEngine(jobs=6, cache=ResponseCache(), batch_size=8)
        )
        assert [(r.model, r.prompt, r.counts.as_row()) for r in serial_rows] == [
            (r.model, r.prompt, r.counts.as_row()) for r in threaded_rows
        ]

    def test_pipeline_score_model_matches_seed_semantics(self, subset):
        """score_model through the engine equals the seed's detect() loop."""
        records = subset.records[:30]
        pipeline = DataRacePipeline(engine=ExecutionEngine(jobs=4))
        engine_counts = pipeline.score_model(
            model="gpt-4", strategy=PromptStrategy.ADVANCED, records=records
        )
        reference = ConfusionCounts()
        for record in records:
            outcome = pipeline.detect(
                record.trimmed_code, model="gpt-4", strategy=PromptStrategy.ADVANCED
            )
            correct = pairs_correct(outcome.pairs, record)
            reference.add(record.has_race, outcome.says_race, correct_positive=correct)
        assert engine_counts.as_row() == reference.as_row()

    def test_run_table3_same_rows_on_every_backend(self, subset):
        """Table 3 rows (Inspector + LLM grid) identical across backends."""
        dataset = DRBMLDataset(records=subset.records[:24])
        reference = run_table3(dataset, include_inspector=False, engine=ExecutionEngine())
        for config in (
            dict(jobs=4),
            dict(jobs=3, executor_kind="process"),
            dict(jobs=8, executor_kind="async"),
        ):
            with ExecutionEngine(**config) as engine:
                rows = run_table3(dataset, include_inspector=False, engine=engine)
            assert [(r.model, r.prompt, r.counts.as_row()) for r in rows] == [
                (r.model, r.prompt, r.counts.as_row()) for r in reference
            ]

    def test_pipeline_score_inspector_matches_seed_loop(self):
        pipeline = DataRacePipeline(engine=ExecutionEngine(jobs=4))
        engine_counts = pipeline.score_inspector()
        subset_names = {r.name for r in pipeline.evaluation_subset().records}
        benchmarks = [b for b in pipeline.registry if b.name in subset_names]
        detector = pipeline.inspector()
        reference = ConfusionCounts()
        for bench in benchmarks:
            reference.add(bench.has_race, detector.predict(bench))
        assert engine_counts.as_row() == reference.as_row()


def _mini_all_table_plans(records):
    """Plans for all five tables, shrunk for test speed."""
    dataset = DRBMLDataset(records=list(records))
    return [
        plan_table2(dataset),
        plan_table3(dataset, include_inspector=False, models=("gpt-4", "llama2-7b")),
        plan_table4(dataset, models=("starchat-beta",), n_folds=2),
        plan_table5(dataset, models=("gpt-4", "gpt-3.5-turbo")),
        plan_table6(dataset, models=("llama2-7b",), n_folds=2),
    ]


class TestSchedulerEquivalence:
    """run_all_tables (one interleaved engine run) is a pure scheduling
    refactor: table rows are bit-identical to the five sequential drivers,
    under every executor backend and cache state."""

    @pytest.fixture(scope="class")
    def mini_records(self, subset):
        return subset.records[:24]

    @pytest.fixture(scope="class")
    def sequential_reference(self, mini_records):
        plans = _mini_all_table_plans(mini_records)
        return results_fingerprint(run_plans_sequential(plans, engine=ExecutionEngine()))

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(dict(jobs=1), id="serial"),
            pytest.param(dict(jobs=6, batch_size=5), id="thread-pool"),
            pytest.param(dict(jobs=6, cache=ResponseCache(), batch_size=5), id="thread-cached"),
            pytest.param(dict(jobs=3, executor_kind="process", batch_size=8), id="process-pool"),
            pytest.param(dict(jobs=8, executor_kind="async", batch_size=8), id="async"),
            pytest.param(
                dict(jobs=24, executor_kind="async", batch_size=5),
                id="async-native-high-inflight",
            ),
            pytest.param(
                dict(jobs=6, batch_size=5, lpt=False),
                id="thread-ordered-no-lpt",
            ),
            pytest.param(
                dict(jobs=3, executor_kind="process", batch_size=8),
                id="process-ordered",
            ),
        ],
    )
    def test_interleaved_matches_sequential(self, mini_records, sequential_reference, config):
        plans = _mini_all_table_plans(mini_records)
        with ExecutionEngine(**config) as engine:
            interleaved = run_plans(plans, engine=engine)
        assert results_fingerprint(interleaved) == sequential_reference

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(dict(jobs=1), id="serial"),
            pytest.param(dict(jobs=6, batch_size=5), id="thread-pool"),
            pytest.param(
                dict(jobs=3, executor_kind="process", batch_size=8), id="process-pool"
            ),
            pytest.param(dict(jobs=8, executor_kind="async", batch_size=8), id="async"),
        ],
    )
    def test_streaming_scheduler_matches_sequential(
        self, mini_records, sequential_reference, config
    ):
        """run_plans_streaming — all five tables through one windowed
        streaming run, results reduced per plan as each completes — is
        bit-identical to the sequential reference on every backend.  The
        small window forces many windows per plan and windows straddling
        plan boundaries."""
        plans = _mini_all_table_plans(mini_records)
        with ExecutionEngine(**config, stream_window=17) as engine:
            streamed = run_plans_streaming(plans, engine=engine)
        assert results_fingerprint(streamed) == sequential_reference

    def test_interleaved_matches_sequential_warm_cache(self, mini_records, sequential_reference):
        """Runs 2+ reuse the cache AND a warmed cost model: completion-order
        dispatch with live LPT ordering and adaptive chunk sizes must still be exact."""
        cache = ResponseCache()
        plans = _mini_all_table_plans(mini_records)
        with ExecutionEngine(jobs=4, cache=cache, batch_size=6) as engine:
            first = run_plans(plans, engine=engine)
            second = run_plans(_mini_all_table_plans(mini_records), engine=engine)
        assert len(engine.cost_model) > 0  # LPT had estimates for run two
        assert results_fingerprint(first) == sequential_reference
        assert results_fingerprint(second) == sequential_reference


STREAMING_BACKENDS = [
    pytest.param(lambda: dict(jobs=1), id="serial"),
    pytest.param(lambda: dict(jobs=1, batch_size=5), id="serial-small-batches"),
    pytest.param(lambda: dict(jobs=6, batch_size=7), id="thread-pool"),
    pytest.param(lambda: dict(jobs=4, cache=ResponseCache()), id="thread-pool-cached"),
    pytest.param(
        lambda: dict(jobs=3, executor_kind="process", batch_size=8), id="process-pool"
    ),
    pytest.param(
        lambda: dict(jobs=3, executor_kind="process", cache=ResponseCache(), batch_size=8),
        id="process-pool-cached",
    ),
    pytest.param(lambda: dict(jobs=8, executor_kind="async", batch_size=7), id="async"),
    pytest.param(
        lambda: dict(jobs=8, executor_kind="async", cache=ResponseCache()),
        id="async-cached",
    ),
]


class TestStreamingEquivalence:
    """run_streaming is a pure execution-shape change: the windowed lazy
    path must reproduce ``run()`` — responses *and* scores, bit for bit —
    on every executor backend, with and without a cache, and through the
    pipeline's ``stream`` flag.  Configs are factories so the cached
    variants get a fresh cache per engine (no cross-contamination)."""

    @pytest.mark.parametrize("make_config", STREAMING_BACKENDS)
    def test_streamed_matches_materialised(self, subset, make_config):
        records = subset.records[:40]
        model = create_model("gpt-4")
        with ExecutionEngine(**make_config()) as engine:
            reference = engine.run(
                build_requests(model, PromptStrategy.BP1, records, scoring="detection")
            )
        # A window of 7 does not divide 40: exercises the trailing partial
        # window as well as full ones.
        with ExecutionEngine(**make_config(), stream_window=7) as engine:
            streamed = list(
                engine.run_streaming(
                    iter_requests(model, PromptStrategy.BP1, records, scoring="detection")
                )
            )
        assert [result.response for result in streamed] == reference.responses()
        assert (
            confusion_from_results(streamed).as_row() == reference.confusion().as_row()
        )

    def test_pipeline_stream_flag_matches_materialised(self, subset):
        """PipelineConfig(stream=True) — the CLI's ``--stream`` — scores
        identically to the eager path."""
        records = subset.records[:30]
        with ExecutionEngine(jobs=4) as engine:
            eager = DataRacePipeline(engine=engine).score_model(
                model="gpt-4", records=records
            )
        with ExecutionEngine(jobs=4, stream_window=11) as engine:
            streamed = DataRacePipeline(
                PipelineConfig(stream=True), engine=engine
            ).score_model(model="gpt-4", records=records)
        assert streamed.as_row() == eager.as_row()

    def test_streamed_pairs_scoring_matches_seed_loop(self, subset):
        """The pairs scoring modes stream identically too (Tables 5–6)."""
        records = subset.records[:30]
        model = create_model("gpt-3.5-turbo")
        reference = seed_pairs_loop(model, records)
        with ExecutionEngine(jobs=4, batch_size=6, stream_window=9) as engine:
            counts = engine.run_streaming_counts(
                iter_requests(model, PromptStrategy.ADVANCED, records, scoring="pairs")
            )
        assert counts.as_row() == reference.as_row()

    def test_later_windows_reuse_earlier_windows_cache(self, subset):
        """One streaming run shares its cache across windows: duplicated
        requests in a later window hit instead of re-calling the model."""
        records = subset.records[:12]
        model = create_model("gpt-4")

        def twice():
            yield from iter_requests(model, PromptStrategy.BP1, records)
            yield from iter_requests(model, PromptStrategy.BP1, records)

        with ExecutionEngine(cache=ResponseCache(), batch_size=4, stream_window=6) as engine:
            results = list(engine.run_streaming(twice()))
        assert len(results) == 2 * len(records)
        first, second = results[: len(records)], results[len(records) :]
        assert [r.response for r in first] == [r.response for r in second]
        assert engine.telemetry.snapshot()["cache_hits"] == len(records)
