"""A warm response cache also serves the non-LLM work of the tables.

Inspector verdicts (Table 3) and fine-tuned adapters (Tables 4 and 6) are
stored in the response cache under their own identity prefixes, so a run
against a primed cache neither interprets a program nor fits an adapter.
"""

import dataclasses
import json

import pytest

from repro.corpus.generator import build_corpus
from repro.dataset.drbml import DRBMLDataset
from repro.dataset.pairs import build_basic_pairs
from repro.dynamic.inspector import InspectorLikeDetector
from repro.dynamic.interpreter import InterpreterLimits
from repro.engine import CostModel, ExecutionEngine, ResponseCache, run_all_tables
from repro.engine.scheduler import results_fingerprint
from repro.eval.experiments import default_subset, evaluate_inspector
from repro.llm.adapters import LowRankAdapter
from repro.llm.finetune import FineTuneConfig, FineTuner
from repro.llm.zoo import create_model


@pytest.fixture(scope="module")
def mini():
    subset = default_subset()
    positives = [r for r in subset.records if r.has_race][:8]
    negatives = [r for r in subset.records if not r.has_race][:8]
    return DRBMLDataset(records=positives + negatives)


@pytest.fixture(scope="module")
def benchmarks(mini):
    names = {r.name for r in mini.records}
    return [b for b in build_corpus(None) if b.name in names]


@pytest.fixture(scope="module")
def pairs(mini):
    return build_basic_pairs(mini.records)


@pytest.fixture
def calls(monkeypatch):
    """Counts Inspector analyses and adapter fits."""
    counts = {"analyze_source": 0, "fit": 0}
    analyze_source = InspectorLikeDetector.analyze_source
    fit = LowRankAdapter.fit

    def counting_analyze(self, *args, **kwargs):
        counts["analyze_source"] += 1
        return analyze_source(self, *args, **kwargs)

    def counting_fit(self, *args, **kwargs):
        counts["fit"] += 1
        return fit(self, *args, **kwargs)

    monkeypatch.setattr(InspectorLikeDetector, "analyze_source", counting_analyze)
    monkeypatch.setattr(LowRankAdapter, "fit", counting_fit)
    return counts


def _tuner(cache=None, **overrides):
    config = FineTuneConfig.for_model("llama2-7b", **overrides)
    return FineTuner(base=create_model("llama2-7b"), config=config, cache=cache)


class TestWarmRun:
    def test_primed_cache_recomputes_nothing(self, mini, tmp_path, calls):
        cold_engine = ExecutionEngine(cache=ResponseCache(path=tmp_path))
        cold = run_all_tables(mini, engine=cold_engine)
        cold_engine.cache.save()
        assert calls["analyze_source"] == len(mini.records)
        assert calls["fit"] == 20  # 2 models x 5 folds x Tables 4 and 6
        calls.update(analyze_source=0, fit=0)

        warm_engine = ExecutionEngine(cache=ResponseCache(path=tmp_path))
        warm = run_all_tables(mini, engine=warm_engine)
        assert calls == {"analyze_source": 0, "fit": 0}
        assert results_fingerprint(warm) == results_fingerprint(cold)
        # Inspector programs count as requests whether they hit or miss.
        warm_stats = warm_engine.telemetry.snapshot()
        assert warm_stats["requests"] == cold_engine.telemetry.snapshot()["requests"]
        assert warm_stats["model_calls"] == 0

    def test_uncached_engine_recomputes_everything(self, mini, calls):
        first = run_all_tables(mini, tables=("table3", "table4"), engine=ExecutionEngine())
        second = run_all_tables(mini, tables=("table3", "table4"), engine=ExecutionEngine())
        assert calls == {"analyze_source": 2 * len(mini.records), "fit": 20}
        assert results_fingerprint(first) == results_fingerprint(second)


class TestAdapterCache:
    def test_stored_adapter_identity_is_byte_identical(self, pairs):
        fresh_tuner = _tuner()
        fresh = fresh_tuner.fit(pairs)
        cache = ResponseCache()
        _tuner(cache).fit(pairs)  # miss: trains and stores
        stored_tuner = _tuner(cache)
        stored = stored_tuner.fit(pairs)
        assert cache.stats.hits == 1
        assert stored.cache_identity == fresh.cache_identity
        assert stored.adapter.weights.tobytes() == fresh.adapter.weights.tobytes()
        assert stored.adapter.bias == fresh.adapter.bias
        assert stored_tuner.history == fresh_tuner.history

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(FineTuneConfig)]
    )
    def test_changed_config_field_misses(self, pairs, calls, field):
        cache = ResponseCache()
        _tuner(cache, epochs=2).fit(pairs)
        value = getattr(FineTuneConfig.for_model("llama2-7b", epochs=2), field)
        changed = value + 1 if isinstance(value, int) else value / 2
        tuner = _tuner(cache, **{"epochs": 2, field: changed})
        assert tuner.cache_identity != _tuner(epochs=2).cache_identity
        tuner.fit(pairs)
        assert calls["fit"] == 2

    @pytest.mark.parametrize("change", ["drop-a-pair", "flip-a-label"])
    def test_changed_training_set_misses(self, pairs, calls, change):
        cache = ResponseCache()
        _tuner(cache, epochs=2).fit(pairs)
        if change == "drop-a-pair":
            changed = pairs[1:]
        else:
            changed = [dataclasses.replace(pairs[0], label=1 - pairs[0].label), *pairs[1:]]
        _tuner(cache, epochs=2).fit(changed)
        assert calls["fit"] == 2
        _tuner(cache, epochs=2).fit(pairs)
        assert calls["fit"] == 2  # the original set still hits

    @pytest.mark.parametrize(
        "entry",
        [
            "not json",
            json.dumps({"weights": [0.5] * 3, "bias": 0.0, "loss": 0.1}),
            json.dumps({"weights": ["x"] * 64, "bias": 0.0, "loss": 0.1}),
            json.dumps({"bias": 0.0}),
            json.dumps([1, 2, 3]),
        ],
        ids=["not-json", "wrong-length", "not-numbers", "missing-weights", "not-an-object"],
    )
    def test_damaged_entry_retrains(self, pairs, calls, entry):
        fresh = _tuner(epochs=2).fit(pairs)
        cache = ResponseCache()
        tuner = _tuner(cache, epochs=2)
        cache.put(tuner.cache_identity, FineTuner.training_digest(pairs), entry)
        assert tuner.fit(pairs).cache_identity == fresh.cache_identity
        assert calls["fit"] == 2
        # The retrained adapter replaced the damaged entry.
        assert _tuner(cache, epochs=2).fit(pairs).cache_identity == fresh.cache_identity
        assert calls["fit"] == 2

    def test_stored_adapter_outlives_cheaper_responses(self, pairs):
        cost_model = CostModel()
        cache = ResponseCache(max_bytes=6000, cost_model=cost_model)
        tuner = _tuner(cache, epochs=2)
        tuner.fit(pairs)
        identity, digest = tuner.cache_identity, FineTuner.training_digest(pairs)
        assert cost_model.identity_estimate(identity, default=0.0) > 0.0
        cost_model.observe("cheap-model", "BP1", 1e-6)
        for i in range(100):
            cache.put("cheap-model", f"prompt {i}", "yes. " + "x" * 100)
        assert cache.stats.evictions > 0
        assert cache.get(identity, digest) is not None


class TestInspectorCache:
    def test_warm_lookup_skips_the_interpreter(self, benchmarks, calls):
        engine = ExecutionEngine(cache=ResponseCache())
        cold = evaluate_inspector(benchmarks, engine=engine)
        assert calls["analyze_source"] == len(benchmarks)
        warm = evaluate_inspector(benchmarks, engine=engine)
        assert calls["analyze_source"] == len(benchmarks)
        assert warm.as_row() == cold.as_row() == evaluate_inspector(benchmarks).as_row()
        assert engine.telemetry.snapshot()["requests"] == 2 * len(benchmarks)

    @pytest.mark.parametrize(
        "settings",
        [
            {"schedules": ("static",)},
            {"team_sizes": (2,)},
            {"limits": InterpreterLimits(max_steps=1_000_000)},
        ],
        ids=["schedules", "team_sizes", "limits"],
    )
    def test_changed_detector_settings_miss(self, benchmarks, calls, settings):
        engine = ExecutionEngine(cache=ResponseCache())
        evaluate_inspector(benchmarks, engine=engine)
        detector = InspectorLikeDetector(**settings)
        assert detector.cache_identity != InspectorLikeDetector().cache_identity
        evaluate_inspector(benchmarks, detector=detector, engine=engine)
        assert calls["analyze_source"] == 2 * len(benchmarks)

    def test_damaged_verdict_reruns_that_program(self, benchmarks, calls):
        cost_model = CostModel()
        engine = ExecutionEngine(cache=ResponseCache(cost_model=cost_model))
        cold = evaluate_inspector(benchmarks, engine=engine)
        identity = InspectorLikeDetector().cache_identity
        assert cost_model.identity_estimate(identity, default=0.0) > 0.0
        bench = benchmarks[0]
        engine.cache.put(identity, f"{bench.num_threads}\n{bench.code}", "maybe")
        assert evaluate_inspector(benchmarks, engine=engine).as_row() == cold.as_row()
        assert calls["analyze_source"] == len(benchmarks) + 1
