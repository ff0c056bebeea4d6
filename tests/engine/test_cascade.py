"""The tiered detection cascade: routing, escalation and speculation.

Pinned contracts:

* a confident cheap-tier verdict resolves a record without the final
  model ever seeing it; low-confidence or disagreeing verdicts escalate;
* full escalation (``escalate_below=1.0``) is bit-identical to running
  the final model alone — the cascade may only ever *remove* expensive
  calls, never change what the final tier would have answered;
* confidence extraction lives beside parsing: an explicit
  ``[confidence=X]`` marker wins, otherwise parse quality decides;
* tier adapters speak the zoo's response dialect, so the existing
  parsers score them without special cases;
* speculation composes with the cascade without changing any answer: a
  straggler's duplicate runs on its own model, so every row keeps the
  model the serial cascade used; and a cheap-tier model advertising
  ``cost_prior_s`` is priced cheap-but-unknown instead of blocking LPT
  ordering.
"""

import pytest

from repro.analysis.static_race import StaticRaceReport
from repro.dynamic.inspector import InspectorRunResult
from repro.engine import (
    DEFAULT_CASCADE_TIERS,
    CascadePolicy,
    CascadeTier,
    ExecutionEngine,
    build_requests,
    build_tier_model,
    response_confidence,
)
from repro.engine.cascade import FINAL_TIER
from repro.engine.telemetry import EngineTelemetry
from repro.eval.experiments import default_subset
from repro.llm.adapters import FlakyTailAdapter, InspectorTierModel, StaticAnalyzerModel
from repro.llm.base import LanguageModel
from repro.llm.zoo import create_model
from repro.prompting.chains import run_strategy
from repro.prompting.parsing import parse_pairs_response, parse_yes_no
from repro.prompting.strategy import PromptStrategy


@pytest.fixture(scope="module")
def records():
    return default_subset().records[:12]


class StubModel(LanguageModel):
    """A model with one fixed response and a call counter."""

    def __init__(self, name: str, response: str) -> None:
        self.name = name
        self.context_window = 1 << 20
        self.response = response
        self.calls = 0

    @property
    def cache_identity(self) -> str:
        return f"stub:{self.name}"

    def generate(self, prompt: str) -> str:
        self.calls += 1
        return self.response


def _policy(*tiers, escalate_below):
    return CascadePolicy(
        tiers=tuple(CascadeTier(name=m.name, model=m) for m in tiers),
        escalate_below=escalate_below,
    )


class TestResponseConfidence:
    def test_marker_wins_and_is_clamped(self):
        assert response_confidence("detection", "no.\n[confidence=0.42]") == 0.42
        assert response_confidence("detection", "yes.\n[confidence=7.5]") == 1.0

    def test_detection_heuristics(self):
        assert response_confidence("detection", "") == 0.0
        assert response_confidence("detection", "cannot tell") == 0.0
        assert response_confidence("detection", "yes, there is a data race.") == 0.8
        hedged = "yes in one branch, but no race when guarded."
        assert response_confidence("detection", hedged) == 0.6

    def test_pairs_heuristics(self):
        assert response_confidence("pairs", "nothing parseable here") == 0.0
        # A verdict-only answer parses through the fallback path: medium trust.
        assert response_confidence("pairs", 'no.\n{\n"data_race": 0\n}') == 0.6
        full = (
            'yes.\n{\n"name": ["a", "b"],\n"line": [5, 7],\n'
            '"operation": ["W", "R"],\n"data_race": 1\n}'
        )
        assert response_confidence("pairs", full) == 0.85

    def test_deterministic_for_cached_responses(self):
        response = "yes.\n[confidence=0.64]"
        assert response_confidence("detection", response) == response_confidence(
            "detection", response
        )


class TestTierCalibration:
    def test_static_positive_escalates_under_default_threshold(self):
        # The static analyzer over-approximates: its positives must fall
        # below the default threshold so a stronger tier confirms them.
        positive = StaticRaceReport(has_race=True, analyzed_accesses=4)
        clean = StaticRaceReport(has_race=False, analyzed_accesses=4)
        blind = StaticRaceReport(has_race=False, analyzed_accesses=0)
        assert positive.confidence < CascadePolicy.from_spec("static").escalate_below
        assert clean.confidence >= CascadePolicy.from_spec("static").escalate_below
        assert blind.confidence == 0.5

    def test_inspector_witness_beats_clean_run(self):
        witness = InspectorRunResult(name="x", has_race=True, runs=4)
        clean = InspectorRunResult(name="x", has_race=False, runs=4)
        dead = InspectorRunResult(name="x", has_race=False, failed=True, runs=0)
        assert witness.confidence > clean.confidence > dead.confidence
        assert dead.confidence == 0.0


class TestTierAdapters:
    @pytest.mark.parametrize("model", [StaticAnalyzerModel(), InspectorTierModel()])
    def test_detection_response_parses_with_marker(self, model, records):
        response = run_strategy(model.generate, PromptStrategy.BP1, records[0].trimmed_code)
        assert "[confidence=" in response
        assert parse_yes_no(response) is not None
        assert 0.0 <= response_confidence("detection", response) <= 1.0

    def test_pairs_response_speaks_zoo_dialect(self, records):
        model = StaticAnalyzerModel()
        racy = next(r for r in records if r.has_race)
        response = run_strategy(model.generate, PromptStrategy.ADVANCED, racy.trimmed_code)
        parsed = parse_pairs_response(response)
        assert parsed.race is not None or parsed.has_pairs

    def test_adapters_advertise_cost_priors(self):
        assert StaticAnalyzerModel().cost_prior_s < InspectorTierModel().cost_prior_s

    def test_tier_spec_resolution(self):
        assert isinstance(build_tier_model("static"), StaticAnalyzerModel)
        assert isinstance(build_tier_model("inspector"), InspectorTierModel)
        assert isinstance(build_tier_model("dynamic"), InspectorTierModel)
        assert build_tier_model("gpt-4").name == "gpt-4"
        with pytest.raises(KeyError):
            build_tier_model("no-such-model")


class TestCascadePolicy:
    def test_from_spec_parses_default(self):
        policy = CascadePolicy.from_spec(DEFAULT_CASCADE_TIERS)
        assert [tier.name for tier in policy.tiers] == ["static", "gpt-3.5-turbo"]

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            CascadePolicy.from_spec("  ,  ")
        with pytest.raises(ValueError):
            CascadePolicy.from_spec("static,static")
        with pytest.raises(ValueError):
            CascadePolicy.from_spec("static", escalate_below=1.5)

    def test_fallback_model_walks_down_the_ladder(self):
        policy = CascadePolicy.from_spec("static,gpt-3.5-turbo")
        static_model = policy.tiers[0].model
        fast_model = policy.tiers[1].model
        # Tier k races against tier k-1; tier 0 stays same-backend.
        assert policy.fallback_model(fast_model) is static_model
        assert policy.fallback_model(static_model) is None
        # The implicit final tier races against the top cheap tier.
        assert policy.fallback_model(create_model("gpt-4")) is fast_model


class TestCascadeRouting:
    def test_confident_tier_resolves_without_final_calls(self, records):
        tier = StubModel("cheap", "no.\n[confidence=0.95]")
        final = StubModel("final", "yes.\n[confidence=0.99]")
        policy = _policy(tier, escalate_below=0.75)
        with ExecutionEngine(jobs=1, cascade=policy) as engine:
            store = engine.run(build_requests(final, PromptStrategy.BP1, records))
        results = list(store)
        assert final.calls == 0
        assert all(r.model == "cheap" for r in results)
        assert all(r.prediction is False for r in results)
        assert all(r.confidence == 0.95 for r in results)

    def test_full_escalation_is_bit_identical_to_final_alone(self, records):
        tier = StubModel("cheap", "no.\n[confidence=0.95]")
        final = create_model("gpt-4")
        policy = _policy(tier, escalate_below=1.0)
        with ExecutionEngine(jobs=1, cascade=policy) as engine:
            cascaded = engine.run(build_requests(final, PromptStrategy.BP1, records))
        with ExecutionEngine(jobs=1) as engine:
            reference = engine.run(build_requests(final, PromptStrategy.BP1, records))
        assert cascaded.responses() == reference.responses()
        assert cascaded.confusion().as_row() == reference.confusion().as_row()

    def test_disagreement_with_earlier_tier_escalates(self, records):
        # Tier A is unsure but says yes; tier B confidently says no.  The
        # contradiction must push every record to the final model.
        tier_a = StubModel("a", "yes.\n[confidence=0.50]")
        tier_b = StubModel("b", "no.\n[confidence=0.99]")
        final = StubModel("final", "yes.\n[confidence=0.99]")
        policy = _policy(tier_a, tier_b, escalate_below=0.75)
        telemetry = EngineTelemetry()
        with ExecutionEngine(jobs=1, cascade=policy, telemetry=telemetry) as engine:
            store = engine.run(build_requests(final, PromptStrategy.BP1, records))
        assert all(r.model == "final" for r in store)
        assert final.calls == len(records)
        by_tier = {row["tier"]: row for row in telemetry.cascade_snapshot()}
        assert by_tier["b"]["resolved"] == 0
        assert by_tier["b"]["escalated"] == len(records)
        assert by_tier[FINAL_TIER]["requests"] == len(records)

    def test_agreeing_confident_tier_resolves(self, records):
        tier_a = StubModel("a", "yes.\n[confidence=0.50]")
        tier_b = StubModel("b", "yes.\n[confidence=0.99]")
        final = StubModel("final", "no.\n[confidence=0.99]")
        policy = _policy(tier_a, tier_b, escalate_below=0.75)
        with ExecutionEngine(jobs=1, cascade=policy) as engine:
            store = engine.run(build_requests(final, PromptStrategy.BP1, records))
        assert final.calls == 0
        assert all(r.model == "b" for r in store)

    def test_zero_confidence_verdict_is_not_recorded_for_disagreement(self, records):
        # An unparseable tier answer (confidence 0) must not veto a later
        # confident verdict — it carries no information.
        tier_a = StubModel("a", "cannot tell")
        tier_b = StubModel("b", "yes.\n[confidence=0.99]")
        final = StubModel("final", "no.\n[confidence=0.99]")
        policy = _policy(tier_a, tier_b, escalate_below=0.75)
        with ExecutionEngine(jobs=1, cascade=policy) as engine:
            store = engine.run(build_requests(final, PromptStrategy.BP1, records))
        assert final.calls == 0
        assert all(r.model == "b" and r.prediction is True for r in store)

    def test_real_ladder_runs_and_reports_telemetry(self, records):
        policy = CascadePolicy.from_spec(DEFAULT_CASCADE_TIERS)
        telemetry = EngineTelemetry()
        with ExecutionEngine(jobs=1, cascade=policy, telemetry=telemetry) as engine:
            store = engine.run(
                build_requests(create_model("gpt-4"), PromptStrategy.BP1, records)
            )
        assert len(list(store)) == len(records)
        snap = telemetry.snapshot()
        assert snap["cascade_requests"] >= len(records)
        stats_line = telemetry.format_stats(executor_name="serial")
        assert "cascade=" in stats_line
        assert "escalated=" in stats_line

    def test_cascade_composes_with_streaming(self, records):
        tier = StubModel("cheap", "no.\n[confidence=0.95]")
        final = StubModel("final", "yes.\n[confidence=0.99]")
        policy = _policy(tier, escalate_below=0.75)
        with ExecutionEngine(jobs=1, cascade=policy, stream_window=4) as engine:
            counts = engine.run_streaming_counts(
                iter(build_requests(final, PromptStrategy.BP1, records))
            )
        assert final.calls == 0
        assert counts.total == len(records)


class TestCascadeSpeculation:
    def test_speculating_cascade_matches_serial_cascade(self, records):
        """Speculation races a straggler on its own model, never a cheaper
        tier: a cascade with speculation gives the serial cascade's answers,
        row for row and model for model."""
        policy = CascadePolicy.from_spec("static", escalate_below=0.9)
        with ExecutionEngine(cascade=policy) as serial:
            expected = list(
                serial.run(build_requests(create_model("gpt-4"), PromptStrategy.BP1, records))
            )
        assert "gpt-4" in {r.model for r in expected}  # some records escalate

        # Every first attempt at a gpt-4 prompt hangs, so each final-tier
        # chunk overshoots its warmed p95 and gets a duplicate.
        slow = FlakyTailAdapter(
            create_model("gpt-4"), latency_s=0.002, tail_latency_s=0.15, tail_ratio=1.0
        )
        engine = ExecutionEngine(
            jobs=4,
            executor_kind="thread",
            batch_size=4,
            speculate=True,
            speculate_after=1.2,
            cascade=policy,
        )
        engine.speculation_poll_s = 0.002
        for _ in range(3):
            engine.cost_model.observe(slow.cache_identity, "BP1", 0.003)
        with engine:
            results = list(engine.run(build_requests(slow, PromptStrategy.BP1, records)))
        assert engine.telemetry.snapshot()["speculation_launched"] >= 1
        assert "speculation=" in engine.telemetry.format_stats(executor_name="thread")
        assert results == expected
        assert [r.model for r in results] == [r.model for r in expected]


class TestColdStartPriors:
    def test_prior_feeds_planning_but_not_observation_paths(self):
        from repro.engine import CostModel

        cm = CostModel()
        cm.set_prior("tier:static", "BP1", 0.002)
        assert cm.planning_estimate("tier:static", "BP1") == 0.002
        assert cm.estimate("tier:static", "BP1") is None
        assert cm.quantile_estimate("tier:static", "BP1") is None
        assert cm.snapshot() == []
        cm.observe("tier:static", "BP1", 0.1)
        # Observations shadow the prior.
        assert cm.planning_estimate("tier:static", "BP1") == cm.estimate(
            "tier:static", "BP1"
        )
        cm.clear()
        assert cm.planning_estimate("tier:static", "BP1") is None

    def test_prior_ignores_bad_values(self):
        from repro.engine import CostModel

        cm = CostModel()
        cm.set_prior("m", "BP1", -0.1)
        cm.set_prior("m", "BP1", float("nan"))
        assert cm.planning_estimate("m", "BP1") is None

    def test_engine_registers_tier_priors_while_planning(self, records):
        model = StaticAnalyzerModel()
        with ExecutionEngine(jobs=1) as engine:
            indexed = list(
                enumerate(build_requests(model, PromptStrategy.BP1, records[:4]))
            )
            engine._chunk(indexed)
            # Planning alone (no model call yet) priced the unobserved tier.
            assert (
                engine.cost_model.planning_estimate(model.cache_identity, "BP1")
                == model.cost_prior_s
            )
