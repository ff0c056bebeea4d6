"""Tests for the simulated model zoo, behavioral calibration and fine-tuning."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataset import DRBMLDataset
from repro.dataset.pairs import build_basic_pairs
from repro.llm import (
    FineTuneConfig,
    FineTuner,
    LowRankAdapter,
    available_models,
    create_model,
    extract_code_from_prompt,
    extract_features,
    profile_for,
)
from repro.llm.behavior import HEURISTIC_FPR, HEURISTIC_TPR, deterministic_uniform
from repro.llm.features import hashed_ngram_vector
from repro.prompting import PromptStrategy, parse_yes_no, render_prompt


RACY_CODE = """#include <stdio.h>
int main()
{
  int i;
  int len = 64;
  int a[64];
  for (i = 0; i < len; i++)
    a[i] = i;
#pragma omp parallel for
  for (i = 0; i < len - 1; i++)
    a[i] = a[i+1] + 1;
  return 0;
}
"""

SAFE_CODE = """#include <stdio.h>
int main()
{
  int i;
  int sum = 0;
#pragma omp parallel for reduction(+:sum)
  for (i = 0; i < 64; i++)
    sum += i;
  return 0;
}
"""


class TestFeatures:
    def test_extract_code_from_prompt_preserves_line_numbers(self):
        prompt = render_prompt(PromptStrategy.ADVANCED, RACY_CODE)
        code = extract_code_from_prompt(prompt)
        assert code.splitlines()[0].startswith("#include")
        # A trailing blank line from the template is harmless; the leading
        # lines (which carry the ground-truth line numbers) must be identical.
        assert code.rstrip("\n").splitlines() == RACY_CODE.rstrip("\n").splitlines()

    def test_heuristic_flags_racy_code(self):
        assert extract_features(RACY_CODE).heuristic_race

    def test_heuristic_accepts_reduction(self):
        features = extract_features(SAFE_CODE)
        assert not features.heuristic_race
        assert features.has_reduction_clause

    def test_parse_failure_degrades_gracefully(self):
        features = extract_features("not C at all @@@")
        assert not features.parses and not features.heuristic_race

    @pytest.mark.parametrize("site", ["features", "static-tier", "inspector-tier"])
    def test_detector_bugs_propagate_instead_of_becoming_verdicts(self, site):
        """Only typed front-end and interpreter errors mean "could not
        analyse"; a bug in the detector must crash, not turn into a verdict."""
        from repro.llm.adapters import InspectorTierModel, StaticAnalyzerModel

        class BrokenDetector:
            def analyze_source(self, code, **kwargs):
                raise AttributeError("detector bug")

        run = {
            "features": lambda: extract_features(RACY_CODE, detector=BrokenDetector()),
            "static-tier": lambda: StaticAnalyzerModel(BrokenDetector()).generate(
                render_prompt(PromptStrategy.BP1, RACY_CODE)
            ),
            "inspector-tier": lambda: InspectorTierModel(BrokenDetector()).generate(
                render_prompt(PromptStrategy.BP1, RACY_CODE)
            ),
        }[site]
        with pytest.raises(AttributeError, match="detector bug"):
            run()

    def test_ngram_vector_shape_and_norm(self):
        vec = hashed_ngram_vector(RACY_CODE, dim=128)
        assert vec.shape == (128,)
        assert np.isclose(np.linalg.norm(vec), 1.0)

    @given(st.text(alphabet="abimn +=();[]\n", min_size=1, max_size=80))
    @settings(max_examples=25)
    def test_ngram_vector_deterministic(self, text):
        assert np.allclose(hashed_ngram_vector(text), hashed_ngram_vector(text))

    def test_hot_paths_reuse_module_level_tokenizer(self, monkeypatch):
        """Micro-regression guard: featurisation sits in the fine-tuning hot
        loop and must not construct a fresh CodeTokenizer per call."""
        import repro.llm.features as features_module
        from repro.dataset.tokenizer import CodeTokenizer

        constructions = []

        class CountingTokenizer(CodeTokenizer):
            def __init__(self, *args, **kwargs):
                constructions.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(features_module, "CodeTokenizer", CountingTokenizer)
        reference = hashed_ngram_vector(RACY_CODE, dim=64)
        for _ in range(5):
            hashed_ngram_vector(RACY_CODE, dim=64)
            extract_features(RACY_CODE)
        assert constructions == []  # the shared module-level instance served all
        # And the shared instance produces the exact same vectors as a
        # fresh tokenizer would (it is frozen and stateless).
        assert np.array_equal(reference, hashed_ngram_vector(RACY_CODE, dim=64))


class TestBehavior:
    def test_profiles_recover_paper_targets(self):
        profile = profile_for("gpt-4", PromptStrategy.BP1)
        tpr = HEURISTIC_TPR * profile.p_yes_given_evidence + (
            1 - HEURISTIC_TPR
        ) * profile.p_yes_given_no_evidence
        fpr = HEURISTIC_FPR * profile.p_yes_given_evidence + (
            1 - HEURISTIC_FPR
        ) * profile.p_yes_given_no_evidence
        assert tpr == pytest.approx(0.770, abs=1e-6)
        assert fpr == pytest.approx(0.286, abs=1e-6)

    def test_unknown_strategy_falls_back_to_bp1(self):
        assert profile_for("gpt-4", PromptStrategy.BP1).p_yes_given_evidence == pytest.approx(
            profile_for("gpt-4", "nonexistent").p_yes_given_evidence  # type: ignore[arg-type]
        )

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            profile_for("not-a-model", PromptStrategy.BP1)

    def test_deterministic_uniform_is_stable_and_bounded(self):
        a = deterministic_uniform("m", "s", "x")
        b = deterministic_uniform("m", "s", "x")
        c = deterministic_uniform("m", "s", "y")
        assert a == b and a != c and 0.0 <= a < 1.0


class TestZoo:
    def test_registry_contains_the_four_paper_models(self):
        assert set(available_models()) == {
            "gpt-3.5-turbo", "gpt-4", "starchat-beta", "llama2-7b",
        }

    def test_create_model_unknown_raises(self):
        with pytest.raises(KeyError):
            create_model("gpt-99")

    def test_generate_returns_parseable_verdict(self):
        model = create_model("gpt-4")
        response = model.generate(render_prompt(PromptStrategy.BP1, RACY_CODE))
        assert parse_yes_no(response) is not None

    def test_generation_is_deterministic(self):
        model = create_model("gpt-3.5-turbo")
        prompt = render_prompt(PromptStrategy.BP1, RACY_CODE)
        assert model.generate(prompt) == model.generate(prompt)

    def test_uncalibrated_model_follows_heuristic(self):
        model = create_model("gpt-4", calibrated=False)
        yes = model.generate(render_prompt(PromptStrategy.BP1, RACY_CODE))
        no = model.generate(render_prompt(PromptStrategy.BP1, SAFE_CODE))
        assert parse_yes_no(yes) is True
        assert parse_yes_no(no) is False

    def test_analysis_request_returns_dependence_text(self):
        model = create_model("gpt-4")
        response = model.generate(render_prompt(PromptStrategy.AP2, RACY_CODE))
        assert "dependence" in response.lower()
        assert parse_yes_no(response) is None or "line" in response

    def test_score_is_probability(self):
        model = create_model("starchat-beta")
        assert 0.0 <= model.score(RACY_CODE) <= 1.0


class TestAdapter:
    def test_training_reduces_loss_on_separable_data(self):
        rng = np.random.default_rng(0)
        pos = rng.normal(0.5, 0.1, size=(40, 64))
        neg = rng.normal(-0.5, 0.1, size=(40, 64))
        features = np.vstack([pos, neg])
        labels = np.array([1.0] * 40 + [0.0] * 40)
        adapter = LowRankAdapter(input_dim=64, rank=16, dropout=0.0, seed=0)
        adapter.fit(features, labels, epochs=60, learning_rate=0.5)
        preds = adapter.predict_proba(features) > 0.5
        assert (preds == labels.astype(bool)).mean() > 0.9

    def test_mismatched_shapes_rejected(self):
        adapter = LowRankAdapter(input_dim=8, rank=2)
        with pytest.raises(ValueError):
            adapter.fit(np.zeros((3, 8)), np.zeros(4))

    def test_predict_single_vector_returns_float(self):
        adapter = LowRankAdapter(input_dim=8, rank=2)
        assert isinstance(adapter.predict_proba(np.zeros(8)), float)


class TestFineTuning:
    @pytest.fixture(scope="class")
    def small_dataset(self):
        full = DRBMLDataset.build_default().token_subset()
        return DRBMLDataset(records=full.records[:60])

    def test_finetuner_produces_model_with_blended_score(self, small_dataset):
        pairs = build_basic_pairs(small_dataset.records)
        tuner = FineTuner(base=create_model("starchat-beta"))
        tuned = tuner.fit(pairs)
        assert tuned.name == "starchat-beta-ft"
        score = tuned.score(small_dataset.records[0].trimmed_code)
        assert 0.0 <= score <= 1.0
        assert tuner.history and tuner.history[0] > 0

    def test_config_per_model_learning_rates_differ(self):
        starchat = FineTuneConfig.for_model("starchat-beta")
        llama = FineTuneConfig.for_model("llama2-7b")
        assert starchat.learning_rate < llama.learning_rate
        assert starchat.lora_rank == 64 and starchat.dropout == pytest.approx(0.1)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            FineTuner(base=create_model("llama2-7b")).fit([])

    def test_tuned_model_generates_parseable_output(self, small_dataset):
        pairs = build_basic_pairs(small_dataset.records)
        tuned = FineTuner(base=create_model("llama2-7b")).fit(pairs)
        record = small_dataset.records[0]
        response = tuned.generate(render_prompt(PromptStrategy.BP1, record.trimmed_code))
        assert parse_yes_no(response) is not None
