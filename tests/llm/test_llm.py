"""Tests for the simulated model zoo, behavioral calibration and fine-tuning."""

import dataclasses
import hashlib
import sys
import threading

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
import repro.llm.features as features_module
from repro.llm.features import PROGRAM_ERRORS, hashed_ngram_vector, source_unit
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

    def test_compound_update_pattern_matches_the_word_run_pattern(self):
        """The operator-anchored scan finds a compound update exactly where
        the earlier ``\\w+`` and one-word-character patterns did, Unicode
        word characters and blanks included."""
        import random
        import re

        from repro.corpus import CorpusConfig, build_corpus

        patterns = [re.compile(r"\w+\s*(\+=|-=|\*=)"), re.compile(r"\w\s*(?:\+=|-=|\*=)")]
        texts = [bench.code for bench in build_corpus(CorpusConfig())]
        texts += ["a +=", "+=", "x\n*=", "a_1-=", "a /= 2", "(a) += 1", "", "a\x1c+=",
                  "\u0663 -=", "\u00e9\u2003*=", "a\u00a0\u3000+=", "a ++=", "x -+= 1"]
        rng = random.Random(7)
        alphabet = "ab_1 \t\n\x1c\u00a0\u2028\u0663\u00b2\u00e9+-*=/()["
        texts += ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
                  for _ in range(5000)]
        disagree = [
            text for text in texts
            for pattern in patterns
            if features_module._has_compound_update(text) != bool(pattern.search(text))
        ]
        assert disagree == []
        assert [features_module._has_compound_update(t)
                for t in ("a +=", "+=", "x\n*=", "a_1-=", "\u0663 -=", "(a) += 1")] == [
            True, False, True, True, True, False]

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

    def test_ngram_vector_bits_equal_one_hash_per_gram_occurrence(self):
        """Counting grams first and hashing each distinct gram once must give
        the bits of adding 1.0 per occurrence, on every corpus source."""
        from repro.corpus.generator import build_corpus
        from repro.dataset.tokenizer import CodeTokenizer

        def reference(code, dim, ngram):
            tokens = CodeTokenizer().tokenize(code)
            vector = np.zeros(dim, dtype=np.float64)
            for order in range(1, ngram + 1):
                for start in range(0, max(0, len(tokens) - order + 1)):
                    gram = " ".join(tokens[start : start + order])
                    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
                    vector[int.from_bytes(digest, "little") % dim] += 1.0
            norm = np.linalg.norm(vector)
            return vector / norm if norm > 0 else vector

        codes = [bench.code for bench in build_corpus()]
        for code in codes:
            assert hashed_ngram_vector(code).tobytes() == reference(code, 512, 2).tobytes()
        for dim, ngram in [(64, 1), (128, 3), (7, 0)]:
            for code in codes[:10] + ["", "x"]:
                got = hashed_ngram_vector(code, dim=dim, ngram=ngram)
                assert got.tobytes() == reference(code, dim, ngram).tobytes()

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


class _PeakMemo(features_module._SourceMemo):
    """A source memo that records the largest byte estimate it ever held."""

    peak = 0

    def charge(self, unit, nbytes):
        super().charge(unit, nbytes)
        self.peak = max(self.peak, self.nbytes)


@pytest.fixture
def fresh_memo(monkeypatch):
    """Install an empty source memo (default bound unless given one)."""

    def install(max_bytes=features_module.SOURCE_MEMO_MAX_BYTES):
        memo = _PeakMemo(max_bytes)
        monkeypatch.setattr(features_module, "_MEMO", memo)
        return memo

    return install


@pytest.fixture
def count_extractions(monkeypatch):
    """Count the memo's calls into the pure ``extract_features``."""
    calls = []
    pure = features_module.extract_features

    def counting(code, **kwargs):
        calls.append(code)
        return pure(code, **kwargs)

    monkeypatch.setattr(features_module, "extract_features", counting)
    return calls


class TestSourceMemo:
    def test_memo_matches_the_pure_functions_over_the_corpus(self, fresh_memo):
        from repro.corpus import build_corpus

        fresh_memo()
        programs = build_corpus()
        assert len(programs) == 201
        for program in programs:
            unit = source_unit(program.code)
            assert unit.features == extract_features(program.code)
            assert np.array_equal(
                unit.ngram_vector(dim=512), hashed_ngram_vector(program.code, dim=512)
            )

    def test_models_share_one_extraction_per_source(self, fresh_memo, count_extractions):
        fresh_memo()
        prompt = render_prompt(PromptStrategy.BP1, RACY_CODE)
        models = [create_model("gpt-4"), create_model("gpt-4"), create_model("llama2-7b")]
        for model in models:
            model.generate(prompt)
            model.score(extract_code_from_prompt(prompt))
        assert len(count_extractions) == 1

    def test_parse_failure_is_memoised(self, fresh_memo, count_extractions):
        from repro.analysis.static_race import StaticRaceDetector

        fresh_memo()
        code = "not C at all @@@"
        with pytest.raises(PROGRAM_ERRORS):
            StaticRaceDetector().analyze_source(code)
        assert not source_unit(code).features.parses
        assert not source_unit(code).features.parses
        assert count_extractions == [code]

    def test_detector_bug_propagates_and_stores_nothing(self, fresh_memo, monkeypatch):
        from repro.analysis.static_race import StaticRaceDetector

        memo = fresh_memo()

        def broken(self, code, **kwargs):
            raise AttributeError("detector bug")

        monkeypatch.setattr(StaticRaceDetector, "analyze_source", broken)
        with pytest.raises(AttributeError, match="detector bug"):
            source_unit(RACY_CODE).features
        assert memo.nbytes == len(RACY_CODE)  # the source, no features entry
        monkeypatch.undo()
        fresh_memo()
        assert source_unit(RACY_CODE).features.heuristic_race

    def test_shared_entries_are_immutable(self, fresh_memo):
        fresh_memo()
        unit = source_unit(RACY_CODE)
        features = unit.features
        assert isinstance(features.predicted_pairs, tuple) and features.predicted_pairs
        assert isinstance(features.static_rule_ids, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            features.heuristic_race = False
        vector = unit.ngram_vector(dim=64)
        with pytest.raises(ValueError):
            vector[0] = 1.0
        # The pure function still hands out a fresh, writable vector.
        hashed_ngram_vector(RACY_CODE, dim=64)[0] = 1.0

    def test_bound_holds_while_streaming_more_sources_than_fit(self, fresh_memo):
        from repro.corpus import build_corpus
        from repro.dataset.drbml import iter_records
        from repro.engine import ExecutionEngine, iter_requests

        programs = build_corpus()[:60]

        def stream_counts():
            model = create_model("gpt-4")
            with ExecutionEngine(stream_window=8) as engine:
                return engine.run_streaming_counts(
                    iter_requests(model, PromptStrategy.BP1, iter_records(programs))
                ).as_row()

        fresh_memo()
        unbounded = stream_counts()
        bound = 32 * 1024
        memo = fresh_memo(bound)
        assert stream_counts() == unbounded
        assert 0 < memo.peak <= bound
        assert len(memo.units) < len(programs)
        assert memo.nbytes == sum(unit.nbytes for unit in memo.units.values())

    def test_threads_share_equal_results_within_the_bound(self, fresh_memo):
        from repro.corpus import build_corpus

        sources = [program.code for program in build_corpus()[:50]]
        bound = 64 * 1024
        memo = fresh_memo(bound)
        results = [None] * 8
        start = threading.Barrier(8)

        def featurise(slot):
            start.wait()
            results[slot] = [
                (source_unit(code).features, source_unit(code).ngram_vector(dim=128))
                for code in sources
            ]

        threads = [threading.Thread(target=featurise, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for result in results[1:]:
            for (features, vector), (first_features, first_vector) in zip(result, results[0]):
                assert features == first_features
                assert np.array_equal(vector, first_vector)
        assert memo.peak <= bound
        assert memo.nbytes == sum(unit.nbytes for unit in memo.units.values())


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

    def test_fit_result_is_pinned(self):
        """Loss and weights of a fixed 40-record fit, recorded before the
        loss was restricted to the final epoch."""
        rng = np.random.default_rng(11)
        features = rng.normal(0.0, 1.0, size=(40, 32))
        features /= np.linalg.norm(features, axis=1, keepdims=True)
        labels = (features[:, 0] + 0.3 * features[:, 1] > 0).astype(np.float64)
        adapter = LowRankAdapter(input_dim=32, rank=8, dropout=0.1, seed=5)
        loss = adapter.fit(features, labels, learning_rate=0.2, epochs=40, batch_size=4)
        assert loss == 0.6249099649374927
        assert adapter.bias == -0.057794262286196066
        assert hashlib.sha256(adapter.weights.tobytes()).hexdigest() == (
            "f05f6d4c4db53b982b0bcc1cf1446d66b3569e4d86f4894bfc7d2e5770d0172c"
        )

    @pytest.mark.parametrize(
        "n, dropout, batch_size, loss, bias, weights",
        [
            (37, 0.1, 5, 0.622072401460088, -0.08595981800913235,
             "1a610c447909cae2a05764563a20cadc347345a569dc808f29d7e8027f5385b8"),
            (30, 0.0, 4, 0.6148227871380604, 0.1208126411531096,
             "9199f0d2762d1393259b34be820e71f8a440c73db6c41ffc8f44c626c27dbd45"),
        ],
        ids=["ragged-last-batch", "no-dropout"],
    )
    def test_fit_edge_cases_are_pinned(self, n, dropout, batch_size, loss, bias, weights):
        """A last batch shorter than ``batch_size`` and a fit without dropout,
        recorded when each batch drew its own dropout mask."""
        rng = np.random.default_rng(13)
        features = rng.normal(0.0, 1.0, size=(n, 24))
        features /= np.linalg.norm(features, axis=1, keepdims=True)
        labels = (features[:, 0] - 0.5 * features[:, 2] > 0).astype(np.float64)
        adapter = LowRankAdapter(input_dim=24, rank=6, dropout=dropout, seed=3)
        assert adapter.fit(features, labels, learning_rate=0.2, epochs=25,
                           batch_size=batch_size) == loss
        assert adapter.bias == bias
        assert hashlib.sha256(adapter.weights.tobytes()).hexdigest() == weights

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
