"""Fine-tuning of the open-source simulated models (paper §3.4).

The paper fine-tunes Llama2-7b (lr 2e-4) and StarChat-beta (lr 9.65e-6) with
QLoRA (rank 64, dropout 0.1, batch size 4 per GPU, cross-entropy loss) on the
DRB-ML prompt–response pairs, under stratified 5-fold cross validation.

:class:`FineTuner` mirrors that setup at simulation scale: it consumes the
same :class:`~repro.dataset.pairs.PromptResponsePair` sets, trains a
:class:`~repro.llm.adapters.LowRankAdapter` on hashed n-gram features of the
code inside each prompt, and produces a :class:`FineTunedModel` that blends
the adapter's score with the frozen base model's score.  The blend weight
plays the role of the adapter scaling: with a 198-example dataset the
adapter can only nudge, not replace, the base behaviour — which is exactly
the regime the paper reports (small recall/precision movements, Tables 4
and 6).

Training is deterministic, so a :class:`FineTuner` given a response cache
stores each trained adapter there and a later fit on the same config and
training set reads it back instead of retraining (see :meth:`FineTuner.fit`).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataset.pairs import PromptResponsePair
from repro.llm.adapters import LowRankAdapter
from repro.llm.base import LanguageModel
from repro.llm.behavior import deterministic_uniform
from repro.llm.features import extract_code_from_prompt, hashed_ngram_vector
from repro.llm.responses import render_detection_response, render_pairs_response
from repro.llm.zoo import SimulatedChatModel
from repro.prompting.strategy import PromptStrategy

if TYPE_CHECKING:  # repro.engine imports this module through repro.eval
    from repro.engine.cache import ResponseCache

__all__ = ["FineTuneConfig", "FineTuner", "FineTunedModel"]


@dataclass(frozen=True)
class FineTuneConfig:
    """Hyper-parameters of a fine-tuning run.

    Defaults follow the paper where a direct analogue exists: LoRA rank 64,
    dropout 0.1, batch size 4; the learning rate is per-model (2e-4 for
    Llama2-7b, 9.65e-6 for StarChat-beta in the paper — here both map onto
    stable values for the logistic adapter, preserving the "StarChat uses a
    much smaller step" relationship).
    """

    lora_rank: int = 64
    dropout: float = 0.1
    batch_size: int = 4
    epochs: int = 40
    learning_rate: float = 0.2
    feature_dim: int = 512
    adapter_weight: float = 0.45
    seed: int = 0

    @classmethod
    def for_model(cls, model_name: str, **overrides) -> "FineTuneConfig":
        """Per-model defaults mirroring the paper's two learning rates."""
        if model_name == "starchat-beta":
            base = cls(learning_rate=0.1, seed=1)
        elif model_name == "llama2-7b":
            base = cls(learning_rate=0.2, seed=2)
        else:
            base = cls()
        if overrides:
            return FineTuneConfig(**{**base.__dict__, **overrides})
        return base


class FineTunedModel(LanguageModel):
    """A frozen base model plus a trained low-rank adapter."""

    def __init__(
        self,
        base: SimulatedChatModel,
        adapter: LowRankAdapter,
        config: FineTuneConfig,
        *,
        kind: str = "basic",
    ) -> None:
        self.base = base
        self.adapter = adapter
        self.config = config
        self.kind = kind
        self.name = f"{base.name}-ft"
        self.table_label = f"{base.table_label}-FT"
        self.context_window = base.context_window

    @property
    def cache_identity(self) -> str:
        """Name plus a content fingerprint of everything that shapes output.

        Cross-validation trains one adapter per fold; all of them share the
        ``"<base>-ft"`` name, so the name alone would let the response cache
        hand fold 1's answers to fold 2's model.  The fingerprint covers the
        trained adapter state, the fine-tune config (``adapter_weight`` and
        ``feature_dim`` change the blended score even for equal weights),
        the task kind and the base model's own identity (which encodes its
        calibration mode).
        """
        digest = hashlib.sha256()
        digest.update(self.adapter.weights.tobytes())
        digest.update(repr(self.adapter.bias).encode("utf-8"))
        digest.update(str(self.adapter.seed).encode("utf-8"))
        digest.update(repr(self.config).encode("utf-8"))
        digest.update(self.kind.encode("utf-8"))
        digest.update(self.base.cache_identity.encode("utf-8"))
        return f"{self.name}#{digest.hexdigest()[:16]}"

    # -- scoring ------------------------------------------------------------------

    def score(self, code: str) -> float:
        """Blended race probability of the fine-tuned model."""
        base_score = self.base.score(code)
        adapter_score = self.adapter.predict_proba(
            hashed_ngram_vector(code, dim=self.config.feature_dim)
        )
        w = self.config.adapter_weight
        return (1.0 - w) * base_score + w * float(adapter_score)

    def _verdict(self, code: str) -> bool:
        probability = self.score(code)
        draw = deterministic_uniform(self.name, self.kind, "verdict", code)
        return draw < probability

    # -- generation ---------------------------------------------------------------

    def generate(self, prompt: str) -> str:
        code = extract_code_from_prompt(prompt)
        verdict = self._verdict(code)
        features = self.base._features(code)
        if self.kind == "advanced":
            profile = self.base._profile(PromptStrategy.ADVANCED)
            # Fine-tuning on structured responses improves format adherence
            # noticeably and pair fidelity slightly (paper §4.3).
            format_fidelity = min(1.0, profile.format_fidelity + 0.15)
            pair_fidelity = min(1.0, profile.pair_fidelity + 0.03)
            well_formed = (
                deterministic_uniform(self.name, "format", code) < format_fidelity
            )
            pair = None
            if verdict:
                faithful = (
                    deterministic_uniform(self.name, "pair", code) < pair_fidelity
                    and len(features.predicted_pairs) >= 2
                )
                if faithful:
                    pair = (features.predicted_pairs[0], features.predicted_pairs[1])
                else:
                    guess_line = 1 + int(deterministic_uniform(self.name, "guessline", code) * 20)
                    pair = (("i", guess_line, 1, "W"), ("i", guess_line, 1, "R"))
            return render_pairs_response(verdict, pair, well_formed=well_formed)
        return render_detection_response(verdict, features)


#: Identity prefix of stored adapters.  Bump the version when a change to
#: featurisation, the optimiser or the adapter layout alters the weights a
#: config and training set produce, so stale adapters stop matching.
ADAPTER_IDENTITY_PREFIX = "adapter/v1"


@dataclass
class FineTuner:
    """Trains a :class:`FineTunedModel` from prompt–response pairs.

    ``cache`` (a :class:`~repro.engine.cache.ResponseCache`) makes fits
    reusable: see :meth:`fit`.
    """

    base: SimulatedChatModel
    config: Optional[FineTuneConfig] = None
    history: List[float] = field(default_factory=list)
    cache: Optional["ResponseCache"] = None

    def __post_init__(self) -> None:
        if self.config is None:
            self.config = FineTuneConfig.for_model(self.base.name)

    @property
    def cache_identity(self) -> str:
        """``adapter/v1#`` plus a digest of the fine-tune config."""
        digest = hashlib.sha256(repr(self.config).encode("utf-8")).hexdigest()
        return f"{ADAPTER_IDENTITY_PREFIX}#{digest[:16]}"

    @staticmethod
    def training_digest(pairs: Sequence[PromptResponsePair]) -> str:
        """sha256 over every pair's prompt and label: all a fit reads."""
        digest = hashlib.sha256()
        for pair in pairs:
            digest.update(pair.prompt.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(repr(float(pair.label)).encode("ascii"))
            digest.update(b"\x00")
        return digest.hexdigest()

    def _dataset(self, pairs: Sequence[PromptResponsePair]):
        features = np.stack(
            [
                hashed_ngram_vector(
                    extract_code_from_prompt(pair.prompt), dim=self.config.feature_dim
                )
                for pair in pairs
            ]
        )
        labels = np.array([pair.label for pair in pairs], dtype=np.float64)
        return features, labels

    def _new_adapter(self) -> LowRankAdapter:
        return LowRankAdapter(
            input_dim=self.config.feature_dim,
            rank=self.config.lora_rank,
            dropout=self.config.dropout,
            seed=self.config.seed,
        )

    def _train(self, pairs: Sequence[PromptResponsePair]) -> Tuple[LowRankAdapter, float]:
        features, labels = self._dataset(pairs)
        adapter = self._new_adapter()
        loss = adapter.fit(
            features,
            labels,
            learning_rate=self.config.learning_rate,
            epochs=self.config.epochs,
            batch_size=self.config.batch_size,
        )
        return adapter, loss

    def _stored(self, entry: Optional[str]) -> Optional[Tuple[LowRankAdapter, float]]:
        """The adapter and loss a cache entry holds; ``None`` if absent or damaged."""
        if entry is None:
            return None
        try:
            stored = json.loads(entry)
            weights = np.array(stored["weights"], dtype=np.float64)
            bias = float(stored["bias"])
            loss = float(stored["loss"])
        except (ValueError, TypeError, KeyError):
            return None
        if weights.shape != (self.config.lora_rank,):
            return None
        # The projection is a pure function of the seed; only the trained
        # head is stored.
        adapter = self._new_adapter()
        adapter.weights = weights
        adapter.bias = bias
        return adapter, loss

    def fit(self, pairs: Sequence[PromptResponsePair]) -> FineTunedModel:
        """Fine-tune on the given pair set and return the tuned model.

        With a cache, the adapter is looked up under :attr:`cache_identity`
        and :meth:`training_digest`.  A hit rebuilds it from the stored
        weights, bias and final loss (JSON floats round-trip exactly, so
        the tuned model's ``cache_identity`` is the freshly trained one's);
        a miss or a damaged entry trains and stores the result, and
        records the fit's seconds in the cache's cost model so
        cost-weighted eviction keeps these expensive entries longest.
        """
        if not pairs:
            raise ValueError("cannot fine-tune on an empty pair set")
        kind = pairs[0].kind
        stored = None
        if self.cache is not None:
            identity = self.cache_identity
            prompt = self.training_digest(pairs)
            stored = self._stored(self.cache.get(identity, prompt))
        if stored is not None:
            adapter, loss = stored
        else:
            start = time.perf_counter()
            adapter, loss = self._train(pairs)
            if self.cache is not None:
                if self.cache.cost_model is not None:
                    self.cache.cost_model.observe(
                        identity, "fit", time.perf_counter() - start
                    )
                entry = {"weights": adapter.weights.tolist(), "bias": adapter.bias, "loss": loss}
                self.cache.put(identity, prompt, json.dumps(entry))
        self.history.append(loss)
        return FineTunedModel(self.base, adapter, self.config, kind=kind)
