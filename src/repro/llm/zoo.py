"""The simulated model zoo: GPT-3.5-turbo, GPT-4, Llama2-7b, StarChat-beta.

Each model implements :class:`~repro.llm.base.LanguageModel` and follows the
same internal pipeline:

1. classify the request from the prompt text (detection, dependence analysis,
   or pair identification) — the model only ever sees the prompt;
2. extract the code snippet and run the internal heuristic
   (:func:`repro.llm.features.extract_features`, read through the
   process-wide source memo, so every model shares one result per source);
3. turn the evidence into a verdict using the per-(model, strategy)
   :class:`~repro.llm.behavior.BehaviorProfile` and a deterministic
   pseudo-random draw keyed by (model, strategy, code);
4. render a natural-language / JSON response
   (:mod:`repro.llm.responses`), occasionally breaking the requested format
   as the real models do.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Type

from repro.llm.base import LanguageModel
from repro.llm.behavior import (
    BehaviorProfile,
    deterministic_uniform,
    profile_for,
    simulated_latency,
)
from repro.llm.features import CodeFeatures, extract_code_from_prompt, source_unit
from repro.llm.responses import (
    render_analysis_response,
    render_detection_response,
    render_pairs_response,
)
from repro.prompting.strategy import PromptStrategy

__all__ = [
    "SimulatedChatModel",
    "GPT35TurboSim",
    "GPT4Sim",
    "Llama2Sim",
    "StarChatBetaSim",
    "available_models",
    "create_model",
]


def _classify_request(prompt: str) -> PromptStrategy:
    """Infer which prompt template produced this request.

    The simulated models key their behaviour on the *shape* of the request,
    mirroring how differently the real models respond to the different
    prompt styles.
    """
    text = prompt.lower()
    if "analyze data dependence in the given code" in text:
        return PromptStrategy.AP2  # chain 1
    if "based on the given data dependence information" in text:
        return PromptStrategy.AP2  # chain 2
    if "variable_names" in text:
        return PromptStrategy.ADVANCED
    if '"name"' in text and "json" in text:
        return PromptStrategy.BP2
    if "data dependence" in text or "it's crucial to analyze" in text:
        return PromptStrategy.AP1
    return PromptStrategy.BP1


def _is_analysis_request(prompt: str) -> bool:
    text = prompt.lower()
    return (
        "analyze data dependence in the given code" in text
        and "begin with a concise response" not in text
    )


class SimulatedChatModel(LanguageModel):
    """Base class for the simulated chat models."""

    #: Model identifier reported in tables.
    name = "simulated"
    #: Short label used in the paper's tables ("GPT3", "Llama", ...).
    table_label = "SIM"
    context_window = 4096

    def __init__(
        self,
        *,
        calibrated: bool = True,
        latency_s: float = 0.0,
        latency_jitter_s: float = 0.0,
    ) -> None:
        self.calibrated = calibrated
        #: Simulated per-call latency.  The real models sit behind network
        #: APIs, so a call is dominated by I/O wait; setting this lets the
        #: throughput benchmarks exercise that regime (threads overlap the
        #: sleep exactly as they would overlap network time).  It never
        #: affects the response content.
        self.latency_s = latency_s
        #: Extra per-call latency in ``[0, latency_jitter_s)``, drawn
        #: *deterministically* from the prompt text — two calls with the
        #: same prompt sleep identically, so benchmarks comparing two
        #: schedules over the same requests stay an apples-to-apples
        #: comparison while still exercising non-uniform call times.
        self.latency_jitter_s = latency_jitter_s

    # -- internals ----------------------------------------------------------------

    def _features(self, code: str) -> CodeFeatures:
        return source_unit(code).features

    def _profile(self, strategy: PromptStrategy) -> BehaviorProfile:
        return profile_for(self.name, strategy)

    def _decide(self, strategy: PromptStrategy, code: str, features: CodeFeatures) -> bool:
        """Turn heuristic evidence into a yes/no verdict."""
        if not self.calibrated:
            return features.heuristic_race
        profile = self._profile(strategy)
        p_yes = (
            profile.p_yes_given_evidence
            if features.heuristic_race
            else profile.p_yes_given_no_evidence
        )
        draw = deterministic_uniform(self.name, strategy.value, "verdict", code)
        return draw < p_yes

    def _pair_to_report(
        self, strategy: PromptStrategy, code: str, features: CodeFeatures
    ):
        """Choose the variable pair the model reports (possibly a wrong one)."""
        profile = self._profile(strategy)
        draw = deterministic_uniform(self.name, strategy.value, "pair", code)
        faithful = draw < profile.pair_fidelity and len(features.predicted_pairs) >= 2
        if faithful:
            return features.predicted_pairs[0], features.predicted_pairs[1]
        # Fabricated pair: a plausible-looking but analysis-free guess.
        guess_line = 1 + int(deterministic_uniform(self.name, "guessline", code) * 20)
        return (
            ("i", guess_line, 1, "W"),
            ("i", guess_line, 1, "R"),
        )

    # -- public API ---------------------------------------------------------------

    @property
    def cache_identity(self) -> str:
        # An uncalibrated instance answers differently from the calibrated
        # default, so it must not share cached responses with it.
        return self.name if self.calibrated else f"{self.name}#uncalibrated"

    def score(self, code: str) -> float:
        """The model's internal probability that ``code`` has a data race.

        Exposed for the fine-tuning wrapper, which blends this base score
        with the trained adapter's score.
        """
        features = self._features(code)
        profile = self._profile(PromptStrategy.BP1)
        return (
            profile.p_yes_given_evidence
            if features.heuristic_race
            else profile.p_yes_given_no_evidence
        )

    def _call_delay(self, prompt: str) -> float:
        """Simulated network latency for one call (deterministic per prompt)."""
        return simulated_latency(
            self.latency_s, self.latency_jitter_s, self.name, "latency", prompt
        )

    def generate(self, prompt: str) -> str:
        delay = self._call_delay(prompt)
        if delay > 0:
            time.sleep(delay)
        return self._respond(prompt)

    async def generate_async(self, prompt: str) -> str:
        """Natively-async call: the simulated latency awaits on the loop.

        Only the I/O wait is asynchronous — ``asyncio.sleep`` stands in for
        a real client awaiting its HTTP response — so thousands of calls
        can be in flight on one event loop.  The response itself is the
        same deterministic function of the prompt as :meth:`generate`.
        """
        import asyncio  # loaded only by the async paths, not on import

        delay = self._call_delay(prompt)
        if delay > 0:
            await asyncio.sleep(delay)
        return self._respond(prompt)

    # generate_batch_async needs no override: the LanguageModel default
    # sees the native generate_async and gathers it, so every call's
    # latency overlaps in one event-loop pass.

    def _respond(self, prompt: str) -> str:
        """The pure-compute response (no latency): shared by sync and async."""
        code = extract_code_from_prompt(prompt)
        features = self._features(code)
        if _is_analysis_request(prompt):
            return render_analysis_response(features)
        strategy = _classify_request(prompt)
        verdict = self._decide(strategy, code, features)
        if strategy.requests_pairs:
            profile = self._profile(strategy)
            well_formed = (
                deterministic_uniform(self.name, strategy.value, "format", code)
                < profile.format_fidelity
            )
            pair = self._pair_to_report(strategy, code, features) if verdict else None
            return render_pairs_response(
                verdict, pair, well_formed=well_formed,
                word_ops=strategy is PromptStrategy.ADVANCED,
            )
        return render_detection_response(verdict, features)


class GPT35TurboSim(SimulatedChatModel):
    """Simulated GPT-3.5-turbo (16k context in the paper)."""

    name = "gpt-3.5-turbo"
    table_label = "GPT3"
    context_window = 16384


class GPT4Sim(SimulatedChatModel):
    """Simulated GPT-4 — the strongest pre-trained model in the paper."""

    name = "gpt-4"
    table_label = "GPT4"
    context_window = 8192


class Llama2Sim(SimulatedChatModel):
    """Simulated Llama2-7b."""

    name = "llama2-7b"
    table_label = "Llama"
    context_window = 4096


class StarChatBetaSim(SimulatedChatModel):
    """Simulated StarChat-beta (16B parameters in the paper)."""

    name = "starchat-beta"
    table_label = "StarChat"
    context_window = 8192


_MODEL_REGISTRY: Dict[str, Type[SimulatedChatModel]] = {
    cls.name: cls for cls in (GPT35TurboSim, GPT4Sim, Llama2Sim, StarChatBetaSim)
}


def available_models() -> List[str]:
    """Names of every model in the zoo (paper §3.2 order)."""
    return ["gpt-3.5-turbo", "gpt-4", "starchat-beta", "llama2-7b"]


def create_model(
    name: str,
    *,
    calibrated: bool = True,
    latency_s: float = 0.0,
    latency_jitter_s: float = 0.0,
) -> SimulatedChatModel:
    """Instantiate a zoo model by name."""
    try:
        cls = _MODEL_REGISTRY[name]
    except KeyError as exc:
        raise KeyError(f"unknown model {name!r}; available: {sorted(_MODEL_REGISTRY)}") from exc
    return cls(calibrated=calibrated, latency_s=latency_s, latency_jitter_s=latency_jitter_s)
