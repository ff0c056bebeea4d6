"""Tiered detection cascade: confidence-routed cheap-tier-first scoring.

Every record today can be answered by four very differently priced
detectors: the static race analyzer (microseconds), the dynamic inspector
(milliseconds), a fast zoo model, and the expensive LLM the experiment
actually asks for.  The cascade routes each record through an ordered
ladder of *cheap* tiers first and escalates only the records whose tier
verdict is low-confidence or where tiers disagree; everything still
unresolved lands on the request's own model — the implicit final tier —
so a full escalation is behaviourally identical to an LLM-only run.

Composition, not reimplementation: the router re-emits each tier's
requests through the engine's existing ``_execute_plain`` seam, so LPT
ordering, adaptive chunk sizing, speculation and retries, the
response cache and streaming windows all apply per tier unchanged.  Tier adapters are ordinary :class:`~repro.llm.base.LanguageModel`
objects (``repro.llm.adapters``) with their own ``cache_identity`` keys,
so the :class:`~repro.engine.costmodel.CostModel` prices them like any
model, and their ``cost_prior_s`` attribute feeds the cold-start prior
(:meth:`CostModel.set_prior`) so an unobserved tier never blocks LPT.

Escalation rules (per record, per tier)
---------------------------------------
* resolve at a cheap tier only when the tier actually answered
  (not failed), its confidence clears ``escalate_below``, and its verdict
  does not disagree with a confident verdict from an earlier tier;
* otherwise escalate, remembering the verdict (when non-degenerate) for
  the disagreement check at the next tier;
* the final tier always resolves.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.requests import DetectionRequest, RunResult
from repro.llm.base import LanguageModel

__all__ = [
    "DEFAULT_CASCADE_TIERS",
    "DEFAULT_ESCALATE_BELOW",
    "CascadePolicy",
    "CascadeRouter",
    "CascadeTier",
    "build_tier_model",
]

#: Default tier ladder: the static analyzer in front of a fast zoo model.
DEFAULT_CASCADE_TIERS = "static,gpt-3.5-turbo"

#: Default confidence threshold below which a tier verdict escalates.
#: Calibrated against the static tier's diagnostic engine: per-rule race
#: confidences (0.78-0.90) and proof-backed clean confidences (>= 0.80)
#: clear it, while parse failures (0.0) and degenerate no-access reports
#: (0.5) escalate.
DEFAULT_ESCALATE_BELOW = 0.75

#: Telemetry label for the implicit final tier (the request's own model).
FINAL_TIER = "final"


def build_tier_model(name: str) -> LanguageModel:
    """Resolve one tier-spec token to a model.

    ``static`` and ``inspector``/``dynamic`` name the detector tier
    adapters; anything else resolves through the zoo's ``create_model``
    (which raises ``KeyError`` with the available names on a typo).
    """
    # Imported lazily: the adapters pull in numpy and the full detector
    # stack, which engine modules must not pay for at import time.
    if name == "static":
        from repro.llm.adapters import StaticAnalyzerModel

        return StaticAnalyzerModel()
    if name in ("inspector", "dynamic"):
        from repro.llm.adapters import InspectorTierModel

        return InspectorTierModel()
    from repro.llm.zoo import create_model

    return create_model(name)


@dataclass(frozen=True)
class CascadeTier:
    """One rung of the ladder: a display name plus the model that answers."""

    name: str
    model: LanguageModel


@dataclass(frozen=True)
class CascadePolicy:
    """The cheap-tier ladder plus the escalation threshold.

    ``tiers`` holds only the *cheap* tiers, cheapest first; the request's
    own model is always the implicit final tier.  ``escalate_below`` is
    the confidence a cheap-tier verdict must reach to resolve a record.
    """

    tiers: Tuple[CascadeTier, ...]
    escalate_below: float = DEFAULT_ESCALATE_BELOW

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("a cascade needs at least one cheap tier")
        if not 0.0 <= self.escalate_below <= 1.0:
            raise ValueError("escalate_below must be in [0, 1]")
        names = [tier.name for tier in self.tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate cascade tiers: {names}")

    @classmethod
    def from_spec(
        cls,
        spec: str = DEFAULT_CASCADE_TIERS,
        *,
        escalate_below: float = DEFAULT_ESCALATE_BELOW,
    ) -> "CascadePolicy":
        """Parse a comma-separated tier spec like ``"static,gpt-3.5-turbo"``."""
        names = [part.strip() for part in spec.split(",") if part.strip()]
        if not names:
            raise ValueError(f"empty cascade tier spec: {spec!r}")
        tiers = tuple(CascadeTier(name=name, model=build_tier_model(name)) for name in names)
        return cls(tiers=tiers, escalate_below=escalate_below)

    def fallback_model(self, model: LanguageModel) -> Optional[LanguageModel]:
        """The next cheaper tier below ``model``, for breaker reroutes.

        While tier *k*'s circuit breaker is open its chunks route to tier
        *k-1*; a chunk of the implicit final tier (any model not on the
        ladder) routes to the most capable cheap tier.  Tier 0 has nothing
        cheaper: ``None``.
        """
        identity = getattr(model, "cache_identity", None) or getattr(model, "name", None)
        for position, tier in enumerate(self.tiers):
            tier_identity = getattr(tier.model, "cache_identity", tier.model.name)
            if tier_identity == identity:
                return self.tiers[position - 1].model if position > 0 else None
        return self.tiers[-1].model


class CascadeRouter:
    """Routes one materialised batch of requests down the tier ladder.

    The router owns *which* requests each tier sees; *how* a tier's batch
    executes stays entirely with the engine — the ``execute_batch``
    callable is the engine's plain indexed executor, so every scheduling
    feature composes per tier.
    """

    def __init__(self, policy: CascadePolicy, telemetry=None) -> None:
        self.policy = policy
        self.telemetry = telemetry

    def execute(
        self,
        indexed: Sequence[Tuple[int, DetectionRequest]],
        execute_batch: Callable,
    ) -> List[Optional[RunResult]]:
        """Run ``indexed`` through the ladder; same contract as the executor.

        ``indexed`` positions must be ``0..len-1`` (the engine's result-slot
        convention).  Returns the results in that order.
        """
        results: List[Optional[RunResult]] = [None] * len(indexed)
        active: List[Tuple[int, DetectionRequest]] = list(indexed)
        previous_verdict: Dict[int, bool] = {}
        threshold = self.policy.escalate_below

        for tier in self.policy.tiers:
            if not active:
                break
            sub_batch = [
                (position, dataclasses.replace(request, model=tier.model))
                for position, (_slot, request) in enumerate(active)
            ]
            tier_results = execute_batch(sub_batch)
            escalated: List[Tuple[int, DetectionRequest]] = []
            resolved = labeled = correct = 0
            for position, (slot, request) in enumerate(active):
                result = tier_results[position]
                if self._resolves(result, previous_verdict.get(slot), threshold):
                    results[slot] = result
                    resolved += 1
                    labeled += 1
                    if result.prediction == bool(request.record.has_race):
                        correct += 1
                else:
                    if result is not None and (result.confidence or 0.0) > 0.0:
                        previous_verdict[slot] = result.prediction
                    escalated.append((slot, request))
            if self.telemetry is not None:
                self.telemetry.record_cascade(
                    tier.name,
                    requests=len(active),
                    resolved=resolved,
                    escalated=len(escalated),
                    labeled=labeled,
                    correct=correct,
                )
            active = escalated

        if active:
            sub_batch = [
                (position, request) for position, (_slot, request) in enumerate(active)
            ]
            final_results = execute_batch(sub_batch)
            labeled = correct = 0
            for position, (slot, request) in enumerate(active):
                result = final_results[position]
                results[slot] = result
                if result is not None and not result.failed:
                    labeled += 1
                    if result.prediction == bool(request.record.has_race):
                        correct += 1
            if self.telemetry is not None:
                self.telemetry.record_cascade(
                    FINAL_TIER,
                    requests=len(active),
                    resolved=len(active),
                    escalated=0,
                    labeled=labeled,
                    correct=correct,
                )
        return results

    @staticmethod
    def _resolves(
        result: Optional[RunResult], previous: Optional[bool], threshold: float
    ) -> bool:
        if result is None or result.failed:
            return False
        confidence = result.confidence if result.confidence is not None else 0.0
        if confidence < threshold:
            return False
        if previous is not None and result.prediction != previous:
            return False
        return True
