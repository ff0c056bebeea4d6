"""Sequential prompt chains (the AP2 chain-of-thought strategy).

AP2 issues two chat calls: the first asks for a data-dependence analysis of
the code, the second feeds that analysis back together with the data-race
definition and asks for the yes/no verdict (paper Listing 7; the original
implementation used LangChain's ``SequentialChain``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List, Sequence

from repro.prompting.strategy import PromptStrategy
from repro.prompting.templates import (
    AP2_CHAIN1_TEMPLATE,
    AP2_CHAIN2_TEMPLATE,
    render_prompt,
)

__all__ = [
    "ChainStep",
    "SequentialChain",
    "run_strategy",
    "strategy_batch_phases",
]

#: A language model is anything that maps a prompt string to a response string.
GenerateFn = Callable[[str], str]


@dataclass(frozen=True)
class ChainStep:
    """One step of a sequential chain: a prompt built from prior outputs."""

    name: str
    build_prompt: Callable[[dict], str]


class SequentialChain:
    """Minimal LangChain-style sequential chain.

    Each step receives the accumulated context dictionary (the original
    inputs plus every earlier step's output under its step name) and produces
    a prompt; the model's response is stored back under the step's name.
    """

    def __init__(self, steps: Sequence[ChainStep]) -> None:
        if not steps:
            raise ValueError("a chain needs at least one step")
        self.steps = list(steps)

    def run(self, generate: GenerateFn, inputs: dict) -> dict:
        """Run every step in order, returning the final context dictionary."""
        context = dict(inputs)
        for step in self.steps:
            prompt = step.build_prompt(context)
            context[step.name] = generate(prompt)
        return context


def ap2_chain() -> SequentialChain:
    """The two-step AP2 chain (dependence analysis, then detection)."""
    return SequentialChain(
        [
            ChainStep(
                name="analysis",
                build_prompt=lambda ctx: AP2_CHAIN1_TEMPLATE.format(code=ctx["code"]),
            ),
            ChainStep(
                name="verdict",
                build_prompt=lambda ctx: AP2_CHAIN2_TEMPLATE.format(
                    code=ctx["code"], analysis=ctx["analysis"]
                ),
            ),
        ]
    )


def run_strategy(generate: GenerateFn, strategy: PromptStrategy, code: str) -> str:
    """Run a prompt strategy end to end and return the final response text."""
    if strategy is PromptStrategy.AP2:
        context = ap2_chain().run(generate, {"code": code})
        return context["verdict"]
    prompt = render_prompt(strategy, code)
    return generate(prompt)


def _ap2_phase1_prompts(codes: Sequence[str]) -> List[str]:
    """The AP2 chain's dependence-analysis prompts, one per snippet."""
    return [AP2_CHAIN1_TEMPLATE.format(code=code) for code in codes]


def _ap2_phase2_prompts(codes: Sequence[str], analyses: Sequence[str]) -> List[str]:
    """The AP2 chain's verdict prompts, embedding each snippet's analysis."""
    return [
        AP2_CHAIN2_TEMPLATE.format(code=code, analysis=analysis)
        for code, analysis in zip(codes, analyses)
    ]


def _plain_prompts(strategy: PromptStrategy, codes: Sequence[str]) -> List[str]:
    """Single-phase strategies: one rendered prompt per snippet."""
    return [render_prompt(strategy, code) for code in codes]


def strategy_batch_phases(
    strategy: PromptStrategy, codes: Sequence[str]
) -> Generator[List[str], List[str], List[str]]:
    """A prompt strategy over many snippets, as batched phases.

    Yields each phase's prompt list and receives that phase's responses in
    the same order; returns the final responses.  Prompt construction is
    identical to :func:`run_strategy`, so for a deterministic model the
    i-th final response equals ``run_strategy(generate, strategy,
    codes[i])``.  The AP2 chain is two sequential phases: all
    dependence-analysis prompts first, then all verdict prompts built from
    the per-snippet analyses.  The generator does no I/O, so blocking and
    awaiting callers drive the same phases.
    """
    if strategy is PromptStrategy.AP2:
        analyses = yield _ap2_phase1_prompts(codes)
        return (yield _ap2_phase2_prompts(codes, analyses))
    return (yield _plain_prompts(strategy, codes))
