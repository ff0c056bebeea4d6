"""Configuration of the end-to-end pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.corpus.generator import CorpusConfig
from repro.dataset.tokenizer import DEFAULT_TOKEN_LIMIT
from repro.prompting.strategy import PromptStrategy

__all__ = ["PipelineConfig"]


@dataclass(frozen=True)
class PipelineConfig:
    """What the pipeline evaluates; how it executes is the engine's business.

    Execution settings (executor, jobs, cache, cascade, speculation,
    retries, deadline, journal, stream window) are
    :class:`~repro.engine.core.ExecutionEngine` parameters: build an engine
    and pass it as ``DataRacePipeline(config, engine=engine)``.

    Attributes
    ----------
    corpus:
        Corpus generation configuration (seed, shuffling).
    token_limit:
        Prompt budget for the evaluation subset (paper §3.2 uses 4k).
    default_strategy:
        Prompt strategy used by :meth:`DataRacePipeline.detect` when none is
        given.
    default_model:
        Model used when none is given (GPT-4 is the paper's strongest).
    n_folds, fold_seed:
        Cross-validation layout (paper §3.5 uses 5 stratified folds).
    stream:
        Score through the bounded-memory streaming path: request
        construction stays lazy and the engine plans and dispatches in
        windows of its ``stream_window`` requests
        (``ExecutionEngine.run_streaming_counts``), so peak RSS is
        O(window) instead of O(corpus).  Results are identical either way.
    """

    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    token_limit: int = DEFAULT_TOKEN_LIMIT
    default_strategy: PromptStrategy = PromptStrategy.BP1
    default_model: str = "gpt-4"
    n_folds: int = 5
    fold_seed: int = 7
    stream: bool = False
