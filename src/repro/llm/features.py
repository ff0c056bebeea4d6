"""Code feature extraction shared by the simulated models and fine-tuning.

Two kinds of features are produced:

* :class:`CodeFeatures` — the structural evidence a simulated model reasons
  about: did its internal static analysis find conflicting accesses, which
  variable pairs, what synchronization is present;
* :func:`hashed_ngram_vector` — the bag-of-n-grams vector the fine-tuning
  adapter trains on.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.static_race import StaticRaceDetector, StaticRaceReport
from repro.cparse.lexer import LexError
from repro.cparse.parser import ParseError
from repro.cparse.pragma import PragmaError
from repro.dataset.tokenizer import CodeTokenizer
from repro.dynamic.interpreter import InterpreterError

__all__ = [
    "PROGRAM_ERRORS",
    "CodeFeatures",
    "extract_code_from_prompt",
    "extract_features",
    "hashed_ngram_vector",
]

#: The typed errors a malformed program raises from the lexer, parser,
#: pragma parser or interpreter.  Verdict code turns these, and nothing
#: else, into "could not analyse": any other exception is a bug and must
#: propagate instead of silently changing a verdict.
PROGRAM_ERRORS = (LexError, ParseError, PragmaError, InterpreterError)

_CODE_START_RE = re.compile(r"^\s*(#include|int\s+main|void\s+main)", re.MULTILINE)

#: Shared tokenizer instance.  :class:`CodeTokenizer` is a frozen, stateless
#: dataclass, and both :func:`extract_features` and :func:`hashed_ngram_vector`
#: sit in hot loops (the fine-tuning cross-validation featurises every prompt
#: of every fold) — constructing a fresh tokenizer per call was pure waste.
_TOKENIZER = CodeTokenizer()


def extract_code_from_prompt(prompt: str) -> str:
    """Pull the C code snippet out of a detection prompt.

    The prompt templates place the code after the instructions, so the code
    is taken from the first ``#include`` / ``int main`` line onwards.  When no
    code marker is found the whole prompt is returned (the heuristic then
    simply sees extra natural-language tokens).
    """
    match = _CODE_START_RE.search(prompt)
    if match is None:
        return prompt
    # Slice from the directive/definition itself (group 1), not from the
    # ``^\s*`` anchor — the anchor may sit on the preceding blank line, which
    # would shift every line number of the extracted snippet by one.
    return prompt[match.start(1) :]


@dataclass
class CodeFeatures:
    """Structural evidence extracted from one code snippet."""

    parses: bool
    heuristic_race: bool
    predicted_pairs: List[Tuple[str, int, int, str]] = field(default_factory=list)
    has_parallel_pragma: bool = False
    has_reduction_clause: bool = False
    has_critical: bool = False
    has_atomic: bool = False
    has_lock_calls: bool = False
    has_barrier: bool = False
    has_task: bool = False
    has_simd: bool = False
    shared_compound_update: bool = False
    token_count: int = 0
    # Structured evidence from the static analyzer's diagnostic engine:
    # which DRD-* rules fired and the report's calibrated self-assessment.
    static_rule_ids: List[str] = field(default_factory=list)
    static_confidence: float = 0.5

    @property
    def synchronization_score(self) -> int:
        """How much explicit synchronization the snippet contains."""
        return sum(
            [
                self.has_reduction_clause,
                self.has_critical,
                self.has_atomic,
                self.has_lock_calls,
                self.has_barrier,
            ]
        )


def extract_features(code: str, *, detector: Optional[StaticRaceDetector] = None) -> CodeFeatures:
    """Extract :class:`CodeFeatures` from C source text.

    The static detector provides the main evidence (conflicting access
    pairs); lexical scans provide the synchronization context.  Parse
    failures degrade gracefully to lexical-only features with a conservative
    "no race found" heuristic.
    """
    detector = detector or StaticRaceDetector()
    lowered = code
    features = CodeFeatures(
        parses=True,
        heuristic_race=False,
        has_parallel_pragma="#pragma omp" in lowered and "parallel" in lowered,
        has_reduction_clause="reduction(" in lowered.replace(" ", ""),
        has_critical="critical" in lowered,
        has_atomic="atomic" in lowered,
        has_lock_calls="omp_set_lock" in lowered,
        has_barrier="barrier" in lowered,
        has_task="omp task" in lowered or "sections" in lowered,
        has_simd="simd" in lowered,
        shared_compound_update=bool(re.search(r"\w+\s*(\+=|-=|\*=)", lowered)),
        token_count=_TOKENIZER.count(code),
    )
    try:
        report: StaticRaceReport = detector.analyze_source(code)
    except PROGRAM_ERRORS:
        features.parses = False
        return features
    features.heuristic_race = report.has_race
    features.static_confidence = report.confidence
    for diagnostic in report.diagnostics:
        if diagnostic.rule_id not in features.static_rule_ids:
            features.static_rule_ids.append(diagnostic.rule_id)
    for pair in report.pairs:
        features.predicted_pairs.append(
            (pair.first.expr_text, pair.first.line, pair.first.col, pair.first.operation)
        )
        features.predicted_pairs.append(
            (pair.second.expr_text, pair.second.line, pair.second.col, pair.second.operation)
        )
    return features


def hashed_ngram_vector(code: str, *, dim: int = 512, ngram: int = 2) -> np.ndarray:
    """Bag-of-hashed-n-grams feature vector used by the fine-tuning adapter.

    Tokens come from the word-piece tokenizer; unigrams up to ``ngram``-grams
    are hashed into ``dim`` buckets, and the vector is L2-normalised so the
    logistic adapter's learning rate is scale independent.
    """
    tokens = _TOKENIZER.tokenize(code)
    vector = np.zeros(dim, dtype=np.float64)
    for order in range(1, ngram + 1):
        for start in range(0, max(0, len(tokens) - order + 1)):
            gram = " ".join(tokens[start : start + order])
            digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
            bucket = int.from_bytes(digest, "little") % dim
            vector[bucket] += 1.0
    norm = np.linalg.norm(vector)
    if norm > 0:
        vector /= norm
    return vector
