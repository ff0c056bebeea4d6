"""Code feature extraction shared by the simulated models and fine-tuning.

Two kinds of features are produced:

* :class:`CodeFeatures` — the structural evidence a simulated model reasons
  about: did its internal static analysis find conflicting accesses, which
  variable pairs, what synchronization is present;
* :func:`hashed_ngram_vector` — the bag-of-n-grams vector the fine-tuning
  adapter trains on.

Both functions are pure and uncached.  The models and the fine-tuner read
them through :func:`source_unit` instead: one process-wide memo of
:class:`SourceUnit` entries keyed on the sha256 of the source text, so a
source that four models, five prompt strategies and twenty adapter fits
all see is featurised once per process.  A unit retains only the finished
products — the default-detector :class:`CodeFeatures` and one read-only
n-gram vector per ``(dim, ngram)`` — never tokens or ASTs.  The memo is one
least-recently-used map under a lock, bounded at
:data:`SOURCE_MEMO_MAX_BYTES` of estimated size (source length, plus each
vector's ``nbytes``, plus :data:`FEATURES_ENTRY_BYTES` per features entry).
Every process has its own memo, so each process-pool worker featurises a
source it has not seen once more.  A caller that needs another detector
calls :func:`extract_features` with ``detector=`` and bypasses the memo.
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.static_race import StaticRaceDetector, StaticRaceReport
from repro.cparse.lexer import LexError
from repro.cparse.parser import ParseError
from repro.cparse.pragma import PragmaError
from repro.dataset.tokenizer import CodeTokenizer
from repro.dynamic.limits import InterpreterError

__all__ = [
    "PROGRAM_ERRORS",
    "CodeFeatures",
    "SourceUnit",
    "extract_code_from_prompt",
    "extract_features",
    "hashed_ngram_vector",
    "source_unit",
]

#: The typed errors a malformed program raises from the lexer, parser,
#: pragma parser or interpreter.  Verdict code turns these, and nothing
#: else, into "could not analyse": any other exception is a bug and must
#: propagate instead of silently changing a verdict.
PROGRAM_ERRORS = (LexError, ParseError, PragmaError, InterpreterError)

_CODE_START_RE = re.compile(r"^\s*(#include|int\s+main|void\s+main)", re.MULTILINE)

#: The operators of a compound update (``x += ...``, ``a[i] -= ...``,
#: ``s *= ...``); see :func:`_has_compound_update`.
_COMPOUND_OP = re.compile(r"[-+*]=")

#: Shared tokenizer instance.  :class:`CodeTokenizer` is a frozen, stateless
#: dataclass, and :func:`hashed_ngram_vector` sits in a hot loop (the
#: fine-tuning cross-validation featurises every prompt of every fold).
_TOKENIZER = CodeTokenizer()


def _has_compound_update(code: str) -> bool:
    r"""Whether ``code`` has a word character, then blanks, then ``+=``,
    ``-=`` or ``*=``: ``re.search(r"\w\s*(?:\+=|-=|\*=)", code)``.

    The scan starts from each operator, which is rare, and looks back past
    blanks to one character, instead of trying the pattern at every word
    character of the source.  ``str.isspace`` and ``str.isalnum`` are the
    character classes ``\s`` and ``\w`` (less ``_``) of ``re``.
    """
    for match in _COMPOUND_OP.finditer(code):
        before = match.start() - 1
        while before >= 0 and code[before].isspace():
            before -= 1
        if before >= 0 and (code[before].isalnum() or code[before] == "_"):
            return True
    return False


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


@dataclass(frozen=True)
class CodeFeatures:
    """Structural evidence extracted from one code snippet.

    Frozen, with tuple fields, because the source memo hands one instance
    to every model that sees the snippet.
    """

    parses: bool
    heuristic_race: bool
    predicted_pairs: Tuple[Tuple[str, int, int, str], ...] = ()
    has_parallel_pragma: bool = False
    has_reduction_clause: bool = False
    has_critical: bool = False
    has_atomic: bool = False
    has_lock_calls: bool = False
    has_barrier: bool = False
    has_task: bool = False
    has_simd: bool = False
    shared_compound_update: bool = False
    # Structured evidence from the static analyzer's diagnostic engine:
    # which DRD-* rules fired and the report's calibrated self-assessment.
    static_rule_ids: Tuple[str, ...] = ()
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
    lexical = dict(
        has_parallel_pragma="#pragma omp" in code and "parallel" in code,
        has_reduction_clause="reduction(" in code.replace(" ", ""),
        has_critical="critical" in code,
        has_atomic="atomic" in code,
        has_lock_calls="omp_set_lock" in code,
        has_barrier="barrier" in code,
        has_task="omp task" in code or "sections" in code,
        has_simd="simd" in code,
        shared_compound_update=_has_compound_update(code),
    )
    try:
        report: StaticRaceReport = detector.analyze_source(code)
    except PROGRAM_ERRORS:
        return CodeFeatures(parses=False, heuristic_race=False, **lexical)
    rule_ids = []
    for diagnostic in report.diagnostics:
        if diagnostic.rule_id not in rule_ids:
            rule_ids.append(diagnostic.rule_id)
    pairs = []
    for pair in report.pairs:
        for access in (pair.first, pair.second):
            pairs.append((access.expr_text, access.line, access.col, access.operation))
    return CodeFeatures(
        parses=True,
        heuristic_race=report.has_race,
        predicted_pairs=tuple(pairs),
        static_rule_ids=tuple(rule_ids),
        static_confidence=report.confidence,
        **lexical,
    )


def hashed_ngram_vector(code: str, *, dim: int = 512, ngram: int = 2) -> np.ndarray:
    """Bag-of-hashed-n-grams feature vector used by the fine-tuning adapter.

    Tokens come from the word-piece tokenizer; unigrams up to ``ngram``-grams
    are hashed into ``dim`` buckets, and the vector is L2-normalised so the
    logistic adapter's learning rate is scale independent.
    """
    tokens = _TOKENIZER.tokenize(code)
    grams: Counter = Counter()
    for order in range(1, ngram + 1):
        grams.update(map(" ".join, zip(*(tokens[start:] for start in range(order)))))
    # Each distinct gram is hashed once and adds its count: the counts are
    # small integers, so float64 sums them exactly, in any order.
    vector = np.zeros(dim, dtype=np.float64)
    for gram, count in grams.items():
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
        vector[int.from_bytes(digest, "little") % dim] += count
    norm = np.linalg.norm(vector)
    if norm > 0:
        vector /= norm
    return vector


#: Byte budget of the process-wide source memo.  The paper's tables touch
#: ~200 sources at ~7 KB each (source, features, one 512-dim vector).
SOURCE_MEMO_MAX_BYTES = 8 * 1024 * 1024

#: What one memo'd :class:`CodeFeatures` is charged: the corpus's largest
#: measures ~3.7 KB deep, its median ~1.8 KB.
FEATURES_ENTRY_BYTES = 2048


class SourceUnit:
    """One distinct source text and its lazily computed, shared products.

    Obtain units from :func:`source_unit`; the products are computed on
    first use, outside the memo lock, and the first result stored wins.
    """

    __slots__ = ("code", "key", "nbytes", "_features", "_vectors")

    def __init__(self, code: str, key: bytes) -> None:
        self.code = code
        self.key = key
        #: The unit's charge against :data:`SOURCE_MEMO_MAX_BYTES`.
        self.nbytes = 0
        self._features: Optional[CodeFeatures] = None
        self._vectors: Dict[Tuple[int, int], np.ndarray] = {}

    @property
    def features(self) -> CodeFeatures:
        """:func:`extract_features` of the source, default detector."""
        if self._features is None:
            computed = extract_features(self.code)
            with _MEMO.lock:
                if self._features is None:
                    self._features = computed
                    _MEMO.charge(self, FEATURES_ENTRY_BYTES)
        return self._features

    def ngram_vector(self, dim: int = 512, ngram: int = 2) -> np.ndarray:
        """Read-only :func:`hashed_ngram_vector` of the source."""
        vector = self._vectors.get((dim, ngram))
        if vector is None:
            computed = hashed_ngram_vector(self.code, dim=dim, ngram=ngram)
            computed.setflags(write=False)
            with _MEMO.lock:
                vector = self._vectors.setdefault((dim, ngram), computed)
                if vector is computed:
                    _MEMO.charge(self, computed.nbytes)
        return vector


class _SourceMemo:
    """The LRU map behind :func:`source_unit`; callers hold ``lock``."""

    def __init__(self, max_bytes: int) -> None:
        self.lock = threading.Lock()
        self.max_bytes = max_bytes
        self.nbytes = 0
        self.units: "OrderedDict[bytes, SourceUnit]" = OrderedDict()

    def charge(self, unit: SourceUnit, nbytes: int) -> None:
        """Add ``nbytes`` to ``unit``; evict least recently used units."""
        unit.nbytes += nbytes
        if self.units.get(unit.key) is not unit:
            return  # already evicted: its products live on with its holders
        self.nbytes += nbytes
        while self.nbytes > self.max_bytes:
            _key, evicted = self.units.popitem(last=False)
            self.nbytes -= evicted.nbytes


_MEMO = _SourceMemo(SOURCE_MEMO_MAX_BYTES)
# A child forked while another thread held the lock would inherit it held.
os.register_at_fork(after_in_child=lambda: setattr(_MEMO, "lock", threading.Lock()))


def source_unit(code: str) -> SourceUnit:
    """The process-wide memo entry for ``code`` (created on first sight)."""
    key = hashlib.sha256(code.encode("utf-8")).digest()
    with _MEMO.lock:
        unit = _MEMO.units.get(key)
        if unit is not None:
            _MEMO.units.move_to_end(key)
            return unit
        unit = _MEMO.units[key] = SourceUnit(code, key)
        _MEMO.charge(unit, len(code))
    return unit
