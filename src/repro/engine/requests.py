"""Request and result types for the execution engine.

A :class:`DetectionRequest` names one unit of evaluation work: ask *model*
about *record* under *strategy*, then score the response under one of the
scoring modes the paper's tables use.  Scoring — response parsing plus the
truth/prediction bookkeeping that feeds :class:`ConfusionCounts` — lives
here and nowhere else; the pipeline, the experiment drivers and the
cross-validation loop all assemble their confusion counts through
:func:`score_response` / :meth:`RunResultStore.confusion`.

Scoring modes
-------------

``"detection"``
    Yes/no detection (Tables 2–4): parse a yes/no verdict, treating an
    unparseable response as "no race".
``"pairs"``
    Variable identification (Tables 5–6): parse the structured pair
    response; when the model omits an explicit verdict, the presence of
    reported pairs counts as a positive.  A positive on a racy record is a
    true positive only when the reported pair is correct (paper §3.6).
``"pairs-strict"``
    Like ``"pairs"`` but an absent verdict counts as "no race" — the
    :meth:`DataRacePipeline.score_model` semantics.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from repro.eval.matching import pairs_correct
from repro.eval.metrics import ConfusionCounts
from repro.llm.base import LanguageModel
from repro.prompting.parsing import ParsedPairs, parse_pairs_response, parse_yes_no
from repro.prompting.strategy import PromptStrategy

__all__ = [
    "CONFIDENCE_MARKER_RE",
    "FAILED_RESPONSE",
    "SCORE_MEMO_SIZE",
    "SCORING_MODES",
    "DetectionRequest",
    "RunResult",
    "RunResultStore",
    "build_requests",
    "confusion_from_results",
    "failed_result",
    "iter_requests",
    "response_confidence",
    "score_response",
]

SCORING_MODES = ("detection", "pairs", "pairs-strict")


@dataclass(frozen=True)
class DetectionRequest:
    """One evaluation unit: (model, strategy, record) plus its scoring mode.

    ``record`` is a :class:`~repro.dataset.records.DRBMLRecord` (anything
    with ``name``, ``trimmed_code`` and ``has_race`` works).
    """

    model: LanguageModel
    strategy: PromptStrategy
    record: object
    scoring: str = "detection"

    def __post_init__(self) -> None:
        if self.scoring not in SCORING_MODES:
            raise ValueError(
                f"unknown scoring mode {self.scoring!r}; expected one of {SCORING_MODES}"
            )

    @property
    def code(self) -> str:
        return self.record.trimmed_code


@dataclass
class RunResult:
    """The scored outcome of one request."""

    model: str
    strategy: str
    record_name: str
    truth: bool
    response: str
    prediction: bool
    correct_positive: bool = True
    pairs: Optional[ParsedPairs] = None
    #: True when the fault layer gave up on this request: retries were
    #: exhausted (or its model's circuit breaker was open with no cheaper
    #: cascade tier to route to), so the run completed without an answer
    #: for it.  Failures are always explicit positional entries — a fault
    #: never silently drops a request or aborts the run.
    failed: bool = False
    #: How trustworthy the verdict looks, in ``[0, 1]`` — what the cascade
    #: router keys escalation on.  An explicit ``[confidence=X]`` marker in
    #: the response (the tier adapters emit one) wins; otherwise a parse
    #: heuristic applies.  ``None`` on failed results: never evaluated.
    confidence: Optional[float] = None


#: Response sentinel carried by fault-layer give-ups (retries exhausted or
#: breaker open with nowhere to degrade to).
FAILED_RESPONSE = "[failed: model error after retries]"


def failed_result(request: DetectionRequest, error: str = "") -> RunResult:
    """An explicit failure entry for a request the fault layer gave up on.

    The prediction is the no-race fallback, the response carries a
    sentinel (plus the final error, when known), and
    :func:`confusion_from_results` excludes the entry so an outage cannot
    masquerade as a sweep of true negatives.
    """
    response = FAILED_RESPONSE if not error else f"{FAILED_RESPONSE[:-1]}: {error}]"
    return RunResult(
        model=request.model.name,
        strategy=request.strategy.value,
        record_name=request.record.name,
        truth=request.record.has_race,
        response=response,
        prediction=False,
        correct_positive=True,
        pairs=None,
        failed=True,
    )


class RunResultStore:
    """Ordered collection of results with confusion-count assembly."""

    def __init__(self, results: Optional[Iterable[RunResult]] = None) -> None:
        self.results: List[RunResult] = list(results or [])

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[RunResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> RunResult:
        return self.results[index]

    def append(self, result: RunResult) -> None:
        self.results.append(result)

    def confusion(self) -> ConfusionCounts:
        """Fold every result into TP/FP/TN/FN counts (the table layout).

        Fault-failed results are excluded: the model never answered, so
        counting their fallback "no race" as a genuine negative would let
        a backend outage silently skew reported detection metrics.  They
        stay visible on the results themselves (``failed``).
        """
        return confusion_from_results(self.results)

    def responses(self) -> List[str]:
        return [result.response for result in self.results]


def confusion_from_results(results: Iterable[RunResult]) -> ConfusionCounts:
    """Fold a result stream into confusion counts, one result at a time.

    The single implementation behind :meth:`RunResultStore.confusion`, usable
    directly on a streaming run (``engine.run_streaming``) without buffering
    the results — failed results are excluded for the reasons documented
    there.
    """
    counts = ConfusionCounts()
    for result in results:
        if result.failed:
            continue
        counts.add(
            result.truth,
            result.prediction,
            correct_positive=result.correct_positive,
        )
    return counts


def iter_requests(
    model: LanguageModel,
    strategy: PromptStrategy,
    records: Iterable,
    *,
    scoring: Optional[str] = None,
) -> Iterator[DetectionRequest]:
    """Lazily build requests for one model/strategy over a record stream.

    The streaming counterpart of :func:`build_requests`: requests are
    constructed one at a time as the consumer pulls, so composing this with
    a lazy record producer keeps residency O(1) in corpus size.
    """
    if scoring is None:
        scoring = "pairs" if strategy.requests_pairs else "detection"
    for record in records:
        yield DetectionRequest(model=model, strategy=strategy, record=record, scoring=scoring)


def build_requests(
    model: LanguageModel,
    strategy: PromptStrategy,
    records: Sequence,
    *,
    scoring: Optional[str] = None,
) -> List[DetectionRequest]:
    """Requests for one model/strategy over a record sequence.

    When ``scoring`` is omitted it follows the strategy: pair-requesting
    strategies score as ``"pairs"``, everything else as ``"detection"``.
    """
    return list(iter_requests(model, strategy, records, scoring=scoring))


#: Explicit confidence marker emitted by the cascade tier adapters; any
#: model may append one to have the router trust its own calibration.
CONFIDENCE_MARKER_RE = re.compile(r"\[confidence=([0-9]*\.?[0-9]+)\]")

_YES_WORD_RE = re.compile(r"\byes\b", re.IGNORECASE)
_NO_WORD_RE = re.compile(r"\bno\b", re.IGNORECASE)


def response_confidence(scoring: str, response: str) -> float:
    """How trustworthy a response's verdict looks, in ``[0, 1]``.

    An explicit ``[confidence=X]`` marker always wins — that is how the
    cascade's analyzer/inspector tiers report their own calibration.
    Without a marker the confidence is a parse-quality heuristic: clean
    verdicts score high, hedged answers (both yes and no present, regex
    fallback parses) score medium, unparseable responses score zero.
    Deterministic in the response text, so cached responses re-score
    identically across runs.
    """
    if scoring == "detection":
        return _confidence(scoring, response, parse_yes_no(response))
    return _confidence(scoring, response, parse_pairs_response(response))


def _confidence(scoring: str, response: str, parsed: Union[Optional[bool], ParsedPairs]) -> float:
    """:func:`response_confidence` of ``response`` given its parse: the
    yes/no verdict under ``"detection"``, else its :class:`ParsedPairs`."""
    if not response:
        return 0.0
    match = CONFIDENCE_MARKER_RE.search(response)
    if match:
        try:
            value = float(match.group(1))
        except ValueError:  # pragma: no cover - regex precludes this
            return 0.0
        return max(0.0, min(1.0, value))
    if scoring == "detection":
        if parsed is None:
            return 0.0
        if _YES_WORD_RE.search(response) and _NO_WORD_RE.search(response):
            return 0.6
        return 0.8
    if parsed.race is None and not parsed.has_pairs:
        return 0.0
    if parsed.used_fallback:
        return 0.6
    return 0.85


#: Entries in :func:`_scored`'s memo.  The 5,148 scores of ``repro all``
#: hold 147 distinct (scoring mode, response) pairs; the bound keeps a
#: streamed corpus of distinct responses from growing the memo without limit.
SCORE_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=SCORE_MEMO_SIZE)
def _scored(scoring: str, response: str):
    """``(prediction, pair fields, confidence)`` of one response.

    Everything :func:`score_response` reads that depends only on the
    scoring mode and the response text.  The pair fields are the parsed
    :class:`ParsedPairs` as tuples (``None`` under ``"detection"``), so one
    entry can back any number of results without sharing a mutable list.
    The response is parsed once; the confidence is read from that parse.
    """
    if scoring == "detection":
        verdict = parse_yes_no(response)
        return bool(verdict), None, _confidence(scoring, response, verdict)
    pairs = parse_pairs_response(response)
    if scoring == "pairs":
        prediction = bool(pairs.race) if pairs.race is not None else pairs.has_pairs
    else:  # "pairs-strict"
        prediction = bool(pairs.race)
    fields = (
        pairs.race,
        tuple(pairs.names),
        tuple(pairs.lines),
        tuple(pairs.operations),
        pairs.used_fallback,
    )
    return prediction, fields, _confidence(scoring, response, pairs)


def score_response(request: DetectionRequest, response: str) -> RunResult:
    """Parse and score one model response under the request's scoring mode.

    The parse and the confidence come from a bounded memo keyed on the
    scoring mode and the response text; every result gets its own
    :class:`ParsedPairs`.
    """
    record = request.record
    prediction, fields, confidence = _scored(request.scoring, response)
    if fields is None:
        pairs = None
        correct = True
    else:
        race, names, lines, operations, used_fallback = fields
        pairs = ParsedPairs(
            race=race,
            names=list(names),
            lines=list(lines),
            operations=list(operations),
            used_fallback=used_fallback,
        )
        correct = pairs_correct(pairs, record)
    return RunResult(
        model=request.model.name,
        strategy=request.strategy.value,
        record_name=record.name,
        truth=record.has_race,
        response=response,
        prediction=prediction,
        correct_positive=correct,
        pairs=pairs,
        confidence=confidence,
    )
