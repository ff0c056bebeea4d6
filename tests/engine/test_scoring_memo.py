"""Response scoring goes through one bounded memo without changing a result.

``score_response`` takes its parse and confidence from an LRU memo keyed on
(scoring mode, response text).  Pinned here:

* every scored field equals the unmemoised parse and confidence, on a
  first call and on a memo hit, for every scoring mode;
* a memo miss parses the response once, and its confidence equals
  :func:`response_confidence`;
* each result owns its :class:`ParsedPairs`, so mutating one result's pairs
  cannot leak into another result of the same response;
* a stream of more distinct responses than the bound keeps the memo at or
  below the bound.
"""

import pytest

import repro.engine.requests as requests_module

from repro.dataset.templates import render_advanced_ft_response
from repro.engine import DetectionRequest, response_confidence, score_response
from repro.engine.requests import SCORE_MEMO_SIZE, SCORING_MODES, _scored
from repro.eval.experiments import default_subset
from repro.eval.matching import pairs_correct
from repro.llm.zoo import create_model
from repro.prompting.parsing import parse_pairs_response, parse_yes_no
from repro.prompting.strategy import PromptStrategy


@pytest.fixture(scope="module")
def records():
    subset = default_subset().records
    racy = next(r for r in subset if r.has_race and r.var_pairs)
    clean = next(r for r in subset if not r.has_race)
    return racy, clean


def _responses(racy):
    return [
        "",
        "yes, there is a data race.",
        "No. The loop is race-free.",
        "Yes and no: the answer depends on the schedule.",
        "cannot tell",
        "no.\n[confidence=0.42]",
        "yes.\n[confidence=7.5]",
        render_advanced_ft_response(racy),
        'no.\n{\n"data_race": 0\n}',
        '{"variable_names": ["a[i]", "a[i+1]"], "variable_locations": [10, 10]}',
        "Yes: variable 'a[i]' at line 10 and variable 'a[i+1]' at line 10 conflict.",
        "The variable 'x' on line 3 races with the variable 'y' on line 4.",
        "nothing parseable here",
        render_advanced_ft_response(racy) + "\n[confidence=0.3]",
    ]


def _reference(request, response):
    """What scoring computed before the memo: parse, confidence, prediction."""
    if request.scoring == "detection":
        verdict = parse_yes_no(response)
        prediction, pairs, correct = bool(verdict) if verdict is not None else False, None, True
    else:
        pairs = parse_pairs_response(response)
        if request.scoring == "pairs":
            prediction = bool(pairs.race) if pairs.race is not None else pairs.has_pairs
        else:
            prediction = bool(pairs.race)
        correct = pairs_correct(pairs, request.record)
    return prediction, pairs, correct, response_confidence(request.scoring, response)


def _request(record, scoring):
    strategy = PromptStrategy.BP1 if scoring == "detection" else PromptStrategy.ADVANCED
    return DetectionRequest(create_model("gpt-4"), strategy, record, scoring=scoring)


@pytest.mark.parametrize("scoring", SCORING_MODES)
def test_memoised_scores_equal_the_unmemoised_parse(records, scoring):
    for record in records:
        request = _request(record, scoring)
        for response in _responses(records[0]):
            prediction, pairs, correct, confidence = _reference(request, response)
            for _ in range(2):  # a miss, then a hit
                result = score_response(request, response)
                assert result.prediction == prediction, response
                assert result.pairs == pairs, response
                assert result.correct_positive == correct, response
                assert result.confidence == confidence, response
                assert result.response == response
                assert result.truth == record.has_race


@pytest.mark.parametrize("scoring", SCORING_MODES)
def test_a_memo_miss_parses_once(records, scoring, monkeypatch):
    """Empty, marker, JSON, fallback and plain responses, in every mode."""
    parses = []
    for name in ("parse_yes_no", "parse_pairs_response"):
        parser = getattr(requests_module, name)
        monkeypatch.setattr(
            requests_module, name, lambda text, _parser=parser: parses.append(text) or _parser(text)
        )
    _scored.cache_clear()
    for response in _responses(records[0]):
        parses.clear()
        confidence = _scored(scoring, response)[2]
        assert parses == [response]
        assert confidence == response_confidence(scoring, response), response


def test_one_result_owns_its_pairs(records):
    racy, _ = records
    request = _request(racy, "pairs")
    response = render_advanced_ft_response(racy)
    first = score_response(request, response)
    first.pairs.names.append(("x", "y"))
    first.pairs.lines.clear()
    first.pairs.operations.append(("W", "W"))
    first.pairs.race = False
    second = score_response(request, response)
    assert second.pairs is not first.pairs
    assert second.pairs == parse_pairs_response(response)
    assert second.correct_positive is True


def test_memo_stays_within_its_bound(records):
    request = _request(records[0], "detection")
    for index in range(SCORE_MEMO_SIZE + 100):
        score_response(request, f"yes, response number {index}")
        assert _scored.cache_info().currsize <= SCORE_MEMO_SIZE
    assert _scored.cache_info().maxsize == SCORE_MEMO_SIZE
