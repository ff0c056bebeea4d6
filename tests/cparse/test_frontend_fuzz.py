"""Mutation fuzz of the C front-end and the tools built on it.

Every corpus program gets seeded drop / duplicate / swap / truncate /
character-insert mutations.  Each mutant must either go through
``tokenize``, ``trim_comments``, ``parse``, the static analyzer and the
Inspector, or fail with a typed front-end or interpreter error, and no step
may take a second.  The lexer and trimming outcomes (result digest, or
error type, message, line and column) must also match
``fixtures/frontend_fuzz_snapshot.json``, recorded from the original
character-at-a-time lexer.  Re-record only for an intended change::

    PYTHONPATH=src python tests/cparse/test_frontend_fuzz.py
"""

from __future__ import annotations

import json
import random
import re
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

from repro.analysis.static_race import StaticRaceDetector
from repro.corpus import CorpusConfig, build_corpus
from repro.cparse import parse, tokenize
from repro.cparse.lexer import LexError
from repro.cparse.parser import ParseError
from repro.cparse.pragma import PragmaError
from repro.dataset.trim import trim_comments
from repro.dynamic.inspector import InspectorLikeDetector
from repro.dynamic.interpreter import InterpreterError, InterpreterLimits
from repro.llm.features import extract_features

from test_frontend_snapshot import sha256, token_lines, trim_text

FIXTURE = Path(__file__).with_name("fixtures") / "frontend_fuzz_snapshot.json"
MUTANTS_PER_PROGRAM = 15
#: Mutants per program that also run the static analyzer, the Inspector and
#: featurisation.
DEEP_PER_PROGRAM = 2
INSERT_CHARS = "\"'/*#\\.\n$@"
OPERATIONS = ("drop", "duplicate", "swap", "truncate", "insert")
TYPED_ERRORS = (LexError, ParseError, PragmaError, InterpreterError)
TIME_LIMIT_S = 1.0
_CHUNK_RE = re.compile(r"\w+|\s+|[^\w\s]")


def mutate(code: str, rng: random.Random) -> str:
    """One random token-level or character-level edit of ``code``."""
    operation = rng.choice(OPERATIONS)
    if operation == "truncate":
        return code[: rng.randrange(len(code))]
    if operation == "insert":
        at = rng.randrange(len(code) + 1)
        return code[:at] + rng.choice(INSERT_CHARS) + code[at:]
    chunks = _CHUNK_RE.findall(code)
    words = [i for i, chunk in enumerate(chunks) if not chunk.isspace()]
    pick = rng.randrange(len(words) - 1)
    first, second = words[pick], words[pick + 1]
    if operation == "drop":
        chunks[first] = ""
    elif operation == "duplicate":
        chunks[first] *= 2
    else:
        chunks[first], chunks[second] = chunks[second], chunks[first]
    return "".join(chunks)


def mutants() -> List[Tuple[str, List[str]]]:
    """(program name, its mutants) for every corpus program."""
    out = []
    for bench in build_corpus(CorpusConfig()):
        rng = random.Random(bench.name)
        out.append((bench.name, [mutate(bench.code, rng) for _ in range(MUTANTS_PER_PROGRAM)]))
    return out


def outcome(render: Callable[[str], str], code: str) -> str:
    try:
        return "ok\t" + render(code)
    except LexError as exc:
        return f"LexError\t{exc}\t{exc.line}\t{exc.col}"


def lex_and_trim(code: str) -> str:
    tokens = outcome(lambda c: token_lines(tokenize(c, keep_comments=True)), code)
    return tokens + "\0" + outcome(trim_text, code)


def program_digest(codes: List[str]) -> str:
    return sha256("\1".join(lex_and_trim(code) for code in codes))


MUTANTS = mutants()


@pytest.fixture(scope="module")
def snapshot() -> Dict[str, str]:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def test_mutants_are_mostly_distinct():
    codes = [code for _name, codes in MUTANTS for code in codes]
    assert len(codes) == 201 * MUTANTS_PER_PROGRAM
    assert len(set(codes)) > 0.9 * len(codes)


def test_lex_and_trim_outcomes_match_snapshot(snapshot):
    assert sorted(snapshot) == sorted(name for name, _codes in MUTANTS)
    mismatched = [name for name, codes in MUTANTS if program_digest(codes) != snapshot[name]]
    assert mismatched == [], f"lex/trim outcomes differ for {mismatched[:5]}"


def _run(step: Callable[[str], object], code: str) -> None:
    start = time.perf_counter()
    try:
        step(code)
    except TYPED_ERRORS:
        pass
    elapsed = time.perf_counter() - start
    assert elapsed < TIME_LIMIT_S, f"{step} took {elapsed:.2f}s"


STATIC = StaticRaceDetector()
#: A twentieth of the default step budget: the fuzz checks that a broken
#: program stops with a typed error, not how long a valid one may run.
INSPECTOR = InspectorLikeDetector(limits=InterpreterLimits(max_steps=100_000))
SHALLOW_STEPS = (tokenize, trim_comments, parse)
DEEP_STEPS = (STATIC.analyze_source, INSPECTOR.analyze_source, extract_features)


@pytest.mark.parametrize("block", range(4))
def test_mutants_fail_only_with_typed_errors(block):
    for name, codes in MUTANTS[block::4]:
        for index, code in enumerate(codes):
            steps = SHALLOW_STEPS + (DEEP_STEPS if index < DEEP_PER_PROGRAM else ())
            for step in steps:
                _run(step, code)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    rows = [f"{json.dumps(name)}: {json.dumps(program_digest(codes))}" for name, codes in MUTANTS]
    FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
