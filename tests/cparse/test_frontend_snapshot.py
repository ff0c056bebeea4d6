"""Equivalence snapshot of the C front-end over the corpus and its variants.

``fixtures/frontend_snapshot.json`` holds SHA-256 digests recorded from the
original character-at-a-time lexer.  For every corpus program plus a seeded
set of ``scale_loop_bounds`` + ``rename_identifiers`` variants it pins

* the ``(kind, text, line, col)`` token stream with and without comments,
* the ``repr`` of the parsed ``TranslationUnit``,
* ``trimmed_code`` plus ``line_map`` from ``trim_comments``.

The front-end must reproduce every digest.  Re-record the fixture only for
an intended change of front-end output::

    PYTHONPATH=src python tests/cparse/test_frontend_snapshot.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.corpus import CorpusConfig, build_corpus
from repro.cparse import parse, tokenize
from repro.dataset.augment import rename_identifiers, scale_loop_bounds
from repro.dataset.trim import trim_comments

FIXTURE = Path(__file__).with_name("fixtures") / "frontend_snapshot.json"
VARIANT_SEED = 12
FACETS = ("tokens_with_comments", "tokens", "ast", "trim")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def token_lines(tokens) -> str:
    return "\n".join(f"{t.kind.value}\t{t.text!r}\t{t.line}\t{t.col}" for t in tokens)


def trim_text(source: str) -> str:
    result = trim_comments(source)
    return result.trimmed_code + "\0" + json.dumps(sorted(result.line_map.items()))


def programs() -> List[Tuple[str, str]]:
    """(name, code) of every corpus program, then one seeded variant each."""
    corpus = build_corpus(CorpusConfig())
    rng = random.Random(VARIANT_SEED)
    out = [(bench.name, bench.code) for bench in corpus]
    for bench in corpus:
        code = scale_loop_bounds(bench.code, factor=rng.randint(2, 9))
        salt = rng.randrange(1, 1_000_000)
        code, _mapping = rename_identifiers(code, salt=salt)
        out.append((f"{bench.name}#s{salt}", code))
    return out


def digests(code: str) -> Dict[str, str]:
    return {
        "tokens_with_comments": sha256(token_lines(tokenize(code, keep_comments=True))),
        "tokens": sha256(token_lines(tokenize(code))),
        "ast": sha256(repr(parse(code))),
        "trim": sha256(trim_text(code)),
    }


PROGRAMS = programs()


@pytest.fixture(scope="module")
def snapshot() -> Dict[str, Dict[str, str]]:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def current() -> Dict[str, Dict[str, str]]:
    return {name: digests(code) for name, code in PROGRAMS}


def test_snapshot_covers_every_program(snapshot):
    assert sorted(snapshot) == sorted(name for name, _code in PROGRAMS)
    assert len(PROGRAMS) == 2 * 201


@pytest.mark.parametrize("facet", FACETS)
def test_frontend_reproduces_snapshot(snapshot, current, facet):
    mismatched = [name for name, _code in PROGRAMS if current[name][facet] != snapshot[name][facet]]
    assert mismatched == [], f"{facet} differs for {len(mismatched)} programs: {mismatched[:5]}"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    rows = [f"{json.dumps(name)}: {json.dumps(digests(code))}" for name, code in PROGRAMS]
    FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
