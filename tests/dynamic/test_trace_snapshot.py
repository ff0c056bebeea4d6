"""Equivalence snapshot of the Inspector's interpreter over the corpus and fuzz mutants.

``fixtures/trace_snapshot.json`` holds SHA-256 digests recorded from the
original tree-walking interpreter.  For every corpus program, and for every
mutant of it from ``tests/cparse/test_frontend_fuzz.py`` that parses (run
with a 100k-step budget), each digest covers, under both schedules,

* the ``repr`` of every event (with its lock set in sorted order, since the
  iteration order of a ``frozenset`` of strings varies between processes),
* ``steps_executed``, ``regions_executed`` and ``num_threads``,
* or, when the run fails, the ``InterpreterError`` message.

The interpreter must reproduce every digest.  Re-record the fixture only for
an intended change of interpreter output::

    PYTHONPATH=src python tests/dynamic/test_trace_snapshot.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.corpus import CorpusConfig, build_corpus
from repro.cparse import parse
from repro.cparse.lexer import LexError
from repro.cparse.parser import ParseError
from repro.cparse.pragma import PragmaError
from repro.dynamic.interpreter import Interpreter, InterpreterError, InterpreterLimits

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "cparse"))
from test_frontend_fuzz import mutants  # noqa: E402

FIXTURE = Path(__file__).with_name("fixtures") / "trace_snapshot.json"
SCHEDULES = ("static", "roundrobin")
MUTANT_LIMITS = InterpreterLimits(max_steps=100_000)


def event_text(event) -> str:
    locks = event.locks
    return repr(event).replace(f"locks={locks!r}", f"locks={sorted(locks)!r}", 1)


def run_text(unit, num_threads: int, schedule: str, limits: InterpreterLimits) -> str:
    interpreter = Interpreter(num_threads=num_threads, schedule=schedule, limits=limits)
    try:
        trace = interpreter.run(unit)
    except InterpreterError as exc:
        return f"error\t{exc}"
    lines = [event_text(event) for event in trace.events]
    lines.append(f"{trace.steps_executed}\t{trace.regions_executed}\t{trace.num_threads}")
    return "\n".join(lines)


def digest(units: List, num_threads: int, limits: InterpreterLimits) -> str:
    texts = [
        run_text(unit, num_threads, schedule, limits) for unit in units for schedule in SCHEDULES
    ]
    return hashlib.sha256("\1".join(texts).encode("utf-8")).hexdigest()


def parseable(codes: List[str]) -> List:
    units = []
    for code in codes:
        try:
            units.append(parse(code))
        except (LexError, ParseError, PragmaError):
            pass
    return units


def cases() -> List[Tuple[str, str, int, List]]:
    """(name, code, team size, parseable mutant units) per corpus program."""
    fuzz = dict(mutants())
    return [
        (bench.name, bench.code, max(2, bench.num_threads), parseable(fuzz[bench.name]))
        for bench in build_corpus(CorpusConfig())
    ]


def digests(code: str, num_threads: int, mutant_units: List) -> Dict[str, str]:
    return {
        "program": digest([parse(code)], num_threads, InterpreterLimits()),
        "mutants": digest(mutant_units, num_threads, MUTANT_LIMITS),
    }


CASES = cases()


@pytest.fixture(scope="module")
def snapshot() -> Dict[str, Dict[str, str]]:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def test_snapshot_covers_corpus_and_parseable_mutants(snapshot):
    assert sorted(snapshot) == sorted(name for name, *_rest in CASES)
    assert sum(len(units) for *_rest, units in CASES) > 1000


@pytest.mark.parametrize("block", range(4))
def test_traces_match_snapshot(snapshot, block):
    mismatched = [
        name
        for name, code, threads, units in CASES[block::4]
        if digests(code, threads, units) != snapshot[name]
    ]
    assert mismatched == [], f"interpreter traces differ for {mismatched[:5]}"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    rows = [
        f"{json.dumps(name)}: {json.dumps(digests(code, threads, units), sort_keys=True)}"
        for name, code, threads, units in CASES
    ]
    FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
