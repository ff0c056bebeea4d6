"""The Inspector's race index and its verdict early stop.

An indexing run (``Interpreter(record=False)``) folds each shared access
into per-address buckets as it happens.  Its report must equal the one
``detect_races`` gives for a recording run of the same program: the same
pairs in the same order with full events, ``has_race``,
``events_analyzed`` and ``addresses_analyzed``, and so must the race index
itself (every bucket's events, the written addresses, the access count).  ``predict`` stops after
the first completed run that races; that must change no verdict and no
cached verdict's identity.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

from repro.corpus import CorpusConfig, build_corpus
from repro.cparse import parse
from repro.dynamic.detector import detect_races, index_events
from repro.dynamic.inspector import InspectorLikeDetector
from repro.dynamic.interpreter import Interpreter, InterpreterError, InterpreterLimits, Program
from repro.engine import ExecutionEngine, ResponseCache
from repro.eval.experiments import evaluate_inspector

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_trace_snapshot import CASES, MUTANT_LIMITS, SCHEDULES  # noqa: E402

CORPUS = build_corpus(CorpusConfig())

#: ``InspectorLikeDetector().cache_identity`` before the race index existed.
PARENT_IDENTITY = "inspector/v1#5f6f1ddf00fe1a82"

#: Divides by zero on thread 0 under the static schedule (it owns i == 1)
#: and races on ``sum`` under round-robin, where thread 1 owns i == 1.
FAILS_THEN_RACES = """
int main() {
  int i;
  int sum = 0;
  int zero = 0;
#pragma omp parallel for
  for (i = 0; i < 4; i++) {
    if (i == 1 && omp_get_thread_num() == 0)
      sum = 1 / zero;
    sum = sum + 1;
  }
  return 0;
}
"""

#: Every thread of the region reads and writes ``x`` unprotected.
RACES = "int main() { int x = 0;\n#pragma omp parallel\n{ x = x + 1; }\nreturn 0; }"


#: Touches ``x`` from the same two lines (``touch``, ``poke``) around every
#: construct that changes a field of the index's sync key.  A key left stale
#: after any of those changes merges two different keys, and an event the
#: recording run keeps goes missing from its bucket.
SYNC_SITES = """
int x = 0;
int y[4];
void touch() {
  x = x + 1;
}
void poke() {
  x = x + 2;
}
int main() {
  int i;
  omp_lock_t lock;
  omp_init_lock(&lock);
#pragma omp parallel num_threads(2)
  {
    touch();
#pragma omp barrier
    touch();
#pragma omp for
    for (i = 0; i < 4; i++)
      y[i] = i;
    touch();
#pragma omp sections
    {
#pragma omp section
      y[0] = 1;
    }
    touch();
#pragma omp single
    y[1] = 2;
    touch();
#pragma omp critical
    {
      touch();
      poke();
    }
    poke();
#pragma omp barrier
    touch();
    omp_set_lock(&lock);
    touch();
    poke();
    omp_unset_lock(&lock);
    poke();
#pragma omp barrier
    touch();
#pragma omp atomic
    {
      touch();
      poke();
    }
    poke();
#pragma omp barrier
    touch();
#pragma omp task
    {
      touch();
      poke();
    }
    poke();
#pragma omp taskwait
    poke();
  }
#pragma omp parallel for ordered num_threads(2)
  for (i = 0; i < 4; i++) {
    touch();
#pragma omp ordered
    {
      touch();
      poke();
    }
    poke();
  }
  return 0;
}
"""


def report(program, num_threads: int, schedule: str, limits: InterpreterLimits, record: bool):
    """``(detect_races report, race index)`` of one run, or its error."""
    interpreter = Interpreter(
        num_threads=num_threads, schedule=schedule, limits=limits, record=record
    )
    try:
        trace = interpreter.run(program)
    except InterpreterError as exc:
        return f"error\t{exc}"
    return detect_races(trace), trace.index or index_events(trace.events)


def mismatches(program, num_threads: int, limits: InterpreterLimits):
    return [
        (num_threads, schedule)
        for schedule in SCHEDULES
        if report(program, num_threads, schedule, limits, record=False)
        != report(program, num_threads, schedule, limits, record=True)
    ]


@pytest.mark.parametrize("block", range(4))
def test_index_equals_recording_on_corpus(block):
    failures = []
    for bench in CORPUS[block::4]:
        program = Program(parse(bench.code))
        for team in (2, max(2, bench.num_threads), 8):
            failures += [(bench.name, *run) for run in mismatches(program, team, InterpreterLimits())]
    assert failures == []


@pytest.mark.parametrize("block", range(4))
def test_index_equals_recording_on_fuzz_mutants(block):
    failures = []
    for name, _code, threads, units in CASES[block::4]:
        for k, unit in enumerate(units):
            program = Program(unit)
            failures += [(name, k, *run) for run in mismatches(program, threads, MUTANT_LIMITS)]
    assert failures == []


def test_index_keys_follow_every_sync_change():
    program = Program(parse(SYNC_SITES))
    indexed = report(program, 2, "static", InterpreterLimits(), record=False)
    assert indexed == report(program, 2, "static", InterpreterLimits(), record=True)
    assert len(indexed[1].buckets["x"]) == 100


def test_index_counts_every_access():
    trace = Interpreter(num_threads=2, record=False).run_source(RACES)
    assert trace.events == []
    # Each thread reads and writes x once; one event per distinct key.
    assert trace.index.events == 4
    assert trace.index.written == {"x"}
    assert len(trace.index.buckets["x"]) == 4
    assert detect_races(trace).events_analyzed == 4


def test_early_stop_changes_no_verdict():
    detector = InspectorLikeDetector()
    changed = [b.name for b in CORPUS if detector.predict(b) != detector.analyze_benchmark(b).has_race]
    assert changed == []


def test_early_stop_fires_only_on_a_completed_racing_run():
    detector = InspectorLikeDetector(team_sizes=(2,))
    full = detector.analyze_source(FAILS_THEN_RACES)
    assert (full.has_race, full.runs, full.failed) == (True, 1, True)
    assert full.failure_reason == "division by zero"
    stopped = detector.analyze_source(FAILS_THEN_RACES, stop_at_race=True)
    assert (stopped.has_race, stopped.runs, stopped.failed) == (True, 1, True)
    bench = dataclasses.replace(CORPUS[0], code=FAILS_THEN_RACES, num_threads=2)
    assert detector.predict(bench) is True


def test_first_schedule_race_stops_after_one_run():
    detector = InspectorLikeDetector()
    assert detector.analyze_source(RACES).runs == 2
    stopped = detector.analyze_source(RACES, stop_at_race=True)
    assert (stopped.has_race, stopped.runs, stopped.failed) == (True, 1, False)


def test_cache_identity_is_unchanged():
    assert InspectorLikeDetector().cache_identity == PARENT_IDENTITY


def test_cache_written_before_the_index_still_hits(monkeypatch):
    benches = CORPUS[:12]
    cache = ResponseCache()
    for bench in benches:
        cache.put(PARENT_IDENTITY, f"{bench.num_threads}\n{bench.code}",
                  "race" if bench.has_race else "clean")

    def no_run(self, *args, **kwargs):
        raise AssertionError("the Inspector ran on a cached program")

    monkeypatch.setattr(InspectorLikeDetector, "analyze_source", no_run)
    counts = evaluate_inspector(benches, engine=ExecutionEngine(cache=cache))
    assert counts.fp == counts.fn == 0
