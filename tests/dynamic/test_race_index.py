"""The Inspector's race index and its stop at the first witnessed race.

An indexing run (``Interpreter(record=False)``) folds each shared access
into per-address buckets as it happens.  Its report must equal the one
``detect_races`` gives for a recording run of the same program: the same
pairs in the same order with full events, ``has_race``,
``events_analyzed`` and ``addresses_analyzed``, and so must the race index
itself (every bucket's events, the written addresses, the access count).

A stopping run (``stop_at_race=True``, what ``predict`` uses) checks each
new bucket entry as it arrives.  It must stop exactly when ``detect_races``
finds a race in what the recording run emitted (up to its failure, if it
fails), at the first access after which it does, with the index of that
prefix; a run it does not stop must end as the indexing run does.  So a
race witnessed before a run fails counts for ``predict`` but not for the
full analysis, and cached verdicts carry the ``inspector/v2`` identity.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

from repro.corpus import CorpusConfig, build_corpus
from repro.cparse import parse
from repro.dynamic import interpreter as interpreter_module
from repro.dynamic.detector import detect_races, index_events
from repro.dynamic.events import ExecutionTrace
from repro.dynamic.inspector import InspectorLikeDetector
from repro.dynamic.interpreter import Interpreter, InterpreterError, InterpreterLimits, Program
from repro.engine import ExecutionEngine, ResponseCache
from repro.eval.experiments import evaluate_inspector

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_trace_snapshot import CASES, MUTANT_LIMITS, SCHEDULES  # noqa: E402

CORPUS = build_corpus(CorpusConfig())

#: ``InspectorLikeDetector().cache_identity``: verdicts stop at the first
#: witnessed race.
IDENTITY = "inspector/v2#5f6f1ddf00fe1a82"
#: The identity of verdicts that ignored a race witnessed before a failure.
V1_IDENTITY = "inspector/v1#5f6f1ddf00fe1a82"

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

#: Thread 1 reads ``x`` after thread 0 wrote it, unprotected, and then
#: divides by zero, under every schedule.
RACES_THEN_FAILS = """
int main() {
  int x = 0;
  int zero = 0;
#pragma omp parallel num_threads(2)
  {
    x = x + 1;
    if (omp_get_thread_num() == 1)
      x = 1 / zero;
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


def recorded(program, num_threads: int, schedule: str, limits: InterpreterLimits):
    """The events a recording run emitted, failed or not, and its error."""
    traces = []

    def capture(**kwargs):
        traces.append(ExecutionTrace(**kwargs))
        return traces[-1]

    interpreter = Interpreter(num_threads=num_threads, schedule=schedule, limits=limits)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interpreter_module, "ExecutionTrace", capture)
        try:
            interpreter.run(program)
        except InterpreterError as exc:
            return (traces[0].events if traces else []), str(exc)  # no main: no run
    return traces[0].events, None


def races(events) -> bool:
    return detect_races(ExecutionTrace(index=index_events(events))).has_race


def stop_mismatches(program, num_threads: int, limits: InterpreterLimits):
    """Runs where the insert-time check disagrees with ``detect_races``."""
    failures = []
    for schedule in SCHEDULES:
        events, error = recorded(program, num_threads, schedule, limits)
        stopping = Interpreter(
            num_threads=num_threads, schedule=schedule, limits=limits, record=False,
            stop_at_race=True,
        )
        try:
            trace = stopping.run(program)
        except InterpreterError as exc:
            trace, stop_error = None, str(exc)
        if races(events):
            # Stopped after access k: the first prefix in which a race shows.
            k = trace.index.events if trace is not None else 0
            ok = (
                trace is not None and not trace.finished
                and trace.index == index_events(events[:k])
                and races(events[:k]) and not races(events[: k - 1])
            )
        elif error is not None:
            ok = trace is None and stop_error == error
        else:
            full = report(program, num_threads, schedule, limits, record=False)[1]
            ok = trace is not None and trace.finished and trace.index == full
        if not ok:
            failures.append((num_threads, schedule))
    return failures


@pytest.mark.parametrize("block", range(4))
def test_stop_at_race_agrees_with_detect_races_on_corpus(block):
    failures = []
    for bench in CORPUS[block::4]:
        program = Program(parse(bench.code))
        for team in (2, max(2, bench.num_threads), 8):
            failures += [(bench.name, *run)
                         for run in stop_mismatches(program, team, InterpreterLimits())]
    assert failures == []


@pytest.mark.parametrize("block", range(4))
def test_stop_at_race_agrees_with_detect_races_on_fuzz_mutants(block):
    failures = []
    for name, _code, threads, units in CASES[block::4]:
        for k, unit in enumerate(units):
            program = Program(unit)
            failures += [(name, k, *run)
                         for run in stop_mismatches(program, threads, MUTANT_LIMITS)]
    assert failures == []


def test_stop_at_race_needs_an_indexing_run():
    with pytest.raises(ValueError, match="stop_at_race"):
        Interpreter(stop_at_race=True)


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


def test_a_stop_fires_at_the_first_race_even_in_a_run_that_fails_later():
    detector = InspectorLikeDetector(team_sizes=(2,))
    full = detector.analyze_source(FAILS_THEN_RACES)
    assert (full.has_race, full.runs, full.failed) == (True, 1, True)
    assert full.failure_reason == "division by zero"
    stopped = detector.analyze_source(FAILS_THEN_RACES, stop_at_race=True)
    assert (stopped.has_race, stopped.runs, stopped.failed) == (True, 1, True)
    bench = dataclasses.replace(CORPUS[0], code=FAILS_THEN_RACES, num_threads=2)
    assert detector.predict(bench) is True


def test_a_race_witnessed_before_a_failure_counts():
    detector = InspectorLikeDetector()
    full = detector.analyze_source(RACES_THEN_FAILS)
    assert (full.has_race, full.failed, full.runs) == (False, True, 0)
    assert full.failure_reason == "division by zero"
    stopped = detector.analyze_source(RACES_THEN_FAILS, stop_at_race=True)
    assert (stopped.has_race, stopped.runs, stopped.failed) == (True, 1, False)
    assert stopped.variables() == ["x"]
    bench = dataclasses.replace(CORPUS[0], code=RACES_THEN_FAILS, num_threads=2)
    assert detector.predict(bench) is True


def test_first_schedule_race_stops_after_one_run():
    detector = InspectorLikeDetector()
    assert detector.analyze_source(RACES).runs == 2
    stopped = detector.analyze_source(RACES, stop_at_race=True)
    assert (stopped.has_race, stopped.runs, stopped.failed) == (True, 1, False)


def test_cache_identity_is_pinned():
    assert InspectorLikeDetector().cache_identity == IDENTITY


def test_a_v1_cache_entry_is_a_miss_and_the_inspector_runs(monkeypatch):
    benches = CORPUS[:12]
    cache = ResponseCache()
    for bench in benches:
        # A v1 entry the Inspector would contradict, so a hit would show.
        cache.put(V1_IDENTITY, f"{bench.num_threads}\n{bench.code}",
                  "clean" if bench.has_race else "race")
    runs = []
    analyze = InspectorLikeDetector.analyze_source

    def counted(self, *args, **kwargs):
        runs.append(kwargs["name"])
        return analyze(self, *args, **kwargs)

    monkeypatch.setattr(InspectorLikeDetector, "analyze_source", counted)
    counts = evaluate_inspector(benches, engine=ExecutionEngine(cache=cache))
    assert sorted(runs) == sorted(bench.name for bench in benches)
    assert counts.fp == counts.fn == 0
