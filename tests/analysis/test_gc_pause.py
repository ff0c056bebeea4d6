"""The static front-end runs with the cyclic garbage collector paused.

``StaticRaceDetector.analyze_source`` turns the collector off for the parse
and analysis of one source, whose objects form no cycles, and turns it back
on only if it was on at entry.
"""

import gc
import sys
import threading
import types

import pytest

from repro.analysis import static_race
from repro.analysis.cli import run_analyze
from repro.analysis.static_race import StaticRaceDetector
from repro.cparse import LexError, ParseError
from repro.corpus import CorpusConfig, build_corpus

CLEAN = """
int main()
{
  int i;
  int a[100];
#pragma omp parallel for
  for (i = 0; i < 100; i++)
    a[i] = i;
  return 0;
}
"""


@pytest.fixture(scope="module")
def corpus_items():
    return [(record.name, record.code) for record in build_corpus(CorpusConfig())]


@pytest.fixture(autouse=True)
def collector_enabled():
    assert gc.isenabled()
    yield
    gc.enable()


def _inside_analyze_source() -> bool:
    code = StaticRaceDetector.analyze_source.__code__
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_code is code:
            return True
        frame = frame.f_back
    return False


def test_no_collection_starts_inside_analyze_source(corpus_items):
    assert len(corpus_items) == 201
    starts = []

    def on_gc(phase, info):
        if phase == "start" and _inside_analyze_source():
            starts.append(info["generation"])

    detector = StaticRaceDetector()
    gc.callbacks.append(on_gc)
    try:
        for _, code in corpus_items:
            detector.analyze_source(code)
    finally:
        gc.callbacks.remove(on_gc)
    assert starts == []


def test_collector_enabled_after_a_clean_call():
    report = StaticRaceDetector().analyze_source(CLEAN)
    assert not report.has_race
    assert gc.isenabled()


@pytest.mark.parametrize(
    "source, error",
    [
        ("int main() { int $x; }", LexError),
        ("int main() { return 0 ", ParseError),
    ],
)
def test_collector_enabled_after_a_front_end_error(source, error):
    with pytest.raises(error):
        StaticRaceDetector().analyze_source(source)
    assert gc.isenabled()


def test_collector_stays_disabled_when_the_caller_disabled_it():
    gc.disable()
    StaticRaceDetector().analyze_source(CLEAN)
    assert not gc.isenabled()
    with pytest.raises(ParseError):
        StaticRaceDetector().analyze_source("int main( {")
    assert not gc.isenabled()


def test_a_call_that_finds_the_collector_off_never_touches_it(monkeypatch):
    # With threads, another call can turn the collector back on between this
    # call's read and its change; a disable here would then never be undone.
    calls = []
    fake_gc = types.SimpleNamespace(
        isenabled=lambda: False,
        disable=lambda: calls.append("disable"),
        enable=lambda: calls.append("enable"),
    )
    monkeypatch.setattr(static_race, "gc", fake_gc)
    StaticRaceDetector().analyze_source(CLEAN)
    assert calls == []


def test_parallel_run_analyze_leaves_the_collector_enabled(corpus_items):
    items = corpus_items * 5
    results = run_analyze(items, jobs=4)
    assert [r.name for r in results] == [name for name, _ in items]
    assert gc.isenabled()


def test_threads_racing_on_the_pause_leave_the_collector_enabled():
    # A tiny source makes entries and exits frequent; a near-zero switch
    # interval lets a thread switch land between reading the collector's
    # state and changing it. Each round ends with no call in flight.
    detector = StaticRaceDetector()
    source = "int main() { return 0; }"
    errors = []

    def work():
        try:
            for _ in range(200):
                detector.analyze_source(source)
        except BaseException as exc:  # reported through ``errors``
            errors.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
