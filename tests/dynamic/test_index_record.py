"""The indexing run's compact record: the bucket cap and events built on read.

An indexing run keeps, per address, one small-int key per synchronization
key met there and the step of its first access.  These tests pin two
properties of that record that the corpus never reaches:

* a bucket holds at most ``MAX_EVENTS_PER_ADDRESS`` keys; later keys are
  dropped, but their accesses still count and a dropped write still marks
  its address written, exactly as ``index_events`` folds a recording;
* no :class:`AccessEvent` is built for an access while the run executes:
  a clean run that stops at its first race never builds one, and reading
  its ``trace.index`` afterwards builds the same index a full run has.
"""

from __future__ import annotations

from repro.cparse import parse
from repro.dynamic import interpreter as interpreter_module
from repro.dynamic.detector import detect_races, index_events
from repro.dynamic.events import MAX_EVENTS_PER_ADDRESS
from repro.dynamic.interpreter import Interpreter, Program

#: Two threads read ``x`` once per barrier epoch for 600 epochs: 1,200
#: distinct keys at ``x``, more than a bucket holds.  Both then write it in
#: a critical section.  The interpreter runs one thread's body after the
#: other's, so the bucket is full before either write.  No pair races.
CAPPED = """
int main() {
  int x = 0;
#pragma omp parallel num_threads(2)
  {
    int k;
    int v = 0;
    for (k = 0; k < 600; k++) {
      v = v + x;
#pragma omp barrier
    }
#pragma omp critical
    x = v;
  }
  return 0;
}
"""

PROGRAM = Program(parse(CAPPED))


def run(**kwargs):
    return Interpreter(num_threads=2, **kwargs).run(PROGRAM)


def test_a_full_bucket_drops_new_keys_but_counts_their_accesses():
    assert MAX_EVENTS_PER_ADDRESS < 600
    recorded = run()
    assert len(recorded.events) == 1202  # 2 x 600 reads, then 2 writes
    indexed = run(record=False)
    index = indexed.index
    assert index == index_events(recorded.events)
    assert len(index.buckets["x"]) == MAX_EVENTS_PER_ADDRESS
    assert all(not event.is_write for event in index.buckets["x"])
    # The writes came after the bucket was full: dropped, but counted.
    assert index.written == {"x"}
    assert index.events == 1202
    assert detect_races(indexed).has_race is False


def test_a_stopping_run_agrees_with_detect_races_past_the_cap():
    stopped = run(record=False, stop_at_race=True)
    assert stopped.finished
    assert stopped.index == run(record=False).index
    assert detect_races(stopped).has_race is False


def test_a_clean_stopping_run_builds_events_only_when_its_index_is_read(monkeypatch):
    built = []
    build = interpreter_module._event

    def counted(*args):
        built.append(args[0])
        return build(*args)

    monkeypatch.setattr(interpreter_module, "_event", counted)
    stopped = run(record=False, stop_at_race=True)
    full = run(record=False)
    assert stopped.finished
    assert built == []
    assert stopped.index == full.index
    assert built == ["x"] * (2 * MAX_EVENTS_PER_ADDRESS)  # one per entry of each index
    assert stopped.index is stopped.index  # built once
    assert len(built) == 2 * MAX_EVENTS_PER_ADDRESS
