"""The bounded-memory streaming path: laziness, run-ahead, windows, gauges.

Equivalence of streamed vs materialised *results* lives in
test_equivalence.py; this file pins the memory-shape guarantees that make
streaming worth having — the producer is pulled at most one window ahead
of consumption, nothing is generated before the first result is asked
for, and the telemetry gauges report O(window) residency.
"""

import pytest

from repro.engine import (
    DEFAULT_STREAM_WINDOW,
    ExecutionEngine,
    iter_requests,
)
from repro.eval.experiments import default_subset, iter_detection_requests
from repro.llm.zoo import create_model
from repro.prompting.strategy import PromptStrategy


@pytest.fixture(scope="module")
def subset():
    return default_subset()


class _CountingProducer:
    """Wrap an iterable, counting how many items have been pulled."""

    def __init__(self, iterable):
        self._iterator = iter(iterable)
        self.produced = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._iterator)
        self.produced += 1
        return item


class TestStreamingWindows:
    def test_nothing_is_pulled_before_first_result(self, subset):
        producer = _CountingProducer(
            iter_requests(create_model("gpt-4"), PromptStrategy.BP1, subset.records[:20])
        )
        with ExecutionEngine(stream_window=8) as engine:
            stream = engine.run_streaming(producer)
            assert producer.produced == 0  # generator: no work until iterated
            next(iter(stream))
            assert producer.produced == 8  # exactly one window

    def test_producer_runahead_is_bounded_by_the_window(self, subset):
        """The O(window) claim at the request level: at any point during
        consumption the producer has been pulled at most ``window`` items
        past what the consumer has taken."""
        window = 8
        records = subset.records[:30]
        producer = _CountingProducer(
            iter_requests(create_model("gpt-4"), PromptStrategy.BP1, records)
        )
        consumed = 0
        with ExecutionEngine(stream_window=window) as engine:
            for _ in engine.run_streaming(producer):
                consumed += 1
                assert producer.produced <= consumed + window
        assert consumed == len(records)
        assert producer.produced == len(records)

    def test_results_arrive_in_request_order(self, subset):
        records = subset.records[:20]
        with ExecutionEngine(jobs=4, batch_size=3, stream_window=6) as engine:
            results = list(
                engine.run_streaming(
                    iter_requests(create_model("gpt-4"), PromptStrategy.BP1, records)
                )
            )
        assert [r.record_name for r in results] == [r.name for r in records]

    def test_empty_stream_yields_nothing(self):
        with ExecutionEngine() as engine:
            assert list(engine.run_streaming(iter(()))) == []

    def test_window_defaults_to_engine_stream_window(self, subset):
        records = subset.records[:10]
        with ExecutionEngine(stream_window=4) as engine:
            results = list(
                engine.run_streaming(
                    iter_requests(create_model("gpt-4"), PromptStrategy.BP1, records)
                )
            )
            assert len(results) == len(records)
            # The gauge proves the constructor window was the one used.
            assert engine.telemetry.snapshot()["resident_requests_peak"] == 4

    def test_default_stream_window_is_sane(self):
        assert ExecutionEngine().stream_window == DEFAULT_STREAM_WINDOW
        assert DEFAULT_STREAM_WINDOW >= 1

    def test_rejects_bad_windows(self, subset):
        with pytest.raises(ValueError):
            ExecutionEngine(stream_window=0)

    def test_resident_gauge_tracks_window_not_corpus(self, subset):
        """Streaming twenty requests through windows of five peaks the
        residency gauge at five; the materialised run peaks at twenty."""
        records = subset.records[:20]
        model = create_model("gpt-4")
        with ExecutionEngine(stream_window=5) as engine:
            list(engine.run_streaming(iter_requests(model, PromptStrategy.BP1, records)))
            assert engine.telemetry.snapshot()["resident_requests_peak"] == 5
        with ExecutionEngine() as engine:
            engine.run_counts(
                list(iter_requests(model, PromptStrategy.BP1, records))
            )
            assert engine.telemetry.snapshot()["resident_requests_peak"] == 20


class TestLazyRequestConstruction:
    def test_iter_requests_is_lazy(self, subset):
        producer = _CountingProducer(subset.records[:10])
        requests = iter_requests(create_model("gpt-4"), PromptStrategy.BP1, producer)
        assert producer.produced == 0
        first = next(iter(requests))
        assert producer.produced == 1
        assert first.record is subset.records[0]

    def test_iter_detection_requests_streams_the_default_corpus(self):
        """The experiments-level entry point: corpus generation, record
        featurisation and request construction all lazy, first request
        available without touching the rest of the corpus."""
        requests = iter_detection_requests(
            create_model("gpt-4"), PromptStrategy.BP1
        )
        first = next(iter(requests))
        assert first.record.name.startswith("DRB001-")
        assert first.scoring == "detection"
