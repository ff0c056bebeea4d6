"""ExecutionEngine.cached_map: deterministic non-LLM work through the response cache."""

from repro.engine import CostModel, ExecutionEngine, ResponseCache

IDENTITY = "square/v1"


def _items(values):
    return [(IDENTITY, str(value), value) for value in values]


def _decode(value, entry):
    return None if entry is None or not entry.isdigit() else int(entry)


class _Squares:
    """A ``compute`` that records every batch of misses it is given."""

    def __init__(self):
        self.batches = []

    def __call__(self, values):
        self.batches.append(list(values))
        return [value * value for value in values]


def _cached_map(engine, values, compute):
    return engine.cached_map(
        _items(values), compute, kind="square", decode=_decode, encode=str
    )


class TestCachedMap:
    def test_without_a_cache_every_item_is_computed(self):
        compute = _Squares()
        engine = ExecutionEngine()
        assert _cached_map(engine, [3, 1, 2], compute) == [9, 1, 4]
        assert _cached_map(engine, [3, 1, 2], compute) == [9, 1, 4]
        assert compute.batches == [[3, 1, 2], [3, 1, 2]]

    def test_hits_never_reach_compute(self):
        compute = _Squares()
        engine = ExecutionEngine(cache=ResponseCache())
        _cached_map(engine, [3, 1, 2], compute)
        assert _cached_map(engine, [3, 1, 2], compute) == [9, 1, 4]
        assert compute.batches == [[3, 1, 2]]

    def test_misses_reach_one_compute_call_in_item_order(self):
        compute = _Squares()
        engine = ExecutionEngine(cache=ResponseCache())
        _cached_map(engine, [2, 4], compute)
        assert _cached_map(engine, [5, 2, 3, 4, 1], compute) == [25, 4, 9, 16, 1]
        assert compute.batches == [[2, 4], [5, 3, 1]]

    def test_items_are_read_once_in_order(self):
        read = []

        def items():
            for value in (3, 1, 2):
                read.append(value)
                yield IDENTITY, str(value), value

        engine = ExecutionEngine(cache=ResponseCache())
        squares = engine.cached_map(items(), _Squares(), kind="square", decode=_decode, encode=str)
        assert squares == [9, 1, 4]
        assert read == [3, 1, 2]

    def test_rejected_entry_is_recomputed_and_overwritten(self):
        compute = _Squares()
        cache = ResponseCache()
        engine = ExecutionEngine(cache=cache)
        cache.put(IDENTITY, "3", "damaged")
        assert _cached_map(engine, [3, 1], compute) == [9, 1]
        assert compute.batches == [[3, 1]]
        assert cache.get(IDENTITY, "3") == "9"
        assert _cached_map(engine, [3, 1], compute) == [9, 1]
        assert len(compute.batches) == 1

    def test_every_item_counts_as_one_request_cold_and_warm(self):
        engine = ExecutionEngine(cache=ResponseCache())
        _cached_map(engine, [1, 2, 3], _Squares())
        assert engine.telemetry.snapshot()["requests"] == 3
        _cached_map(engine, [1, 2, 3, 4], _Squares())  # three hits, one miss
        assert engine.telemetry.snapshot()["requests"] == 7
        _cached_map(engine, [1, 2, 3, 4], _Squares())  # all hits
        assert engine.telemetry.snapshot()["requests"] == 11

    def test_misses_feed_the_cost_model_under_kind(self):
        cost_model = CostModel()
        engine = ExecutionEngine(cache=ResponseCache(cost_model=cost_model))
        _cached_map(engine, [1, 2], _Squares())
        assert cost_model.estimate(IDENTITY, "square") is not None
        assert cost_model.estimate(IDENTITY, "other") is None
