"""Response-cache behaviour: accounting, LRU eviction, segmented persistence."""

import json

import pytest

from repro.engine import CostModel, ResponseCache, cache_key
from repro.engine.cache import EVICTION_SAMPLE


class TestCacheAccounting:
    def test_miss_then_hit(self):
        cache = ResponseCache()
        assert cache.get("gpt-4", "prompt A") is None
        cache.put("gpt-4", "prompt A", "response A")
        assert cache.get("gpt-4", "prompt A") == "response A"
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_identity_separates_models(self):
        cache = ResponseCache()
        cache.put("gpt-4", "same prompt", "gpt-4 says yes")
        cache.put("llama2-7b", "same prompt", "llama says no")
        assert cache.get("gpt-4", "same prompt") == "gpt-4 says yes"
        assert cache.get("llama2-7b", "same prompt") == "llama says no"

    def test_lru_evicts_oldest(self):
        cache = ResponseCache(max_entries=2)
        cache.put("m", "p1", "r1")
        cache.put("m", "p2", "r2")
        assert cache.get("m", "p1") == "r1"  # p1 is now most recently used
        cache.put("m", "p3", "r3")  # evicts p2
        assert cache.get("m", "p2") is None
        assert cache.get("m", "p1") == "r1"
        assert cache.get("m", "p3") == "r3"
        assert cache.stats.evictions == 1


class TestCostAwareEviction:
    """With a cost model attached the LRU weighs entries by how expensive
    their model is to call again: among the oldest entries, the cheapest to
    regenerate goes first, so slow models' responses survive longest."""

    @staticmethod
    def _cost_model(**seconds_per_model):
        cost_model = CostModel()
        for identity, seconds in seconds_per_model.items():
            cost_model.observe(identity, "BP1", seconds)
        return cost_model

    def test_cheap_model_evicted_before_slow_model(self):
        cost_model = self._cost_model(fast=0.001, slow=0.5)
        cache = ResponseCache(max_entries=2, cost_model=cost_model)
        cache.put("slow", "p-slow", "r-slow")  # oldest, but expensive
        cache.put("fast", "p-fast", "r-fast")
        cache.put("fast", "p-fast2", "r-fast2")  # overflow
        assert cache.get("slow", "p-slow") == "r-slow"  # survived despite age
        assert cache.get("fast", "p-fast") is None  # cheap entry went first
        assert cache.stats.evictions == 1

    def test_equal_costs_degrade_to_plain_lru(self):
        cost_model = self._cost_model(a=0.01, b=0.01)
        cache = ResponseCache(max_entries=2, cost_model=cost_model)
        cache.put("a", "p1", "r1")
        cache.put("b", "p2", "r2")
        cache.put("a", "p3", "r3")
        assert cache.get("a", "p1") is None  # oldest of the equal-cost pair
        assert cache.get("b", "p2") == "r2"

    def test_unknown_identity_counts_as_free(self):
        """Entries the cost model never saw (or loaded from disk, where the
        identity is unrecoverable from the hashed key) evict first."""
        cost_model = self._cost_model(known=0.2)
        cache = ResponseCache(max_entries=2, cost_model=cost_model)
        cache.put("known", "p1", "r1")
        cache.put("mystery", "p2", "r2")
        cache.put("known", "p3", "r3")
        assert cache.get("mystery", "p2") is None
        assert cache.get("known", "p1") == "r1"

    def test_cost_model_without_byte_budget_evicts_cheapest(self):
        """An attached cost model is enough: no budget or flag is needed for
        the cheapest entry to go instead of the oldest."""
        cost_model = self._cost_model(slow=10.0, fast=0.01)
        cache = ResponseCache(max_entries=2, cost_model=cost_model)
        cache.put("slow", "p1", "r1")
        cache.put("fast", "p2", "r2")
        cache.put("fast", "p3", "r3")
        assert cache.get("slow", "p1") == "r1"  # oldest, but expensive
        assert cache.get("fast", "p2") is None

    def test_no_cost_model_degrades_to_plain_lru(self):
        cache = ResponseCache(max_entries=2)
        cache.put("m", "p1", "r1")
        cache.put("m", "p2", "r2")
        cache.put("m", "p3", "r3")
        assert cache.get("m", "p1") is None

    def test_eviction_sample_bounds_the_scan(self):
        """Only the oldest ``EVICTION_SAMPLE`` entries compete: a cheap entry
        younger than the sample window is not considered."""
        cost_model = self._cost_model(cheap=0.001, slow=1.0)
        cache = ResponseCache(max_entries=EVICTION_SAMPLE + 1, cost_model=cost_model)
        for i in range(EVICTION_SAMPLE):
            cache.put("slow", f"p{i}", f"r{i}")
        cache.put("cheap", "p-cheap", "r-cheap")  # cheapest, but outside the window
        cache.put("slow", "p-last", "r-last")
        # The sample holds only slow entries: LRU order decides, p0 goes.
        assert cache.get("slow", "p0") is None
        assert cache.get("cheap", "p-cheap") == "r-cheap"

    def test_put_key_with_identity_participates_in_costing(self):
        """The engine's distributed merge path attaches identities too."""
        cost_model = self._cost_model(fast=0.001, slow=0.5)
        cache = ResponseCache(max_entries=2, cost_model=cost_model)
        cache.put_key(cache_key("slow", "p1"), "r1", identity="slow")
        cache.put_key(cache_key("fast", "p2"), "r2", identity="fast")
        cache.put_key(cache_key("slow", "p3"), "r3", identity="slow")
        assert cache.get("fast", "p2") is None
        assert cache.get("slow", "p1") == "r1"

    def test_identity_estimate_uses_worst_strategy(self):
        cost_model = CostModel()
        cost_model.observe("m", "BP1", 0.01)
        cost_model.observe("m", "ADVANCED", 0.2)
        assert cost_model.identity_estimate("m") == pytest.approx(0.2)
        assert cost_model.identity_estimate("never-seen") is None
        assert cost_model.identity_estimate("never-seen", default=0.0) == 0.0

    def test_identities_survive_save_and_reload(self, tmp_path):
        """Identities persist with the segments, so a reloaded cache keeps
        protecting the slow model's entries — the persistent-cache case the
        feature exists for."""
        path = tmp_path / "cache"
        writer = ResponseCache(path=path)
        writer.put("slow", "p-slow", "r-slow")
        writer.put("fast", "p-fast", "r-fast")
        writer.save()

        cost_model = self._cost_model(fast=0.001, slow=0.5)
        reloaded = ResponseCache(max_entries=2, path=path, cost_model=cost_model)
        reloaded.put("fast", "p-fast2", "r-fast2")  # overflow after reload
        assert reloaded.get("slow", "p-slow") == "r-slow"  # cost weight kept
        assert reloaded.get("fast", "p-fast") is None

    def test_identities_survive_compaction(self, tmp_path):
        path = tmp_path / "cache"
        cache = ResponseCache(path=path)
        cache.put("slow", "p1", "r1")
        cache.save()
        cache.put("slow", "p2", "r2")
        cache.save()
        cache.compact()

        cost_model = self._cost_model(cheap=0.001, slow=0.5)
        reloaded = ResponseCache(max_entries=2, path=path, cost_model=cost_model)
        reloaded.put("cheap", "p3", "r3")
        assert reloaded.get("slow", "p1") == "r1"
        assert reloaded.get("cheap", "p3") is None

    def test_pre_identity_segments_still_load(self, tmp_path):
        """Stores written before the identity field existed load fine; their
        entries simply carry no cost weight."""
        import json as json_module

        path = tmp_path / "cache"
        path.mkdir()
        lines = [
            json_module.dumps({"format": "repro-response-cache", "version": 2}),
            json_module.dumps({"k": cache_key("m", "p"), "r": "r-old"}),
        ]
        (path / "segment-000001.jsonl").write_text("\n".join(lines), encoding="utf-8")
        cache = ResponseCache(path=path)
        assert cache.get("m", "p") == "r-old"


class TestCachePersistence:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache"
        cache = ResponseCache(path=path)
        cache.put("gpt-4", "prompt A", "response A")
        cache.put("gpt-4", "prompt B", "response B")
        cache.save()

        reloaded = ResponseCache(path=path)
        assert len(reloaded) == 2
        assert reloaded.get("gpt-4", "prompt A") == "response A"
        assert reloaded.get("gpt-4", "prompt B") == "response B"

    def test_corrupt_file_loads_as_empty(self, tmp_path):
        """A damaged segment file must never crash a run — it is only a cache."""
        path = tmp_path / "cache"
        path.mkdir()
        segment = path / "segment-000001.jsonl"
        segment.write_text("{not valid json", encoding="utf-8")
        assert len(ResponseCache(path=path)) == 0
        segment.write_text('{"version": 99, "entries": {"k": "v"}}', encoding="utf-8")
        assert ResponseCache(path=path).get("m", "p") is None

    def test_load_respects_capacity(self, tmp_path):
        path = tmp_path / "cache"
        cache = ResponseCache(path=path)
        for i in range(10):
            cache.put("m", f"p{i}", f"r{i}")
        cache.save()

        small = ResponseCache(max_entries=3, path=path)
        assert len(small) == 3


class TestSegmentedPersistence:
    """The on-disk store is a directory of append-only JSONL segments."""

    def test_incremental_save_appends_segments_only(self, tmp_path):
        path = tmp_path / "cache"
        cache = ResponseCache(path=path)
        for i in range(4):
            cache.put("m", f"p{i}", f"r{i}")
        assert cache.pending_count == 4
        cache.save()
        assert cache.pending_count == 0
        first = cache.segment_files()
        assert len(first) == 1
        before = first[0].read_bytes()

        # A second save with nothing new writes nothing at all.
        cache.save()
        assert cache.segment_files() == first
        assert first[0].read_bytes() == before

        # New entries land in a NEW segment; old segments are untouched.
        cache.put("m", "p-new", "r-new")
        cache.save()
        segments = cache.segment_files()
        assert len(segments) == 2
        assert first[0].read_bytes() == before

        reloaded = ResponseCache(path=path)
        assert len(reloaded) == 5
        assert reloaded.get("m", "p-new") == "r-new"

    def test_segments_are_size_bounded(self, tmp_path):
        path = tmp_path / "cache"
        cache = ResponseCache(path=path, segment_max_entries=2)
        for i in range(5):
            cache.put("m", f"p{i}", f"r{i}")
        cache.save()
        assert len(cache.segment_files()) == 3  # 2 + 2 + 1
        assert len(ResponseCache(path=path)) == 5

    def test_save_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "cache"
        cache = ResponseCache(path=path)
        cache.put("m", "p", "r")
        cache.save()
        expected = {"manifest.json"}  # the writer's segment-set attestation
        leftovers = [
            f
            for f in path.iterdir()
            if not f.name.startswith("segment-") and f.name not in expected
        ]
        assert leftovers == []

    def test_truncated_segment_loads_partially(self, tmp_path):
        """An interrupted write loses at most the torn tail line."""
        path = tmp_path / "cache"
        cache = ResponseCache(path=path)
        for i in range(3):
            cache.put("m", f"p{i}", f"r{i}")
        cache.save()
        segment = cache.segment_files()[0]
        text = segment.read_text(encoding="utf-8")
        segment.write_text(text[: len(text) - 5], encoding="utf-8")  # tear the last entry

        reloaded = ResponseCache(path=path)
        assert len(reloaded) == 2
        assert reloaded.get("m", "p0") == "r0"
        assert reloaded.get("m", "p1") == "r1"

    def test_garbage_segment_loads_as_empty(self, tmp_path):
        path = tmp_path / "cache"
        path.mkdir()
        (path / "segment-000001.jsonl").write_text("not a header\nnot json", encoding="utf-8")
        assert len(ResponseCache(path=path)) == 0

    def test_wrong_version_segment_is_skipped(self, tmp_path):
        path = tmp_path / "cache"
        path.mkdir()
        lines = [
            json.dumps({"format": "repro-response-cache", "version": 99}),
            json.dumps({"k": "some-key", "r": "some-response"}),
        ]
        (path / "segment-000001.jsonl").write_text("\n".join(lines), encoding="utf-8")
        assert len(ResponseCache(path=path)) == 0

    def test_compact_folds_segments(self, tmp_path):
        path = tmp_path / "cache"
        cache = ResponseCache(path=path, segment_max_entries=2)
        for i in range(6):
            cache.put("m", f"p{i}", f"r{i}")
            cache.save()  # one tiny segment per save
        assert len(cache.segment_files()) == 6
        cache.compact()
        assert len(cache.segment_files()) == 3  # ceil(6 / 2)
        reloaded = ResponseCache(path=path)
        assert len(reloaded) == 6
        assert reloaded.get("m", "p5") == "r5"

    def test_compact_preserves_entries_evicted_from_memory(self, tmp_path):
        """Compaction must never shrink the persistent store: disk entries
        pushed out of the bounded in-memory LRU survive the rewrite."""
        path = tmp_path / "cache"
        big = ResponseCache(path=path)
        for i in range(10):
            big.put("m", f"p{i}", f"r{i}")
        big.save()

        small = ResponseCache(max_entries=3, path=path)
        assert len(small) == 3  # memory holds only the newest three
        small.compact()
        reloaded = ResponseCache(path=path)
        assert len(reloaded) == 10
        assert reloaded.get("m", "p0") == "r0"

    def test_snapshot_save_to_foreign_path_replaces_not_appends(self, tmp_path):
        backup = tmp_path / "backup"
        cache = ResponseCache()
        cache.put("m", "p0", "r0")
        cache.put("m", "p1", "r1")
        cache.save(backup)
        cache.save(backup)  # a second snapshot must not duplicate entries
        lines = sum(
            len(seg.read_text(encoding="utf-8").splitlines()) - 1  # minus header
            for seg in cache.segment_files(backup)
        )
        assert lines == 2
        assert len(ResponseCache(path=backup)) == 2

    def test_later_segments_win_on_duplicate_keys(self, tmp_path):
        path = tmp_path / "cache"
        cache = ResponseCache(path=path)
        cache.put("m", "p", "old")
        cache.save()
        cache.put("m", "p", "new")  # re-inserted: appended again on next save
        cache.save()
        assert ResponseCache(path=path).get("m", "p") == "new"

    def test_snapshot_and_put_key_round_trip(self):
        """The distributed executor path reads snapshots and merges raw keys."""
        cache = ResponseCache()
        cache.put("m", "p", "r")
        snapshot = cache.snapshot_entries()
        assert snapshot == {cache_key("m", "p"): "r"}
        other = ResponseCache()
        for key, response in snapshot.items():
            other.put_key(key, response)
        assert other.get("m", "p") == "r"


class TestAutoCompact:
    """Saves that push the dead/duplicate ratio past the threshold fold the
    store automatically; compact() stays available for manual use."""

    @staticmethod
    def _churn(cache, rounds, n_keys=4, start=0):
        """Re-insert the same keys with fresh values, saving each round."""
        for round_index in range(start, start + rounds):
            for i in range(n_keys):
                cache.put("m", f"p{i}", f"r{i}@{round_index}")
            cache.save()

    def test_dead_ratio_tracks_duplicates(self, tmp_path):
        cache = ResponseCache(path=tmp_path / "cache", auto_compact_ratio=None)
        self._churn(cache, 1)
        assert cache.dead_entry_ratio == 0.0
        self._churn(cache, 1, start=1)  # 8 lines on disk, 4 live
        assert cache.dead_entry_ratio == pytest.approx(0.5)

    def test_dead_ratio_recomputed_on_load(self, tmp_path):
        path = tmp_path / "cache"
        self._churn(ResponseCache(path=path, auto_compact_ratio=None), 2)
        reloaded = ResponseCache(path=path, auto_compact_ratio=None)
        assert reloaded.dead_entry_ratio == pytest.approx(0.5)

    def test_save_triggers_auto_compact_past_threshold(self, tmp_path):
        path = tmp_path / "cache"
        cache = ResponseCache(
            path=path, auto_compact_ratio=0.5, auto_compact_min_segments=3
        )
        self._churn(cache, 2)  # ratio exactly 0.5: not *past* the threshold
        assert cache.stats.compactions == 0
        assert len(cache.segment_files()) == 2

        self._churn(cache, 1, start=2)  # 12 lines, 4 live -> ratio 2/3, 3 segments
        assert cache.stats.compactions == 1
        assert len(cache.segment_files()) == 1  # folded back down
        assert cache.dead_entry_ratio == 0.0
        reloaded = ResponseCache(path=path)
        assert len(reloaded) == 4
        assert reloaded.get("m", "p0") == "r0@2"  # newest values survive

    def test_min_segments_guard_defers_compaction(self, tmp_path):
        cache = ResponseCache(
            path=tmp_path / "cache", auto_compact_ratio=0.1, auto_compact_min_segments=5
        )
        self._churn(cache, 4)  # ratio 0.75 but only 4 segments
        assert cache.stats.compactions == 0
        self._churn(cache, 1, start=4)
        assert cache.stats.compactions == 1

    def test_none_ratio_disables_auto_compact(self, tmp_path):
        cache = ResponseCache(path=tmp_path / "cache", auto_compact_ratio=None)
        self._churn(cache, 6)
        assert cache.stats.compactions == 0
        assert len(cache.segment_files()) == 6
        # Manual compaction still works and is counted.
        cache.compact()
        assert cache.stats.compactions == 1
        assert len(cache.segment_files()) == 1

    def test_rejects_bad_ratio(self):
        for ratio in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                ResponseCache(auto_compact_ratio=ratio)

    def test_incremental_saves_after_auto_compact_still_load(self, tmp_path):
        path = tmp_path / "cache"
        cache = ResponseCache(path=path, auto_compact_ratio=0.5, auto_compact_min_segments=2)
        self._churn(cache, 3)
        assert cache.stats.compactions >= 1
        cache.put("m", "p-new", "r-new")
        cache.save()
        reloaded = ResponseCache(path=path)
        assert reloaded.get("m", "p-new") == "r-new"
        assert len(reloaded) == 5
