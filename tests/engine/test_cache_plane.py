"""The cache plane: tiered eviction and the store.

Layers under test: :class:`repro.engine.cache.ResponseCache` — byte
budgets and TTL expiry under the one cost-weighted LRU eviction rule, its
segment scan (:meth:`~repro.engine.cache.ResponseCache.store_stats`) and
the ``repro cache`` CLI over it, and persistence under I/O failure.
"""

import warnings

import pytest

from repro.__main__ import main
from repro.engine import CostModel, ResponseCache


class TestTieredEviction:
    @staticmethod
    def _fill(cache, identity, prompt, size):
        cache.put(identity, prompt, "x" * size)

    def test_byte_budget_evicts_until_fit(self):
        cache = ResponseCache(max_entries=100, max_bytes=300)
        self._fill(cache, "m", "p1", 80)  # 64-byte key + 80 = 144
        self._fill(cache, "m", "p2", 80)
        assert cache.total_bytes == 288
        self._fill(cache, "m", "p3", 80)  # 432 > 300: evict down to budget
        assert cache.total_bytes <= 300
        assert cache.stats.evictions == 1
        assert cache.get("m", "p1") is None  # equal sizes degrade to LRU

    def test_largest_entry_goes_first_under_byte_budget(self):
        cache = ResponseCache(max_entries=100, max_bytes=400)
        self._fill(cache, "m", "small-1", 10)  # 74 bytes
        self._fill(cache, "m", "huge", 200)  # 264 bytes
        self._fill(cache, "m", "small-2", 10)  # 412 > 400
        assert cache.get("m", "huge") is None  # not the LRU-oldest, but biggest
        assert cache.get("m", "small-1") == "x" * 10
        assert cache.get("m", "small-2") == "x" * 10

    def test_size_cost_tier_weighs_bytes_per_second(self):
        """A huge cheap response must not outlive tiny expensive ones."""
        cost_model = CostModel()
        cost_model.observe("cheap", "BP1", 0.001)
        cost_model.observe("slow", "BP1", 0.5)
        cache = ResponseCache(max_entries=100, max_bytes=400, cost_model=cost_model)
        self._fill(cache, "slow", "tiny-expensive", 10)  # 74 bytes, 0.5 s
        self._fill(cache, "cheap", "huge-cheap", 200)  # 264 bytes, 1 ms
        self._fill(cache, "slow", "tiny-2", 10)  # over budget
        assert cache.get("cheap", "huge-cheap") is None
        assert cache.get("slow", "tiny-expensive") == "x" * 10

    def test_byte_budget_and_cost_model_keep_small_expensive_entry(self):
        """A byte budget plus a cost model, nothing else: the expensive
        entry is only a few bytes larger than a cheap one, so by size alone
        it would go first; weighed per second-to-regenerate it stays."""
        cost_model = CostModel()
        cost_model.observe("cheap", "BP1", 0.001)
        cost_model.observe("slow", "BP1", 0.5)
        cache = ResponseCache(max_bytes=400, cost_model=cost_model)
        self._fill(cache, "slow", "expensive", 120)  # 184 bytes, 0.5 s
        self._fill(cache, "cheap", "cheap", 110)  # 174 bytes, 1 ms
        self._fill(cache, "cheap", "newest", 10)  # 74 bytes: 432 > 400
        assert cache.get("slow", "expensive") == "x" * 120
        assert cache.get("cheap", "cheap") is None
        assert cache.get("cheap", "newest") == "x" * 10
        assert cache.stats.evictions == 1

    def test_ttl_expires_on_lookup(self):
        now = [100.0]
        cache = ResponseCache(max_entries=10, ttl_s=5.0, clock=lambda: now[0])
        cache.put("m", "p", "r")
        assert cache.get("m", "p") == "r"
        now[0] += 5.1
        assert cache.get("m", "p") is None
        assert cache.stats.expirations == 1
        assert cache.stats.misses == 1
        assert len(cache) == 0

    def test_expired_entries_evict_before_live_ones(self):
        now = [0.0]
        cache = ResponseCache(max_entries=2, ttl_s=5.0, clock=lambda: now[0])
        cache.put("m", "old", "r-old")  # inserted at t=0
        now[0] = 4.0
        cache.put("m", "fresh", "r-fresh")  # inserted at t=4
        assert cache.get("m", "old") == "r-old"  # touch: old is now MRU
        now[0] = 5.5  # old (age 5.5) expired, fresh (age 1.5) live
        cache.put("m", "new", "r-new")
        # Plain LRU would evict "fresh" (the LRU slot); the expiry tier
        # reclaims the expired "old" instead even though it was just used.
        assert cache.get("m", "fresh") == "r-fresh"
        assert cache.get("m", "new") == "r-new"
        assert cache.stats.evictions == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ResponseCache(max_bytes=0)
        with pytest.raises(ValueError):
            ResponseCache(ttl_s=0)


class TestCacheCLI:
    @staticmethod
    def _build_store(target, rounds=3):
        cache = ResponseCache(path=target, auto_compact_ratio=None)
        for round_no in range(rounds):
            cache.put("m", "shared prompt", f"version {round_no}")
            cache.put("m", f"prompt {round_no}", f"response {round_no}")
            cache.save()
        return cache

    def test_cache_stats_command(self, tmp_path, capsys):
        target = tmp_path / "store"
        self._build_store(target)
        assert main(["cache", "stats", "--cache", str(target)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1:] == [
            "[cache]   segments=3",
            "[cache]   live_entries=4",
            "[cache]   entry_lines=6 (dead=2)",
            "[cache]   dead_ratio=33.3%",
            "[cache]   total_bytes=762",
        ]

    def test_store_stats_count_every_live_key_on_disk(self, tmp_path):
        """The scan reads the segments, not a cache's bounded memory."""
        target = tmp_path / "store"
        cache = ResponseCache(path=target, auto_compact_ratio=None)
        for i in range(10):
            cache.put("m", f"p{i}", f"r{i}")
        cache.save()
        assert len(ResponseCache(2, path=target)) == 2
        stats = ResponseCache.store_stats(target)
        assert (stats["segments"], stats["live_entries"], stats["entry_lines"]) == (1, 10, 10)

    def test_leftover_index_file_is_ignored_and_compacted_away(self, tmp_path, capsys):
        """Older versions wrote a manifest.json beside the segments; loading
        must not care about it, and compaction removes it."""
        target = tmp_path / "store"
        self._build_store(target)
        leftover = target / "manifest.json"
        leftover.write_text('{"format": "repro-response-cache-manifest", "segm', "utf-8")
        cache = ResponseCache(path=target)
        assert cache.get("m", "shared prompt") == "version 2"
        assert len(cache) == 4
        assert main(["cache", "compact", "--cache", str(target)]) == 0
        assert not leftover.exists()
        assert [p.name for p in target.iterdir()] == ["segment-000004.jsonl"]

    def test_cache_compact_command_folds_segments(self, tmp_path, capsys):
        target = tmp_path / "store"
        self._build_store(target)
        assert len(list(target.glob("segment-*.jsonl"))) == 3
        assert main(["cache", "compact", "--cache", str(target)]) == 0
        out = capsys.readouterr().out
        assert "[cache]" in out
        assert len(list(target.glob("segment-*.jsonl"))) == 1
        assert ResponseCache(path=target).get("m", "shared prompt") == "version 2"

    def test_cache_command_validations(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache"])  # missing subcommand
        with pytest.raises(SystemExit):
            main(["cache", "stats"])  # missing --cache
        with pytest.raises(SystemExit):
            main(["cache", "defragment", "--cache", str(tmp_path)])
        with pytest.raises(SystemExit):
            main(["table2", "stats"])  # subcommands belong to 'cache' only

    def test_eviction_flags_validated(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["table2", "--cache-max-bytes", "0"])
        with pytest.raises(SystemExit):
            main(["table2", "--cache-ttl", "0"])
        for with_no_cache in (
            ["--cache", str(tmp_path)],
            ["--cache-max-bytes", "1000"],
            ["--cache-ttl", "60"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(["table2", "--no-cache", *with_no_cache])
            assert exit_info.value.code == 2
        for gone in (["--snapshot-transport", "fax"], ["--shared-cache"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["table2", *gone])  # flags that no longer exist
            assert exit_info.value.code == 2


class TestPersistenceFaultTolerance:
    """The cache plane under I/O failure and foreign-writer races (PR 9).

    Persistence is an optimisation: a failing save warns once and keeps
    the entries in memory (and pending, so a healthy later save retries
    them); a segment deleted between the directory listing and its read
    is simply skipped.  None of these may abort a run.
    """

    @staticmethod
    def _write_store(path, entries):
        cache = ResponseCache(path=path, auto_compact_ratio=None)
        for identity, prompt, response in entries:
            cache.put(identity, prompt, response)
        cache.save()
        return cache

    def test_segment_deleted_between_stat_and_mmap_is_skipped(self, tmp_path, monkeypatch):
        target = tmp_path / "store"
        cache = self._write_store(target, [("m", "p1", "r1")])
        cache.put("m", "p2", "r2")
        cache.save()  # second segment
        segments = sorted(target.glob("segment-*.jsonl"))
        assert len(segments) == 2
        victim = segments[0]
        original = ResponseCache._parse_segment

        def racing_parse(segment):
            # A foreign compaction wins the race: the segment the scan
            # just listed (and stat'ed) is gone by the time it is read.
            if segment.name == victim.name and victim.exists():
                victim.unlink()
            return original(segment)

        monkeypatch.setattr(ResponseCache, "_parse_segment", staticmethod(racing_parse))
        stats = ResponseCache.store_stats(target)  # must not raise
        assert (stats["segments"], stats["live_entries"]) == (1, 1)
        cache = ResponseCache(path=target)
        assert cache.get("m", "p2") == "r2"
        assert cache.get("m", "p1") is None

    def test_rejects_regular_file_path(self, tmp_path):
        """The cache is a directory of segments; a file at the path is a
        mistake to report."""
        stray = tmp_path / "cache.json"
        stray.write_text('{"version": 1, "entries": {}}', encoding="utf-8")
        with pytest.raises(ValueError, match="is a file"):
            ResponseCache(path=stray)

    def test_save_failure_warns_once_and_keeps_entries(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache directory must go")
        cache = ResponseCache(path=blocker / "store")
        cache.put("m", "p", "r")
        with pytest.warns(RuntimeWarning, match="kept in memory"):
            cache.save()
        assert cache.get("m", "p") == "r"  # nothing lost
        # One warning per instance: the second failing save is silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache.save()
        # The unsaved entries stayed pending, so a healthy path gets them.
        good = tmp_path / "good"
        cache.save(good)
        assert ResponseCache(path=good).get("m", "p") == "r"
