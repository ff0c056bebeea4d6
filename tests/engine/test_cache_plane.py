"""The zero-copy cache plane: snapshot broadcast, tiered eviction, shared store.

Three layers under test, matching :mod:`repro.engine`'s cache plane:

* :mod:`repro.engine.snapshot` — the columnar broadcast encoding, the
  shared-memory publish/attach/retire lifecycle and its temp-file
  fallback;
* :class:`repro.engine.cache.ResponseCache` — byte budgets and TTL expiry
  under the one cost-weighted LRU eviction rule, and ``shared_read`` mode;
* :class:`repro.engine.sharedstore.SharedSegmentStore` — the mmap-backed
  multi-reader segment view, including the compaction race it must never
  lose, and the ``repro cache`` CLI over it.
"""

import json
import os
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import pytest

import repro
import repro.engine.snapshot as engine_snapshot
from repro.__main__ import main
from repro.engine import CostModel, ResponseCache, cache_key
from repro.engine.sharedstore import SharedSegmentStore
from repro.engine.snapshot import (
    SharedSnapshotView,
    encode_snapshot,
    load_snapshot,
    publish_snapshot,
    retire_snapshot,
)


@pytest.fixture(autouse=True)
def _clean_worker_memo():
    yield
    engine_snapshot._discard_memo()


class TestSnapshotEncoding:
    def test_empty_snapshot(self):
        view = SharedSnapshotView(encode_snapshot([]))
        assert len(view) == 0
        assert view.get("anything", "default") == "default"

    def test_roundtrip_values(self):
        entries = {"kb": "resp-β with ünïcode", "ka": "first", "kc": ""}
        view = SharedSnapshotView(encode_snapshot(entries))
        assert len(view) == 3
        assert view.get("ka") == "first"
        assert view.get("kb") == "resp-β with ünïcode"
        assert view.get("kc") == ""
        assert view.get("missing") is None

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            SharedSnapshotView(b"not-a-snapshot-buffer-at-all")

    @staticmethod
    def _hash_entries(count):
        return {cache_key("m", f"prompt {i}"): f"response {i}" for i in range(count)}

    def test_variable_width_keys_fall_back_to_sorted(self):
        """Mixed-length keys sort by their bytes like fixed-width hashes do:
        the buffer stays searchable at any size."""
        entries = self._hash_entries(2058)
        entries["short-key"] = "short response"
        view = SharedSnapshotView(encode_snapshot(entries))
        assert view.get("short-key") == "short response"
        assert all(view.get(key) == response for key, response in entries.items())

    def test_non_ascii_columns_use_byte_lengths(self):
        entries = {f"k{i}": "ω" * (i + 1) for i in range(10)}
        entries["ключ"] = "idé"
        view = SharedSnapshotView(encode_snapshot(entries))
        for key, response in entries.items():
            assert view.get(key) == response


class TestShmBroadcastLifecycle:
    def test_publish_attach_memo_retire(self):
        entries = {cache_key("m", f"p{i}"): f"r{i}" for i in range(64)}
        published = publish_snapshot(entries)
        if published.kind != "shm":
            pytest.skip("shared memory unavailable on this platform")
        probe = cache_key("m", "p3")
        try:
            view, loaded_kind = load_snapshot(published.payload)
            assert loaded_kind == "shm"
            assert view.get(probe) == "r3"
            # Second resolve of the same token is a memo hit, not a load.
            again, memo_kind = load_snapshot(published.payload)
            assert again is view and memo_kind is None
        finally:
            retire_snapshot(published)
        # The block is unlinked: late attaches fail, but the view already
        # attached keeps working (POSIX keeps the mapping alive).
        with pytest.raises((FileNotFoundError, OSError)):
            engine_snapshot._attach_shm(published.payload[1])
        assert view.get(probe) == "r3"
        assert retire_snapshot(published) is None  # idempotent

    def test_shm_failure_falls_back_to_file(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no shared memory here")

        monkeypatch.setattr("multiprocessing.shared_memory.SharedMemory", refuse)
        published = publish_snapshot({cache_key("m", "p"): "r"})
        try:
            assert published.kind == "file"
            view, loaded_kind = load_snapshot(published.payload)
            assert loaded_kind == "file"
            assert view.get(cache_key("m", "p")) == "r"
        finally:
            retire_snapshot(published)


    def test_process_pool_run_leaves_no_tracker_warnings(self):
        """Workers forked by ``map`` before the first broadcast must share
        the parent's resource tracker; a tracker of their own would unlink
        the parent's block at worker exit and warn about "leaked"
        shared_memory objects on stderr."""
        script = textwrap.dedent(
            """
            from repro.engine import ExecutionEngine, ResponseCache, build_requests
            from repro.eval.experiments import default_subset
            from repro.llm.zoo import create_model
            from repro.prompting.strategy import PromptStrategy

            records = default_subset().records[:16]
            with ExecutionEngine(
                jobs=2, executor_kind="process", cache=ResponseCache(), batch_size=4
            ) as engine:
                assert engine.map(abs, [-1, -2]) == [1, 2]  # forks the pool first
                for _ in range(2):  # cold, then warm through the shm broadcast
                    engine.run(
                        build_requests(create_model("gpt-4"), PromptStrategy.BP1, records)
                    )
                assert engine.telemetry.shm_attach > 0
            """
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "resource_tracker" not in completed.stderr


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
        with pytest.raises(ValueError):
            ResponseCache(shared_read=True)  # no path to share


class TestSharedSegmentStore:
    @staticmethod
    def _write_store(path, entries, **kwargs):
        cache = ResponseCache(path=path, auto_compact_ratio=None, **kwargs)
        for identity, prompt, response in entries:
            cache.put(identity, prompt, response)
        cache.save()
        return cache

    def test_get_and_default(self, tmp_path):
        target = tmp_path / "store"
        self._write_store(target, [("m", "p", "the response")])
        store = SharedSegmentStore(target)
        assert store.get(cache_key("m", "p")) == "the response"
        assert store.get("0" * 64, "fallback") == "fallback"
        assert len(store) == 1

    def test_identity_round_trips(self, tmp_path):
        target = tmp_path / "store"
        self._write_store(target, [("model-x", "p", "r")])
        store = SharedSegmentStore(target)
        assert store.identity(cache_key("model-x", "p")) == "model-x"

    def test_open_returns_one_store_per_directory(self, tmp_path):
        target = tmp_path / "store"
        self._write_store(target, [("m", "p", "r")])
        first = SharedSegmentStore.open(target)
        second = SharedSegmentStore.open(tmp_path / "." / "store")
        assert first is second

    def test_later_segments_win_after_refresh(self, tmp_path):
        target = tmp_path / "store"
        cache = self._write_store(target, [("m", "p", "version 1")])
        store = SharedSegmentStore(target)
        key = cache_key("m", "p")
        assert store.get(key) == "version 1"
        cache.put("m", "p", "version 2")
        cache.save()  # appends a later segment superseding the first line
        store.refresh()
        assert store.get(key) == "version 2"

    def test_auto_refresh_on_miss_picks_up_new_segments(self, tmp_path):
        target = tmp_path / "store"
        store = SharedSegmentStore(target)  # opened before anything exists
        assert len(store) == 0
        self._write_store(target, [("m", "p", "r")])
        # No explicit refresh: the miss re-checks the directory signature.
        assert store.get(cache_key("m", "p")) == "r"

    def test_stats_shape(self, tmp_path):
        target = tmp_path / "store"
        cache = self._write_store(target, [("m", "p", "r")])
        cache.put("m", "p", "r2")
        cache.save()
        store = SharedSegmentStore(target)
        stats = store.stats()
        assert stats["segments"] == 2
        assert stats["live_entries"] == 1
        assert stats["entry_lines"] == 2
        assert stats["dead_entries"] == 1
        assert 0.0 < stats["dead_ratio"] <= 0.5
        assert stats["total_bytes"] > 0

    def test_compaction_never_starves_a_concurrent_reader(self, tmp_path):
        """The satellite guarantee: ``compact()`` racing an open reader must
        never serve a torn or missing entry.  New segments are written
        before old ones are unlinked, and unlinked mmaps stay valid, so
        every ``get`` sees complete data no matter when it lands."""
        target = tmp_path / "store"
        stable = [("m", f"stable {i}", f"response {i}") for i in range(24)]
        cache = self._write_store(target, stable)
        expected = {cache_key("m", f"stable {i}"): f"response {i}" for i in range(24)}
        store = SharedSegmentStore(target)
        stop = threading.Event()
        writer_errors = []

        def churn():
            try:
                for round_no in range(30):
                    cache.put("m", f"churn {round_no}", "x" * 64)
                    cache.save()
                    cache.compact()
            except Exception as exc:  # pragma: no cover - the assertion
                writer_errors.append(exc)
            finally:
                stop.set()

        writer = threading.Thread(target=churn)
        writer.start()
        reads = 0
        try:
            while not stop.is_set():
                for key, response in expected.items():
                    got = store.get(key)
                    assert got == response, f"torn/missing read after {reads} reads"
                    reads += 1
                store.refresh()  # pick up post-compaction views mid-race too
        finally:
            writer.join()
        assert not writer_errors
        assert reads > 0
        store.refresh()
        assert all(store.get(key) == response for key, response in expected.items())


class TestSegmentManifest:
    """The writer-side segment manifest and the incremental reader rebuild.

    Every committed cache write (incremental save, compaction) rewrites ``manifest.json`` attesting the segment set, so
    :class:`SharedSegmentStore` can (a) answer the miss-path "did anything
    change?" probe with one stat of the manifest instead of a sweep of
    every segment, and (b) on an actual change, re-scan only the new or
    changed segments, reusing the folded ones' mmaps and sub-indexes.
    The manifest is advisory: corrupt, stale or missing manifests only
    disable the fast-path, never correctness.
    """

    @staticmethod
    def _write_store(path, entries):
        cache = ResponseCache(path=path, auto_compact_ratio=None)
        for identity, prompt, response in entries:
            cache.put(identity, prompt, response)
        cache.save()
        return cache

    @staticmethod
    def _manifest(path):
        return json.loads((path / "manifest.json").read_text(encoding="utf-8"))

    def test_save_writes_manifest_matching_segments(self, tmp_path):
        target = tmp_path / "store"
        self._write_store(target, [("m", "p", "r")])
        manifest = self._manifest(target)
        assert manifest["format"] == "repro-response-cache-manifest"
        assert manifest["generation"] == 1
        names = sorted(p.name for p in target.glob("segment-*.jsonl"))
        assert sorted(manifest["segments"]) == names
        for name, record in manifest["segments"].items():
            stat = (target / name).stat()
            assert record["size"] == stat.st_size
            assert record["mtime_ns"] == stat.st_mtime_ns

    def test_generation_increments_per_commit(self, tmp_path):
        target = tmp_path / "store"
        cache = self._write_store(target, [("m", "p1", "r1")])
        cache.put("m", "p2", "r2")
        cache.save()
        assert self._manifest(target)["generation"] == 2
        cache.compact()
        assert self._manifest(target)["generation"] == 3
        names = sorted(p.name for p in target.glob("segment-*.jsonl"))
        assert sorted(self._manifest(target)["segments"]) == names

    def test_refresh_reuses_unchanged_segments(self, tmp_path):
        target = tmp_path / "store"
        cache = self._write_store(target, [("m", f"p{i}", f"r{i}") for i in range(8)])
        store = SharedSegmentStore(target)
        assert store.stats()["segments_rescanned"] == 1
        assert store.stats()["segments_reused"] == 0
        cache.put("m", "extra", "extra response")
        cache.save()  # appends a second segment; the first is untouched
        store.refresh()
        stats = store.stats()
        assert stats["segments"] == 2
        assert stats["segments_reused"] == 1  # folded segment: no rescan
        assert stats["segments_rescanned"] == 2  # only the new one scanned
        assert store.get(cache_key("m", "extra")) == "extra response"
        assert store.get(cache_key("m", "p3")) == "r3"

    def test_miss_with_current_manifest_skips_the_sweep(self, tmp_path):
        target = tmp_path / "store"
        self._write_store(target, [("m", "p", "r")])
        store = SharedSegmentStore(target)
        assert store._view.manifest_sig is not None
        view_before = store._view
        assert store.get("0" * 64) is None  # miss probes for external writes
        assert store._view is view_before  # manifest unchanged: view kept

    def test_miss_sees_new_segment_after_manifest_update(self, tmp_path):
        target = tmp_path / "store"
        cache = self._write_store(target, [("m", "p", "r")])
        store = SharedSegmentStore(target)
        cache.put("m", "late", "late response")
        cache.save()  # bumps the manifest along with the new segment
        # No explicit refresh: the miss path must notice the manifest moved.
        assert store.get(cache_key("m", "late")) == "late response"

    def test_corrupt_manifest_disables_fast_path_only(self, tmp_path):
        target = tmp_path / "store"
        self._write_store(target, [("m", "p", "r")])
        (target / "manifest.json").write_text("{not json", encoding="utf-8")
        store = SharedSegmentStore(target)
        assert store._view.manifest_sig is None
        assert store.get(cache_key("m", "p")) == "r"

    def test_stale_manifest_from_foreign_writer_is_ignored(self, tmp_path):
        """A writer that appends segments without updating the manifest
        (pre-manifest version, foreign tool) must not be masked by the
        fast-path: at view build the manifest's segment list disagrees
        with the directory, so the fast-path never arms."""
        target = tmp_path / "store"
        self._write_store(target, [("m", "p", "r")])
        foreign = target / "segment-000099.jsonl"
        foreign.write_text(
            '{"format": "repro-response-cache", "version": 2}\n'
            + json.dumps({"k": "f" * 64, "r": "foreign"})
            + "\n",
            encoding="utf-8",
        )
        store = SharedSegmentStore(target)
        assert store._view.manifest_sig is None  # manifest != directory
        assert store.get("f" * 64) == "foreign"

    def test_explicit_refresh_never_uses_the_manifest_shortcut(self, tmp_path):
        target = tmp_path / "store"
        self._write_store(target, [("m", "p", "r")])
        store = SharedSegmentStore(target)
        foreign = target / "segment-000099.jsonl"
        foreign.write_text(
            '{"format": "repro-response-cache", "version": 2}\n'
            + json.dumps({"k": "e" * 64, "r": "external"})
            + "\n",
            encoding="utf-8",
        )
        store.refresh()  # full sweep despite the now-stale (valid) manifest
        assert store.get("e" * 64) == "external"


class TestSharedReadCache:
    def test_serves_store_hits_without_loading_segments(self, tmp_path):
        target = tmp_path / "store"
        writer = ResponseCache(path=target)
        writer.put("m", "p", "warm response")
        writer.save()
        reader = ResponseCache(path=target, shared_read=True)
        assert len(reader) == 0  # nothing loaded into the private tier
        assert reader.shared_store is not None
        assert reader.get("m", "p") == "warm response"
        assert len(reader) == 0  # hits are not promoted into memory
        assert reader.stats.hits == 1
        assert reader.get("m", "cold prompt") is None
        assert reader.stats.misses == 1

    def test_merge_of_store_held_response_is_not_repersisted(self, tmp_path):
        target = tmp_path / "store"
        writer = ResponseCache(path=target)
        writer.put("m", "p", "same response")
        writer.save()
        reader = ResponseCache(path=target, shared_read=True)
        reader.put("m", "p", "same response")
        assert reader.pending_count == 0  # identical to the store: no dead line
        reader.put("m", "p2", "genuinely new")
        assert reader.pending_count == 1

    def test_rejects_regular_file_path(self, tmp_path):
        """The cache is a directory of segments; a file at the path is a
        mistake to report, in shared-read mode or not."""
        stray = tmp_path / "cache.json"
        stray.write_text('{"version": 1, "entries": {}}', encoding="utf-8")
        for shared_read in (True, False):
            with pytest.raises(ValueError, match="is a file"):
                ResponseCache(path=stray, shared_read=shared_read)


class TestHotHitPromotion:
    """Hot shared-store entries graduate into the in-memory tier.

    A key served repeatedly off the mmap pays the store lookup every time;
    after ``shared_promote_after`` hits it is promoted into the private
    LRU (still under the entry/byte budgets), so the hottest keys become
    plain memory hits while cold keys keep costing nothing resident."""

    @staticmethod
    def _store_with(tmp_path, entries):
        target = tmp_path / "store"
        writer = ResponseCache(path=target)
        for prompt, response in entries:
            writer.put("m", prompt, response)
        writer.save()
        return target

    def test_promotes_after_threshold_store_hits(self, tmp_path):
        target = self._store_with(tmp_path, [("hot", "hot response"), ("cold", "x")])
        reader = ResponseCache(path=target, shared_read=True)
        assert reader.get("m", "hot") == "hot response"
        assert len(reader) == 0 and reader.stats.promotions == 0
        assert reader.get("m", "hot") == "hot response"
        assert len(reader) == 1 and reader.stats.promotions == 1
        assert reader.shared_store.stats()["promotions"] == 1
        # The third hit is a plain memory hit; cold keys stay on disk only.
        assert reader.get("m", "hot") == "hot response"
        assert reader.get("m", "cold") == "x"
        assert len(reader) == 1 and reader.stats.promotions == 1
        assert reader.stats.snapshot()["promotions"] == 1

    def test_promotion_threshold_is_configurable_and_validated(self, tmp_path):
        target = self._store_with(tmp_path, [("p", "r")])
        eager = ResponseCache(path=target, shared_read=True, shared_promote_after=1)
        assert eager.get("m", "p") == "r"
        assert len(eager) == 1 and eager.stats.promotions == 1
        with pytest.raises(ValueError):
            ResponseCache(path=target, shared_read=True, shared_promote_after=0)

    def test_promoted_entries_respect_byte_budget(self, tmp_path):
        big_a, big_b = "a" * 3000, "b" * 3000
        target = self._store_with(tmp_path, [("pa", big_a), ("pb", big_b)])
        reader = ResponseCache(
            path=target, shared_read=True, max_bytes=5000, shared_promote_after=1
        )
        assert reader.get("m", "pa") == big_a
        assert reader.get("m", "pb") == big_b
        # Both promoted, but the byte budget holds only one resident.
        assert reader.stats.promotions == 2
        assert len(reader) == 1
        # Responses are still served correctly either way.
        assert reader.get("m", "pa") == big_a
        assert reader.get("m", "pb") == big_b

    def test_promoted_then_evicted_key_is_not_repersisted(self, tmp_path):
        big = "a" * 3000
        target = self._store_with(tmp_path, [("p", big), ("q", "b" * 3000)])
        reader = ResponseCache(
            path=target, shared_read=True, max_bytes=5000, shared_promote_after=1
        )
        assert reader.get("m", "p") == big
        assert reader.get("m", "q") == "b" * 3000  # evicts one promoted entry
        # Re-putting the store-held response must not queue a dead line.
        reader.put("m", "p", big)
        reader.put("m", "q", "b" * 3000)
        assert reader.pending_count == 0

    def test_cache_stats_cli_reports_promotions(self, tmp_path, capsys):
        target = self._store_with(tmp_path, [("p", "r")])
        assert main(["cache", "stats", "--cache", str(target)]) == 0
        out = capsys.readouterr().out
        assert "promotions=0" in out


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
        assert "[cache]" in out
        assert "segments=3" in out
        assert "live_entries=4" in out

    def test_cache_compact_command_folds_segments(self, tmp_path, capsys):
        target = tmp_path / "store"
        self._build_store(target)
        assert len(list(target.glob("segment-*.jsonl"))) == 3
        assert main(["cache", "compact", "--cache", str(target)]) == 0
        out = capsys.readouterr().out
        assert "[cache]" in out
        assert len(list(target.glob("segment-*.jsonl"))) == 1
        store = SharedSegmentStore(target)
        assert store.get(cache_key("m", "shared prompt")) == "version 2"

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
        with pytest.raises(SystemExit):
            main(["table2", "--cache-entries", "0", "--cache-max-bytes", "1000"])
        with pytest.raises(SystemExit):
            main(["table2", "--shared-cache"])  # needs --cache PATH
        with pytest.raises(SystemExit) as exit_info:
            main(["table2", "--snapshot-transport", "fax"])  # flag no longer exists
        assert exit_info.value.code == 2


class TestPersistenceFaultTolerance:
    """The cache plane under I/O failure and foreign-writer races (PR 9).

    Persistence is an optimisation: a failing save warns once and keeps
    the entries in memory (and pending, so a healthy later save retries
    them); a shared store whose segments vanish mid-open degrades to a
    private load; a segment deleted between the manifest stat and the
    mmap is simply skipped.  None of these may abort a run.
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
        cache.save()  # second segment; the manifest lists both
        segments = sorted(target.glob("segment-*.jsonl"))
        assert len(segments) == 2
        victim = segments[0]
        original = SharedSegmentStore._map_segment

        def racing_map(segment):
            # A foreign compaction wins the race: the segment the sweep
            # just listed is gone by the time we come to map it.
            if segment.name == victim.name and victim.exists():
                victim.unlink()
            return original(segment)

        monkeypatch.setattr(SharedSegmentStore, "_map_segment", staticmethod(racing_map))
        store = SharedSegmentStore(target)  # must not raise
        assert store.get(cache_key("m", "p2")) == "r2"
        assert store.get(cache_key("m", "p1"), "miss") == "miss"

    def test_shared_read_open_failure_falls_back_to_private_load(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "store"
        self._write_store(target, [("m", "p", "r")])

        def refuse(path):
            raise OSError("directory vanished mid-scan")

        monkeypatch.setattr(SharedSegmentStore, "open", refuse)
        with pytest.warns(RuntimeWarning, match="private load"):
            cache = ResponseCache(path=target, shared_read=True)
        assert cache.shared_read is False
        assert cache.get("m", "p") == "r"  # served from the private load

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

    def test_truncated_manifest_disables_fast_path_only(self, tmp_path):
        target = tmp_path / "store"
        self._write_store(target, [("m", "p", "r")])
        manifest = target / "manifest.json"
        raw = manifest.read_bytes()
        manifest.write_bytes(raw[: len(raw) // 2])  # torn foreign write
        store = SharedSegmentStore(target)
        assert store._view.manifest_sig is None
        assert store.get(cache_key("m", "p")) == "r"
