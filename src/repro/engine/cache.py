"""Content-addressed response cache with segmented JSONL persistence.

The cache maps ``(model identity, prompt)`` to the model's response.  Keys
are content-addressed: the identity string and the full prompt text are
hashed together, so two models that would answer differently (for example
two fine-tuned variants trained on different folds) never share entries as
long as their :attr:`~repro.llm.base.LanguageModel.cache_identity` differs.

Two storage layers compose:

* an in-memory LRU bounded by ``max_entries`` — and optionally by a byte
  budget (``max_bytes``) and an age limit (``ttl_s``).  One victim rule
  covers every combination: an expired entry goes first, otherwise the
  entry that frees the most per cost-model second-to-regenerate (bytes
  under a byte budget, one entry otherwise), ties going to the oldest;
* an optional on-disk store — a *directory* of append-only JSONL segments
  (``segment-000001.jsonl``, …), loaded on construction and grown by
  :meth:`ResponseCache.save`.  :meth:`ResponseCache.store_stats` scans a
  store without loading it (``repro cache stats``).

The segmented format exists so long runs persist **incrementally**: each
``save`` writes only the entries added since the previous one, as one or
more new size-bounded segments (``segment_max_entries`` per shard), instead
of rewriting the whole store.  Segments are written to a temp file and
atomically renamed into place, so an interrupted run can never corrupt
earlier segments — at worst the newest segment is truncated, and truncated
or otherwise damaged lines simply don't load.  :meth:`compact` folds all
live entries back into a minimal set of segments when shard count grows —
and runs **automatically**: the cache tracks the on-disk dead/duplicate
entry ratio (appended lines superseded by later re-inserts of the same
key), and when a save pushes it past ``auto_compact_ratio`` with at least
``auto_compact_min_segments`` shards on disk, the store is folded in the
same save, so long-lived caches never accumulate unbounded dead weight.

All operations are thread-safe: the thread and process executors run
model chunks on worker threads that hit the cache concurrently.  No cache
entry ever crosses a process boundary.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
import threading
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

__all__ = ["CacheStats", "ResponseCache", "cache_key"]

#: Bump when the key derivation or on-disk layout changes.
_CACHE_FORMAT_VERSION = 2
#: First line of every segment file; segments with a different header are
#: ignored wholesale (future-format or foreign files).
_SEGMENT_FORMAT = "repro-response-cache"
_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jsonl"
#: An index file older versions wrote beside the segments.  Nothing reads
#: it; loading ignores it and compaction deletes it.
_LEGACY_INDEX_NAME = "manifest.json"
#: Least recently used entries each eviction weighs against each other;
#: bounds victim selection at O(sample), not O(entries).
EVICTION_SAMPLE = 8


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    compactions: int = 0
    #: Entries dropped because they outlived ``ttl_s`` (counted separately
    #: from capacity evictions; an expired lookup also counts as a miss).
    expirations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "compactions": self.compactions,
            "expirations": self.expirations,
            "hit_rate": round(self.hit_rate, 4),
        }


def cache_key(identity: str, prompt: str) -> str:
    """Content-addressed key for one ``(model identity, prompt)`` request."""
    digest = hashlib.sha256()
    digest.update(identity.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(prompt.encode("utf-8"))
    return digest.hexdigest()


class ResponseCache:
    """Thread-safe LRU response cache with segmented JSONL persistence."""

    def __init__(
        self,
        max_entries: int = 65536,
        *,
        path: Optional[Union[str, Path]] = None,
        segment_max_entries: int = 1024,
        auto_compact_ratio: Optional[float] = 0.5,
        auto_compact_min_segments: int = 4,
        cost_model=None,
        max_bytes: Optional[int] = None,
        ttl_s: Optional[float] = None,
        clock=None,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if segment_max_entries <= 0:
            raise ValueError("segment_max_entries must be positive")
        if auto_compact_ratio is not None and not 0.0 < auto_compact_ratio <= 1.0:
            raise ValueError("auto_compact_ratio must be in (0, 1] or None")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive or None")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be positive or None")
        if path is not None and Path(path).is_file():
            raise ValueError(
                f"cache path {path} is a file; the cache is a directory of segments"
            )
        self.max_entries = max_entries
        self.segment_max_entries = segment_max_entries
        #: Fold the on-disk store when its dead-entry ratio exceeds this
        #: (``None`` disables auto-compaction; :meth:`compact` stays manual).
        self.auto_compact_ratio = auto_compact_ratio
        #: Never auto-compact below this many segments — folding two tiny
        #: shards saves nothing and costs a rewrite on every save.
        self.auto_compact_min_segments = auto_compact_min_segments
        #: Weights eviction by each entry's seconds-to-regenerate: anything
        #: with ``identity_estimate(identity, default)``, i.e.
        #: :class:`~repro.engine.costmodel.CostModel`.  Without one every
        #: entry costs nothing to regenerate (see
        #: :meth:`_select_victim_locked`).
        self.cost_model = cost_model
        #: Byte budget for the in-memory tier (``None`` = unbounded).  When
        #: set, eviction runs until the total entry bytes fit, and victim
        #: selection weighs bytes reclaimed rather than entries.
        self.max_bytes = max_bytes
        #: Maximum in-memory age in seconds (``None`` = immortal).  Expiry
        #: is lazy — checked on lookup and during eviction scans — and
        #: governs only the in-memory tier; the on-disk store stays the
        #: durable source of truth.
        self.ttl_s = ttl_s
        self._clock = clock if clock is not None else time.monotonic
        self.path = Path(path) if path is not None else None
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, str]" = OrderedDict()
        #: key -> approximate entry bytes (key length + utf-8 response
        #: length); the sum is ``_total_bytes``, compared to ``max_bytes``.
        self._sizes: Dict[str, int] = {}
        self._total_bytes = 0
        #: key -> insertion epoch (``clock()`` at insert/replace time).
        self._epochs: Dict[str, float] = {}
        #: key -> model identity, recorded on insert and persisted
        #: alongside each segment entry, so reloaded caches keep their cost
        #: weights.  Entries from stores written before the identity field
        #: existed have no identity and therefore no cost weight — those
        #: evict first once a cost model is attached.
        self._identities: Dict[str, str] = {}
        #: Keys known to be on disk at ``self.path`` already.
        self._persisted: set = set()
        #: Insertion-ordered keys added since the last save (dict-as-set).
        self._pending: "OrderedDict[str, None]" = OrderedDict()
        #: Entry *lines* on disk at ``self.path``, counting duplicates a
        #: re-insert appended — the denominator of the dead-entry ratio.
        self._disk_entry_lines = 0
        #: One warning per instance for degraded persistence I/O — the
        #: condition (full disk, read-only dir, racing foreign writer) is
        #: usually persistent, and repeating it per save is just noise.
        self._io_warned = False
        if self.path is not None and self.path.exists():
            self.load(self.path)

    def _warn_io(self, message: str) -> None:
        """Warn once per instance that persistence is degraded, never raise."""
        if self._io_warned:
            return
        self._io_warned = True
        warnings.warn(f"[cache] {message}", RuntimeWarning, stacklevel=3)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- lookup / insert ------------------------------------------------------------

    def get(self, identity: str, prompt: str) -> Optional[str]:
        """The cached response, or ``None`` on a miss (recorded in stats).

        Expired entries are dropped lazily here.
        """
        key = cache_key(identity, prompt)
        with self._lock:
            if key in self._entries:
                if self._expired_locked(key):
                    self._drop_entry_locked(key)
                    self.stats.expirations += 1
                else:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    return self._entries[key]
            self.stats.misses += 1
            return None

    def put(self, identity: str, prompt: str, response: str) -> None:
        """Insert one response, evicting on overflow.

        ``identity`` is kept beside the entry (the key itself is a one-way
        hash): it weights eviction and is persisted with the entry.
        """
        key = cache_key(identity, prompt)
        with self._lock:
            existing = self._entries.get(key)
            self._entries[key] = response
            self._entries.move_to_end(key)
            self._note_entry_locked(key, response)
            self._identities[key] = identity
            # New keys are pending by definition; a persisted key whose
            # value changed — including one evicted from memory since, where
            # ``existing`` is ``None`` — must be re-appended or the disk
            # copy goes stale (later segments win at load time).
            if key not in self._persisted or existing != response:
                self._pending[key] = None
            self._evict_overflow_locked()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._identities.clear()
            self._pending.clear()
            self._sizes.clear()
            self._epochs.clear()
            self._total_bytes = 0

    @property
    def total_bytes(self) -> int:
        """Approximate bytes held by the in-memory tier."""
        with self._lock:
            return self._total_bytes

    @property
    def pending_count(self) -> int:
        """Entries waiting to be persisted by the next :meth:`save`."""
        with self._lock:
            return len(self._pending)

    @property
    def dead_entry_ratio(self) -> float:
        """Fraction of on-disk entry lines superseded by later re-inserts.

        ``0.0`` for a store where every line is live (or no store at all);
        approaches ``1.0`` as appends keep rewriting the same keys.  This
        is the signal :meth:`save` uses to trigger automatic compaction.
        """
        with self._lock:
            return self._dead_ratio_locked()

    def _dead_ratio_locked(self) -> float:
        if self._disk_entry_lines <= 0:
            return 0.0
        return max(0.0, 1.0 - len(self._persisted) / self._disk_entry_lines)

    def _note_entry_locked(self, key: str, response: str) -> None:
        """Record size and insertion epoch for one inserted/replaced entry."""
        size = len(key) + len(response.encode("utf-8"))
        self._total_bytes += size - self._sizes.get(key, 0)
        self._sizes[key] = size
        self._epochs[key] = self._clock()

    def _drop_entry_locked(self, key: str) -> None:
        del self._entries[key]
        self._identities.pop(key, None)
        self._pending.pop(key, None)
        self._total_bytes -= self._sizes.pop(key, 0)
        self._epochs.pop(key, None)

    def _expired_locked(self, key: str, now: Optional[float] = None) -> bool:
        if self.ttl_s is None:
            return False
        if now is None:
            now = self._clock()
        return now - self._epochs.get(key, now) > self.ttl_s

    def _over_budget_locked(self) -> bool:
        if len(self._entries) > self.max_entries:
            return True
        return self.max_bytes is not None and self._total_bytes > self.max_bytes

    def _evict_overflow_locked(self) -> None:
        while self._entries and self._over_budget_locked():
            evicted = self._select_victim_locked()
            self._drop_entry_locked(evicted)
            self.stats.evictions += 1

    def _select_victim_locked(self) -> str:
        """The key to evict next — one rule over an LRU sample.

        Among the ``EVICTION_SAMPLE`` least recently used entries, an
        expired one goes first: dropping it loses nothing.  Otherwise the
        entry with the largest ``reclaim / regen_s`` goes, where
        ``reclaim`` is its bytes under a byte budget (one entry without)
        and ``regen_s`` its cost model's seconds-to-regenerate (0 with no
        cost model or an unknown identity).  So a huge cheap response
        never outlives a hundred tiny expensive ones, a full cache keeps
        slow models' responses longest, and with no signal at all the
        oldest goes: ``max`` is stable over the LRU-ordered sample, so
        ties go to the oldest.  Without a TTL, byte budget or cost model
        that is always the first key, taken in O(1).
        """
        iterator = iter(self._entries)
        if self.ttl_s is None and self.max_bytes is None and self.cost_model is None:
            return next(iterator)
        sample = list(itertools.islice(iterator, EVICTION_SAMPLE))
        if self.ttl_s is not None:
            now = self._clock()
            for key in sample:
                if self._expired_locked(key, now):
                    return key

        def reclaim_per_regen_second(key: str) -> float:
            reclaim = self._sizes.get(key, 0) if self.max_bytes is not None else 1
            identity = self._identities.get(key)
            regen_s = 0.0
            if identity is not None and self.cost_model is not None:
                regen_s = self.cost_model.identity_estimate(identity, default=0.0)
            return reclaim / (regen_s + 1e-9)

        return max(sample, key=reclaim_per_regen_second)

    # -- persistence ----------------------------------------------------------------

    def segment_files(self, path: Optional[Union[str, Path]] = None) -> List[Path]:
        """Segment files at ``path`` (default: the constructor path), sorted."""
        target = Path(path) if path is not None else self.path
        if target is None or not target.is_dir():
            return []
        return sorted(target.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"))

    def save(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Persist to ``path`` (or the constructor path); returns the path.

        Saving to the constructor path is **incremental**: only entries
        added since the last save are appended, as new atomic segments.
        Saving to any *other* path writes a deduplicated full snapshot
        (existing segments there are folded in and replaced, compact-style;
        the incremental bookkeeping only applies to the cache's own path).

        Persistence is an optimisation, never a requirement: I/O failure
        (full disk, read-only directory) is caught here — warned once per
        instance, never raised — and the unsaved entries stay in memory
        *and* pending, so a later save retries them.  A completed run's
        results must not be lost to a failing ``save`` at the finish line.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("no cache file path configured")
        try:
            return self._save(target)
        except OSError as exc:
            self._warn_io(f"save to {target} failed ({exc}); results kept in memory")
            return target

    def _save(self, target: Path) -> Path:
        """The fallible save body; :meth:`save` owns the I/O-error policy."""
        incremental = self.path is not None and target == self.path
        with self._lock:
            if incremental:
                items = [
                    (key, self._entries[key], self._identities.get(key))
                    for key in self._pending
                    if key in self._entries
                ]
                target.mkdir(parents=True, exist_ok=True)
                self._write_segments_locked(target, items)
                self._persisted.update(key for key, _, _ in items)
                self._pending.clear()
                self._disk_entry_lines += len(items)
                self._maybe_auto_compact_locked(target)
            else:
                # Full snapshot to a foreign path: fold any segments
                # already there together with memory (memory wins) and
                # replace them, so repeated snapshots never accumulate
                # duplicate entry lines.
                target.mkdir(parents=True, exist_ok=True)
                self._rewrite_dir_locked(target)
        return target

    def _maybe_auto_compact_locked(self, target: Path) -> bool:
        """Fold the store if the dead-entry ratio crossed the threshold."""
        if self.auto_compact_ratio is None:
            return False
        if self._dead_ratio_locked() <= self.auto_compact_ratio:
            return False
        segments = list(target.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"))
        if len(segments) < self.auto_compact_min_segments:
            return False
        self._compact_locked(target)
        return True

    def _compact_locked(self, target: Path) -> None:
        """Shared implementation of manual :meth:`compact` and auto-compact."""
        merged = self._rewrite_dir_locked(target)
        if self.path is not None and target == self.path:
            self._persisted = set(merged)
            self._pending.clear()
            self._disk_entry_lines = len(merged)
        self.stats.compactions += 1

    def _rewrite_dir_locked(self, target: Path) -> Dict[str, str]:
        """Fold ``target``'s segments together with memory into fresh ones.

        Parses every existing segment, overlays the in-memory entries
        (memory wins on conflicts; on-disk identities are kept for entries
        memory has no identity for), writes the merged set as new segments
        and removes the old files, along with a leftover index file from
        older versions.  Returns the merged key→response map.
        """
        old_segments = sorted(target.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"))
        merged: Dict[str, str] = {}
        identities: Dict[str, str] = {}
        for segment in old_segments:
            for key, (response, identity) in self._parse_segment(segment).items():
                merged[key] = response
                if identity is not None:
                    identities[key] = identity
        merged.update(self._entries)
        identities.update(self._identities)
        records = [
            (key, response, identities.get(key)) for key, response in merged.items()
        ]
        self._write_segments_locked(target, records)
        for stale in [*old_segments, target / _LEGACY_INDEX_NAME]:
            try:
                stale.unlink()
            except OSError:
                pass
        if old_segments:
            self._fsync_dir(target)
        return merged

    @staticmethod
    def _entry_line(key: str, response: str, identity: Optional[str]) -> str:
        entry: Dict[str, str] = {"k": key, "r": response}
        if identity is not None:
            # Optional field: readers that predate it simply ignore it, so
            # the format version stays unchanged.
            entry["i"] = identity
        return json.dumps(entry, ensure_ascii=False)

    def _write_segments_locked(
        self, target: Path, items: List[Tuple[str, str, Optional[str]]]
    ) -> None:
        """Append ``items`` as size-bounded segments, each written atomically."""
        if not items:
            return
        next_index = self._next_segment_index(target)
        for start in range(0, len(items), self.segment_max_entries):
            shard = items[start : start + self.segment_max_entries]
            lines = [json.dumps({"format": _SEGMENT_FORMAT, "version": _CACHE_FORMAT_VERSION})]
            lines.extend(
                self._entry_line(key, response, identity)
                for key, response, identity in shard
            )
            payload = "\n".join(lines) + "\n"
            final = target / f"{_SEGMENT_PREFIX}{next_index:06d}{_SEGMENT_SUFFIX}"
            next_index += 1
            fd, tmp_name = tempfile.mkstemp(
                prefix=".tmp-segment-", suffix=_SEGMENT_SUFFIX, dir=target
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_name, final)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        # The renames above live in the directory's own metadata: without
        # syncing it too, a power loss can forget a fully-fsynced segment
        # ever existed — a committed save() must not silently vanish.
        self._fsync_dir(target)

    @staticmethod
    def _fsync_dir(target: Path) -> None:
        try:
            fd = os.open(str(target), os.O_RDONLY)
        except OSError:  # platforms/filesystems without directory fds
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - defensive
            pass
        finally:
            os.close(fd)

    @staticmethod
    def _next_segment_index(target: Path) -> int:
        highest = 0
        for segment in target.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"):
            stem = segment.name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
            if stem.isdigit():
                highest = max(highest, int(stem))
        return highest + 1

    def load(self, path: Union[str, Path]) -> int:
        """Merge entries from a segment directory.

        Returns how many entries were applied.  A cache store is an
        optimisation, never a requirement: unreadable, corrupt, truncated
        or version-mismatched segments (or individual segment lines) load
        zero/fewer entries instead of raising, so a damaged cache can at
        worst slow a run down.
        """
        source = Path(path)
        loaded = 0
        mark_persisted = self.path is not None and source == self.path
        for segment in sorted(source.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}")):
            loaded += self._load_one_segment(segment, mark_persisted)
        with self._lock:
            self._evict_overflow_locked()
        return loaded

    @staticmethod
    def _parse_segment(segment: Path) -> Dict[str, Tuple[str, Optional[str]]]:
        """``key -> (response, identity)`` of one segment file.

        Damaged headers/lines parse to less: a truncated tail line
        (interrupted write) or damaged line is skipped; everything that
        parses is kept.  A missing or version-mismatched header skips the
        whole segment.  The identity field is optional (stores written
        before it existed load with ``None``).

        The entry lines are decoded with one ``json.loads``, joined into
        one JSON array.  When that raises, or gives other than one value
        per line (two values on one line), they are decoded line by line
        instead, so a damaged segment pays for the per-line decode.
        """
        try:
            text = segment.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            return {}
        # Only "\n" ends a line: ``str.splitlines`` would also break inside
        # a response holding U+2028, U+2029 or U+0085, which the writer
        # leaves unescaped.
        lines = [line for line in text.split("\n") if line]
        if not lines:
            return {}
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            return {}
        if (
            not isinstance(header, dict)
            or header.get("format") != _SEGMENT_FORMAT
            or header.get("version") != _CACHE_FORMAT_VERSION
        ):
            return {}
        lines = lines[1:]
        try:
            decoded = json.loads("[" + ",".join(lines) + "]")
        except json.JSONDecodeError:
            decoded = None
        if decoded is None or len(decoded) != len(lines):
            decoded = []
            for line in lines:
                try:
                    decoded.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
        entries: Dict[str, Tuple[str, Optional[str]]] = {}
        for entry in decoded:
            if not isinstance(entry, dict) or "k" not in entry or "r" not in entry:
                continue
            key, response = entry["k"], entry["r"]
            identity = entry.get("i")
            if isinstance(key, str) and isinstance(response, str):
                entries[key] = (response, identity if isinstance(identity, str) else None)
        return entries

    def _load_one_segment(self, segment: Path, mark_persisted: bool) -> int:
        entries = self._parse_segment(segment)
        with self._lock:
            for key, (response, identity) in entries.items():
                self._entries[key] = response
                self._note_entry_locked(key, response)
                if identity is not None:
                    self._identities[key] = identity
                if mark_persisted:
                    self._persisted.add(key)
                    self._pending.pop(key, None)
            if mark_persisted:
                # Cross-segment duplicates (re-inserted keys) count once per
                # segment they appear in, which is what makes them *dead*.
                self._disk_entry_lines += len(entries)
        return len(entries)

    def compact(self, path: Optional[Union[str, Path]] = None) -> Optional[Path]:
        """Fold the on-disk store into a minimal set of fresh segments.

        Incremental saves only ever append, so a long-lived cache directory
        accumulates shards (and dead duplicates when entries were
        re-inserted).  Compaction merges every on-disk entry with the
        in-memory ones (memory wins on conflicts; disk entries evicted from
        the bounded LRU are preserved — compaction must never shrink the
        persistent store), writes the merged set as new segments, then
        removes every older one.  Returns the directory, or ``None`` when
        there is nothing on disk to compact.
        """
        target = Path(path) if path is not None else self.path
        if target is None or not target.is_dir():
            return None
        with self._lock:
            self._compact_locked(target)
        return target

    @classmethod
    def store_stats(cls, path: Union[str, Path]) -> Dict[str, float]:
        """Scan the segment directory at ``path`` without loading it.

        Counts the segments holding at least one entry that parses, the
        entry lines they hold (a key re-inserted in a later segment counts
        once per segment, which is what makes the earlier line dead), the
        distinct live keys among them — every key on disk, however many
        would fit in memory — and the segments' bytes.  ``segments`` is 0
        when nothing at ``path`` is a usable segment.
        """
        live: set = set()
        segments = entry_lines = total_bytes = 0
        target = Path(path)
        for segment in sorted(target.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}")):
            try:
                size = segment.stat().st_size
            except OSError:
                continue
            entries = cls._parse_segment(segment)
            if not entries:
                continue
            segments += 1
            entry_lines += len(entries)
            total_bytes += size
            live.update(entries)
        return {
            "segments": segments,
            "live_entries": len(live),
            "entry_lines": entry_lines,
            "dead_entries": entry_lines - len(live),
            "dead_ratio": 1.0 - len(live) / entry_lines if entry_lines else 0.0,
            "total_bytes": total_bytes,
        }
