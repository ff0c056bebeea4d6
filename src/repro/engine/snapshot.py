"""Zero-copy cache-snapshot broadcast for distributed executors.

The process backend must show every worker the parent's warm response
cache.  Pickling the whole entry dict per run and letting each worker
deserialise its own private copy costs O(entries) in the parent *plus*
O(entries) per worker — and N private dicts of RAM on one host.  This
module replaces that with a **shared-memory broadcast**:

* the parent encodes the snapshot once into a compact length-prefixed
  binary layout (:func:`encode_snapshot`) inside a
  ``multiprocessing.shared_memory`` block;
* chunk payloads carry only a tiny picklable ``(kind, name, token)``
  reference;
* each worker *attaches* the block read-only and serves ``get`` by binary
  search directly over the shared buffer (:class:`SharedSnapshotView`) —
  no per-worker deserialisation, no private copy, one physical mapping per
  host;
* the parent unlinks the block when the run finishes
  (:func:`retire_snapshot`); workers already attached keep their mapping
  alive until they drop it (POSIX semantics), so retirement can never race
  a late-loading chunk into a crash — a late *attach* simply fails, which
  cannot happen while payloads referencing the block are still in flight.

Platforms or contexts where shared memory is unavailable (no
``/dev/shm``, exotic spawn configurations) fall back transparently to a
temp-file pickle carrier — same reference shape, same worker memoisation.

Binary layout (all integers little-endian)::

    header:  magic ``b"RPROSNP3"`` | u64 count | u64 heap_off
    index:   count records of (u64 key_end, u64 resp_end) — *cumulative*
             per-column end offsets, sorted by key bytes
    heap:    two columns — every key concatenated, then every response —
             utf-8, in index order

Record ``i``'s key spans ``key_end[i-1]..key_end[i]`` of the key column
(``0..`` for the first record), and likewise its response; the last index
record therefore doubles as the key column's size, which is how the
reader locates the response column.  Keys are content hashes
(:func:`repro.engine.cache.cache_key`), so sorted fixed-ish-length byte
strings make binary search cheap.  The broadcast lives for one run and is
never persisted, so the layout carries only what workers read.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import struct
import sys
import tempfile
from array import array
from typing import Dict, List, Mapping, Optional, Tuple, Union

__all__ = [
    "PublishedSnapshot",
    "SharedSnapshotView",
    "encode_snapshot",
    "load_snapshot",
    "publish_snapshot",
    "retire_snapshot",
]

_MAGIC = b"RPROSNP3"
_HEADER = struct.Struct("<8sQQ")
_INDEX = struct.Struct("<QQ")

#: What a chunk payload carries across the process boundary:
#: ``(kind, locator, token)`` — the shm block name or temp-file path plus a
#: unique broadcast token workers memoise by.
SnapshotPayloadRef = Tuple[str, str, Tuple[int, int]]

#: Monotonic per-process counter; combined with the pid it makes broadcast
#: tokens unique even if a shm name or temp path is recycled by the OS.
_snapshot_counter = itertools.count(1)


def _next_token() -> Tuple[int, int]:
    return (os.getpid(), next(_snapshot_counter))


def _column(texts: List[str]) -> Tuple[bytes, array]:
    """One heap column and the cumulative utf-8 end offset of each item."""
    joined = "".join(texts)
    blob = joined.encode("utf-8")
    if len(blob) == len(joined):  # pure-ASCII column: char lengths are byte lengths
        lengths = map(len, texts)
    else:
        lengths = (len(text.encode("utf-8")) for text in texts)
    return blob, array("Q", itertools.accumulate(lengths))


def encode_snapshot(entries: Mapping[str, str]) -> bytes:
    """Serialise a key→response mapping into the columnar broadcast layout."""
    keys = sorted(entries)  # utf-8 byte order == code-point order
    key_blob, key_ends = _column(keys)
    resp_blob, resp_ends = _column([entries[key] for key in keys])
    index = array("Q", [0]) * (2 * len(keys))
    index[0::2] = key_ends
    index[1::2] = resp_ends
    if sys.byteorder != "little":  # pragma: no cover - the layout is little-endian
        index.byteswap()
    heap_off = _HEADER.size + len(keys) * _INDEX.size
    return b"".join(
        [_HEADER.pack(_MAGIC, len(keys), heap_off), index.tobytes(), key_blob, resp_blob]
    )


class SharedSnapshotView:
    """Read-only ``get`` over an encoded snapshot buffer — no dict built.

    Lookup is a binary search over the sorted index directly against the
    (possibly shared) buffer; only the handful of bytes each comparison
    touches are ever copied, so attaching a 50k-entry snapshot costs a few
    header reads, not a full deserialisation.  The optional ``shm`` handle
    is owned by the view: :meth:`close` releases the buffer and closes the
    mapping (the worker memo closes a superseded view before replacing it).
    """

    def __init__(self, buffer, *, shm=None) -> None:
        self._shm = shm
        self._view = memoryview(buffer)
        magic, count, heap_off = _HEADER.unpack_from(self._view, 0)
        if magic != _MAGIC:
            raise ValueError("not a snapshot buffer (bad magic)")
        self._count = count
        # The last index record holds the key column's total byte size,
        # which fixes where the response column starts.
        key_total = 0
        if count:
            key_total, _ = _INDEX.unpack_from(
                self._view, _HEADER.size + (count - 1) * _INDEX.size
            )
        self._key_base = heap_off
        self._resp_base = heap_off + key_total

    def __len__(self) -> int:
        return self._count

    def _bounds(self, position: int) -> Tuple[int, int, int, int]:
        """Per-column (start, end) offsets of one record, column-relative."""
        offset = _HEADER.size + position * _INDEX.size
        key_end, resp_end = _INDEX.unpack_from(self._view, offset)
        if position:
            key_start, resp_start = _INDEX.unpack_from(self._view, offset - _INDEX.size)
        else:
            key_start = resp_start = 0
        return key_start, key_end, resp_start, resp_end

    def _search(self, key: str) -> Optional[Tuple[int, int, int, int]]:
        needle = key.encode("utf-8")
        lo, hi = 0, self._count
        while lo < hi:
            mid = (lo + hi) // 2
            bounds = self._bounds(mid)
            candidate = bytes(
                self._view[self._key_base + bounds[0] : self._key_base + bounds[1]]
            )
            if candidate == needle:
                return bounds
            if candidate < needle:
                lo = mid + 1
            else:
                hi = mid
        return None

    def get(self, key: str, default=None):
        """The response stored under ``key``, or ``default``."""
        bounds = self._search(key)
        if bounds is None:
            return default
        _, _, resp_start, resp_end = bounds
        return str(self._view[self._resp_base + resp_start : self._resp_base + resp_end], "utf-8")

    def close(self) -> None:
        """Release the buffer and, when shm-backed, close the mapping."""
        try:
            self._view.release()
        except BufferError:  # pragma: no cover - defensive
            pass
        if self._shm is not None:
            try:
                self._shm.close()
            except (OSError, BufferError):  # pragma: no cover - defensive
                pass
            self._shm = None


class PublishedSnapshot:
    """Parent-side handle of one broadcast: owns the shm block or temp file.

    ``payload`` is the only part that crosses the process boundary; the
    handle itself stays in the parent so :func:`retire_snapshot` can unlink
    the resource when the run completes.
    """

    __slots__ = ("kind", "payload", "nbytes", "_shm", "_path")

    def __init__(self, kind: str, payload: SnapshotPayloadRef, nbytes: int, *, shm=None, path=None) -> None:
        self.kind = kind
        self.payload = payload
        self.nbytes = nbytes
        self._shm = shm
        self._path = path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PublishedSnapshot kind={self.kind} nbytes={self.nbytes}>"


def _publish_shm(entries: Mapping[str, str]) -> PublishedSnapshot:
    """The shared-memory carrier: one encoded block workers attach in place."""
    from multiprocessing import shared_memory

    encoded = encode_snapshot(entries)
    shm = shared_memory.SharedMemory(create=True, size=max(len(encoded), 1))
    try:
        shm.buf[: len(encoded)] = encoded
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    token = _next_token()
    return PublishedSnapshot(
        "shm", ("shm", shm.name, token), len(encoded), shm=shm
    )


def _publish_file(entries: Mapping[str, str]) -> PublishedSnapshot:
    """The fallback carrier: a pickled dict each worker loads privately."""
    fd, path = tempfile.mkstemp(prefix="repro-cache-snapshot-", suffix=".pkl")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(entries, handle, protocol=pickle.HIGHEST_PROTOCOL)
        nbytes = os.path.getsize(path)
    except BaseException:
        try:
            os.unlink(path)
        except OSError:
            pass
        raise
    token = _next_token()
    return PublishedSnapshot("file", ("file", path, token), nbytes, path=path)


def publish_snapshot(entries: Mapping[str, str]) -> PublishedSnapshot:
    """Publish one cache snapshot for a run's worth of chunk payloads.

    Tries a shared-memory block first and falls back to the temp-file
    pickle when shared memory is unavailable.
    """
    try:
        return _publish_shm(entries)
    except (ImportError, OSError, ValueError):
        pass  # no /dev/shm, permissions, size limits: degrade gracefully
    return _publish_file(entries)


def retire_snapshot(published: Optional[PublishedSnapshot]) -> None:
    """Release a published snapshot after every chunk has completed.

    For shm the block is closed and unlinked — workers still attached keep
    their mapping alive until they drop it, so in-flight views never tear.
    For the file carrier the temp file is deleted.  Idempotent.
    """
    if published is None:
        return
    if published._shm is not None:
        shm, published._shm = published._shm, None
        try:
            shm.close()
        except (OSError, BufferError):  # pragma: no cover - defensive
            pass
        try:
            shm.unlink()
        except OSError:
            pass
    if published._path is not None:
        path, published._path = published._path, None
        try:
            os.unlink(path)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

#: Worker-side memo: the most recently loaded snapshot, keyed by token.  A
#: worker process keeps at most one snapshot alive — the engine publishes a
#: fresh one per run, so older epochs can never be referenced again.
_WORKER_SNAPSHOTS: Dict[Tuple[int, int], Union[Dict[str, str], SharedSnapshotView]] = {}


def _attach_shm(name: str):
    """Attach an existing shm block; the parent owns the block's lifetime.

    On Python >= 3.13 ``track=False`` keeps the attach out of the resource
    tracker entirely.  Older versions re-register every attach — harmless
    only while workers share the parent's tracker process, where
    registration is an idempotent set-add and the parent's ``unlink``
    deregisters the name exactly once.  A worker forked before the parent
    started its tracker would start its own, which "cleans up" (unlinks
    and warns about) every attached block at worker exit; that is why
    :class:`~repro.engine.executors.ProcessPoolExecutor` starts the
    tracker before it forks.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # Python < 3.13: no track parameter
        return shared_memory.SharedMemory(name=name)


def _discard_memo() -> None:
    for stale in _WORKER_SNAPSHOTS.values():
        if isinstance(stale, SharedSnapshotView):
            stale.close()
    _WORKER_SNAPSHOTS.clear()


# A memoised view pins its shm mapping through a memoryview; interpreter
# shutdown must release that view before SharedMemory.__del__ runs or the
# close raises "cannot close exported pointers exist" into stderr.
atexit.register(_discard_memo)


def load_snapshot(ref: Optional[SnapshotPayloadRef]):
    """Worker side: resolve a payload reference to a ``get``-able snapshot.

    Returns ``(snapshot, loaded_kind)`` where ``snapshot`` supports
    ``get(key, default)`` (a :class:`SharedSnapshotView` or a plain dict)
    and ``loaded_kind`` is ``"shm"``/``"file"`` when this call actually
    attached/deserialised, or ``None`` for a memo hit (at most one genuine
    load per worker per run) or a ``None`` reference.
    """
    if ref is None:
        return None, None
    kind, locator, token = ref
    snapshot = _WORKER_SNAPSHOTS.get(token)
    if snapshot is not None:
        return snapshot, None
    if kind == "shm":
        shm = _attach_shm(locator)
        snapshot = SharedSnapshotView(shm.buf, shm=shm)
    elif kind == "file":
        with open(locator, "rb") as handle:
            snapshot = pickle.load(handle)
    else:
        raise ValueError(f"unknown snapshot payload kind {kind!r}")
    _discard_memo()
    _WORKER_SNAPSHOTS[token] = snapshot
    return snapshot, kind
