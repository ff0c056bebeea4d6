"""Broadcast-once cache snapshots for distributed executors.

The process backend must show every worker the parent's warm response
cache.  Pickling the entry dict into every chunk payload would cost
O(entries) per chunk; instead the snapshot travels once per run:

* the parent pickles the entries once into a temp file
  (:func:`publish_snapshot`);
* chunk payloads carry only a tiny picklable ``(path, token)`` reference;
* each worker loads the file at most once per run and memoises the dict
  by token (:func:`load_snapshot`), so later chunks of the same run are
  memo hits;
* the parent deletes the file when the run finishes
  (:func:`retire_snapshot`), including on error.  Every chunk has
  completed by then, so no worker can still need it.
"""

from __future__ import annotations

import itertools
import os
import pickle
import tempfile
from typing import Dict, Mapping, NamedTuple, Optional, Tuple

__all__ = [
    "PublishedSnapshot",
    "load_snapshot",
    "publish_snapshot",
    "retire_snapshot",
]

#: What a chunk payload carries across the process boundary:
#: ``(path, token)`` — the temp-file path plus a unique broadcast token
#: workers memoise by.
SnapshotPayloadRef = Tuple[str, Tuple[int, int]]

#: Monotonic per-process counter; combined with the pid it makes broadcast
#: tokens unique even if a temp path is recycled by the OS.
_snapshot_counter = itertools.count(1)


class PublishedSnapshot(NamedTuple):
    """Parent-side handle of one broadcast.

    ``payload`` is the only part that crosses the process boundary; the
    handle itself stays in the parent so :func:`retire_snapshot` can delete
    the file when the run completes.
    """

    payload: SnapshotPayloadRef
    nbytes: int


def publish_snapshot(entries: Mapping[str, str]) -> PublishedSnapshot:
    """Publish one cache snapshot for a run's worth of chunk payloads."""
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
    return PublishedSnapshot((path, (os.getpid(), next(_snapshot_counter))), nbytes)


def retire_snapshot(published: Optional[PublishedSnapshot]) -> None:
    """Delete a published snapshot's file after every chunk has completed.

    A ``None`` handle (an uncached run) is a no-op.
    """
    if published is None:
        return
    try:
        os.unlink(published.payload[0])
    except OSError:
        pass


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

#: Worker-side memo: the most recently loaded snapshot, keyed by token.  A
#: worker process keeps at most one snapshot alive — the engine publishes a
#: fresh one per run, so older epochs can never be referenced again.
_WORKER_SNAPSHOTS: Dict[Tuple[int, int], Dict[str, str]] = {}


def load_snapshot(ref: Optional[SnapshotPayloadRef]):
    """Worker side: resolve a payload reference to the snapshot dict.

    Returns ``(snapshot, loaded)`` where ``snapshot`` is the key→response
    dict (``None`` for a ``None`` reference) and ``loaded`` is true only
    when this call actually read the file — at most once per worker per
    run; later calls with the same token are memo hits.
    """
    if ref is None:
        return None, False
    path, token = ref
    snapshot = _WORKER_SNAPSHOTS.get(token)
    if snapshot is not None:
        return snapshot, False
    with open(path, "rb") as handle:
        snapshot = pickle.load(handle)
    _WORKER_SNAPSHOTS.clear()
    _WORKER_SNAPSHOTS[token] = snapshot
    return snapshot, True
