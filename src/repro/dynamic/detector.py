"""Race detection over an execution trace.

A trace reaches the analysis either as a race index built from the record
the interpreter kept while it ran (the Inspector's path) or as recorded
events, which are folded into the same index here first.  Both then go through one pair loop, so the
two forms give equal reports.

The analysis mirrors what segment/lockset-based dynamic tools (Intel
Inspector, Archer) do:

* two accesses can only race when they target the same address, come from the
  same parallel-region instance, and at least one is a write;
* accesses of the same thread (and outside tasks) are ordered by program
  order;
* accesses in different barrier epochs are ordered by the barrier between
  them;
* accesses holding a common lock / critical region, both-atomic accesses and
  both-``ordered`` accesses are mutually excluded;
* explicit tasks are concurrent with their parent's continuation until the
  matching ``taskwait`` and with sibling tasks of the same task sequence,
  unless ``depend`` clauses order them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, List, Tuple

from repro.dynamic.events import MAX_EVENTS_PER_ADDRESS, AccessEvent, ExecutionTrace, RaceIndex

__all__ = ["DynamicRacePair", "DynamicRaceReport", "detect_races", "index_events", "pair_variables"]

#: A pair's source identity: its two ``(line, col, operation)`` sides, sorted.
Signature = Tuple[Tuple[int, int, str], ...]


def _signature(a: AccessEvent, b: AccessEvent) -> Signature:
    return tuple(sorted([(a.line, a.col, a.operation), (b.line, b.col, b.operation)]))


@dataclass(frozen=True)
class DynamicRacePair:
    """A pair of conflicting concurrent accesses found in a trace."""

    first: AccessEvent
    second: AccessEvent

    def variable(self) -> str:
        return self.first.variable

    def signature(self) -> Signature:
        """Source identity of the pair; reports keep one pair per signature."""
        return _signature(self.first, self.second)

    def describe(self) -> str:
        a, b = self.first, self.second
        return (
            f"{a.expr_text}@{a.line}:{a.col}:{a.operation} vs. "
            f"{b.expr_text}@{b.line}:{b.col}:{b.operation}"
        )


@dataclass
class DynamicRaceReport:
    """Result of analysing one execution trace."""

    has_race: bool
    pairs: List[DynamicRacePair] = field(default_factory=list)
    events_analyzed: int = 0
    addresses_analyzed: int = 0

    def variables(self) -> List[str]:
        return pair_variables(self.pairs)


def pair_variables(pairs: Iterable[DynamicRacePair]) -> List[str]:
    """The variables of ``pairs``, each once, in order of first appearance."""
    seen: List[str] = []
    for pair in pairs:
        if pair.variable() not in seen:
            seen.append(pair.variable())
    return seen


def _tasks_ordered(a: AccessEvent, b: AccessEvent) -> bool:
    """Ordering decision for events where at least one runs inside a task."""
    ta, tb = a.task, b.task
    if ta is not None and tb is not None:
        if ta.task_id == tb.task_id:
            return True
        if ta.task_id in tb.ordered_after or tb.task_id in ta.ordered_after:
            return True
        # Tasks separated by a taskwait on the creating context are ordered.
        if ta.creator_thread == tb.creator_thread and ta.seq != tb.seq:
            return True
        return False
    # exactly one of the two is a task; the other is a plain (parent) access
    task, plain = (ta, b) if ta is not None else (tb, a)
    if plain.thread != task.creator_thread:
        # A task and an unrelated thread of the same region: ordered only by
        # barrier epochs, handled by the caller.
        return False
    if plain.task_seq > task.seq:
        return True  # the parent already waited for this task generation
    if plain.step <= task.creation_step:
        return True  # the parent access happened before the task was created
    return False


def _concurrent(a: AccessEvent, b: AccessEvent) -> bool:
    """Can the two events execute concurrently?"""
    if a.region != b.region:
        return False
    if a.task is None and b.task is None:
        if a.thread == b.thread:
            return False
        return a.epoch == b.epoch
    if _tasks_ordered(a, b):
        return False
    if a.thread != b.thread and a.epoch != b.epoch:
        return False
    return True


def _mutually_excluded(a: AccessEvent, b: AccessEvent) -> bool:
    """Do the two events hold protection that prevents them from overlapping?"""
    if a.atomic and b.atomic:
        return True
    if a.locks & b.locks:
        return True
    if a.ordered and b.ordered:
        return True
    return False


def _dedupe_key(event: AccessEvent) -> Tuple:
    """Events identical under this key behave identically for race purposes.

    It carries the same fields as the interpreter's race-index key, so a
    recorded trace folds into the same buckets an indexing run builds.
    """
    return (
        event.thread,
        event.task.task_id if event.task else None,
        event.task_seq,
        event.region,
        event.epoch,
        event.is_write,
        event.locks,
        event.atomic,
        event.ordered,
        event.line,
        event.col,
    )


def index_events(events: Iterable[AccessEvent]) -> RaceIndex:
    """Fold recorded events into a race index, in order."""
    index = RaceIndex()
    buckets, written = index.buckets, index.written
    seen = set()
    for event in events:
        index.events += 1
        key = (event.address, _dedupe_key(event))
        if key in seen:
            continue
        seen.add(key)
        if event.is_write:
            written.add(event.address)
        bucket = buckets.setdefault(event.address, [])
        if len(bucket) < MAX_EVENTS_PER_ADDRESS:
            bucket.append(event)
    return index


def detect_races(trace: ExecutionTrace, *, max_pairs: int = 32) -> DynamicRaceReport:
    """Analyse a trace and report conflicting concurrent access pairs.

    Events are grouped by address and de-duplicated by the
    synchronization-relevant key (at most ``MAX_EVENTS_PER_ADDRESS`` keys
    per address) so that long loops do not blow up the pairwise check.  An
    indexing run did that while it executed, and reading its index builds
    the events; a recorded trace is folded here.  Reported pairs are unique
    per signature.
    """
    index = trace.index if trace.index is not None else index_events(trace.events)
    report = DynamicRaceReport(
        has_race=False, events_analyzed=index.events, addresses_analyzed=len(index.buckets)
    )
    reported: set = set()

    for address, bucket in index.buckets.items():
        if address not in index.written:
            continue
        for a, b in combinations(bucket, 2):
            if len(report.pairs) >= max_pairs:
                break
            if not (a.is_write or b.is_write):
                continue
            if not _concurrent(a, b):
                continue
            if _mutually_excluded(a, b):
                continue
            signature = _signature(a, b)
            if signature in reported:
                continue
            reported.add(signature)
            report.pairs.append(DynamicRacePair(first=a, second=b))
        if len(report.pairs) >= max_pairs:
            break

    report.has_race = bool(report.pairs)
    return report
