"""Event records produced by the OpenMP interpreter.

Every access to *shared* storage performed inside a parallel region is
described by an :class:`AccessEvent`.  The detector never looks at the
program again: all the information needed to decide concurrency and
protection is carried on the event (barrier epoch, held locks, atomicity,
ordered construct, task lineage).

A run delivers its accesses in one of two forms.  A *recording* run keeps
every event, in program order, in :attr:`ExecutionTrace.events`; tests and
the trace snapshot compare against it.  An *indexing* run (the Inspector's)
folds each access into a compact record as it happens: per address, one
small-int key per synchronization key met there, with the step of its
first access.  It builds no event while it runs.  Its
:attr:`ExecutionTrace.index` is built from that record on first read, one
:class:`AccessEvent` per key; a run whose index nobody reads (a clean run
that stops at its first race) builds none.

A long recording run keeps hundreds of thousands of events, so
:class:`AccessEvent` is a ``NamedTuple``: it is immutable and hashable like a
frozen dataclass, with the same fields, defaults and ``repr``, and much
cheaper to build.  The interpreter builds it from one positional tuple and
shares one ``locks`` frozenset between all events of the same lock state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Set, Union

__all__ = ["AccessEvent", "TaskInfo", "ExecutionTrace", "RaceIndex", "MAX_EVENTS_PER_ADDRESS"]

#: Distinct synchronization keys kept per address; later keys of a full
#: address are dropped, but their accesses still count.
MAX_EVENTS_PER_ADDRESS = 512


@dataclass(frozen=True)
class TaskInfo:
    """Identity and ordering metadata of an explicit OpenMP task."""

    task_id: int
    creator_thread: int
    creation_step: int
    seq: int
    ordered_after: FrozenSet[int] = frozenset()


class AccessEvent(NamedTuple):
    """One dynamic access to shared storage.

    Attributes
    ----------
    address:
        Canonical storage address, e.g. ``"sum"`` or ``"a[17]"``.
    variable, expr_text, line, col, is_write:
        Source-level identity of the access (used to report race pairs in the
        same form the ground truth uses).
    thread:
        Executing thread id within the parallel region's team.
    region:
        Index of the parallel region instance (regions never overlap in time,
        so events from different regions cannot race).
    epoch:
        Barrier epoch of the executing thread at the time of the access.
        Events of different epochs are ordered by the barrier in between.
    step:
        Per-thread monotonically increasing counter (program order).
    locks:
        Names of OpenMP locks and critical regions held (unnamed ``critical``
        is represented as ``"__critical__"``).
    atomic, ordered:
        Whether the access is inside an ``atomic`` / ``ordered`` construct.
    task:
        :class:`TaskInfo` when the access runs inside an explicit task.
    task_seq:
        The executing context's taskwait sequence number (used to order a
        parent's accesses against tasks it has already waited for).
    """

    address: str
    variable: str
    expr_text: str
    line: int
    col: int
    is_write: bool
    thread: int
    region: int
    epoch: int
    step: int
    locks: FrozenSet[str] = frozenset()
    atomic: bool = False
    ordered: bool = False
    task: Optional[TaskInfo] = None
    task_seq: int = 0

    @property
    def operation(self) -> str:
        return "W" if self.is_write else "R"


@dataclass
class RaceIndex:
    """Shared accesses grouped by address, de-duplicated as they arrive.

    ``buckets[address]`` lists, in arrival order, the first event of each
    synchronization key met at that address: who accessed it, under which
    barrier epoch, task, locks and atomic/ordered state, and where in the
    source.  Events with equal keys behave identically for race purposes,
    so the detector needs only one of them.  A bucket holds at most
    :data:`MAX_EVENTS_PER_ADDRESS` events.
    """

    buckets: Dict[str, List[AccessEvent]] = field(default_factory=dict)
    #: Addresses written at least once (counted even past a bucket's cap).
    written: Set[str] = field(default_factory=set)
    #: Every access folded in, duplicates included.
    events: int = 0


class _BuiltOnFirstRead:
    """The descriptor of :attr:`ExecutionTrace.index`.

    It holds a :class:`RaceIndex`, None, or a function of no arguments that
    builds the index: the first read calls the function and keeps its index.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.slot = f"_{name}"

    def __get__(self, trace: Optional["ExecutionTrace"], owner: Optional[type] = None):
        if trace is None:
            return None  # the field's default
        value = getattr(trace, self.slot)
        if callable(value):
            value = value()
            setattr(trace, self.slot, value)
        return value

    def __set__(self, trace: "ExecutionTrace",
                value: Union[RaceIndex, Callable[[], RaceIndex], None]) -> None:
        setattr(trace, self.slot, value)


@dataclass
class ExecutionTrace:
    """The outcome of one interpreted execution.

    A recording run fills :attr:`events`; an indexing run leaves it empty
    and fills :attr:`index` instead, built from the run's record when it is
    first read.  :attr:`finished` is false only for an indexing run that
    stopped at its first race (``stop_at_race``); its index then covers the
    run up to that access.
    """

    events: List[AccessEvent] = field(default_factory=list)
    num_threads: int = 1
    steps_executed: int = 0
    regions_executed: int = 0
    finished: bool = True
    index: Optional[RaceIndex] = _BuiltOnFirstRead()
