"""Dynamic (execution-based) race detection substrate.

This package plays the role of the commercial dynamic tools the paper uses
as its traditional baseline (Intel Inspector, ThreadSanitizer): it *runs*
each OpenMP microbenchmark on a simulated thread team, observes every access
to shared storage together with its synchronization context, and then checks
conflicting accesses for concurrency using a segment (barrier-epoch) +
lockset analysis.  The Inspector folds accesses into a per-address race
index while the program runs; a recorded event trace is the reference form
the tests compare against.

Modules
-------
``events``
    The access/synchronization event records produced by the interpreter,
    and the race index an indexing run builds from them.
``interpreter``
    An interpreter for the corpus language subset with OpenMP semantics
    (parallel regions, worksharing loops, sections, single/master, critical,
    atomic, ordered, locks, tasks and taskwait).  It compiles each program
    once into closures and runs the compiled program per schedule.
``detector``
    The happens-before/lockset analysis over a race index or a recorded trace.
``inspector``
    The :class:`InspectorLikeDetector` facade used by the Table 3 experiment.
"""

from repro.dynamic.events import AccessEvent, ExecutionTrace, RaceIndex
from repro.dynamic.interpreter import Interpreter, InterpreterError, InterpreterLimits
from repro.dynamic.detector import DynamicRacePair, DynamicRaceReport, detect_races
from repro.dynamic.inspector import InspectorLikeDetector

__all__ = [
    "AccessEvent",
    "ExecutionTrace",
    "RaceIndex",
    "Interpreter",
    "InterpreterError",
    "InterpreterLimits",
    "DynamicRacePair",
    "DynamicRaceReport",
    "detect_races",
    "InspectorLikeDetector",
]
