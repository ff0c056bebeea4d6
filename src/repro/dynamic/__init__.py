"""Dynamic (execution-based) race detection substrate.

This package plays the role of the commercial dynamic tools the paper uses
as its traditional baseline (Intel Inspector, ThreadSanitizer): it *runs*
each OpenMP microbenchmark on a simulated thread team, observes every access
to shared storage together with its synchronization context, and then checks
conflicting accesses for concurrency using a segment (barrier-epoch) +
lockset analysis.  The Inspector folds accesses into a compact per-address
record while the program runs and builds the race index's events from it
only when the index is read; a recorded event trace is the reference form
the tests compare against.

Modules
-------
``events``
    The access/synchronization event records produced by the interpreter,
    and the race index an indexing run builds from them.
``limits``
    :class:`InterpreterLimits` and :class:`InterpreterError`, which
    ``interpreter`` re-exports.
``interpreter``
    An interpreter for the corpus language subset with OpenMP semantics
    (parallel regions, worksharing loops, sections, single/master, critical,
    atomic, ordered, locks, tasks and taskwait).  It compiles each program
    once into closures and runs the compiled program per schedule.
``detector``
    The happens-before/lockset analysis over a race index or a recorded trace.
``inspector``
    The :class:`InspectorLikeDetector` facade used by the Table 3 experiment.

Layering: only a run that interprets loads ``interpreter``, the largest
module of the package.  The package re-exports its names lazily (importing
``repro.dynamic`` loads no submodule), ``inspector`` imports the interpreter
on its first analysis, and code that only sets limits or catches
:class:`InterpreterError` imports them from ``limits``.  A module that
others import at start-up must not import ``interpreter`` at module level.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "events": ("AccessEvent", "ExecutionTrace", "RaceIndex"),
    "interpreter": ("Interpreter",),
    "limits": ("InterpreterError", "InterpreterLimits"),
    "detector": ("DynamicRacePair", "DynamicRaceReport", "detect_races"),
    "inspector": ("InspectorLikeDetector",),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
