"""Inspector-like dynamic race detector facade.

:class:`InspectorLikeDetector` is the "traditional tool" row of the paper's
Table 3.  Like Intel Inspector it executes the program under instrumentation
(here: the :class:`~repro.dynamic.interpreter.Interpreter`) and analyses the
observed accesses; it can repeat the run under several schedules and team
sizes to expose schedule-dependent conflicts, and it degrades gracefully
(reporting "no race observed") when a program cannot be executed.  Each
program is parsed and compiled once; every (team size, schedule) run reuses
the compiled :class:`~repro.dynamic.interpreter.Program`.  Each run folds its
accesses into a race index as it executes (no event trace is kept), and
:func:`~repro.dynamic.detector.detect_races` checks the index's buckets.

:meth:`InspectorLikeDetector.analyze_source` runs every schedule to its end
and unions the pairs of the runs that complete.
:meth:`InspectorLikeDetector.predict` needs only the verdict, so its runs
check each access as it enters the index and stop at the first race they
witness, the way Inspector, ThreadSanitizer and Archer report a race the
moment they see it.  A race witnessed before a run fails therefore counts,
which a full analysis discards with the failed run: ``predict`` can say
"race" where the full analysis says "clean", never the other way round.
Verdicts are a pure function of the source, the thread count and the
detector's settings, so :attr:`InspectorLikeDetector.cache_identity` lets a
response cache store them (``repro.eval.experiments.evaluate_inspector``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.corpus.microbenchmark import Microbenchmark
from repro.cparse import parse
from repro.dynamic.detector import DynamicRacePair, detect_races, pair_variables
from repro.dynamic.limits import InterpreterError, InterpreterLimits

__all__ = ["InspectorRunResult", "InspectorLikeDetector"]

#: Identity prefix of cached verdicts.  Bump the version when a change to
#: the interpreter or the race detector alters any verdict, so stale
#: verdicts stop matching.
VERDICT_IDENTITY_PREFIX = "inspector/v2"


@dataclass
class InspectorRunResult:
    """Outcome of analysing one program."""

    name: str
    has_race: bool
    pairs: List[DynamicRacePair] = field(default_factory=list)
    runs: int = 0
    failed: bool = False
    failure_reason: Optional[str] = None

    def variables(self) -> List[str]:
        return pair_variables(self.pairs)

    @property
    def confidence(self) -> float:
        """Self-assessed reliability of the verdict, in [0, 1].

        The interpreter under-approximates: a witnessed conflict is close to
        ground truth, while a clean run only covers the schedules actually
        executed.  Failed runs degrade confidence down to zero when nothing
        executed at all.
        """
        if self.has_race:
            return 0.95
        if self.failed:
            return 0.0 if self.runs <= 0 else 0.4
        if self.runs > 0:
            return 0.6
        return 0.0


class InspectorLikeDetector:
    """Dynamic race detector facade over the OpenMP interpreter.

    Parameters
    ----------
    schedules:
        Worksharing schedules to try; conflicts found under any schedule are
        unioned, mimicking Inspector's repeated-run usage on DataRaceBench.
    team_sizes:
        Thread counts to execute with.  ``None`` entries mean "use the
        benchmark's own suggested thread count".
    limits:
        Interpreter execution limits.
    """

    def __init__(
        self,
        *,
        schedules: Sequence[str] = ("static", "roundrobin"),
        team_sizes: Sequence[Optional[int]] = (None,),
        limits: Optional[InterpreterLimits] = None,
    ) -> None:
        if not schedules:
            raise ValueError("at least one schedule is required")
        self.schedules = tuple(schedules)
        self.team_sizes = tuple(team_sizes) or (None,)
        self.limits = limits or InterpreterLimits()

    @property
    def cache_identity(self) -> str:
        """``inspector/v2#`` plus a digest of the settings that shape verdicts."""
        settings = repr((self.schedules, self.team_sizes, self.limits))
        digest = hashlib.sha256(settings.encode("utf-8")).hexdigest()
        return f"{VERDICT_IDENTITY_PREFIX}#{digest[:16]}"

    # -- public API ---------------------------------------------------------------

    def analyze_benchmark(self, bench: Microbenchmark) -> InspectorRunResult:
        """Run the detector on a corpus microbenchmark."""
        return self.analyze_source(bench.code, name=bench.name, num_threads=bench.num_threads)

    def analyze_source(
        self,
        source: str,
        *,
        name: str = "<source>",
        num_threads: int = 4,
        stop_at_race: bool = False,
    ) -> InspectorRunResult:
        """Run the detector on raw C source.

        Every run executes to its end, and a run that raises
        :class:`~repro.dynamic.interpreter.InterpreterError` is discarded.
        With ``stop_at_race`` each run stops at the first race it witnesses,
        even one that would have failed later, and that run ends the
        analysis; it counts as a completed run whose ``pairs`` are those of
        its partial index.  A run that ends without witnessing a race is
        clean and adds no pairs.  ``pairs``, ``runs`` and ``failed`` cover
        only the runs made.
        """
        # Imported here so that only a run that interprets compiles the
        # interpreter module (see the repro.dynamic docstring).
        from repro.dynamic.interpreter import Interpreter, Program

        result = InspectorRunResult(name=name, has_race=False)
        seen_signatures = set()
        program = Program(parse(source))
        runs = [
            (max(2, team if team is not None else num_threads), schedule)
            for team in self.team_sizes
            for schedule in self.schedules
        ]
        for threads, schedule in runs:
            interpreter = Interpreter(
                num_threads=threads, schedule=schedule, limits=self.limits, record=False,
                stop_at_race=stop_at_race,
            )
            try:
                trace = interpreter.run(program)
            except InterpreterError as exc:
                result.failed = True
                result.failure_reason = str(exc)
                continue
            result.runs += 1
            if stop_at_race and trace.finished:
                continue  # it witnessed no race
            for pair in detect_races(trace).pairs:
                signature = pair.signature()
                if signature not in seen_signatures:
                    seen_signatures.add(signature)
                    result.pairs.append(pair)
            if not trace.finished:
                break
        result.has_race = bool(result.pairs)
        return result

    def predict(self, bench: Microbenchmark) -> bool:
        """Binary prediction used by the evaluation harness (stops at the first witnessed race)."""
        return self.analyze_source(
            bench.code, name=bench.name, num_threads=bench.num_threads, stop_at_race=True
        ).has_race
