"""Inspector-like dynamic race detector facade.

:class:`InspectorLikeDetector` is the "traditional tool" row of the paper's
Table 3.  Like Intel Inspector it executes the program under instrumentation
(here: the :class:`~repro.dynamic.interpreter.Interpreter`) and analyses the
observed accesses; it can repeat the run under several schedules and team
sizes to expose schedule-dependent conflicts, and it degrades gracefully
(reporting "no race observed") when a program cannot be executed.  Each
program is parsed and compiled once; every (team size, schedule) run reuses
the compiled :class:`~repro.dynamic.interpreter.Program`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.corpus.microbenchmark import Microbenchmark
from repro.cparse import parse
from repro.dynamic.detector import DynamicRacePair, detect_races
from repro.dynamic.interpreter import Interpreter, InterpreterError, InterpreterLimits, Program

__all__ = ["InspectorRunResult", "InspectorLikeDetector"]


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
        seen: List[str] = []
        for pair in self.pairs:
            if pair.variable() not in seen:
                seen.append(pair.variable())
        return seen

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

    # -- public API ---------------------------------------------------------------

    def analyze_benchmark(self, bench: Microbenchmark) -> InspectorRunResult:
        """Run the detector on a corpus microbenchmark."""
        return self.analyze_source(bench.code, name=bench.name, num_threads=bench.num_threads)

    def analyze_source(
        self, source: str, *, name: str = "<source>", num_threads: int = 4
    ) -> InspectorRunResult:
        """Run the detector on raw C source."""
        result = InspectorRunResult(name=name, has_race=False)
        seen_signatures = set()
        program = Program(parse(source))
        for team in self.team_sizes:
            threads = team if team is not None else num_threads
            for schedule in self.schedules:
                interpreter = Interpreter(
                    num_threads=max(2, threads), schedule=schedule, limits=self.limits
                )
                try:
                    trace = interpreter.run(program)
                except InterpreterError as exc:
                    result.failed = True
                    result.failure_reason = str(exc)
                    continue
                result.runs += 1
                report = detect_races(trace)
                for pair in report.pairs:
                    signature = tuple(
                        sorted(
                            [
                                (pair.first.line, pair.first.col, pair.first.operation),
                                (pair.second.line, pair.second.col, pair.second.operation),
                            ]
                        )
                    )
                    if signature not in seen_signatures:
                        seen_signatures.add(signature)
                        result.pairs.append(pair)
        result.has_race = bool(result.pairs)
        return result

    def predict(self, bench: Microbenchmark) -> bool:
        """Binary prediction used by the evaluation harness."""
        return self.analyze_benchmark(bench).has_race
