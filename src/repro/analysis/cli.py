"""``repro analyze`` — run the static race analyzer from the command line.

Usage::

    python -m repro analyze file.c other.c        # text report per file
    python -m repro analyze --json file.c         # machine-readable report
    python -m repro analyze --corpus              # the whole generated corpus
    python -m repro analyze --corpus --stats      # per-rule fire counts and
                                                  # phase-partition telemetry
    python -m repro analyze --corpus --self-lint  # CI gate: nonzero exit on
                                                  # analyzer crashes or
                                                  # diagnostics missing spans
                                                  # or rule IDs
    python -m repro analyze --jobs 8 *.c          # engine-parallel fan-out

JSON schema (one object; ``files`` in input order)::

    {
      "files": [
        {
          "file": "path-or-corpus-name",
          "error": "parse error ..."          // only on analyzer failure
          "has_race": true,
          "confidence": 0.88,
          "accesses": 12, "regions": 1,
          "phases": {"1": 2},                 // region index -> phase count
          "diagnostics": [
            {"rule": "DRD-LOOP-CARRIED", "message": "...", "variable": "a",
             "confidence": 0.88, "region": 1,
             "primary":   {"line": 12, "col": 5, "expr": "a[i]"},
             "secondary": {"line": 12, "col": 13, "expr": "a[i+1]"}}
          ],
          "suppressions": {"DRD-PHASE-ORDERED": 3}
        }
      ],
      "stats": { ... }                        // with --stats
    }
"""

from __future__ import annotations

import argparse
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import RACE_RULES, SUPPRESSION_RULES, Diagnostic
from repro.analysis.static_race import StaticRaceDetector, StaticRaceReport

__all__ = ["main", "run_analyze", "FileResult"]


@dataclass
class FileResult:
    """Analyzer outcome for one input file (or corpus record)."""

    name: str
    report: Optional[StaticRaceReport] = None
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        if self.report is None:
            return {"file": self.name, "error": self.error or "analysis failed"}
        report = self.report
        return {
            "file": self.name,
            "has_race": report.has_race,
            "confidence": round(report.confidence, 3),
            "accesses": report.analyzed_accesses,
            "regions": report.analyzed_regions,
            "phases": {str(k): v for k, v in sorted(report.phase_counts.items())},
            "diagnostics": [d.to_dict() for d in report.diagnostics],
            "suppressions": dict(sorted(report.suppressions.items())),
        }


@dataclass
class _Telemetry:
    """Aggregated ``--stats`` counters across every analyzed input."""

    files: int = 0
    failures: int = 0
    racy: int = 0
    fired: Counter = field(default_factory=Counter)
    suppressed: Counter = field(default_factory=Counter)
    regions: int = 0
    multi_phase_regions: int = 0
    max_phases: int = 1

    def add(self, result: FileResult) -> None:
        self.files += 1
        if result.report is None:
            self.failures += 1
            return
        report = result.report
        self.racy += int(report.has_race)
        for diagnostic in report.diagnostics:
            self.fired[diagnostic.rule_id] += 1
        self.suppressed.update(report.suppressions)
        self.regions += len(report.phase_counts)
        for count in report.phase_counts.values():
            if count > 1:
                self.multi_phase_regions += 1
            self.max_phases = max(self.max_phases, count)

    def to_dict(self) -> Dict[str, object]:
        return {
            "files": self.files,
            "failures": self.failures,
            "racy": self.racy,
            "rule_fires": dict(sorted(self.fired.items())),
            "suppressions": dict(sorted(self.suppressed.items())),
            "regions": self.regions,
            "multi_phase_regions": self.multi_phase_regions,
            "max_phases": self.max_phases,
        }

    def render(self) -> str:
        lines = [
            f"[analyze] files={self.files} racy={self.racy} "
            f"clean={self.files - self.racy - self.failures} failures={self.failures}",
            f"[analyze] regions={self.regions} "
            f"multi_phase={self.multi_phase_regions} max_phases={self.max_phases}",
            "[analyze] race rules fired:",
        ]
        for rule, count in sorted(self.fired.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"[analyze]   {rule:<24} {count}")
        if not self.fired:
            lines.append("[analyze]   (none)")
        lines.append("[analyze] suppressions:")
        for rule, count in sorted(
            self.suppressed.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            lines.append(f"[analyze]   {rule:<24} {count}")
        if not self.suppressed:
            lines.append("[analyze]   (none)")
        return "\n".join(lines)


def _analyze_one(
    detector: StaticRaceDetector, item: Tuple[str, str]
) -> FileResult:
    name, code = item
    try:
        return FileResult(name=name, report=detector.analyze_source(code))
    except Exception as exc:  # the self-lint gate reports these
        return FileResult(name=name, error=f"{type(exc).__name__}: {exc}")


def _format_span(diagnostic: Diagnostic) -> str:
    spans = f"{diagnostic.primary.line}:{diagnostic.primary.col} ({diagnostic.primary.text})"
    if diagnostic.secondary is not None:
        spans += (
            f" vs {diagnostic.secondary.line}:{diagnostic.secondary.col}"
            f" ({diagnostic.secondary.text})"
        )
    return spans


def _render_text(result: FileResult) -> str:
    if result.report is None:
        return f"{result.name}: ERROR {result.error}"
    report = result.report
    verdict = "race" if report.has_race else "clean"
    lines = [
        f"{result.name}: {verdict} "
        f"(confidence {report.confidence:.2f}, {report.analyzed_accesses} accesses, "
        f"{report.analyzed_regions} region(s))"
    ]
    for diagnostic in report.diagnostics:
        lines.append(
            f"  {diagnostic.rule_id} {diagnostic.variable} at "
            f"{_format_span(diagnostic)} — {diagnostic.message}"
        )
    return "\n".join(lines)


def _lint_problems(results: Sequence[FileResult]) -> List[str]:
    """Self-lint findings: crashes, or diagnostics missing spans / rule IDs."""
    known = set(RACE_RULES) | set(SUPPRESSION_RULES)
    problems: List[str] = []
    for result in results:
        if result.report is None:
            problems.append(f"{result.name}: analyzer crashed: {result.error}")
            continue
        for diagnostic in result.report.diagnostics:
            if not diagnostic.rule_id or diagnostic.rule_id not in known:
                problems.append(
                    f"{result.name}: diagnostic with unknown rule id "
                    f"{diagnostic.rule_id!r}"
                )
            if diagnostic.primary.line <= 0 or diagnostic.primary.col <= 0:
                problems.append(
                    f"{result.name}: {diagnostic.rule_id} has no primary span"
                )
        for rule in result.report.suppressions:
            if rule not in known:
                problems.append(f"{result.name}: unknown suppression rule {rule!r}")
    return problems


def _load_inputs(
    files: Sequence[str], *, use_corpus: bool
) -> List[Tuple[str, str]]:
    items: List[Tuple[str, str]] = []
    if use_corpus:
        from repro.corpus import CorpusConfig, build_corpus

        for record in build_corpus(CorpusConfig()):
            items.append((record.name, record.code))
    for name in files:
        try:
            code = Path(name).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            exc.reason += f" in {name}"  # the codec's message names no file
            raise
        items.append((name, code))
    return items


def run_analyze(
    items: Sequence[Tuple[str, str]], *, jobs: int = 1
) -> List[FileResult]:
    """Analyze ``(name, code)`` inputs, fanning out over engine executors.

    Results come back in input order regardless of the executor's completion
    order, so text/JSON output is deterministic.
    """
    from repro.engine import create_executor

    detector = StaticRaceDetector()
    executor = create_executor(jobs)
    try:
        return list(
            executor.map(lambda item: _analyze_one(detector, item), list(items))
        )
    finally:
        close = getattr(executor, "close", None)
        if close is not None:
            close()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description="Run the phase-aware static race analyzer over C files.",
    )
    parser.add_argument("files", nargs="*", help="C source files to analyze")
    parser.add_argument(
        "--corpus",
        action="store_true",
        help="also analyze every record of the generated DRB-ML corpus",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit one JSON document instead of text"
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule fire counts and phase-partition telemetry",
    )
    parser.add_argument(
        "--self-lint",
        action="store_true",
        help=(
            "exit nonzero on analyzer crashes or diagnostics missing spans "
            "or rule IDs (the CI gate)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parallel file fan-out width (default: 1)",
    )
    args = parser.parse_args(argv)
    if not args.files and not args.corpus:
        parser.error("give FILE arguments and/or --corpus")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    try:
        items = _load_inputs(args.files, use_corpus=args.corpus)
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(str(exc))

    results = run_analyze(items, jobs=args.jobs)

    telemetry = _Telemetry()
    for result in results:
        telemetry.add(result)

    if args.json:
        payload: Dict[str, object] = {"files": [r.to_dict() for r in results]}
        if args.stats:
            payload["stats"] = telemetry.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        for result in results:
            print(_render_text(result))
        if args.stats:
            print(telemetry.render())

    exit_code = 0
    if args.self_lint:
        problems = _lint_problems(results)
        for problem in problems:
            print(f"[analyze-lint] {problem}")
        if problems:
            exit_code = 1
        else:
            print(
                f"[analyze-lint] ok: {len(results)} input(s), "
                f"{sum(len(r.report.diagnostics) for r in results if r.report)} "
                "diagnostics, all with rule IDs and spans"
            )
    return exit_code
