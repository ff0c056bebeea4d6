"""Variable-pair matching rules for the S2/S3 scoring (paper §3.6, Table 5).

A model's pair report counts as correct for a race-yes record when at least
one reported pair matches one of the record's ground-truth ``var_pairs``.  A
reported pair matches a ground-truth pair when

* the two base variable names agree (as an unordered pair; subscripts are
  ignored for the name comparison, matching how the paper's responses name
  variables),
* the reported line numbers agree with the ground-truth lines (unordered,
  exact, in trimmed-code coordinates), and
* the reported operations agree as a multiset (when the report includes
  operations at all — several models omit them, which the paper tolerates in
  its regex-parsing pipeline).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.prompting.parsing import ParsedPairs

if TYPE_CHECKING:  # annotations only: importing records loads the C front-end
    from repro.dataset.records import DRBMLRecord, VarPairRecord

__all__ = ["base_name", "pair_matches", "pairs_correct"]


def base_name(expr: str) -> str:
    """The variable name without subscripts or whitespace (``a[i+1]`` → ``a``)."""
    return expr.split("[", 1)[0].strip()


def _names_match(reported: Tuple[str, str], truth: VarPairRecord) -> bool:
    reported_set = {base_name(reported[0]), base_name(reported[1])}
    truth_set = {base_name(truth.name[0]), base_name(truth.name[1])}
    return reported_set == truth_set


def _lines_match(reported: Optional[Tuple[int, int]], truth: VarPairRecord) -> bool:
    if reported is None:
        return False
    return sorted(reported) == sorted(truth.line)


def _operations_match(reported: Optional[Tuple[str, str]], truth: VarPairRecord) -> bool:
    if reported is None:
        return True  # operations missing from the report are tolerated
    return sorted(reported) == sorted(truth.operation)


def pair_matches(
    names: Tuple[str, str],
    lines: Optional[Tuple[int, int]],
    operations: Optional[Tuple[str, str]],
    truth: VarPairRecord,
) -> bool:
    """Does one reported pair match one ground-truth pair?"""
    return (
        _names_match(names, truth)
        and _lines_match(lines, truth)
        and _operations_match(operations, truth)
    )


def pairs_correct(parsed: ParsedPairs, record: DRBMLRecord) -> bool:
    """Does the parsed response correctly identify a race pair of ``record``?"""
    if not record.has_race or not record.var_pairs or not parsed.has_pairs:
        return False
    for idx, names in enumerate(parsed.names):
        lines = parsed.lines[idx] if idx < len(parsed.lines) else None
        operations = parsed.operations[idx] if idx < len(parsed.operations) else None
        for truth in record.var_pairs:
            if pair_matches(names, lines, operations, truth):
                return True
    return False
