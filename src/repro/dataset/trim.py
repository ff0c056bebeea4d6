"""Comment trimming with line re-mapping.

DRB-ML stores both the original code (``DRB_code``) and a ``trimmed_code``
with every comment removed; the ``var_pairs`` line numbers refer to the
*trimmed* code (paper §3.1: "the 'line' value in DRB-ML is based on the code
without comments").  Because the ground truth of the corpus is recorded
against the original (commented) source, the trimming pass must also return a
mapping from original line numbers to trimmed line numbers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cparse.lexer import comment_spans

__all__ = ["TrimResult", "trim_comments"]

_NOT_NEWLINE = re.compile(r"[^\n]")


@dataclass
class TrimResult:
    """Result of removing comments from a source file.

    Attributes
    ----------
    trimmed_code:
        The code with all comments removed and fully blank residue lines
        dropped.
    line_map:
        Mapping from 1-based original line numbers to 1-based line numbers in
        ``trimmed_code``.  Lines that vanish (pure comment lines) are absent.
    """

    trimmed_code: str
    line_map: Dict[int, int] = field(default_factory=dict)

    def map_line(self, original_line: int) -> Optional[int]:
        """Trimmed line number for an original line, or ``None`` if removed."""
        return self.line_map.get(original_line)


def trim_comments(source: str) -> TrimResult:
    """Remove comments and blank-only lines, tracking the line re-mapping.

    Comment characters are replaced by spaces (newlines kept) rather than
    deleted, so the remaining code keeps its original columns and the
    ground-truth columns carry over unchanged to the trimmed code.  Lines
    are ``\\n``-delimited, as in the lexer.  Comments are found by
    :func:`~repro.cparse.lexer.comment_spans`, which tokenizes nothing but
    raises :class:`LexError` where :func:`~repro.cparse.lexer.tokenize`
    would.
    """
    pieces: List[str] = []
    copied = 0
    for start, end in comment_spans(source):
        pieces.append(source[copied:start])
        pieces.append(_NOT_NEWLINE.sub(" ", source[start:end]))
        copied = end
    pieces.append(source[copied:])
    out_lines: List[str] = []
    line_map: Dict[int, int] = {}
    for original_idx, text in enumerate("".join(pieces).split("\n"), start=1):
        # Every line left blank by comment removal, and every originally
        # blank line, is dropped (as DRB-ML does) for a compact trimmed_code.
        text = text.rstrip()
        if not text:
            continue
        out_lines.append(text)
        line_map[original_idx] = len(out_lines)
    trimmed = "\n".join(out_lines)
    if trimmed:
        trimmed += "\n"
    return TrimResult(trimmed_code=trimmed, line_map=line_map)
