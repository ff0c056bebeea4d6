"""Parser for ``#pragma omp`` directive text.

The lexer hands pragma directives to the parser as a single token whose text
is everything after ``#pragma`` (for example
``"omp parallel for private(i) reduction(+:sum)"``).  This module turns that
text into an :class:`repro.cparse.ast.OmpPragma` with structured directives
and clauses.

Supported directive keywords (combinations are allowed in the usual OpenMP
way, e.g. ``parallel for simd``):

``parallel``, ``for``, ``sections``, ``section``, ``single``, ``master``,
``critical``, ``atomic``, ``barrier``, ``task``, ``taskwait``, ``taskloop``,
``simd``, ``ordered``, ``target``, ``teams``, ``distribute``, ``flush``,
``threadprivate``.

Supported clauses:

``private``, ``firstprivate``, ``lastprivate``, ``shared``, ``default``,
``reduction``, ``schedule``, ``num_threads``, ``collapse``, ``nowait``,
``ordered``, ``if``, ``map``, ``depend``, ``linear``, ``safelen``,
``device``, ``copyin``, ``copyprivate``, plus atomic modifiers
(``read``/``write``/``update``/``capture``) and critical region names.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.cparse.ast import OmpClause, OmpPragma, SourceLoc

__all__ = ["PragmaError", "parse_pragma", "DIRECTIVE_KEYWORDS", "CLAUSE_KEYWORDS"]


class PragmaError(ValueError):
    """Raised for malformed or unsupported ``#pragma omp`` directives."""


DIRECTIVE_KEYWORDS = (
    # Order matters: combined constructs are parsed greedily left to right.
    "parallel",
    "for",
    "sections",
    "section",
    "single",
    "master",
    "critical",
    "atomic",
    "barrier",
    "taskwait",
    "taskgroup",
    "taskloop",
    "task",
    "simd",
    "ordered",
    "target",
    "teams",
    "distribute",
    "flush",
    "threadprivate",
)

CLAUSE_KEYWORDS = frozenset(
    {
        "private",
        "firstprivate",
        "lastprivate",
        "shared",
        "default",
        "reduction",
        "schedule",
        "num_threads",
        "collapse",
        "nowait",
        "ordered",
        "if",
        "map",
        "depend",
        "linear",
        "safelen",
        "device",
        "copyin",
        "copyprivate",
        # atomic modifiers are represented as argument-less clauses
        "read",
        "write",
        "update",
        "capture",
        "seq_cst",
    }
)

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_WS_RE = re.compile(r"\s*")
_PAREN_AHEAD_RE = re.compile(r"\s*\(")


def _split_top_level_commas(text: str) -> List[str]:
    """Split a clause argument list on commas that are not nested in brackets."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


class _PragmaScanner:
    """Cursor over the directive text."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        self.pos = _WS_RE.match(self.text, self.pos).end()

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek_word(self) -> Optional[str]:
        self.skip_ws()
        match = _WORD_RE.match(self.text, self.pos)
        return match.group(0) if match else None

    def take_word(self) -> Optional[str]:
        word = self.peek_word()
        if word is not None:
            self.pos += len(word)
        return word

    def take_parenthesized(self) -> Optional[str]:
        """Consume a balanced ``( ... )`` group and return its inner text."""
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != "(":
            return None
        depth = 0
        start = self.pos + 1
        for idx in range(self.pos, len(self.text)):
            ch = self.text[idx]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    inner = self.text[start:idx]
                    self.pos = idx + 1
                    return inner
        raise PragmaError(f"unbalanced parentheses in pragma clause: {self.text!r}")


def _parse_clause(name: str, argument: Optional[str], loc: SourceLoc) -> OmpClause:
    """Build an :class:`OmpClause` from a clause keyword and raw argument text."""
    if argument is None:
        return OmpClause(loc=loc, name=name)
    if name == "reduction":
        if ":" not in argument:
            raise PragmaError(f"reduction clause missing operator: {argument!r}")
        op, _, vars_text = argument.partition(":")
        variables = _split_top_level_commas(vars_text)
        if not variables:
            raise PragmaError("reduction clause lists no variables")
        return OmpClause(
            loc=loc, name=name, arguments=variables, reduction_op=op.strip()
        )
    if name in ("map", "depend", "linear") and ":" in argument:
        # keep the modifier as the first argument, the variables after it
        modifier, _, vars_text = argument.partition(":")
        return OmpClause(
            loc=loc,
            name=name,
            arguments=[modifier.strip(), *_split_top_level_commas(vars_text)],
        )
    return OmpClause(loc=loc, name=name, arguments=_split_top_level_commas(argument))


def parse_pragma(text: str, line: int = 1, col: int = 1) -> OmpPragma:
    """Parse the text of an ``#pragma`` directive (without the ``#pragma``).

    Parameters
    ----------
    text:
        Directive text, e.g. ``"omp parallel for private(i)"``.  A leading
        ``omp`` keyword is required; anything else raises :class:`PragmaError`.
    line, col:
        Source location of the directive, propagated into the AST nodes.
    """
    loc = SourceLoc(line, col)
    scanner = _PragmaScanner(text.strip())
    head = scanner.take_word()
    if head != "omp":
        raise PragmaError(f"not an OpenMP pragma: {text!r}")

    directives: List[str] = []
    clauses: List[OmpClause] = []

    # Directive keywords come first; clauses follow.  Some words (``ordered``)
    # can be either — we treat them as directives only while no clause has
    # been seen and the word is not followed by '('.
    while not scanner.at_end():
        word = scanner.peek_word()
        if word is None:
            raise PragmaError(f"unexpected text in pragma: {text!r}")
        end = scanner.pos + len(word)
        next_is_paren = _PAREN_AHEAD_RE.match(scanner.text, end) is not None

        if not clauses and word in DIRECTIVE_KEYWORDS and not next_is_paren:
            # ``critical`` may take an optional name in parentheses which we
            # fold into a clause below, so the not-next_is_paren guard is
            # fine: a named critical is handled in the clause branch.
            scanner.pos = end
            directives.append(word)
            continue
        if not directives and word == "critical":
            # ``critical`` may carry an optional region name in parentheses.
            scanner.pos = end
            directives.append(word)
            name = scanner.take_parenthesized()
            if name is not None:
                clauses.append(OmpClause(loc=loc, name="name", arguments=[name.strip()]))
            continue

        scanner.pos = end
        argument = scanner.take_parenthesized()
        if word == "critical" and not directives:
            directives.append(word)
            if argument is not None:
                clauses.append(OmpClause(loc=loc, name="name", arguments=[argument]))
            continue
        if word not in CLAUSE_KEYWORDS:
            if word in DIRECTIVE_KEYWORDS:
                directives.append(word)
                if argument is not None:
                    clauses.append(
                        OmpClause(loc=loc, name="name", arguments=[argument])
                    )
                continue
            raise PragmaError(f"unsupported OpenMP clause {word!r} in {text!r}")
        clauses.append(_parse_clause(word, argument, loc))

    if not directives:
        raise PragmaError(f"pragma has no directive: {text!r}")
    return OmpPragma(loc=loc, directives=tuple(directives), clauses=clauses)


def is_standalone_directive(pragma: OmpPragma) -> bool:
    """Return True for directives that do not govern a following statement."""
    standalone = {"barrier", "taskwait", "flush", "threadprivate"}
    return all(d in standalone for d in pragma.directives)
