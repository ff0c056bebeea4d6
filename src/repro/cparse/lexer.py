"""Tokenizer for the C-with-OpenMP subset used by the corpus.

One master regular expression, compiled at import, scans the source: a
single ``finditer`` pass with one named group per lexeme (newline, ``#``
directive with ``\\`` continuations, comment, identifier, number, string and
character literal, punctuator), leading blanks folded into every match.
Line and column are tracked incrementally from the newlines the matches
cover; lines are ``\\n``-delimited, and ``\\r`` is a blank like space and
tab.  Every token carries the 1-based ``line:col`` of its first character,
the convention DataRaceBench uses in its header comments, so the analyses
built on the parser (access extraction, variable-pair ground truth, dynamic
instrumentation) can report source locations.

Comments are tokenized (not discarded) because the DRB-ML pipeline needs to
scrape labels out of block comments and later strip them while re-mapping
line numbers (paper §3.1, the ``trimmed_code`` field).  Trimming does not
tokenize, though: :func:`comment_spans` runs a second regex built from the
same pattern fragments as the master scanner.  One match covers a whole run
of identifier, number, punctuator and blank characters and stops only at a
comment, a directive, a string or character literal or an error, so the
parser's :func:`tokenize` is the only full scan of a source.
"""

from __future__ import annotations

import enum
import re
from typing import Iterator, List, NamedTuple, NoReturn, Optional, Tuple

__all__ = ["TokenKind", "Token", "LexError", "tokenize", "scan", "comment_spans"]


class TokenKind(enum.Enum):
    """Lexical categories produced by :func:`tokenize`."""

    IDENT = "ident"
    KEYWORD = "keyword"
    INT_LIT = "int_lit"
    FLOAT_LIT = "float_lit"
    CHAR_LIT = "char_lit"
    STRING_LIT = "string_lit"
    PUNCT = "punct"
    PRAGMA = "pragma"
    INCLUDE = "include"
    COMMENT = "comment"
    NEWLINE = "newline"
    EOF = "eof"


#: Keywords of the supported C subset.  ``omp_lock_t`` style typedef names are
#: handled as identifiers by the parser's declaration logic.
KEYWORDS = frozenset(
    {
        "int",
        "long",
        "float",
        "double",
        "char",
        "void",
        "unsigned",
        "signed",
        "short",
        "const",
        "static",
        "struct",
        "if",
        "else",
        "for",
        "while",
        "do",
        "return",
        "break",
        "continue",
        "sizeof",
    }
)

_SUFFIX = "[fFlLuU]*"
_EXPONENT = r"[eE][+-]?\d+"

# Pattern fragments shared by the two scanners below.  Operator characters
# may be followed by ``=``; ``/`` and ``.`` are left out of both sets (see
# ``_SCANNER``).
_BLANK_CHARS = r" \t\r"
_OPERATOR_CHARS = r"-+*%=<>!&|^"
_SEPARATOR_CHARS = r"~?:;,()\[\]{}"
_PUNCT = rf"<<=|>>=|->|\+\+|--|&&|\|\||<<|>>|[{_OPERATOR_CHARS}]=?|[{_SEPARATOR_CHARS}]"
_COMMENT = r"//[^\n]*|/\*[\s\S]*?\*/"
_DIRECTIVE = r"\#[^\\\n]*(?:\\\n?[^\\\n]*)*"
_STRING = r'"[^"\\]*(?:\\[\s\S][^"\\]*)*"'
_CHAR = r"'[^'\\]*(?:\\[\s\S][^'\\]*)*'"
_OPEN = r"""/\*|["']"""

#: Blanks, then exactly one lexeme.  Alternatives are tried in order, each
#: longest first.  Punctuators come early, except those starting with ``/``
#: or ``.``: ``.5`` is a number and ``/*``, ``//`` start comments (or, for
#: ``open``, an unterminated comment or literal).  ``bad`` takes any other
#: character, so a match never backtracks into the leading blanks.
_SCANNER = re.compile(
    rf"[{_BLANK_CHARS}]*(?:"
    r"(?P<ident>[^\W\d]\w*)"
    r"|(?P<nl>\n)"
    rf"|(?P<punct>{_PUNCT})"
    rf"|(?P<float>\d*\.\d+(?:{_EXPONENT})?{_SUFFIX}|\d+(?:{_EXPONENT}{_SUFFIX}|[lLuU]*[fF]{_SUFFIX}))"
    r"|(?P<int>\d+[lLuU]*)"
    rf"|(?P<comment>{_COMMENT})"
    rf"|(?P<directive>{_DIRECTIVE})"
    rf"|(?P<string_lit>{_STRING})"
    rf"|(?P<char_lit>{_CHAR})"
    rf"|(?P<open>{_OPEN})"
    r"|(?P<slash_dot>/=?|\.\.\.|\.)"
    r"|(?P<bad>[\s\S])"
    r"|(?P<end>\Z)"
    r")"
)

#: A run of characters that ``_SCANNER`` only ever lexes as identifiers,
#: numbers, punctuators, blanks and newlines (a ``/`` that starts no
#: comment included), then exactly one of the lexemes it stops at, tried
#: in ``_SCANNER``'s order.  Every ordinary token lies inside such a run,
#: so a match ends where ``_SCANNER`` would reach the same lexeme.
_COMMENT_SCANNER = re.compile(
    rf"(?:[{_OPERATOR_CHARS}{_SEPARATOR_CHARS}{_BLANK_CHARS}\w\n.]++|/(?![/*]))*+(?:"
    rf"(?P<comment>{_COMMENT})"
    rf"|(?P<directive>{_DIRECTIVE})"
    rf"|(?P<literal>{_STRING}|{_CHAR})"
    rf"|(?P<open>{_OPEN})"
    r"|(?P<bad>[\s\S])"
    r"|(?P<end>\Z)"
    r")"
)

#: Groups that are tokens as matched, by kind: first those that never
#: contain a newline, then those that may span lines.
_ONE_LINE_KINDS = {
    "punct": TokenKind.PUNCT,
    "slash_dot": TokenKind.PUNCT,
    "int": TokenKind.INT_LIT,
    "float": TokenKind.FLOAT_LIT,
}
_MULTI_LINE_KINDS = {
    "comment": TokenKind.COMMENT,
    "string_lit": TokenKind.STRING_LIT,
    "char_lit": TokenKind.CHAR_LIT,
}
_IDENT = TokenKind.IDENT
_KEYWORD = TokenKind.KEYWORD
#: Directives kept as comments: the analyses ignore them but the trimming
#: pipeline keeps their line positions.
_COMMENT_DIRECTIVES = ("define", "ifdef", "ifndef", "endif", "else")


class Token(NamedTuple):
    """A single lexical token.

    Attributes
    ----------
    kind:
        The :class:`TokenKind` category.
    text:
        The exact source text of the token.  For :attr:`TokenKind.PRAGMA`
        tokens this is the full directive text after ``#pragma`` (e.g.
        ``"omp parallel for private(i)"``).
    line:
        1-based source line of the first character.
    col:
        1-based source column of the first character.
    """

    kind: TokenKind
    text: str
    line: int
    col: int

    def is_punct(self, text: str) -> bool:
        """Return ``True`` when this token is the punctuator ``text``."""
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        """Return ``True`` when this token is the keyword ``text``."""
        return self.kind is TokenKind.KEYWORD and self.text == text


class LexError(ValueError):
    """Raised when the lexer encounters a character it cannot tokenize."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} at {line}:{col}")
        self.line = line
        self.col = col


def _directive(text: str) -> Optional[Tuple[TokenKind, str]]:
    """Kind and token text of a ``#`` line (``text`` includes the ``#``), or
    ``None`` for a directive the subset does not support."""
    body = text[1:].strip()
    if body.startswith("pragma"):
        return TokenKind.PRAGMA, body[len("pragma") :].strip()
    if body.startswith("include"):
        return TokenKind.INCLUDE, body
    if body.startswith(_COMMENT_DIRECTIVES):
        return TokenKind.COMMENT, text
    return None


def _raise(group: str, text: str, line: int, col: int) -> NoReturn:
    """Raise the error for an ``open`` or ``bad`` match, or an unsupported
    ``directive``."""
    if group == "directive":
        body = text[1:].strip()
        name = body.split()[0] if body else ""
        raise LexError(f"unsupported preprocessor directive {name!r}", line, col)
    if group == "open":
        what = "block comment" if text == "/*" else "string literal"
        raise LexError(f"unterminated {what}", line, col)
    raise LexError(f"unexpected character {text!r}", line, col)


def scan(source: str) -> Iterator[Tuple[TokenKind, str, int, int, int]]:
    """Yield ``(kind, text, line, col, start)`` for every token of ``source``.

    ``start`` is the token's offset in ``source``; for comments ``text`` is
    the exact source span.  The last item is the EOF token.  Raises
    :class:`LexError` at the first character that starts no token.
    Trimming does not come through here: :func:`comment_spans` finds the
    same comments with a scanner built from the same pattern fragments.
    """
    line, line_start = 1, 0
    one_line = _ONE_LINE_KINDS
    for match in _SCANNER.finditer(source):
        group = match.lastgroup
        if group == "nl":
            line += 1
            line_start = match.end()
            continue
        start = match.start(group)
        text = match[group]
        col = start - line_start + 1
        if group == "ident":
            yield (_KEYWORD if text in KEYWORDS else _IDENT), text, line, col, start
            continue
        kind = one_line.get(group)
        if kind is not None:
            yield kind, text, line, col, start
            continue
        if group == "directive":
            directive = _directive(text)
            if directive is None:
                _raise(group, text, line, col)
            yield directive[0], directive[1], line, col, start
        elif group in _MULTI_LINE_KINDS:
            yield _MULTI_LINE_KINDS[group], text, line, col, start
        elif group == "end":
            yield TokenKind.EOF, "", line, col, start
            return
        else:
            _raise(group, text, line, col)
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = start + text.rindex("\n") + 1


def comment_spans(source: str) -> List[Tuple[int, int]]:
    """``(start, end)`` offsets of every comment of ``source``, in order.

    The comments are what :func:`scan` yields as :attr:`TokenKind.COMMENT`:
    ``//`` and ``/* */`` comments and the directives kept as comments.
    Errors are :func:`scan`'s too, with the same message, line and column.
    No token is built: one match covers each run of ordinary characters up
    to the next comment, directive or literal, and only an error's offset
    is turned into a ``line:col``.
    """
    spans: List[Tuple[int, int]] = []
    for match in _COMMENT_SCANNER.finditer(source):
        group = match.lastgroup
        if group == "literal":
            continue
        if group == "comment":
            spans.append(match.span(group))
            continue
        if group == "end":
            break
        text = match[group]
        if group == "directive":
            directive = _directive(text)
            if directive is not None:
                if directive[0] is TokenKind.COMMENT:
                    spans.append(match.span(group))
                continue
        start = match.start(group)
        line_start = source.rfind("\n", 0, start) + 1
        _raise(group, text, source.count("\n", 0, start) + 1, start - line_start + 1)
    return spans


def tokenize(source: str, *, keep_comments: bool = False) -> List[Token]:
    """Tokenize ``source`` into a list of tokens ending with one EOF token.

    Parameters
    ----------
    source:
        C source text.
    keep_comments:
        When ``False`` (the default) comment tokens are dropped, which is what
        the parser wants.  Pass ``True`` to see every comment in place.
    """
    make = Token._make
    if keep_comments:
        return [make(item[:4]) for item in scan(source)]
    comment = TokenKind.COMMENT
    return [make(item[:4]) for item in scan(source) if item[0] is not comment]
