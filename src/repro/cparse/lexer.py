"""Tokenizer for the C-with-OpenMP subset used by the corpus.

One master regular expression, compiled at import, scans the source: a
single ``finditer`` pass with one named group per lexeme (newline, ``#``
directive with ``\\`` continuations, comment, identifier, number, string and
character literal, punctuator), leading blanks folded into every match.
:func:`tokenize` is that pass: one loop over the matches that appends
each :class:`Token` (built with ``tuple.__new__``, skipping the named
tuple's Python-level constructor) as soon as its lexeme matches, and
tracks line and column incrementally from the newlines the matches
cover.  Lines are ``\\n``-delimited, and ``\\r`` is a blank like space and
tab.  Every token carries the 1-based ``line:col`` of its first
character, the convention DataRaceBench uses in its header comments, so
the analyses built on the parser (access extraction, variable-pair ground
truth, dynamic instrumentation) can report source locations.

Comments are tokenized (not discarded) when asked for, because the DRB-ML
pipeline needs to scrape labels out of block comments and later strip them
while re-mapping line numbers (paper §3.1, the ``trimmed_code`` field).
Trimming does not tokenize, though: :func:`comment_spans` runs a second
regex built from the same pattern fragments as the master scanner.  One
match covers a whole run of identifier, number, punctuator and blank
characters and stops only at a comment, a directive, a string or
character literal or an error, so the parser's :func:`tokenize` is the
only full scan of a source.
"""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple, NoReturn, Optional, Tuple

__all__ = ["TokenKind", "Token", "LexError", "tokenize", "comment_spans"]


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
_BLANK_CHARS = r" \t\r\f\v"
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
_COMMENT_KIND = TokenKind.COMMENT
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


def comment_spans(source: str) -> List[Tuple[int, int]]:
    """``(start, end)`` offsets of every comment of ``source``, in order.

    The comments are the :attr:`TokenKind.COMMENT` tokens of
    ``tokenize(source, keep_comments=True)``: ``//`` and ``/* */`` comments
    and the directives kept as comments.  Errors are :func:`tokenize`'s
    too, with the same message, line and column.
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
        the parser wants.  Pass ``True`` to see every comment in place; a
        comment token's text is then its exact source span.

    Raises :class:`LexError` at the first character that starts no token.
    """
    tokens: List[Token] = []
    append = tokens.append
    new = tuple.__new__
    keywords = KEYWORDS
    one_line = _ONE_LINE_KINDS
    line, line_start = 1, 0
    for match in _SCANNER.finditer(source):
        group = match.lastgroup
        if group == "ident":
            text = match[group]
            kind = _KEYWORD if text in keywords else _IDENT
            append(new(Token, (kind, text, line, match.start(group) - line_start + 1)))
            continue
        if group == "nl":
            line += 1
            line_start = match.end()
            continue
        start = match.start(group)
        text = match[group]
        col = start - line_start + 1
        kind = one_line.get(group)
        if kind is not None:
            append(new(Token, (kind, text, line, col)))
            continue
        if group == "directive":
            directive = _directive(text)
            if directive is None:
                _raise(group, text, line, col)
            kind, value = directive
            if keep_comments or kind is not _COMMENT_KIND:
                append(new(Token, (kind, value, line, col)))
        elif group in _MULTI_LINE_KINDS:
            kind = _MULTI_LINE_KINDS[group]
            if keep_comments or kind is not _COMMENT_KIND:
                append(new(Token, (kind, text, line, col)))
        elif group == "end":
            append(new(Token, (TokenKind.EOF, "", line, col)))
            break
        else:
            _raise(group, text, line, col)
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = start + text.rindex("\n") + 1
    return tokens
