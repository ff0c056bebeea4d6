"""C-with-OpenMP front end used by every analysis in this repository.

The corpus generator (:mod:`repro.corpus`) emits DataRaceBench-style OpenMP C
microbenchmarks.  This package provides a lexer (one compiled master
regex), a recursive descent parser with a precedence-climbing expression
loop, an OpenMP pragma parser and a symbol-table pass for exactly that
language subset, producing ASTs with accurate line/column positions.  The
static analyzer, the dynamic race detector and the simulated language models
all consume these ASTs.

Public entry points
-------------------
``tokenize(source)``
    Lex a source string into a list of :class:`~repro.cparse.lexer.Token`.
``parse(source)``
    Parse a source string into a :class:`~repro.cparse.ast.TranslationUnit`.
``parse_pragma(text, line)``
    Parse the text of an ``#pragma omp`` directive into an
    :class:`~repro.cparse.ast.OmpPragma`.
"""

from repro.cparse.lexer import Token, TokenKind, LexError, tokenize
from repro.cparse.parser import ParseError, parse
from repro.cparse.pragma import parse_pragma
from repro.cparse import ast
from repro.cparse.symbols import SymbolTable, Symbol, build_symbol_table

__all__ = [
    "Token",
    "TokenKind",
    "LexError",
    "tokenize",
    "ParseError",
    "parse",
    "parse_pragma",
    "ast",
    "SymbolTable",
    "Symbol",
    "build_symbol_table",
]
