"""Recursive-descent parser for the C-with-OpenMP subset.

The parser consumes the token stream produced by :mod:`repro.cparse.lexer`
and builds the AST defined in :mod:`repro.cparse.ast`.  Statements and
declarations are parsed by recursive descent; binary operators by one
precedence-climbing loop over a ``{operator: level}`` table, so an operand
costs one call however many precedence levels sit above it.  It covers the
full grammar emitted by the corpus generator:

* ``#include`` directives, global declarations, function definitions;
* declarations with multiple declarators, pointers, multi-dimensional arrays
  and initializers;
* statements: compound blocks, ``for``/``while``/``if``/``return``/``break``/
  ``continue``, expression statements and OpenMP pragma statements;
* the usual C expression grammar with correct precedence (assignment,
  ternary, logical, relational, additive, multiplicative, unary, postfix).

Typedef-style type names used by OpenMP programs (``omp_lock_t``,
``size_t``, ``uint64_t`` ...) are recognised as types when they appear in a
declaration position.

Nesting is bounded by :data:`MAX_NESTING_DEPTH`: deeper input fails with a
:class:`ParseError` instead of exhausting the interpreter's stack.
Assignment chains and ``?:`` else-chains are folded in loops, so only
genuine nesting counts against the limit.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cparse import ast
from repro.cparse.lexer import Token, TokenKind, tokenize
from repro.cparse.pragma import is_standalone_directive, parse_pragma

__all__ = ["MAX_NESTING_DEPTH", "NESTING_COST", "ParseError", "Parser", "parse"]

#: Deepest nesting the parser accepts, in levels of :data:`NESTING_COST`.
#: A level is one Python stack frame of the recursive descent, so the
#: parser stays inside the default recursion limit of 1,000 with room for
#: its caller's stack.  It admits the 700 nested prefix operators the
#: Inspector's own nesting limit is tested with; the corpus and its fuzz
#: mutants nest no deeper than 30 levels.
MAX_NESTING_DEPTH = 800

#: Levels each nested construct charges while it is parsed: the stack
#: frames one more level of it costs the parser.
NESTING_COST = {
    "prefix": 1,  # ``!x``, ``-x``, ``*p``, ``&x``, ``++x``
    "binary": 1,  # the right operand of a binary operator
    "conditional": 2,  # the then-branch of ``?:``
    "statement": 3,  # a block, or an if/for/while/pragma body
    "call": 5,  # a call's argument list
    "sizeof": 5,
    "subscript": 6,
    "paren": 7,  # a parenthesised expression or a cast
}
_PREFIX, _BINARY, _CONDITIONAL, _STATEMENT, _CALL, _SIZEOF, _SUBSCRIPT, _PAREN = (
    NESTING_COST[construct]
    for construct in (
        "prefix", "binary", "conditional", "statement", "call", "sizeof", "subscript", "paren"
    )
)

#: Known typedef-like type names that may start a declaration.
TYPEDEF_NAMES = frozenset(
    {
        "omp_lock_t",
        "omp_nest_lock_t",
        "size_t",
        "int8_t",
        "int16_t",
        "int32_t",
        "int64_t",
        "uint8_t",
        "uint16_t",
        "uint32_t",
        "uint64_t",
        "bool",
    }
)

#: Binary operator precedence levels, lowest first; all associate left.
_BINARY_LEVELS: Tuple[Tuple[str, ...], ...] = (
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)
_BINARY_PRECEDENCE = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}

_ASSIGN_OPS = frozenset(("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="))
_UNARY_OPS = frozenset(("+", "-", "!", "~"))
_PREFIX_OPS = _UNARY_OPS | {"&", "*", "++", "--"}
_PUNCT = TokenKind.PUNCT
_KEYWORD = TokenKind.KEYWORD
_IDENT = TokenKind.IDENT
_EOF = TokenKind.EOF


class ParseError(ValueError):
    """Raised when the parser encounters unexpected input."""

    def __init__(self, message: str, token: Token) -> None:
        super().__init__(f"{message} (got {token.kind.value} {token.text!r} at {token.line}:{token.col})")
        self.token = token


class Parser:
    """Token-stream parser producing a :class:`~repro.cparse.ast.TranslationUnit`.

    ``tokens`` must end with the single EOF token, as :func:`tokenize`
    returns them.
    """

    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        #: Nesting levels currently charged (see :data:`NESTING_COST`).
        self.depth = 0

    def _descend(self, tok: Token, cost: int) -> None:
        """Charge ``cost`` levels; the caller refunds them with ``depth -= cost``."""
        self.depth += cost
        if self.depth > MAX_NESTING_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_NESTING_DEPTH} levels", tok)

    # -- cursor helpers -----------------------------------------------------------
    #
    # The cursor never moves past EOF, so ``tokens[pos]`` always exists and,
    # unless it is EOF, so does ``tokens[pos + 1]``.

    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _peek_next(self) -> Token:
        """The token after the current one (EOF at the end of input)."""
        tok = self.tokens[self.pos]
        return tok if tok.kind is _EOF else self.tokens[self.pos + 1]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not _EOF:
            self.pos += 1
        return tok

    def _check_punct(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.text == text and tok.kind is _PUNCT

    def _accept_punct(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.text == text and tok.kind is _PUNCT:
            self.pos += 1
            return True
        return False

    def _expect_punct(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text != text or tok.kind is not _PUNCT:
            raise ParseError(f"expected {text!r}", tok)
        self.pos += 1
        return tok

    def _expect_ident(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not _IDENT:
            raise ParseError("expected identifier", tok)
        self.pos += 1
        return tok

    @staticmethod
    def _loc(tok: Token) -> ast.SourceLoc:
        return ast.SourceLoc(tok.line, tok.col)

    # -- type detection -----------------------------------------------------------

    def _at_type(self) -> bool:
        """Return True when the current token starts a declaration."""
        tok = self._peek()
        if tok.kind is TokenKind.KEYWORD and tok.text in (
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
        ):
            return True
        if tok.kind is TokenKind.IDENT and tok.text in TYPEDEF_NAMES:
            return True
        return False

    def _parse_type_name(self) -> Tuple[str, Tuple[str, ...]]:
        """Consume type specifier tokens and return (type_name, qualifiers)."""
        qualifiers: List[str] = []
        parts: List[str] = []
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.KEYWORD and tok.text in ("const", "static"):
                qualifiers.append(self._advance().text)
                continue
            if tok.kind is TokenKind.KEYWORD and tok.text in (
                "unsigned",
                "signed",
                "short",
                "long",
                "int",
                "float",
                "double",
                "char",
                "void",
            ):
                parts.append(self._advance().text)
                # "long long", "unsigned int" etc. keep looping
                continue
            if tok.kind is TokenKind.KEYWORD and tok.text == "struct":
                self._advance()
                name = self._expect_ident().text
                parts.append(f"struct {name}")
                break
            if not parts and tok.kind is TokenKind.IDENT and tok.text in TYPEDEF_NAMES:
                parts.append(self._advance().text)
                break
            break
        if not parts:
            raise ParseError("expected type name", self._peek())
        return " ".join(parts), tuple(qualifiers)

    # -- top level ----------------------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        first = self._peek()
        unit = ast.TranslationUnit(loc=self._loc(first))
        while self._peek().kind is not TokenKind.EOF:
            tok = self._peek()
            if tok.kind is TokenKind.INCLUDE:
                self._advance()
                header = tok.text[len("include") :].strip()
                unit.includes.append(
                    ast.IncludeDirective(loc=self._loc(tok), header=header)
                )
                continue
            if tok.kind is TokenKind.PRAGMA:
                # File-scope pragmas (e.g. ``omp threadprivate(x)``) become
                # global OmpStmt-free declarations; we skip them here but the
                # analyses can still see them via the raw source if needed.
                self._advance()
                continue
            if self._at_type():
                item = self._parse_declaration_or_function()
                if isinstance(item, ast.FunctionDef):
                    unit.functions.append(item)
                else:
                    unit.globals.append(item)
                continue
            raise ParseError("unexpected token at file scope", tok)
        return unit

    def _parse_declaration_or_function(self):
        start = self._peek()
        type_name, qualifiers = self._parse_type_name()
        pointer_depth = 0
        while self._accept_punct("*"):
            pointer_depth += 1
        name_tok = self._expect_ident()
        if self._check_punct("("):
            return self._parse_function_rest(start, type_name, name_tok)
        return self._parse_declaration_rest(
            start, type_name, qualifiers, pointer_depth, name_tok
        )

    def _parse_function_rest(
        self, start: Token, return_type: str, name_tok: Token
    ) -> ast.FunctionDef:
        self._expect_punct("(")
        params: List[ast.Parameter] = []
        if not self._check_punct(")"):
            while True:
                ptok = self._peek()
                if ptok.is_keyword("void") and self._peek_next().is_punct(")"):
                    self._advance()
                    break
                ptype, _ = self._parse_type_name()
                pdepth = 0
                while self._accept_punct("*"):
                    pdepth += 1
                pname = self._expect_ident().text
                is_array = False
                while self._accept_punct("["):
                    is_array = True
                    if not self._check_punct("]"):
                        self._parse_expression()
                    self._expect_punct("]")
                params.append(
                    ast.Parameter(
                        loc=self._loc(ptok),
                        type_name=ptype,
                        name=pname,
                        pointer_depth=pdepth,
                        is_array=is_array,
                    )
                )
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        body = self._parse_compound()
        return ast.FunctionDef(
            loc=self._loc(start),
            return_type=return_type,
            name=name_tok.text,
            params=params,
            body=body,
        )

    def _parse_declarator(
        self, pointer_depth: int, name_tok: Token
    ) -> ast.Declarator:
        dims: List[Optional[ast.Expr]] = []
        while self._accept_punct("["):
            if self._check_punct("]"):
                dims.append(None)
            else:
                dims.append(self._parse_expression())
            self._expect_punct("]")
        init: Optional[ast.Expr] = None
        if self._accept_punct("="):
            init = self._parse_initializer()
        return ast.Declarator(
            loc=self._loc(name_tok),
            name=name_tok.text,
            pointer_depth=pointer_depth,
            array_dims=dims,
            init=init,
        )

    def _parse_initializer(self) -> ast.Expr:
        if self._check_punct("{"):
            # Brace initializer: represent as a Call node named "__init_list__"
            start = self._expect_punct("{")
            elements: List[ast.Expr] = []
            if not self._check_punct("}"):
                while True:
                    elements.append(self._parse_assignment_expr())
                    if not self._accept_punct(","):
                        break
            self._expect_punct("}")
            return ast.Call(loc=self._loc(start), name="__init_list__", args=elements)
        return self._parse_assignment_expr()

    def _parse_declaration_rest(
        self,
        start: Token,
        type_name: str,
        qualifiers: Tuple[str, ...],
        pointer_depth: int,
        name_tok: Token,
    ) -> ast.Declaration:
        declarators = [self._parse_declarator(pointer_depth, name_tok)]
        while self._accept_punct(","):
            depth = 0
            while self._accept_punct("*"):
                depth += 1
            next_name = self._expect_ident()
            declarators.append(self._parse_declarator(depth, next_name))
        self._expect_punct(";")
        return ast.Declaration(
            loc=self._loc(start),
            type_name=type_name,
            declarators=declarators,
            qualifiers=qualifiers,
        )

    # -- statements ---------------------------------------------------------------

    def _parse_compound(self) -> ast.CompoundStmt:
        start = self._expect_punct("{")
        stmts: List[ast.Stmt] = []
        while not self._check_punct("}"):
            if self.tokens[self.pos].kind is _EOF:
                raise ParseError("unterminated compound statement", self.tokens[self.pos])
            stmts.append(self._parse_statement())
        self._expect_punct("}")
        return ast.CompoundStmt(loc=self._loc(start), body=stmts)

    def _parse_statement(self) -> ast.Stmt:
        self._descend(self.tokens[self.pos], _STATEMENT)
        stmt = self._parse_statement_body()
        self.depth -= _STATEMENT
        return stmt

    def _parse_statement_body(self) -> ast.Stmt:
        tok = self.tokens[self.pos]
        kind, text = tok.kind, tok.text
        if kind is TokenKind.PRAGMA:
            return self._parse_omp_statement()
        if kind is _PUNCT:
            if text == "{":
                return self._parse_compound()
            if text == ";":
                self.pos += 1
                return ast.NullStmt(loc=self._loc(tok))
        elif kind is _KEYWORD:
            if text == "for":
                return self._parse_for()
            if text == "while":
                return self._parse_while()
            if text == "if":
                return self._parse_if()
            if text == "return":
                self.pos += 1
                value = None
                if not self._check_punct(";"):
                    value = self._parse_expression()
                self._expect_punct(";")
                return ast.ReturnStmt(loc=self._loc(tok), value=value)
            if text == "break":
                self.pos += 1
                self._expect_punct(";")
                return ast.BreakStmt(loc=self._loc(tok))
            if text == "continue":
                self.pos += 1
                self._expect_punct(";")
                return ast.ContinueStmt(loc=self._loc(tok))
        if self._at_type():
            type_name, qualifiers = self._parse_type_name()
            depth = 0
            while self._accept_punct("*"):
                depth += 1
            name_tok = self._expect_ident()
            return self._parse_declaration_rest(tok, type_name, qualifiers, depth, name_tok)
        expr = self._parse_expression()
        self._expect_punct(";")
        return ast.ExprStmt(loc=self._loc(tok), expr=expr)

    def _parse_omp_statement(self) -> ast.OmpStmt:
        tok = self._advance()
        pragma = parse_pragma(tok.text, tok.line, tok.col)
        if is_standalone_directive(pragma):
            return ast.OmpStmt(loc=self._loc(tok), pragma=pragma, body=None)
        body = self._parse_statement()
        return ast.OmpStmt(loc=self._loc(tok), pragma=pragma, body=body)

    def _parse_for(self) -> ast.ForStmt:
        tok = self._advance()
        self._expect_punct("(")
        init: Optional[ast.Stmt] = None
        if not self._check_punct(";"):
            if self._at_type():
                type_name, qualifiers = self._parse_type_name()
                depth = 0
                while self._accept_punct("*"):
                    depth += 1
                name_tok = self._expect_ident()
                declarators = [self._parse_declarator(depth, name_tok)]
                while self._accept_punct(","):
                    d2 = 0
                    while self._accept_punct("*"):
                        d2 += 1
                    declarators.append(self._parse_declarator(d2, self._expect_ident()))
                init = ast.Declaration(
                    loc=self._loc(tok),
                    type_name=type_name,
                    declarators=declarators,
                    qualifiers=qualifiers,
                )
                self._expect_punct(";")
            else:
                expr = self._parse_expression()
                init = ast.ExprStmt(loc=self._loc(tok), expr=expr)
                self._expect_punct(";")
        else:
            self._expect_punct(";")
        cond: Optional[ast.Expr] = None
        if not self._check_punct(";"):
            cond = self._parse_expression()
        self._expect_punct(";")
        step: Optional[ast.Expr] = None
        if not self._check_punct(")"):
            step = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.ForStmt(loc=self._loc(tok), init=init, cond=cond, step=step, body=body)

    def _parse_while(self) -> ast.WhileStmt:
        tok = self._advance()
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.WhileStmt(loc=self._loc(tok), cond=cond, body=body)

    def _parse_if(self) -> ast.IfStmt:
        tok = self._advance()
        self._expect_punct("(")
        cond = self._parse_expression()
        self._expect_punct(")")
        then = self._parse_statement()
        other: Optional[ast.Stmt] = None
        if self._peek().is_keyword("else"):
            self._advance()
            other = self._parse_statement()
        return ast.IfStmt(loc=self._loc(tok), cond=cond, then=then, other=other)

    # -- expressions --------------------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        expr = self._parse_assignment_expr()
        # The comma operator appears only in for-steps like ``i++, j++``.
        while self._check_punct(",") and self._comma_is_operator():
            op_tok = self._advance()
            right = self._parse_assignment_expr()
            expr = ast.BinaryOp(loc=self._loc(op_tok), op=",", left=expr, right=right)
        return expr

    def _comma_is_operator(self) -> bool:
        """Inside argument lists the caller handles commas; only for-steps use
        the comma operator.  We use a conservative heuristic: treat the comma
        as an operator only when the next token can begin an expression and we
        are not inside a call (the call parser never calls _parse_expression)."""
        nxt = self._peek_next()
        return nxt.kind in (
            TokenKind.IDENT,
            TokenKind.INT_LIT,
            TokenKind.FLOAT_LIT,
        ) or nxt.is_punct("(")

    def _parse_assignment_expr(self) -> ast.Expr:
        left = self._parse_conditional()
        tok = self.tokens[self.pos]
        if tok.kind is not _PUNCT or tok.text not in _ASSIGN_OPS:
            return left
        # Right-associative: collect ``target op`` pairs, fold from the right.
        targets = []
        while tok.kind is _PUNCT and tok.text in _ASSIGN_OPS:
            self.pos += 1
            targets.append((tok, left))
            left = self._parse_conditional()
            tok = self.tokens[self.pos]
        for tok, target in reversed(targets):
            left = ast.Assignment(loc=self._loc(tok), op=tok.text, target=target, value=left)
        return left

    def _parse_conditional(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if not self._check_punct("?"):
            return cond
        # Right-associative ``c ? t : c2 ? t2 : e``: fold the arms from the right.
        arms = []
        while self._check_punct("?"):
            tok = self._advance()
            self._descend(tok, _CONDITIONAL)
            then = self._parse_assignment_expr()
            self.depth -= _CONDITIONAL
            self._expect_punct(":")
            arms.append((tok, cond, then))
            cond = self._parse_binary(0)
        for tok, arm_cond, then in reversed(arms):
            cond = ast.ConditionalExpr(loc=self._loc(tok), cond=arm_cond, then=then, other=cond)
        return cond

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing: fold operators of level ``min_level`` and up."""
        left = self._parse_unary()
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.kind is not _PUNCT:
                return left
            level = _BINARY_PRECEDENCE.get(tok.text, -1)
            if level < min_level:
                return left
            self.pos += 1
            self._descend(tok, _BINARY)
            right = self._parse_binary(level + 1)
            self.depth -= _BINARY
            left = ast.BinaryOp(loc=self._loc(tok), op=tok.text, left=left, right=right)

    def _parse_unary(self) -> ast.Expr:
        tok = self.tokens[self.pos]
        kind, text = tok.kind, tok.text
        if kind is _PUNCT:
            if text in _PREFIX_OPS:
                self.pos += 1
                self._descend(tok, _PREFIX)
                operand = self._parse_unary()
                self.depth -= _PREFIX
                if text in _UNARY_OPS:
                    return ast.UnaryOp(loc=self._loc(tok), op=text, operand=operand)
                if text == "&":
                    return ast.AddressOf(loc=self._loc(tok), operand=operand)
                if text == "*":
                    return ast.Deref(loc=self._loc(tok), operand=operand)
                return ast.IncDec(loc=self._loc(tok), op=text, operand=operand, prefix=True)
        elif kind is _KEYWORD and text == "sizeof":
            self.pos += 1
            self._descend(tok, _SIZEOF)
            self._expect_punct("(")
            # sizeof(type) or sizeof(expr): either way we record a call node.
            if self._at_type():
                type_name, _ = self._parse_type_name()
                while self._accept_punct("*"):
                    type_name += "*"
                arg: ast.Expr = ast.StringLiteral(loc=self._loc(tok), value=type_name)
            else:
                arg = self._parse_expression()
            self._expect_punct(")")
            self.depth -= _SIZEOF
            return ast.Call(loc=self._loc(tok), name="sizeof", args=[arg])
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.kind is not _PUNCT:
                return expr
            text = tok.text
            if text == "[":
                self.pos += 1
                self._descend(tok, _SUBSCRIPT)
                index = self._parse_expression()
                self._expect_punct("]")
                self.depth -= _SUBSCRIPT
                expr = ast.ArraySubscript(loc=expr.loc, base=expr, index=index)
            elif text == "(" and isinstance(expr, ast.Identifier):
                self.pos += 1
                self._descend(tok, _CALL)
                args: List[ast.Expr] = []
                if not self._check_punct(")"):
                    while True:
                        args.append(self._parse_assignment_expr())
                        if not self._accept_punct(","):
                            break
                self._expect_punct(")")
                self.depth -= _CALL
                expr = ast.Call(loc=expr.loc, name=expr.name, args=args)
            elif text == "++" or text == "--":
                self.pos += 1
                expr = ast.IncDec(loc=expr.loc, op=text, operand=expr, prefix=False)
            elif text == "." or text == "->":
                # Member access: model as identifier with a composite name so
                # the analyses can still track it as a named location.
                self.pos += 1
                member = self._expect_ident()
                base_name = expr.name if isinstance(expr, ast.Identifier) else "<expr>"
                expr = ast.Identifier(loc=expr.loc, name=f"{base_name}{text}{member.text}")
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind is _IDENT:
            self.pos += 1
            return ast.Identifier(loc=self._loc(tok), name=tok.text)
        if kind is TokenKind.INT_LIT:
            self.pos += 1
            try:
                value = int(tok.text.rstrip("uUlL"), 0)
            except ValueError:
                raise ParseError("invalid integer literal", tok) from None
            return ast.IntLiteral(loc=self._loc(tok), value=value, text=tok.text)
        if kind is TokenKind.FLOAT_LIT:
            self.pos += 1
            try:
                value = float(tok.text.rstrip("fFlL"))
            except ValueError:
                raise ParseError("invalid floating literal", tok) from None
            return ast.FloatLiteral(loc=self._loc(tok), value=value, text=tok.text)
        if kind is TokenKind.STRING_LIT or kind is TokenKind.CHAR_LIT:
            self.pos += 1
            return ast.StringLiteral(loc=self._loc(tok), value=tok.text)
        if kind is _PUNCT and tok.text == "(":
            self.pos += 1
            self._descend(tok, _PAREN)
            # Cast expression like (double)x — detect a type inside parens.
            if self._at_type():
                save, depth = self.pos, self.depth
                try:
                    self._parse_type_name()
                    while self._accept_punct("*"):
                        pass
                    if self._accept_punct(")"):
                        operand = self._parse_unary()
                        self.depth -= _PAREN
                        return operand  # casts are transparent to the analyses
                except ParseError:
                    if self.depth > MAX_NESTING_DEPTH:
                        raise  # too deep either way: no backtracking
                self.pos, self.depth = save, depth
            expr = self._parse_expression()
            self._expect_punct(")")
            self.depth -= _PAREN
            return expr
        raise ParseError("expected expression", tok)


def parse(source: str) -> ast.TranslationUnit:
    """Parse C source text into a :class:`~repro.cparse.ast.TranslationUnit`."""
    tokens = tokenize(source, keep_comments=False)
    return Parser(tokens).parse_translation_unit()
