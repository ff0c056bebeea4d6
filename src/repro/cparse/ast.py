"""AST node definitions for the C-with-OpenMP subset.

Every node carries a :class:`SourceLoc` (1-based line/column of the token that
starts the construct).  Expression nodes additionally expose the location of
the *variable reference itself* where relevant (identifiers, subscripts), which
is what the variable-pair ground truth and the access extractor report.

The node set intentionally mirrors what the corpus generator emits:

* translation unit: include directives, function definitions, global
  declarations;
* statements: declarations, expression statements, ``for``, ``while``, ``if``,
  compound blocks, ``return``, ``break``/``continue``, OpenMP pragma-annotated
  statements;
* expressions: integer/float/string literals, identifiers, array subscripts
  (arbitrary nesting depth), unary and binary operators, assignments
  (including compound assignment and increment/decrement), function calls,
  address-of and dereference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "SourceLoc",
    "Node",
    "Expr",
    "IntLiteral",
    "FloatLiteral",
    "StringLiteral",
    "Identifier",
    "ArraySubscript",
    "UnaryOp",
    "BinaryOp",
    "Assignment",
    "IncDec",
    "Call",
    "AddressOf",
    "Deref",
    "ConditionalExpr",
    "Stmt",
    "Declaration",
    "Declarator",
    "ExprStmt",
    "CompoundStmt",
    "ForStmt",
    "WhileStmt",
    "IfStmt",
    "ReturnStmt",
    "BreakStmt",
    "ContinueStmt",
    "NullStmt",
    "OmpClause",
    "OmpPragma",
    "OmpStmt",
    "IncludeDirective",
    "FunctionDef",
    "Parameter",
    "TranslationUnit",
    "walk",
]


class SourceLoc(NamedTuple):
    """A 1-based (line, column) source position.

    A named tuple rather than a frozen dataclass: immutable and hashable
    all the same, and the parser builds one per node without paying
    ``object.__setattr__`` per field.
    """

    line: int
    col: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.line}:{self.col}"


@dataclass
class Node:
    """Base class for all AST nodes."""

    loc: SourceLoc

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes; default implementation yields nothing."""
        return iter(())


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    """Base class for expression nodes."""


@dataclass
class IntLiteral(Expr):
    value: int
    text: str = ""


@dataclass
class FloatLiteral(Expr):
    value: float
    text: str = ""


@dataclass
class StringLiteral(Expr):
    value: str


@dataclass
class Identifier(Expr):
    """A bare variable reference such as ``x`` or ``len``."""

    name: str


@dataclass
class ArraySubscript(Expr):
    """An array access ``base[index]``.

    Multi-dimensional accesses like ``b[i][j]`` nest: the outer subscript's
    ``base`` is another :class:`ArraySubscript`.
    """

    base: Expr
    index: Expr

    def children(self) -> Iterator[Node]:
        yield self.base
        yield self.index

    def root_name(self) -> Optional[str]:
        """Return the name of the underlying array variable, if identifiable."""
        node: Expr = self
        while isinstance(node, ArraySubscript):
            node = node.base
        if isinstance(node, Identifier):
            return node.name
        return None

    def indices(self) -> List[Expr]:
        """Return subscript expressions from outermost dimension to innermost."""
        out: List[Expr] = []
        node: Expr = self
        while isinstance(node, ArraySubscript):
            out.append(node.index)
            node = node.base
        out.reverse()
        return out


@dataclass
class UnaryOp(Expr):
    op: str
    operand: Expr

    def children(self) -> Iterator[Node]:
        yield self.operand


@dataclass
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr

    def children(self) -> Iterator[Node]:
        yield self.left
        yield self.right


@dataclass
class Assignment(Expr):
    """``target = value`` and compound forms (``+=``, ``-=``, ...)."""

    op: str
    target: Expr
    value: Expr

    def children(self) -> Iterator[Node]:
        yield self.target
        yield self.value

    @property
    def is_compound(self) -> bool:
        """True for ``+=`` style assignments, which read *and* write the target."""
        return self.op != "="


@dataclass
class IncDec(Expr):
    """``x++``, ``++x``, ``x--``, ``--x`` — a read-modify-write of the operand."""

    op: str
    operand: Expr
    prefix: bool

    def children(self) -> Iterator[Node]:
        yield self.operand


@dataclass
class Call(Expr):
    """A function call such as ``printf(...)`` or ``omp_set_lock(&lck)``."""

    name: str
    args: List[Expr] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        yield from self.args


@dataclass
class AddressOf(Expr):
    operand: Expr

    def children(self) -> Iterator[Node]:
        yield self.operand


@dataclass
class Deref(Expr):
    operand: Expr

    def children(self) -> Iterator[Node]:
        yield self.operand


@dataclass
class ConditionalExpr(Expr):
    """The ternary ``cond ? then : other`` expression."""

    cond: Expr
    then: Expr
    other: Expr

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield self.then
        yield self.other


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    """Base class for statement nodes."""


@dataclass
class Declarator(Node):
    """One declarator in a declaration: name, array dims, pointer depth, init."""

    name: str
    pointer_depth: int = 0
    array_dims: List[Optional[Expr]] = field(default_factory=list)
    init: Optional[Expr] = None

    def children(self) -> Iterator[Node]:
        for dim in self.array_dims:
            if dim is not None:
                yield dim
        if self.init is not None:
            yield self.init

    @property
    def is_array(self) -> bool:
        return bool(self.array_dims)

    @property
    def is_pointer(self) -> bool:
        return self.pointer_depth > 0


@dataclass
class Declaration(Stmt):
    """A declaration statement, e.g. ``int a[1000], i = 0;``."""

    type_name: str
    declarators: List[Declarator] = field(default_factory=list)
    qualifiers: Tuple[str, ...] = ()

    def children(self) -> Iterator[Node]:
        yield from self.declarators


@dataclass
class ExprStmt(Stmt):
    expr: Expr

    def children(self) -> Iterator[Node]:
        yield self.expr


@dataclass
class CompoundStmt(Stmt):
    body: List[Stmt] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        yield from self.body


@dataclass
class ForStmt(Stmt):
    """``for (init; cond; step) body``.

    ``init`` may be a declaration (``for (int i = 0; ...)``) or an expression
    statement; either may be ``None`` for degenerate loops.
    """

    init: Optional[Stmt]
    cond: Optional[Expr]
    step: Optional[Expr]
    body: Stmt

    def children(self) -> Iterator[Node]:
        if self.init is not None:
            yield self.init
        if self.cond is not None:
            yield self.cond
        if self.step is not None:
            yield self.step
        yield self.body

    def loop_variable(self) -> Optional[str]:
        """Best-effort extraction of the canonical loop induction variable name."""
        init = self.init
        if isinstance(init, Declaration) and init.declarators:
            return init.declarators[0].name
        if isinstance(init, ExprStmt) and isinstance(init.expr, Assignment):
            target = init.expr.target
            if isinstance(target, Identifier):
                return target.name
        return None


@dataclass
class WhileStmt(Stmt):
    cond: Expr
    body: Stmt

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield self.body


@dataclass
class IfStmt(Stmt):
    cond: Expr
    then: Stmt
    other: Optional[Stmt] = None

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield self.then
        if self.other is not None:
            yield self.other


@dataclass
class ReturnStmt(Stmt):
    value: Optional[Expr] = None

    def children(self) -> Iterator[Node]:
        if self.value is not None:
            yield self.value


@dataclass
class BreakStmt(Stmt):
    pass


@dataclass
class ContinueStmt(Stmt):
    pass


@dataclass
class NullStmt(Stmt):
    """An empty statement (a bare ``;``)."""


# ---------------------------------------------------------------------------
# OpenMP
# ---------------------------------------------------------------------------


@dataclass
class OmpClause(Node):
    """A single OpenMP clause.

    ``name`` is the clause keyword (``private``, ``reduction``, ``schedule``,
    ``num_threads``, ``nowait``, ...).  ``arguments`` holds the raw argument
    strings (variable names, or schedule kinds); ``reduction_op`` is populated
    for ``reduction(op:vars)`` clauses.
    """

    name: str
    arguments: List[str] = field(default_factory=list)
    reduction_op: Optional[str] = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.name == "reduction" and self.reduction_op:
            return f"reduction({self.reduction_op}:{', '.join(self.arguments)})"
        if self.arguments:
            return f"{self.name}({', '.join(self.arguments)})"
        return self.name


@dataclass
class OmpPragma(Node):
    """A parsed ``#pragma omp`` directive.

    ``directives`` is the tuple of directive keywords in order, e.g.
    ``("parallel", "for")`` or ``("critical",)``; ``clauses`` the parsed
    clause list.
    """

    directives: Tuple[str, ...]
    clauses: List[OmpClause] = field(default_factory=list)

    def has_directive(self, name: str) -> bool:
        return name in self.directives

    def clause(self, name: str) -> Optional[OmpClause]:
        """Return the first clause called ``name``, or ``None``."""
        for clause in self.clauses:
            if clause.name == name:
                return clause
        return None

    def clause_vars(self, name: str) -> List[str]:
        """Return all variables listed across every clause called ``name``."""
        out: List[str] = []
        for clause in self.clauses:
            if clause.name == name:
                out.extend(clause.arguments)
        return out

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = ["omp", *self.directives]
        parts.extend(str(c) for c in self.clauses)
        return " ".join(parts)


@dataclass
class OmpStmt(Stmt):
    """A statement governed by an OpenMP pragma.

    Stand-alone directives (``barrier``, ``taskwait``, ``flush``) have
    ``body is None``.
    """

    pragma: OmpPragma
    body: Optional[Stmt] = None

    def children(self) -> Iterator[Node]:
        yield self.pragma
        if self.body is not None:
            yield self.body


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class IncludeDirective(Node):
    header: str


@dataclass
class Parameter(Node):
    type_name: str
    name: str
    pointer_depth: int = 0
    is_array: bool = False


@dataclass
class FunctionDef(Node):
    return_type: str
    name: str
    params: List[Parameter] = field(default_factory=list)
    body: CompoundStmt = None  # type: ignore[assignment]

    def children(self) -> Iterator[Node]:
        yield from self.params
        if self.body is not None:
            yield self.body


@dataclass
class TranslationUnit(Node):
    """The root node: includes, global declarations and function definitions."""

    includes: List[IncludeDirective] = field(default_factory=list)
    globals: List[Declaration] = field(default_factory=list)
    functions: List[FunctionDef] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        yield from self.includes
        yield from self.globals
        yield from self.functions

    def function(self, name: str) -> Optional[FunctionDef]:
        """Look up a function definition by name."""
        for fn in self.functions:
            if fn.name == name:
                return fn
        return None

    @property
    def main(self) -> Optional[FunctionDef]:
        return self.function("main")


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and all descendants in depth-first pre-order."""
    yield node
    for child in node.children():
        yield from walk(child)
