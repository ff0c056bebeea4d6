"""Symbol table construction for parsed translation units.

The symbol table records, for every declared variable, its type, array
dimensionality, pointer depth, declaration location and the lexical scope it
was declared in.  The OpenMP data-sharing classifier
(:mod:`repro.analysis.sharing`) and the dynamic interpreter both rely on this
information to decide which storage a name refers to and whether a variable
is scalar or an aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.cparse import ast

__all__ = ["Symbol", "Scope", "SymbolTable", "build_symbol_table"]


@dataclass
class Symbol:
    """A declared variable.

    Attributes
    ----------
    name:
        Variable name.
    type_name:
        Base type (``int``, ``double``, ``omp_lock_t`` ...).
    pointer_depth:
        Number of ``*`` in the declarator.
    array_dims:
        Static array dimensions when they could be evaluated, otherwise
        ``None`` entries for unsized dimensions.
    loc:
        Declaration location.
    scope_depth:
        0 for globals, 1 for function-level locals, deeper for nested blocks
        and loop bodies.
    is_parameter:
        True for function parameters.
    """

    name: str
    type_name: str
    pointer_depth: int = 0
    array_dims: List[Optional[int]] = field(default_factory=list)
    loc: ast.SourceLoc = field(default_factory=lambda: ast.SourceLoc(0, 0))
    scope_depth: int = 0
    is_parameter: bool = False

    @property
    def is_array(self) -> bool:
        return bool(self.array_dims)

    @property
    def is_pointer(self) -> bool:
        return self.pointer_depth > 0

    @property
    def is_scalar(self) -> bool:
        return not self.is_array and not self.is_pointer

    @property
    def is_lock(self) -> bool:
        return self.type_name in ("omp_lock_t", "omp_nest_lock_t")

    def element_count(self) -> int:
        """Total number of elements for a statically sized array (1 for scalars)."""
        count = 1
        for dim in self.array_dims:
            count *= dim if dim else 1
        return count


@dataclass
class Scope:
    """A lexical scope holding a name → symbol mapping."""

    depth: int
    symbols: Dict[str, Symbol] = field(default_factory=dict)
    parent: Optional["Scope"] = None

    def declare(self, symbol: Symbol) -> None:
        self.symbols[symbol.name] = symbol

    def lookup(self, name: str) -> Optional[Symbol]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


class SymbolTable:
    """All symbols declared in a translation unit, grouped per function."""

    def __init__(self) -> None:
        self.globals: Dict[str, Symbol] = {}
        self.by_function: Dict[str, Dict[str, Symbol]] = {}

    def lookup(self, name: str, function: Optional[str] = None) -> Optional[Symbol]:
        """Find ``name``, preferring the given function's locals over globals."""
        if function and name in self.by_function.get(function, {}):
            return self.by_function[function][name]
        # fall back: any function that declares it, then globals
        if function is None:
            for scope in self.by_function.values():
                if name in scope:
                    return scope[name]
        return self.globals.get(name)

    def all_symbols(self) -> Iterator[Symbol]:
        yield from self.globals.values()
        for scope in self.by_function.values():
            yield from scope.values()

    def arrays(self, function: Optional[str] = None) -> List[Symbol]:
        """Return all array symbols visible in ``function`` (or everywhere)."""
        out = [s for s in self.globals.values() if s.is_array]
        scopes = (
            [self.by_function.get(function, {})]
            if function is not None
            else list(self.by_function.values())
        )
        for scope in scopes:
            out.extend(s for s in scope.values() if s.is_array)
        return out


def _eval_static_dim(expr: Optional[ast.Expr]) -> Optional[int]:
    """Evaluate a constant array dimension expression, or return ``None``."""
    if expr is None:
        return None
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.BinaryOp):
        left = _eval_static_dim(expr.left)
        right = _eval_static_dim(expr.right)
        if left is None or right is None:
            return None
        try:
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                return left // right if right else None
        except (ZeroDivisionError, OverflowError):  # pragma: no cover - defensive
            return None
    return None


def _symbol_from_declarator(
    decl: ast.Declaration, declarator: ast.Declarator, depth: int
) -> Symbol:
    dims = [_eval_static_dim(d) for d in declarator.array_dims]
    return Symbol(
        name=declarator.name,
        type_name=decl.type_name,
        pointer_depth=declarator.pointer_depth,
        array_dims=dims,
        loc=declarator.loc,
        scope_depth=depth,
    )


def _collect_stmt(stmt: Optional[ast.Stmt], scope: Dict[str, Symbol], depth: int) -> None:
    """Add the declarations of ``stmt`` and the statements nested in it to
    ``scope``, dispatching once per statement on its exact class."""
    cls = type(stmt)
    if cls is ast.Declaration:
        for declarator in stmt.declarators:
            # Keep the outermost declaration when a name is shadowed; the
            # corpus never relies on shadowing semantics.
            if declarator.name not in scope:
                scope[declarator.name] = _symbol_from_declarator(stmt, declarator, depth)
    elif cls is ast.CompoundStmt:
        for child in stmt.body:
            _collect_stmt(child, scope, depth + 1)
    elif cls is ast.ForStmt:
        _collect_stmt(stmt.init, scope, depth + 1)
        _collect_stmt(stmt.body, scope, depth + 1)
    elif cls is ast.WhileStmt or cls is ast.OmpStmt:
        _collect_stmt(stmt.body, scope, depth + 1)
    elif cls is ast.IfStmt:
        _collect_stmt(stmt.then, scope, depth + 1)
        _collect_stmt(stmt.other, scope, depth + 1)


def build_symbol_table(unit: ast.TranslationUnit) -> SymbolTable:
    """Build a :class:`SymbolTable` for ``unit``."""
    table = SymbolTable()
    for decl in unit.globals:
        for declarator in decl.declarators:
            table.globals[declarator.name] = _symbol_from_declarator(decl, declarator, 0)
    for fn in unit.functions:
        scope = table.by_function.setdefault(fn.name, {})
        for param in fn.params:
            scope[param.name] = Symbol(
                name=param.name,
                type_name=param.type_name,
                pointer_depth=param.pointer_depth,
                array_dims=[None] if param.is_array else [],
                loc=param.loc,
                scope_depth=1,
                is_parameter=True,
            )
        if fn.body is not None:
            _collect_stmt(fn.body, scope, 1)
    return table
