"""Memory-access extraction from parsed OpenMP programs.

The extractor walks a :class:`~repro.cparse.ast.TranslationUnit`, finds every
OpenMP parallel construct, and lists the memory accesses its dynamic extent
performs: which variable, scalar or subscripted, read or written, at which
source location, under which synchronization (critical / atomic / ordered /
locks held), and inside which loops.

Beyond the raw access sites, the extractor now builds the *facts* the
phase-aware static analyzer needs:

* a barrier-delimited **phase number** per access (explicit ``barrier``,
  implicit barriers at the end of ``for``/``sections``/``single`` worksharing
  constructs, suppressed by ``nowait``);
* **construct identity** for single-thread constructs (``single``/``master``/
  ``section``) and a top-level statement index inside them, so sequential
  execution and ``taskwait`` ordering can be decided;
* **task records** (spawn point, multiplicity, ``depend`` sets,
  ``firstprivate`` captures) per explicit ``task`` construct;
* the **distributed induction variables** a worksharing/simd construct binds
  (``collapse(n)`` aware), with constant-propagated loop value ranges;
* unit-level facts: an integer-constant environment, **injective index
  arrays** (single affine store outside any parallel region), and atomic
  "ticket" variables handed out by ``atomic capture``.

Both the static race detector and the simulated language models' feature
extractor are built on these access sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.cparse import ast

__all__ = [
    "AccessModel",
    "AccessSite",
    "ParallelContext",
    "RegionSummary",
    "TaskInfo",
    "extract_access_model",
    "extract_accesses",
    "render_expr",
]


def render_expr(expr: ast.Expr) -> str:
    """Render an expression back to compact C-like text.

    Used to report accesses in the same textual form the corpus ground truth
    and the DRB header comments use (``a[i+1]``, ``sum`` ...).
    """
    if isinstance(expr, ast.Identifier):
        return expr.name
    if isinstance(expr, ast.IntLiteral):
        return str(expr.value)
    if isinstance(expr, ast.FloatLiteral):
        return expr.text or repr(expr.value)
    if isinstance(expr, ast.StringLiteral):
        return expr.value
    if isinstance(expr, ast.ArraySubscript):
        return f"{render_expr(expr.base)}[{render_expr(expr.index)}]"
    if isinstance(expr, ast.BinaryOp):
        return f"{render_expr(expr.left)}{expr.op}{render_expr(expr.right)}"
    if isinstance(expr, ast.UnaryOp):
        return f"{expr.op}{render_expr(expr.operand)}"
    if isinstance(expr, ast.Assignment):
        return f"{render_expr(expr.target)} {expr.op} {render_expr(expr.value)}"
    if isinstance(expr, ast.IncDec):
        inner = render_expr(expr.operand)
        return f"{expr.op}{inner}" if expr.prefix else f"{inner}{expr.op}"
    if isinstance(expr, ast.Call):
        args = ", ".join(render_expr(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, ast.AddressOf):
        return f"&{render_expr(expr.operand)}"
    if isinstance(expr, ast.Deref):
        return f"*{render_expr(expr.operand)}"
    if isinstance(expr, ast.ConditionalExpr):
        return (
            f"{render_expr(expr.cond)} ? {render_expr(expr.then)} : "
            f"{render_expr(expr.other)}"
        )
    return "<expr>"


@dataclass(frozen=True)
class ParallelContext:
    """Synchronization/worksharing context an access site sits in."""

    region_index: int
    directives: Tuple[str, ...]
    in_worksharing_loop: bool = False
    loop_variables: Tuple[str, ...] = ()
    in_critical: bool = False
    critical_name: Optional[str] = None
    in_atomic: bool = False
    in_ordered: bool = False
    in_master: bool = False
    in_single: bool = False
    in_task: bool = False
    in_section: bool = False
    locks_held: Tuple[str, ...] = ()
    reduction_vars: Tuple[str, ...] = ()
    private_vars: Tuple[str, ...] = ()
    # Phase/MHP facts.
    phase: int = 0
    construct_id: Optional[int] = None
    construct_kind: Optional[str] = None
    construct_seq: Optional[int] = None
    task_id: Optional[int] = None
    taskgroup_seq: Optional[int] = None
    # Distribution facts: which induction variables take different values in
    # concurrent instances of the innermost distributing construct.
    distributed_vars: Tuple[str, ...] = ()
    distribution_construct: Optional[int] = None
    # ``linear`` clause variables with a nonzero constant step: their value is
    # a bijection of the iteration number of the distributing loop.
    linear_vars: Tuple[str, ...] = ()
    # Constant-propagated (lo, hi) inclusive value range per loop variable,
    # aligned with ``loop_variables``; ``None`` where bounds are unknown.
    loop_ranges: Tuple[Optional[Tuple[int, int]], ...] = ()
    safelen: Optional[int] = None
    simd_only: bool = False
    atomic_kind: Optional[str] = None

    @property
    def is_protected(self) -> bool:
        """True when the access is guarded by mutual exclusion."""
        return self.in_critical or self.in_atomic or bool(self.locks_held)

    def loop_range(self, variable: str) -> Optional[Tuple[int, int]]:
        """Inclusive value range of an enclosing loop variable, if known."""
        for name, rng in zip(self.loop_variables, self.loop_ranges):
            if name == variable:
                return rng
        return None


def _derive(ctx: ParallelContext, **changes: object) -> ParallelContext:
    """``dataclasses.replace(ctx, **changes)`` at a tenth of the cost.

    ``replace`` reads every field and re-runs the frozen ``__init__``, which
    sets each of the 30 fields through ``object.__setattr__`` (about 12 µs
    a call); this copies the instance dictionary instead.  The context has
    no ``__post_init__`` and no ``init=False`` field, so the result equals
    what ``replace`` builds.  ``changes`` must name fields.
    """
    new = object.__new__(ParallelContext)
    new.__dict__.update(ctx.__dict__, **changes)
    return new


@dataclass(frozen=True)
class AccessSite:
    """One syntactic memory access inside a parallel construct."""

    variable: str
    expr_text: str
    is_write: bool
    line: int
    col: int
    subscript: Optional[str]
    context: ParallelContext

    @property
    def operation(self) -> str:
        return "W" if self.is_write else "R"

    @property
    def is_scalar(self) -> bool:
        return self.subscript is None


@dataclass(frozen=True)
class TaskInfo:
    """Facts about one explicit ``task`` construct."""

    task_id: int
    construct_id: Optional[int]
    spawn_seq: Optional[int]
    multiple: bool
    spawn_loop_vars: Tuple[str, ...] = ()
    firstprivate: Tuple[str, ...] = ()
    depend_in: Tuple[str, ...] = ()
    depend_out: Tuple[str, ...] = ()
    taskgroup_seq: Optional[int] = None


@dataclass
class RegionSummary:
    """Per-parallel-region facts collected alongside the access sites."""

    region_index: int
    entry_line: int
    phase_count: int = 1
    ticket_vars: Set[str] = field(default_factory=set)
    tasks: Dict[int, TaskInfo] = field(default_factory=dict)
    # construct_id -> sorted top-level statement indices holding a taskwait
    taskwaits: Dict[Optional[int], List[int]] = field(default_factory=dict)


@dataclass
class AccessModel:
    """Access sites plus the region- and unit-level facts around them."""

    sites: List[AccessSite] = field(default_factory=list)
    regions: Dict[int, RegionSummary] = field(default_factory=dict)
    constants: Dict[str, int] = field(default_factory=dict)
    # array name -> human-readable witness of why its stores are injective
    injective_arrays: Dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# unit-level pre-pass: constants, assigned names, index-array stores
# ---------------------------------------------------------------------------


def _eval_const(expr: Optional[ast.Expr], env: Dict[str, int]) -> Optional[int]:
    """Evaluate an integer-constant expression under ``env``, or ``None``."""
    if expr is None:
        return None
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.Identifier):
        return env.get(expr.name)
    if isinstance(expr, ast.UnaryOp):
        inner = _eval_const(expr.operand, env)
        if inner is None:
            return None
        if expr.op == "-":
            return -inner
        if expr.op == "+":
            return inner
        return None
    if isinstance(expr, ast.BinaryOp):
        left = _eval_const(expr.left, env)
        right = _eval_const(expr.right, env)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/" and right != 0:
            return left // right
        if expr.op == "%" and right != 0:
            return left % right
        return None
    return None


def _linear_coeff(
    expr: ast.Expr,
    var: str,
    env: Dict[str, int],
    assigned: Set[str],
) -> Optional[int]:
    """Coefficient of ``var`` when ``expr`` is linear in it, else ``None``.

    Identifiers other than ``var`` count as loop-invariant (coefficient 0)
    only when they are never assigned in the function; anything non-linear
    (division, modulus, products of variables) yields ``None``.
    """
    if isinstance(expr, ast.IntLiteral):
        return 0
    if isinstance(expr, ast.Identifier):
        if expr.name == var:
            return 1
        if expr.name in env or expr.name not in assigned:
            return 0
        return None
    if isinstance(expr, ast.UnaryOp):
        inner = _linear_coeff(expr.operand, var, env, assigned)
        if inner is None:
            return None
        return -inner if expr.op == "-" else (inner if expr.op == "+" else None)
    if isinstance(expr, ast.BinaryOp):
        left = _linear_coeff(expr.left, var, env, assigned)
        right = _linear_coeff(expr.right, var, env, assigned)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            if left == 0 and right == 0:
                return 0
            if left == 0:
                mult = _eval_const(expr.left, env)
                return mult * right if mult is not None else None
            if right == 0:
                mult = _eval_const(expr.right, env)
                return left * mult if mult is not None else None
            return None
        if expr.op in ("/", "%"):
            return 0 if left == 0 and right == 0 else None
        return None
    return None


@dataclass
class _ArrayStore:
    """One ``arr[index] = value`` store found during the unit pre-pass."""

    array: str
    index: ast.Expr
    value: ast.Expr
    loop_vars: Tuple[str, ...]
    in_region: bool


#: Directives that open a parallel region (or a simd/target one, which the
#: analyses treat the same way).
_REGION_DIRECTIVES = ("parallel", "simd", "target")


class _UnitPrepass:
    """Whole-unit walk gathering constants and index-array stores."""

    def __init__(self) -> None:
        self.assigned: Set[str] = set()
        self.decl_inits: List[Tuple[str, ast.Expr]] = []
        self._decl_seen: Set[str] = set()
        self.stores: List[_ArrayStore] = []

    def run(self, unit: ast.TranslationUnit) -> None:
        for fn in unit.functions:
            if fn.body is not None:
                self._walk_stmt(fn.body, (), False)

    # -- traversal -----------------------------------------------------------
    #
    # Both walks dispatch once per node on its exact class (the AST node
    # classes have no subclasses) and fall back to ``children()`` for a
    # class they do not list.

    def _note_expr(self, expr: Optional[ast.Expr]) -> None:
        """Add every name ``expr`` assigns or increments to ``assigned``."""
        cls = type(expr)
        if cls is ast.Identifier or cls is ast.IntLiteral or expr is None:
            return
        note = self._note_expr
        if cls is ast.BinaryOp:
            note(expr.left)
            note(expr.right)
        elif cls is ast.ArraySubscript:
            note(expr.base)
            note(expr.index)
        elif cls is ast.Assignment:
            target = expr.target
            if type(target) is ast.Identifier:
                self.assigned.add(target.name)
            note(target)
            note(expr.value)
        elif cls is ast.IncDec:
            operand = expr.operand
            if type(operand) is ast.Identifier:
                self.assigned.add(operand.name)
            note(operand)
        elif cls is ast.Call:
            for arg in expr.args:
                note(arg)
        elif cls is ast.UnaryOp or cls is ast.AddressOf or cls is ast.Deref:
            note(expr.operand)
        elif cls is ast.ConditionalExpr:
            note(expr.cond)
            note(expr.then)
            note(expr.other)
        else:
            for child in expr.children():
                if isinstance(child, ast.Expr):
                    note(child)

    def _walk_stmt(
        self, stmt: Optional[ast.Stmt], loop_vars: Tuple[str, ...], in_region: bool
    ) -> None:
        cls = type(stmt)
        if cls is ast.ExprStmt:
            expr = stmt.expr
            if type(expr) is ast.Assignment:
                target = expr.target
                if type(target) is ast.ArraySubscript and type(target.base) is ast.Identifier:
                    self.stores.append(
                        _ArrayStore(
                            array=target.base.name,
                            index=target.index,
                            value=expr.value,
                            loop_vars=loop_vars,
                            in_region=in_region,
                        )
                    )
            self._note_expr(expr)
        elif cls is ast.CompoundStmt:
            for child in stmt.body:
                self._walk_stmt(child, loop_vars, in_region)
        elif cls is ast.Declaration:
            for decl in stmt.declarators:
                if decl.init is not None:
                    self._note_expr(decl.init)
                    if not decl.array_dims and decl.name not in self._decl_seen:
                        self._decl_seen.add(decl.name)
                        self.decl_inits.append((decl.name, decl.init))
        elif cls is ast.ForStmt:
            var = stmt.loop_variable()
            inner = loop_vars + (var,) if var else loop_vars
            self._walk_stmt(stmt.init, loop_vars, in_region)
            self._note_expr(stmt.cond)
            self._note_expr(stmt.step)
            self._walk_stmt(stmt.body, inner, in_region)
        elif cls is ast.IfStmt:
            self._note_expr(stmt.cond)
            self._walk_stmt(stmt.then, loop_vars, in_region)
            self._walk_stmt(stmt.other, loop_vars, in_region)
        elif cls is ast.WhileStmt:
            self._note_expr(stmt.cond)
            self._walk_stmt(stmt.body, loop_vars, in_region)
        elif cls is ast.ReturnStmt:
            self._note_expr(stmt.value)
        elif cls is ast.OmpStmt:
            directives = stmt.pragma.directives
            entered = in_region or any(d in directives for d in _REGION_DIRECTIVES)
            self._walk_stmt(stmt.body, loop_vars, entered)
        elif stmt is not None:
            for child in stmt.children():
                if isinstance(child, ast.Stmt):
                    self._walk_stmt(child, loop_vars, in_region)
                elif isinstance(child, ast.Expr):
                    self._note_expr(child)

    # -- results -------------------------------------------------------------

    def constants(self) -> Dict[str, int]:
        """Integer declarations never reassigned: usable as loop bounds.

        Initialisers are folded in declaration order, so derived constants
        (``int half = len / 2;``) resolve as long as every name they depend
        on is itself constant.
        """
        env: Dict[str, int] = {}
        for name, init in self.decl_inits:
            if name in self.assigned:
                continue
            value = _eval_const(init, env)
            if value is not None:
                env[name] = value
        return env

    def injective_arrays(self) -> Dict[str, str]:
        """Arrays whose element values form an injective map of the index.

        Qualifies when the whole unit contains exactly one store to the array,
        outside any parallel region, of the shape ``arr[v] = f(v)`` with ``f``
        affine in the loop variable ``v`` with non-zero coefficient — a
        permutation/identity-style initialisation whose values never repeat.
        """
        env = self.constants()
        by_array: Dict[str, List[_ArrayStore]] = {}
        for store in self.stores:
            by_array.setdefault(store.array, []).append(store)
        result: Dict[str, str] = {}
        for name, stores in by_array.items():
            if len(stores) != 1:
                continue
            store = stores[0]
            if store.in_region or not store.loop_vars:
                continue
            if not isinstance(store.index, ast.Identifier):
                continue
            var = store.index.name
            if var != store.loop_vars[-1]:
                continue
            coeff = _linear_coeff(store.value, var, env, self.assigned)
            if coeff is None or coeff == 0:
                continue
            result[name] = f"{name}[{var}] = {render_expr(store.value)}"
        return result


def _loop_value_range(
    stmt: ast.ForStmt, env: Dict[str, int]
) -> Optional[Tuple[int, int]]:
    """Inclusive value range of a canonical for-loop's induction variable."""
    var = stmt.loop_variable()
    if var is None or stmt.cond is None:
        return None
    init = stmt.init
    start: Optional[int] = None
    if isinstance(init, ast.Declaration) and init.declarators:
        start = _eval_const(init.declarators[0].init, env)
    elif isinstance(init, ast.ExprStmt) and isinstance(init.expr, ast.Assignment):
        start = _eval_const(init.expr.value, env)
    if start is None:
        return None
    cond = stmt.cond
    if not (isinstance(cond, ast.BinaryOp) and isinstance(cond.left, ast.Identifier)):
        return None
    if cond.left.name != var:
        return None
    bound = _eval_const(cond.right, env)
    if bound is None:
        return None
    if cond.op == "<":
        lo, hi = start, bound - 1
    elif cond.op == "<=":
        lo, hi = start, bound
    elif cond.op == ">":
        lo, hi = bound + 1, start
    elif cond.op == ">=":
        lo, hi = bound, start
    else:
        return None
    if lo > hi:
        return None
    return (lo, hi)


def _bound_loop_vars(body: Optional[ast.Stmt], count: int) -> Tuple[str, ...]:
    """Induction variables of the ``count`` loops a worksharing pragma binds."""
    out: List[str] = []
    stmt = body
    while isinstance(stmt, ast.ForStmt) and len(out) < count:
        var = stmt.loop_variable()
        if var is None:
            break
        out.append(var)
        inner: Optional[ast.Stmt] = stmt.body
        # Skip a single-statement compound wrapper between nested loops.
        while isinstance(inner, ast.CompoundStmt) and len(inner.body) == 1:
            inner = inner.body[0]
        stmt = inner  # type: ignore[assignment]
    return tuple(out)


def _clause_int(pragma: ast.OmpPragma, name: str) -> Optional[int]:
    clause = pragma.clause(name)
    if clause is None or not clause.arguments:
        return None
    try:
        return int(clause.arguments[0])
    except ValueError:
        return None


def _linear_step_vars(pragma: ast.OmpPragma) -> Tuple[str, ...]:
    """Variables of ``linear`` clauses whose step is a nonzero constant.

    ``linear(j: 2)`` parses as ``["j", "2"]`` (list first, step last).  A
    nonzero step makes the variable advance in lockstep with the loop
    iteration, so its per-iteration value is a bijection of the iteration
    number — subscripts over it separate concurrent iterations just like the
    induction variable itself.  A missing step defaults to 1.
    """
    out: List[str] = []
    for clause in pragma.clauses:
        if clause.name != "linear" or not clause.arguments:
            continue
        args = list(clause.arguments)
        step = 1
        if len(args) >= 2:
            try:
                step = int(args[-1])
            except ValueError:
                pass
            else:
                args = args[:-1]
        if step == 0:
            continue
        for chunk in args:
            for name in chunk.split(","):
                name = name.strip()
                if name:
                    out.append(name)
    return tuple(out)


def _capture_ticket_var(body: Optional[ast.Stmt]) -> Optional[str]:
    """Target of an ``atomic capture`` ticket idiom ``v = ctr++`` / ``v = ++ctr``."""
    if not isinstance(body, ast.ExprStmt):
        return None
    expr = body.expr
    if (
        isinstance(expr, ast.Assignment)
        and not expr.is_compound
        and isinstance(expr.target, ast.Identifier)
        and isinstance(expr.value, ast.IncDec)
    ):
        return expr.target.name
    return None


# ---------------------------------------------------------------------------
# access collection
# ---------------------------------------------------------------------------


class _AccessCollector:
    """Stateful walker that accumulates access sites and region facts."""

    def __init__(self) -> None:
        self.model = AccessModel()
        self._region_counter = 0
        self._construct_counter = 0
        self._task_counter = 0
        self._phase = 0
        self._summary: Optional[RegionSummary] = None

    def _next_construct(self) -> int:
        self._construct_counter += 1
        return self._construct_counter

    # -- expression traversal -----------------------------------------------------

    def _emit(self, expr: ast.Expr, is_write: bool, ctx: ParallelContext) -> None:
        if ctx.phase != self._phase:
            ctx = _derive(ctx, phase=self._phase)
        if isinstance(expr, ast.Identifier):
            self.model.sites.append(
                AccessSite(
                    variable=expr.name,
                    expr_text=expr.name,
                    is_write=is_write,
                    line=expr.loc.line,
                    col=expr.loc.col,
                    subscript=None,
                    context=ctx,
                )
            )
            return
        if isinstance(expr, ast.ArraySubscript):
            root = expr.root_name() or "<anon>"
            subscript = ",".join(render_expr(ix) for ix in expr.indices())
            self.model.sites.append(
                AccessSite(
                    variable=root,
                    expr_text=render_expr(expr),
                    is_write=is_write,
                    line=expr.loc.line,
                    col=expr.loc.col,
                    subscript=subscript,
                    context=ctx,
                )
            )
            # subscript expressions themselves are reads
            for ix in expr.indices():
                self._walk_expr(ix, ctx)
            return
        # Fallback: treat as a read traversal of sub-expressions.
        self._walk_expr(expr, ctx)

    def _walk_expr(self, expr: Optional[ast.Expr], ctx: ParallelContext) -> None:
        cls = type(expr)
        if cls is ast.Identifier or cls is ast.ArraySubscript:
            self._emit(expr, False, ctx)
        elif cls is ast.BinaryOp:
            self._walk_expr(expr.left, ctx)
            self._walk_expr(expr.right, ctx)
        elif cls is ast.Assignment:
            self._emit(expr.target, True, ctx)
            if expr.is_compound:
                self._emit(expr.target, False, ctx)
            self._walk_expr(expr.value, ctx)
        elif cls is ast.IncDec:
            self._emit(expr.operand, True, ctx)
            self._emit(expr.operand, False, ctx)
        elif cls is ast.UnaryOp or cls is ast.AddressOf or cls is ast.Deref:
            self._walk_expr(expr.operand, ctx)
        elif cls is ast.Call:
            for arg in expr.args:
                self._walk_expr(arg, ctx)
        elif cls is ast.ConditionalExpr:
            self._walk_expr(expr.cond, ctx)
            self._walk_expr(expr.then, ctx)
            self._walk_expr(expr.other, ctx)
        # literals and None: nothing to record

    # -- statement traversal ------------------------------------------------------

    def _walk_stmt(self, stmt: Optional[ast.Stmt], ctx: ParallelContext) -> None:
        if stmt is None:
            return
        if isinstance(stmt, ast.ExprStmt):
            self._walk_expr(stmt.expr, ctx)
            return
        if isinstance(stmt, ast.Declaration):
            for decl in stmt.declarators:
                if decl.init is not None:
                    self._walk_expr(decl.init, ctx)
            return
        if isinstance(stmt, ast.CompoundStmt):
            for child in stmt.body:
                self._walk_stmt(child, ctx)
            return
        if isinstance(stmt, ast.ForStmt):
            loop_var = stmt.loop_variable()
            inner_ctx = ctx
            if loop_var is not None:
                rng = _loop_value_range(stmt, self.model.constants)
                inner_ctx = _derive(
                    ctx,
                    loop_variables=ctx.loop_variables + (loop_var,),
                    loop_ranges=ctx.loop_ranges + (rng,),
                )
            if stmt.init is not None:
                self._walk_stmt(stmt.init, inner_ctx)
            self._walk_expr(stmt.cond, inner_ctx)
            self._walk_expr(stmt.step, inner_ctx)
            self._walk_stmt(stmt.body, inner_ctx)
            return
        if isinstance(stmt, ast.WhileStmt):
            self._walk_expr(stmt.cond, ctx)
            self._walk_stmt(stmt.body, ctx)
            return
        if isinstance(stmt, ast.IfStmt):
            self._walk_expr(stmt.cond, ctx)
            self._walk_stmt(stmt.then, ctx)
            self._walk_stmt(stmt.other, ctx)
            return
        if isinstance(stmt, ast.ReturnStmt):
            self._walk_expr(stmt.value, ctx)
            return
        if isinstance(stmt, ast.OmpStmt):
            self._walk_omp(stmt, ctx)
            return
        # Null/Break/Continue: nothing to record.

    def _walk_sequence(self, body: Optional[ast.Stmt], ctx: ParallelContext) -> None:
        """Walk a construct body assigning top-level statement indices."""
        if isinstance(body, ast.CompoundStmt):
            for index, child in enumerate(body.body):
                self._walk_stmt(child, _derive(ctx, construct_seq=index))
            return
        self._walk_stmt(body, _derive(ctx, construct_seq=0))

    def _walk_omp(self, stmt: ast.OmpStmt, ctx: ParallelContext) -> None:
        pragma = stmt.pragma
        summary = self._summary

        if pragma.has_directive("barrier"):
            self._phase += 1
            if summary is not None:
                summary.phase_count = self._phase + 1
            return
        if pragma.has_directive("taskwait"):
            if summary is not None:
                seq = ctx.construct_seq if ctx.construct_seq is not None else -1
                summary.taskwaits.setdefault(ctx.construct_id, []).append(seq)
            return

        new_ctx = ctx
        if pragma.has_directive("critical"):
            name_clause = pragma.clause("name")
            new_ctx = _derive(
                new_ctx,
                in_critical=True,
                critical_name=name_clause.arguments[0] if name_clause else None,
            )
        if pragma.has_directive("atomic"):
            kind = next(
                (k for k in ("read", "write", "update", "capture") if pragma.clause(k)),
                "update",
            )
            new_ctx = _derive(new_ctx, in_atomic=True, atomic_kind=kind)
            if kind == "capture" and summary is not None:
                ticket = _capture_ticket_var(stmt.body)
                if ticket is not None:
                    summary.ticket_vars.add(ticket)
        if pragma.has_directive("ordered") and stmt.body is not None:
            new_ctx = _derive(new_ctx, in_ordered=True)

        reduction_vars = tuple(pragma.clause_vars("reduction"))
        private_vars = tuple(
            pragma.clause_vars("private")
            + pragma.clause_vars("firstprivate")
            + pragma.clause_vars("lastprivate")
            + pragma.clause_vars("linear")
        )
        if reduction_vars:
            new_ctx = _derive(new_ctx, reduction_vars=new_ctx.reduction_vars + reduction_vars)
        if private_vars:
            new_ctx = _derive(new_ctx, private_vars=new_ctx.private_vars + private_vars)

        # -- explicit task: record spawn facts, walk body in task context -----
        if pragma.has_directive("task") and not pragma.has_directive("taskloop"):
            self._walk_task(stmt, pragma, new_ctx)
            return

        # -- single-thread constructs get an identity and a statement sequence
        for kind, flag in (("single", "in_single"), ("master", "in_master")):
            if pragma.has_directive(kind):
                cid = self._next_construct()
                new_ctx = _derive(
                    new_ctx,
                    **{flag: True},
                    construct_id=cid,
                    construct_kind=kind,
                    construct_seq=None,
                )
                self._walk_sequence(stmt.body, new_ctx)
                if kind == "single" and pragma.clause("nowait") is None:
                    self._bump_phase()
                return
        if pragma.has_directive("section") and not pragma.has_directive("sections"):
            cid = self._next_construct()
            new_ctx = _derive(
                new_ctx,
                in_section=True,
                construct_id=cid,
                construct_kind="section",
                construct_seq=None,
            )
            self._walk_sequence(stmt.body, new_ctx)
            return
        if pragma.has_directive("taskgroup"):
            new_ctx = _derive(new_ctx, taskgroup_seq=ctx.construct_seq)
            self._walk_stmt(stmt.body, new_ctx)
            return

        # -- worksharing loops / sections containers --------------------------
        is_ws_loop = (
            pragma.has_directive("for")
            or pragma.has_directive("simd")
            or pragma.has_directive("taskloop")
        )
        if is_ws_loop:
            cid = self._next_construct()
            collapse = _clause_int(pragma, "collapse") or 1
            bound = _bound_loop_vars(stmt.body, collapse)
            new_ctx = _derive(
                new_ctx,
                in_worksharing_loop=True,
                distributed_vars=bound,
                distribution_construct=cid,
                linear_vars=new_ctx.linear_vars + _linear_step_vars(pragma),
                safelen=_clause_int(pragma, "safelen") or new_ctx.safelen,
            )
            self._walk_stmt(stmt.body, new_ctx)
            if pragma.has_directive("for") and pragma.clause("nowait") is None:
                self._bump_phase()
            return
        if pragma.has_directive("sections"):
            self._walk_stmt(stmt.body, new_ctx)
            if pragma.clause("nowait") is None:
                self._bump_phase()
            return

        self._walk_stmt(stmt.body, new_ctx)

    def _walk_task(
        self, stmt: ast.OmpStmt, pragma: ast.OmpPragma, ctx: ParallelContext
    ) -> None:
        self._task_counter += 1
        tid = self._task_counter
        depend_in: List[str] = []
        depend_out: List[str] = []
        for clause in pragma.clauses:
            if clause.name != "depend" or not clause.arguments:
                continue
            modifier, *names = clause.arguments
            if modifier == "in":
                depend_in.extend(names)
            elif modifier in ("out", "inout"):
                depend_out.extend(names)
        firstprivate = tuple(pragma.clause_vars("firstprivate"))
        multiple = bool(ctx.loop_variables) or not (
            ctx.in_single or ctx.in_master or ctx.in_section
        )
        info = TaskInfo(
            task_id=tid,
            construct_id=ctx.construct_id,
            spawn_seq=ctx.construct_seq,
            multiple=multiple,
            spawn_loop_vars=ctx.loop_variables,
            firstprivate=firstprivate,
            depend_in=tuple(depend_in),
            depend_out=tuple(depend_out),
            taskgroup_seq=ctx.taskgroup_seq,
        )
        if self._summary is not None:
            self._summary.tasks[tid] = info
        # A firstprivate capture of a spawning-loop induction variable gives
        # every task instance its own distinct value: it distributes instances.
        dvars = tuple(v for v in ctx.loop_variables if v in firstprivate)
        task_cid = self._next_construct()
        task_ctx = _derive(
            ctx,
            in_task=True,
            task_id=tid,
            construct_kind="task",
            distributed_vars=dvars if multiple else (),
            distribution_construct=task_cid if (multiple and dvars) else None,
        )
        self._walk_stmt(stmt.body, task_ctx)

    def _bump_phase(self) -> None:
        self._phase += 1
        if self._summary is not None:
            self._summary.phase_count = self._phase + 1

    # -- lock-call tracking inside sequential statement lists ----------------------

    def _walk_region_body(self, stmt: Optional[ast.Stmt], ctx: ParallelContext) -> None:
        """Walk a parallel-region body tracking omp_set_lock/omp_unset_lock."""
        if isinstance(stmt, ast.CompoundStmt):
            current = ctx
            for child in stmt.body:
                lock_name = _lock_call_target(child, "omp_set_lock")
                if lock_name is not None:
                    current = _derive(current, locks_held=current.locks_held + (lock_name,))
                    continue
                unlock_name = _lock_call_target(child, "omp_unset_lock")
                if unlock_name is not None:
                    held = tuple(l for l in current.locks_held if l != unlock_name)
                    current = _derive(current, locks_held=held)
                    continue
                if isinstance(child, ast.CompoundStmt):
                    self._walk_region_body(child, current)
                else:
                    self._walk_stmt(child, current)
            return
        self._walk_stmt(stmt, ctx)

    # -- entry point ---------------------------------------------------------------

    def collect(self, unit: ast.TranslationUnit) -> AccessModel:
        prepass = _UnitPrepass()
        prepass.run(unit)
        self.model.constants = prepass.constants()
        self.model.injective_arrays = prepass.injective_arrays()
        for fn in unit.functions:
            if fn.body is None:
                continue
            self._find_parallel_regions(fn.body)
        return self.model

    def _find_parallel_regions(self, stmt: Optional[ast.Stmt]) -> None:
        cls = type(stmt)
        if cls is ast.CompoundStmt:
            for child in stmt.body:
                self._find_parallel_regions(child)
            return
        if cls is ast.ExprStmt or cls is ast.Declaration or stmt is None:
            return
        if cls is ast.ForStmt:
            self._find_parallel_regions(stmt.init)
            self._find_parallel_regions(stmt.body)
            return
        if cls is ast.IfStmt:
            self._find_parallel_regions(stmt.then)
            self._find_parallel_regions(stmt.other)
            return
        if cls is ast.WhileStmt:
            self._find_parallel_regions(stmt.body)
            return
        if cls is ast.OmpStmt:
            pragma = stmt.pragma
            if any(d in pragma.directives for d in _REGION_DIRECTIVES):
                self._region_counter += 1
                self._phase = 0
                summary = RegionSummary(
                    region_index=self._region_counter,
                    entry_line=pragma.loc.line,
                )
                self.model.regions[self._region_counter] = summary
                self._summary = summary
                in_ws = pragma.has_directive("for") or pragma.has_directive("simd")
                cid = self._next_construct()
                collapse = _clause_int(pragma, "collapse") or 1
                ctx = ParallelContext(
                    region_index=self._region_counter,
                    directives=pragma.directives,
                    in_worksharing_loop=in_ws,
                    reduction_vars=tuple(pragma.clause_vars("reduction")),
                    private_vars=tuple(
                        pragma.clause_vars("private")
                        + pragma.clause_vars("firstprivate")
                        + pragma.clause_vars("lastprivate")
                        + pragma.clause_vars("linear")
                    ),
                    distributed_vars=(
                        _bound_loop_vars(stmt.body, collapse) if in_ws else ()
                    ),
                    distribution_construct=cid if in_ws else None,
                    linear_vars=_linear_step_vars(pragma) if in_ws else (),
                    safelen=_clause_int(pragma, "safelen"),
                    simd_only=(
                        pragma.has_directive("simd")
                        and not pragma.has_directive("parallel")
                    ),
                )
                self._walk_region_body(stmt.body, ctx)
                self._summary = None
                return
            # non-parallel OpenMP statement outside a region (rare): recurse
            self._find_parallel_regions(stmt.body)
            return
        for child in stmt.children():
            if isinstance(child, ast.Stmt):
                self._find_parallel_regions(child)


def _lock_call_target(stmt: ast.Stmt, fn_name: str) -> Optional[str]:
    """Return the lock variable name when ``stmt`` is ``fn_name(&lock)``."""
    if not isinstance(stmt, ast.ExprStmt):
        return None
    expr = stmt.expr
    if not isinstance(expr, ast.Call) or expr.name != fn_name or not expr.args:
        return None
    arg = expr.args[0]
    if isinstance(arg, ast.AddressOf) and isinstance(arg.operand, ast.Identifier):
        return arg.operand.name
    if isinstance(arg, ast.Identifier):
        return arg.name
    return None


def extract_access_model(unit: ast.TranslationUnit) -> AccessModel:
    """Extract access sites plus region/unit facts for the static analyzer."""
    return _AccessCollector().collect(unit)


def extract_accesses(unit: ast.TranslationUnit) -> List[AccessSite]:
    """Extract every memory access inside OpenMP parallel constructs.

    Accesses outside any parallel construct are not reported: they cannot
    participate in a data race between team threads.
    """
    return extract_access_model(unit).sites
