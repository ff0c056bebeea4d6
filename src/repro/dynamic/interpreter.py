"""Closure-compiling interpreter with OpenMP semantics for the corpus language subset.

The interpreter executes one microbenchmark with a simulated thread team.
Threads of a parallel region are executed one after another (thread 0's whole
traversal of the region body, then thread 1's, ...): for race *detection* the
precise interleaving is irrelevant because the detector reasons about
concurrency from barrier epochs, lock sets and task lineage recorded on each
event, exactly like segment/lockset-based commercial tools do.

Execution is in two stages.  :class:`Program` compiles a parsed translation
unit once: every statement and expression node becomes a Python closure, and
every static fact (names, subscript shapes, source positions, operators,
pragma clauses, helper-function lookups) is resolved at compile time.  The
access text reported on an event is rendered at most once per node, on first
use.  The closures read all per-run state (memory, step budget, trace) from
the runtime they are handed, so one :class:`Program` serves every
(team size, schedule) run of :class:`Interpreter`.

A run is deterministic and counts one step per executed statement and per
evaluated expression node; ``steps_executed``, ``omp_get_wtime()`` (which
returns the step count) and the ``max_steps`` limit all depend on it.  When
a node's step is immediately followed by its first child's, the parent's
step is charged on entry to the child instead, which leaves the count the
same at every point where it can be observed.  Compiling never fails: an
unsupported node compiles into a closure that raises its
:class:`InterpreterError` when, and only when, it executes.  Runtime faults
of the program (division by zero, bad shifts, out-of-range subscripts,
unconvertible operands) are reported as :class:`InterpreterError` too.

Supported OpenMP constructs: ``parallel`` (with ``num_threads``), worksharing
``for`` (static and round-robin schedules, ``nowait``, ``reduction``,
``private``/``firstprivate``/``lastprivate``/``linear``), combined
``parallel for [simd]``, ``simd``, ``sections``/``section``, ``single``,
``master``, ``critical`` (named and unnamed), ``atomic`` (with modifiers),
``ordered``, ``barrier``, ``task`` (with ``depend``, ``shared``,
``firstprivate``), ``taskwait``, and the lock API
(``omp_init_lock``/``omp_set_lock``/``omp_unset_lock``/``omp_destroy_lock``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.cparse import ast, parse
from repro.dynamic.events import AccessEvent, ExecutionTrace, TaskInfo

__all__ = ["Interpreter", "InterpreterError", "InterpreterLimits", "Program"]


class InterpreterError(RuntimeError):
    """Raised for unsupported constructs or runtime errors during interpretation."""


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value) -> None:
        super().__init__("return")
        self.value = value


@dataclass(frozen=True)
class InterpreterLimits:
    """Execution limits protecting against runaway loops."""

    max_steps: int = 2_000_000
    max_loop_iterations: int = 100_000


_STEP_LIMIT = "execution step limit exceeded"
#: Python errors an operator raises on operands C would not accept.
_OPERAND_ERRORS = (ArithmeticError, TypeError, ValueError)
_NO_LOCKS: FrozenSet[str] = frozenset()
#: Builds an :class:`AccessEvent` from one positional tuple of its fields.
_new_event = partial(tuple.__new__, AccessEvent)


class _ThreadState:
    """Per-thread execution context inside a parallel region."""

    __slots__ = ("thread_id", "team_size", "privates", "epoch", "step", "locks", "critical",
                 "held", "atomic_depth", "ordered_depth", "task_seq", "current_task")

    def __init__(self, thread_id: int, team_size: int) -> None:
        self.thread_id = thread_id
        self.team_size = team_size
        self.privates: Dict[str, object] = {}
        self.epoch = 0
        self.step = 0
        self.locks: Tuple[str, ...] = ()
        self.critical: Tuple[str, ...] = ()
        #: ``frozenset(locks) | frozenset(critical)``, the lock set events carry.
        self.held = _NO_LOCKS
        self.atomic_depth = 0
        self.ordered_depth = 0
        self.task_seq = 0
        self.current_task: Optional[TaskInfo] = None


class _Runtime:
    """The per-run state every compiled closure reads and updates."""

    __slots__ = ("memory", "trace", "events", "budget", "max_steps", "max_loop", "num_threads",
                 "schedule", "region", "task_counter", "depend_last_out", "lock_sets")

    def __init__(self, num_threads: int, schedule: str, limits: InterpreterLimits) -> None:
        self.memory: Dict[str, object] = {}
        self.trace = ExecutionTrace(num_threads=num_threads)
        self.events = self.trace.events
        #: Steps left before ``max_steps`` is exceeded; a step is taken by
        #: decrementing it, and it going negative is the limit error.
        self.budget = limits.max_steps
        self.max_steps = limits.max_steps
        self.max_loop = limits.max_loop_iterations
        self.num_threads = num_threads
        self.schedule = schedule
        self.region = 0
        self.task_counter = 0
        self.depend_last_out: Dict[str, int] = {}
        self.lock_sets: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], FrozenSet[str]] = {}

    @property
    def steps(self) -> int:
        return self.max_steps - self.budget

    def hold(self, st: _ThreadState) -> None:
        """Refresh ``st.held`` after its locks or critical sections changed."""
        key = (st.locks, st.critical)
        held = self.lock_sets.get(key)
        if held is None:
            held = self.lock_sets[key] = frozenset(st.locks) | frozenset(st.critical)
        st.held = held


def _emit(rt: _Runtime, st: _ThreadState, address: str, variable: str, text: str,
          line: int, col: int, is_write: bool) -> None:
    """Record one shared access of the executing thread."""
    st.step = step = st.step + 1
    rt.events.append(_new_event((
        address, variable, text, line, col, is_write, st.thread_id, rt.region, st.epoch, step,
        st.held, st.atomic_depth > 0, st.ordered_depth > 0, st.current_task, st.task_seq,
    )))


# -- operators ----------------------------------------------------------------


def _divide(left, right):
    if right == 0:
        raise InterpreterError("division by zero")
    if isinstance(left, int) and isinstance(right, int):
        return left // right
    return left / right


def _modulo(left, right):
    if right == 0:
        raise InterpreterError("modulo by zero")
    return int(left) % int(right)


#: Value operators shared by binary expressions and compound assignments
#: (``&&``, ``||`` and ``,`` short-circuit and are compiled separately).
_OPERATORS: Dict[str, Callable[[object, object], object]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "%": _modulo,
    "==": lambda left, right: 1 if left == right else 0,
    "!=": lambda left, right: 1 if left != right else 0,
    "<": lambda left, right: 1 if left < right else 0,
    ">": lambda left, right: 1 if left > right else 0,
    "<=": lambda left, right: 1 if left <= right else 0,
    ">=": lambda left, right: 1 if left >= right else 0,
    "&": lambda left, right: int(left) & int(right),
    "|": lambda left, right: int(left) | int(right),
    "^": lambda left, right: int(left) ^ int(right),
    "<<": lambda left, right: int(left) << int(right),
    ">>": lambda left, right: int(left) >> int(right),
}


def _operand_error(op: str, exc: Exception) -> InterpreterError:
    return InterpreterError(f"bad operands for {op}: {exc}")


def _to_int(value, what: str) -> int:
    try:
        return int(value)
    except _OPERAND_ERRORS as exc:
        raise InterpreterError(f"bad {what}: {exc}") from exc


#: Reduction identity values per operator.
_REDUCTION_INIT = {"+": 0, "-": 0, "*": 1, "max": float("-inf"), "min": float("inf"),
                   "|": 0, "&": ~0, "^": 0, "||": 0, "&&": 1}

_LOCK_NOOPS = frozenset(("omp_init_lock", "omp_destroy_lock", "omp_init_nest_lock",
                         "omp_destroy_nest_lock"))
_LOCK_SETS = frozenset(("omp_set_lock", "omp_set_nest_lock"))
_LOCK_UNSETS = frozenset(("omp_unset_lock", "omp_unset_nest_lock"))


def _iteration_space(op: str, start: int, bound: int, step: int, max_loop: int) -> range:
    """The values a canonical loop ``for (v = start; v op bound; v += step)`` takes.

    Fails exactly where stepping the loop one value at a time would: the
    limit is checked before every test of the condition, including the
    final one that ends the loop.
    """
    if op == "<":
        stop, ascending = bound, True
    elif op == "<=":
        stop, ascending = bound + 1, True
    elif op == ">":
        stop, ascending = bound, False
    elif op == ">=":
        stop, ascending = bound - 1, False
    else:
        if max_loop < 1:
            raise InterpreterError("worksharing loop iteration limit exceeded")
        raise InterpreterError(f"unsupported loop condition operator {op}")
    if not (start < stop if ascending else start > stop):
        iterations = range(0)
    elif step > 0 if ascending else step < 0:
        iterations = range(start, stop, step)
    else:
        raise InterpreterError("worksharing loop iteration limit exceeded")  # never ends
    if len(iterations) >= max_loop:
        raise InterpreterError("worksharing loop iteration limit exceeded")
    return iterations


def _unwrap(body: Optional[ast.Stmt]) -> Optional[ast.Stmt]:
    """Strip compound statements that hold exactly one statement."""
    while isinstance(body, ast.CompoundStmt) and len(body.body) == 1:
        body = body.body[0]
    return body


Closure = Callable[[_Runtime, Optional[_ThreadState]], object]
Store = Callable[[_Runtime, Optional[_ThreadState], object], None]


class _Compiler:
    """Turns AST nodes into closures ``f(rt, st)``.

    ``st`` is the executing thread's :class:`_ThreadState`, or ``None``
    outside parallel regions.  Every ``expr``/``stmt`` closure takes
    ``1 + pre`` steps on entry: ``pre`` carries the steps of parents whose
    own step immediately precedes this node's.
    """

    def __init__(self, unit: ast.TranslationUnit) -> None:
        self.unit = unit
        self._memo: Dict[Tuple[int, int, str], Closure] = {}
        self._texts: Dict[int, List] = {}
        #: name -> one-element cell holding the compiled function, filled
        #: once its body is compiled (so recursive calls resolve).
        self._functions: Dict[str, List] = {}

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def constant(n: int, value) -> Closure:
        """Take ``n`` steps, then yield ``value``."""

        def constant(rt, st):
            rt.budget = budget = rt.budget - n
            if budget < 0:
                raise InterpreterError(_STEP_LIMIT)
            return value

        return constant

    @classmethod
    def ticker(cls, n: int) -> Closure:
        return cls.constant(n, None)

    @classmethod
    def raiser(cls, n: int, message: str) -> Closure:
        """Take ``n`` steps, then fail with ``message``."""
        tick = cls.ticker(n)

        def fail(rt, st):
            tick(rt, st)
            raise InterpreterError(message)

        return fail

    def text_cell(self, node: ast.Expr) -> List:
        """``[rendered text or None, node]``, shared by every closure of ``node``."""
        cell = self._texts.get(id(node))
        if cell is None:
            cell = self._texts[id(node)] = [None, node]
        return cell

    # -- expressions ----------------------------------------------------------

    def expr(self, node: Optional[ast.Expr], pre: int = 0) -> Closure:
        key = (id(node), pre, "expr")
        compiled = self._memo.get(key)
        if compiled is None:
            build = self._EXPRESSIONS.get(type(node))
            n = pre + 1
            if build is None:
                compiled = self.raiser(n, f"unsupported expression {type(node).__name__}")
            else:
                compiled = build(self, node, n)
            self._memo[key] = compiled
        return compiled

    def _literal(self, node, n: int) -> Closure:
        return self.constant(n, node.value)

    def _identifier(self, node: ast.Identifier, n: int) -> Closure:
        name = node.name
        line, col = node.loc.line, node.loc.col
        undeclared = f"read of undeclared variable {name!r}"

        def identifier(rt, st):
            rt.budget = budget = rt.budget - n
            if budget < 0:
                raise InterpreterError(_STEP_LIMIT)
            if st is not None:
                privates = st.privates
                if name in privates:
                    return privates[name]
            try:
                value = rt.memory[name]
            except KeyError:
                raise InterpreterError(undeclared) from None
            if st is not None and not isinstance(value, list):
                _emit(rt, st, name, name, name, line, col, False)
            return value

        return identifier

    def _indices(self, node: ast.ArraySubscript, pre: int, root) -> Closure:
        """Closure evaluating every subscript of ``node`` to a list of ints."""
        index_fns = [self.expr(ix, pre if k == 0 else 0) for k, ix in enumerate(node.indices())]
        what = f"subscript on {root}"

        def indices(rt, st):
            return [_to_int(fn(rt, st), what) for fn in index_fns]

        return indices

    def _subscript(self, node: ast.ArraySubscript, n: int) -> Closure:
        root = node.root_name()
        if root is None:
            return self.raiser(n, "cannot resolve array expression")
        # The subscript's own steps directly precede its first index's.
        pre = n
        undeclared = f"read of undeclared variable {root!r}"
        bad = f"bad subscript on {root}: "
        cell = self.text_cell(node)
        line, col = node.loc.line, node.loc.col
        index_nodes = node.indices()

        if len(index_nodes) == 1:
            index_fn = self.expr(index_nodes[0], pre)

            def subscript1(rt, st):
                index = index_fn(rt, st)
                try:
                    index = int(index)
                except _OPERAND_ERRORS as exc:
                    raise InterpreterError(f"{bad}{exc}") from exc
                if st is not None:
                    privates = st.privates
                    if root in privates:
                        try:
                            return privates[root][index]
                        except (IndexError, TypeError) as exc:
                            raise InterpreterError(f"{bad}{exc}") from exc
                try:
                    container = rt.memory[root]
                except KeyError:
                    raise InterpreterError(undeclared) from None
                try:
                    value = container[index]
                except (IndexError, TypeError) as exc:
                    raise InterpreterError(f"{bad}{exc}") from exc
                if st is not None:
                    text = cell[0]
                    if text is None:
                        text = cell[0] = _render(node)
                    _emit(rt, st, f"{root}[{index}]", root, text, line, col, False)
                return value

            return subscript1

        indices_fn = self._indices(node, pre, root)

        def subscript(rt, st):
            indices = indices_fn(rt, st)
            shared = True
            if st is not None and root in st.privates:
                container = st.privates[root]
                shared = False
            else:
                try:
                    container = rt.memory[root]
                except KeyError:
                    raise InterpreterError(undeclared) from None
            try:
                for index in indices:
                    container = container[index]
            except (IndexError, TypeError) as exc:
                raise InterpreterError(f"{bad}{exc}") from exc
            if shared and st is not None:
                text = cell[0]
                if text is None:
                    text = cell[0] = _render(node)
                address = f"{root}[{','.join(str(i) for i in indices)}]"
                _emit(rt, st, address, root, text, line, col, False)
            return container

        return subscript

    def _binary(self, node: ast.BinaryOp, n: int) -> Closure:
        op = node.op
        # The operator's own step directly precedes its left operand's.
        left = self.expr(node.left, n)
        right = self.expr(node.right)
        if op == "&&":
            return lambda rt, st: 1 if (left(rt, st) and right(rt, st)) else 0
        if op == "||":
            return lambda rt, st: 1 if (left(rt, st) or right(rt, st)) else 0
        if op == ",":
            def comma(rt, st):
                left(rt, st)
                return right(rt, st)

            return comma
        apply = _OPERATORS.get(op)
        if apply is None:
            unsupported = f"unsupported binary operator {op}"

            def unknown(rt, st):
                left(rt, st)
                right(rt, st)
                raise InterpreterError(unsupported)

            return unknown

        def binary(rt, st):
            lhs = left(rt, st)
            rhs = right(rt, st)
            try:
                return apply(lhs, rhs)
            except _OPERAND_ERRORS as exc:
                raise _operand_error(op, exc) from exc

        return binary

    def _unary(self, node: ast.UnaryOp, n: int) -> Closure:
        op = node.op
        operand = self.expr(node.operand, n)
        if op == "+":
            return operand
        if op == "!":
            return lambda rt, st: 0 if operand(rt, st) else 1
        if op == "-":
            apply = operator.neg
        elif op == "~":
            apply = lambda value: ~int(value)  # noqa: E731
        else:
            unsupported = f"unsupported unary operator {op}"

            def unknown(rt, st):
                operand(rt, st)
                raise InterpreterError(unsupported)

            return unknown

        def unary(rt, st):
            value = operand(rt, st)
            try:
                return apply(value)
            except _OPERAND_ERRORS as exc:
                raise _operand_error(op, exc) from exc

        return unary

    def _assignment(self, node: ast.Assignment, n: int) -> Closure:
        store = self.store(node.target)
        if not node.is_compound:
            value_fn = self.expr(node.value, n)

            def assign(rt, st):
                value = value_fn(rt, st)
                store(rt, st, value)
                return value

            return assign
        op = node.op[:-1]
        current_fn = self.expr(node.target, n)
        value_fn = self.expr(node.value)
        apply = _OPERATORS.get(op)
        if apply is None:
            unsupported = f"unsupported compound operator {op}="

            def unknown(rt, st):
                current_fn(rt, st)
                value_fn(rt, st)
                raise InterpreterError(unsupported)

            return unknown

        def compound(rt, st):
            current = current_fn(rt, st)
            rhs = value_fn(rt, st)
            try:
                combined = apply(current, rhs)
            except _OPERAND_ERRORS as exc:
                raise _operand_error(op, exc) from exc
            store(rt, st, combined)
            return combined

        return compound

    def _incdec(self, node: ast.IncDec, n: int) -> Closure:
        current_fn = self.expr(node.operand, n)
        store = self.store(node.operand)
        delta = 1 if node.op == "++" else -1
        prefix = node.prefix
        op = node.op

        def incdec(rt, st):
            current = current_fn(rt, st)
            try:
                updated = current + delta
            except _OPERAND_ERRORS as exc:
                raise _operand_error(op, exc) from exc
            store(rt, st, updated)
            return updated if prefix else current

        return incdec

    def _address_of(self, node: ast.AddressOf, n: int) -> Closure:
        operand = node.operand
        return self.constant(n, ("&", operand.name if isinstance(operand, ast.Identifier) else "<expr>"))

    def _deref(self, node: ast.Deref, n: int) -> Closure:
        # ``*p`` reads ``p``: the dereference's step precedes the operand's.
        return self.expr(node.operand, n)

    def _conditional(self, node: ast.ConditionalExpr, n: int) -> Closure:
        cond = self.expr(node.cond, n)
        then = self.expr(node.then)
        other = self.expr(node.other)
        return lambda rt, st: then(rt, st) if cond(rt, st) else other(rt, st)

    # -- calls ----------------------------------------------------------------

    def _call(self, node: ast.Call, n: int) -> Closure:
        name = node.name
        tick = self.ticker(n)
        if name == "printf":
            arg_fns = [self.expr(arg) for arg in node.args[1:]]

            def printf(rt, st):
                tick(rt, st)
                for fn in arg_fns:
                    fn(rt, st)
                return 0

            return printf
        if name in _LOCK_NOOPS or name == "sizeof":
            return self.constant(n, 8 if name == "sizeof" else 0)
        if name in _LOCK_SETS or name in _LOCK_UNSETS:
            return self._lock_call(node, tick, acquire=name in _LOCK_SETS)
        if name == "omp_get_thread_num":
            def thread_num(rt, st):
                tick(rt, st)
                return st.thread_id if st is not None else 0

            return thread_num
        if name == "omp_get_num_threads":
            def num_threads(rt, st):
                tick(rt, st)
                return st.team_size if st is not None else 1

            return num_threads
        if name == "omp_get_wtime":
            def wtime(rt, st):
                tick(rt, st)
                return float(rt.steps)

            return wtime
        if name in ("fabs", "abs", "sqrt"):
            if not node.args:
                return self.raiser(n, f"{name}() needs an argument")
            # The call's own step directly precedes its argument's.
            arg = self.expr(node.args[0], n)
            apply = abs if name != "sqrt" else (lambda value: value ** 0.5)

            def math(rt, st):
                value = arg(rt, st)
                try:
                    return apply(value)
                except _OPERAND_ERRORS as exc:
                    raise InterpreterError(f"bad argument to {name}: {exc}") from exc

            return math
        arg_fns = [self.expr(arg) for arg in node.args]
        if name == "__init_list__":
            def init_list(rt, st):
                tick(rt, st)
                return [fn(rt, st) for fn in arg_fns]

            return init_list
        fn = self.unit.function(name)
        if fn is not None:
            return self._user_call(fn, node, tick)

        def library(rt, st):
            # Unknown library call: evaluate arguments for their side effects.
            tick(rt, st)
            for arg_fn in arg_fns:
                arg_fn(rt, st)
            return 0

        return library

    def _lock_call(self, node: ast.Call, tick: Closure, *, acquire: bool) -> Closure:
        lock = _lock_name(node)

        def lock_call(rt, st):
            tick(rt, st)
            if st is not None and lock is not None:
                if acquire:
                    st.locks = st.locks + (lock,)
                else:
                    st.locks = tuple(held for held in st.locks if held != lock)
                rt.hold(st)
            return 0

        return lock_call

    def _user_call(self, fn: ast.FunctionDef, node: ast.Call, tick: Closure) -> Closure:
        # Arguments are passed by value into temporary globals (the corpus
        # uses helper functions only for scalar work); each is bound before
        # the next is evaluated.
        params = [(param.name, self.expr(arg)) for param, arg in zip(fn.params, node.args)]
        cell = self._function(fn)

        def call(rt, st):
            tick(rt, st)
            memory = rt.memory
            saved_keys = set(memory)
            for param, arg_fn in params:
                memory[param] = arg_fn(rt, st)
            try:
                cell[0](rt, st)
                result = 0
            except _ReturnSignal as signal:
                result = signal.value if signal.value is not None else 0
            for key in set(memory) - saved_keys:
                del memory[key]
            return result

        return call

    def _function(self, fn: ast.FunctionDef) -> List:
        cell = self._functions.get(fn.name)
        if cell is None:
            cell = self._functions[fn.name] = [None]
            cell[0] = self.stmt(fn.body)
        return cell

    # -- stores ---------------------------------------------------------------

    def store(self, target: ast.Expr) -> Store:
        """Closure ``f(rt, st, value)`` assigning ``value`` to ``target``."""
        if isinstance(target, ast.Identifier):
            return self._store_identifier(target)
        if isinstance(target, ast.ArraySubscript):
            return self._store_subscript(target)
        if isinstance(target, ast.Deref):
            message = "pointer stores are not supported"
        else:
            message = f"unsupported assignment target {type(target).__name__}"

        def unsupported(rt, st, value):
            raise InterpreterError(message)

        return unsupported

    def _store_identifier(self, target: ast.Identifier) -> Store:
        name = target.name
        line, col = target.loc.line, target.loc.col

        def store_identifier(rt, st, value):
            if st is None:
                rt.memory[name] = value
                return
            privates = st.privates
            if name in privates:
                privates[name] = value
                return
            rt.memory[name] = value
            _emit(rt, st, name, name, name, line, col, True)

        return store_identifier

    def _store_subscript(self, target: ast.ArraySubscript) -> Store:
        root = target.root_name()
        undeclared = f"read of undeclared variable {root!r}"
        bad = f"bad subscript store on {root}: "
        cell = self.text_cell(target)
        line, col = target.loc.line, target.loc.col
        index_nodes = target.indices()

        if len(index_nodes) == 1:
            index_fn = self.expr(index_nodes[0])
            what = f"subscript on {root}"

            def store_subscript1(rt, st, value):
                index = _to_int(index_fn(rt, st), what)
                if st is not None:
                    privates = st.privates
                    if root in privates:
                        try:
                            privates[root][index] = value
                        except (IndexError, TypeError) as exc:
                            raise InterpreterError(f"{bad}{exc}") from exc
                        return
                try:
                    container = rt.memory[root]
                except KeyError:
                    raise InterpreterError(undeclared) from None
                try:
                    container[index] = value
                except (IndexError, TypeError) as exc:
                    raise InterpreterError(f"{bad}{exc}") from exc
                if st is not None:
                    text = cell[0]
                    if text is None:
                        text = cell[0] = _render(target)
                    _emit(rt, st, f"{root}[{index}]", root, text, line, col, True)

            return store_subscript1

        indices_fn = self._indices(target, 0, root)

        def store_subscript(rt, st, value):
            indices = indices_fn(rt, st)
            shared = True
            if st is not None and root in st.privates:
                dest = st.privates[root]
                shared = False
            else:
                try:
                    dest = rt.memory[root]
                except KeyError:
                    raise InterpreterError(undeclared) from None
            try:
                for index in indices[:-1]:
                    dest = dest[index]
                dest[indices[-1]] = value
            except (IndexError, TypeError) as exc:
                raise InterpreterError(f"{bad}{exc}") from exc
            if shared and st is not None:
                text = cell[0]
                if text is None:
                    text = cell[0] = _render(target)
                address = f"{root}[{','.join(str(i) for i in indices)}]"
                _emit(rt, st, address, root, text, line, col, True)

        return store_subscript

    # -- statements -----------------------------------------------------------

    def stmt(self, node: Optional[ast.Stmt], pre: int = 0) -> Closure:
        key = (id(node), pre, "stmt")
        compiled = self._memo.get(key)
        if compiled is None:
            build = self._STATEMENTS.get(type(node))
            n = pre + 1
            if build is None:
                compiled = self.raiser(n, f"unsupported statement {type(node).__name__}")
            else:
                compiled = build(self, node, n)
            self._memo[key] = compiled
        return compiled

    def _compound(self, node: ast.CompoundStmt, n: int) -> Closure:
        if not node.body:
            return self.ticker(n)
        # The block's own step directly precedes its first statement's.
        children = [self.stmt(node.body[0], n)] + [self.stmt(child) for child in node.body[1:]]
        if len(children) == 1:
            return children[0]

        def block(rt, st):
            for child in children:
                child(rt, st)

        return block

    def declaration(self, node: ast.Declaration, n: int) -> Closure:
        """A declaration; ``n == 0`` for globals, which take no step."""
        default = 0.0 if node.type_name in ("float", "double") else 0
        plan = []
        for declarator in node.declarators:
            dims = [None if dim is None else self.expr(dim) for dim in declarator.array_dims]
            init = declarator.init
            init_fn = elements = None
            if dims:
                if isinstance(init, ast.Call) and init.name == "__init_list__":
                    elements = [self.expr(element) for element in init.args]
            elif init is not None:
                init_fn = self.expr(init)
            plan.append((declarator.name, dims, init_fn, elements, f"array size of {declarator.name}"))

        def declare(rt, st):
            rt.budget = budget = rt.budget - n
            if budget < 0:
                raise InterpreterError(_STEP_LIMIT)
            for name, dims, init_fn, elements, what in plan:
                if dims:
                    sizes = [0 if dim is None else _to_int(dim(rt, st), what) for dim in dims]
                    value = _alloc_array(sizes, default)
                    if elements is not None:
                        for index, element in enumerate(elements[: sizes[0]]):
                            item = element(rt, st)
                            try:
                                value[index] = item
                            except IndexError as exc:
                                raise InterpreterError(f"bad initialiser of {name}: {exc}") from exc
                elif init_fn is not None:
                    value = init_fn(rt, st)
                else:
                    value = default
                if st is not None:
                    # Declarations inside a parallel construct are block
                    # locals, private to the executing thread/task.
                    st.privates[name] = value
                else:
                    rt.memory[name] = value

        return declare

    def _for(self, node: ast.ForStmt, n: int) -> Closure:
        # The loop's own step directly precedes its initialiser's.
        init = self.stmt(node.init, n) if node.init is not None else self.ticker(n)
        cond = self.expr(node.cond) if node.cond is not None else (lambda rt, st: True)
        step = self.expr(node.step) if node.step is not None else (lambda rt, st: None)
        body = self.stmt(node.body)

        def for_loop(rt, st):
            init(rt, st)
            iterations = 0
            max_loop = rt.max_loop
            while cond(rt, st):
                iterations += 1
                if iterations > max_loop:
                    raise InterpreterError("for loop iteration limit exceeded")
                try:
                    body(rt, st)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                step(rt, st)

        return for_loop

    def _while(self, node: ast.WhileStmt, n: int) -> Closure:
        tick = self.ticker(n)
        cond = self.expr(node.cond)
        body = self.stmt(node.body)

        def while_loop(rt, st):
            tick(rt, st)
            iterations = 0
            max_loop = rt.max_loop
            while cond(rt, st):
                iterations += 1
                if iterations > max_loop:
                    raise InterpreterError("while loop iteration limit exceeded")
                try:
                    body(rt, st)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue

        return while_loop

    def _if(self, node: ast.IfStmt, n: int) -> Closure:
        cond = self.expr(node.cond, n)
        then = self.stmt(node.then)
        if node.other is None:
            def if_then(rt, st):
                if cond(rt, st):
                    then(rt, st)

            return if_then
        other = self.stmt(node.other)

        def if_else(rt, st):
            if cond(rt, st):
                then(rt, st)
            else:
                other(rt, st)

        return if_else

    def _return(self, node: ast.ReturnStmt, n: int) -> Closure:
        value = self.expr(node.value, n) if node.value is not None else self.constant(n, None)

        def return_(rt, st):
            raise _ReturnSignal(value(rt, st))

        return return_

    def _jump(self, node: ast.Stmt, n: int) -> Closure:
        tick = self.ticker(n)
        signal = _BreakSignal if isinstance(node, ast.BreakStmt) else _ContinueSignal

        def jump(rt, st):
            tick(rt, st)
            raise signal()

        return jump

    # -- OpenMP ---------------------------------------------------------------

    def _omp(self, node: ast.OmpStmt, n: int) -> Closure:
        tick = self.ticker(n)
        inner = self._inner(node)
        if node.pragma.has_directive("parallel"):
            sequential = self._region(node)
        elif node.body is not None:
            # Orphaned worksharing/simd constructs outside a parallel region
            # execute sequentially on the initial thread.
            sequential = self.stmt(node.body)
        else:
            sequential = None

        def omp(rt, st):
            tick(rt, st)
            if st is not None:
                inner(rt, st)
            elif sequential is not None:
                sequential(rt, None)

        return omp

    def _data_clauses(self, pragma: ast.OmpPragma):
        """(setup, merge) closures for the pragma's data-sharing clauses.

        ``setup(rt, st)`` fills the thread's private storage for
        clause-listed variables; ``merge(rt, states)`` writes lastprivate
        and reduction results back to shared memory.
        """
        actions: List[Tuple[str, bool, object]] = []  # (name, copy from memory, initial value)
        post: Dict[str, Tuple[str, str]] = {}
        actions += [(name, False, 0) for name in pragma.clause_vars("private")]
        actions += [(name, True, None) for name in pragma.clause_vars("firstprivate")]
        for name in pragma.clause_vars("lastprivate"):
            actions.append((name, True, None))
            post[name] = ("lastprivate", "")
        actions += [(name, True, None) for name in pragma.clause_vars("linear")]
        for clause in pragma.clauses:
            if clause.name == "reduction":
                op = clause.reduction_op or "+"
                for name in clause.arguments:
                    actions.append((name, False, _REDUCTION_INIT.get(op, 0)))
                    post[name] = ("reduction", op)
        merges = tuple((name, kind, op) for name, (kind, op) in post.items())

        def setup(rt, st):
            privates = st.privates
            memory = rt.memory
            for name, copy, value in actions:
                privates[name] = memory.get(name, 0) if copy else value

        def merge(rt, states):
            memory = rt.memory
            for name, kind, op in merges:
                if kind == "lastprivate":
                    memory[name] = states[-1].privates.get(name, memory.get(name, 0))
                    continue
                total = memory.get(name, 0)
                for state in states:
                    value = state.privates.get(name, 0)
                    if op == "*":
                        total = total * value
                    elif op == "max":
                        total = max(total, value)
                    elif op == "min":
                        total = min(total, value)
                    else:
                        total = total + value
                memory[name] = total

        return setup, merge

    def _region(self, node: ast.OmpStmt) -> Closure:
        pragma = node.pragma
        team_size = _team_size(pragma)
        setup, merge = self._data_clauses(pragma)
        # Combined parallel-for/sections constructs: the region body *is*
        # the worksharing construct.
        if pragma.has_directive("for") or pragma.has_directive("simd"):
            body = self._worksharing(node.body, pragma)
        elif pragma.has_directive("sections"):
            body = self._sections(node.body)
        else:
            body = self.stmt(node.body)

        def region(rt, _st):
            rt.region += 1
            team = team_size or rt.num_threads
            trace = rt.trace
            trace.num_threads = max(trace.num_threads, team)
            states = []
            for tid in range(team):
                state = _ThreadState(tid, team)
                setup(rt, state)
                body(rt, state)
                states.append(state)
            merge(rt, states)

        return region

    def _inner(self, node: ast.OmpStmt) -> Closure:
        """A construct met inside a parallel region (``st`` is not None)."""
        pragma = node.pragma
        has = pragma.has_directive
        body_node = node.body
        barrier_after = pragma.clause("nowait") is None
        if has("barrier"):
            def barrier(rt, st):
                st.epoch += 1

            return barrier
        if has("taskwait"):
            def taskwait(rt, st):
                st.task_seq += 1

            return taskwait
        if has("for") or has("taskloop") or (has("simd") and body_node is not None and not has("task")):
            setup, merge = self._data_clauses(pragma)
            loop = self._worksharing(body_node, pragma)

            def worksharing(rt, st):
                setup(rt, st)
                loop(rt, st)
                merge(rt, [st])
                if barrier_after:
                    st.epoch += 1

            return worksharing
        if has("sections"):
            sections_fn = self._sections(body_node)

            def sections(rt, st):
                sections_fn(rt, st)
                if barrier_after:
                    st.epoch += 1

            return sections
        if has("single") or has("master"):
            body = self.stmt(body_node)
            single = has("single")

            def thread_zero(rt, st):
                if st.thread_id == 0:
                    body(rt, st)
                if single and barrier_after:
                    st.epoch += 1

            return thread_zero
        if has("critical"):
            return self._critical(node)
        if has("atomic"):
            body = self.stmt(body_node)

            def atomic(rt, st):
                st.atomic_depth += 1
                try:
                    body(rt, st)
                finally:
                    st.atomic_depth -= 1

            return atomic
        if has("ordered"):
            body = self.stmt(body_node)

            def ordered(rt, st):
                st.ordered_depth += 1
                try:
                    body(rt, st)
                finally:
                    st.ordered_depth -= 1

            return ordered
        if has("task"):
            return self._task(node)
        if has("parallel"):
            # Nested region: run the body on the current thread only.
            if has("for") or has("simd"):
                return self._worksharing(body_node, pragma)
        if body_node is not None:
            return self.stmt(body_node)
        return lambda rt, st: None

    def _critical(self, node: ast.OmpStmt) -> Closure:
        name_clause = node.pragma.clause("name")
        if name_clause is not None and not name_clause.arguments:
            return lambda rt, st: _raise("critical name clause without a name")
        name = name_clause.arguments[0] if name_clause else "__critical__"
        body = self.stmt(node.body)

        def critical(rt, st):
            st.critical = st.critical + (name,)
            rt.hold(st)
            try:
                body(rt, st)
            finally:
                st.critical = st.critical[:-1]
                rt.hold(st)

        return critical

    def _worksharing(self, body_node: Optional[ast.Stmt], pragma: ast.OmpPragma) -> Closure:
        """This thread's share of a canonical loop (any other body runs whole)."""
        loop = _unwrap(body_node)
        if not isinstance(loop, ast.ForStmt):
            # A simd-only construct may wrap a non-canonical body; execute it.
            return self.stmt(body_node)
        var = loop.loop_variable()
        if var is None:
            return lambda rt, st: _raise("worksharing loop has no canonical induction variable")
        if isinstance(loop.init, ast.Declaration):
            start_fn = self.expr(loop.init.declarators[0].init)
        elif isinstance(loop.init, ast.ExprStmt) and isinstance(loop.init.expr, ast.Assignment):
            start_fn = self.expr(loop.init.expr.value)
        else:
            return lambda rt, st: _raise("unsupported worksharing loop initialisation")
        cond = loop.cond
        bound_fn = self.expr(cond.right) if isinstance(cond, ast.BinaryOp) else None
        cond_op = cond.op if isinstance(cond, ast.BinaryOp) else ""
        step_expr = loop.step
        step, delta_fn = 1, None
        if isinstance(step_expr, ast.IncDec):
            step = 1 if step_expr.op == "++" else -1
        elif isinstance(step_expr, ast.Assignment) and step_expr.is_compound:
            delta_fn = self.expr(step_expr.value)
            step = 1 if step_expr.op == "+=" else -1
        schedule_clause = pragma.clause("schedule")
        kind = None
        if schedule_clause and schedule_clause.arguments:
            requested = schedule_clause.arguments[0]
            kind = "roundrobin" if requested in ("dynamic", "guided") else "static"
        body = self.stmt(loop.body)
        what = "worksharing loop bound"

        def worksharing_loop(rt, st):
            start = _to_int(start_fn(rt, st), what)
            if bound_fn is None:
                raise InterpreterError("unsupported worksharing loop condition")
            bound = _to_int(bound_fn(rt, st), what)
            stride = step if delta_fn is None else step * _to_int(delta_fn(rt, st), what)
            iterations = _iteration_space(cond_op, start, bound, stride, rt.max_loop)
            team, tid = st.team_size, st.thread_id
            if (kind or rt.schedule) == "roundrobin":
                mine = iterations[tid::team]
            else:
                chunk = (len(iterations) + team - 1) // team
                mine = iterations[tid * chunk : tid * chunk + chunk]
            # the loop variable is implicitly private
            st.privates.setdefault(var, 0)
            for value in mine:
                # (a task in the body replaces st.privates, so look it up)
                st.privates[var] = value
                try:
                    body(rt, st)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            if iterations:
                st.privates[var] = iterations[-1] + 1

        return worksharing_loop

    def _sections(self, body_node: Optional[ast.Stmt]) -> Closure:
        inner = _unwrap(body_node)
        if not isinstance(inner, ast.CompoundStmt):
            return self.stmt(body_node)
        parts: List[Tuple[Optional[int], Optional[Closure]]] = []
        section_index = 0
        for child in inner.body:
            if isinstance(child, ast.OmpStmt) and child.pragma.has_directive("section"):
                parts.append((section_index, self.stmt(child.body) if child.body is not None else None))
                section_index += 1
            else:
                # statements outside explicit sections run on every thread
                parts.append((None, self.stmt(child)))

        def sections(rt, st):
            for owner, part in parts:
                if owner is None:
                    part(rt, st)
                elif part is not None and owner % st.team_size == st.thread_id:
                    part(rt, st)

        return sections

    def _task(self, node: ast.OmpStmt) -> Closure:
        pragma = node.pragma
        depend_in: List[str] = []
        depend_out: List[str] = []
        for clause in pragma.clauses:
            if clause.name != "depend" or not clause.arguments:
                continue
            mode, names = clause.arguments[0], clause.arguments[1:]
            if mode in ("in", "inout"):
                depend_in.extend(names)
            if mode in ("out", "inout"):
                depend_out.extend(names)
        firstprivate = [(name, f"read of undeclared variable {name!r}")
                        for name in pragma.clause_vars("firstprivate")]
        private = pragma.clause_vars("private")
        body = self.stmt(node.body) if node.body is not None else None

        def task(rt, st):
            rt.task_counter += 1
            last_out = rt.depend_last_out
            ordered_after = set()
            for name in depend_in:
                if name in last_out:
                    ordered_after.add(last_out[name])
            info = TaskInfo(
                task_id=rt.task_counter,
                creator_thread=st.thread_id,
                creation_step=st.step,
                seq=st.task_seq,
                ordered_after=frozenset(ordered_after),
            )
            for name in depend_out:
                last_out[name] = info.task_id
            saved_task = st.current_task
            privates = st.privates
            saved_privates = dict(privates)
            for name, undeclared in firstprivate:
                if name not in privates:
                    if name not in rt.memory:
                        raise InterpreterError(undeclared)
                    privates[name] = rt.memory[name]
            for name in private:
                privates[name] = 0
            st.current_task = info
            try:
                if body is not None:
                    body(rt, st)
            finally:
                st.current_task = saved_task
                st.privates = saved_privates

        return task

    _EXPRESSIONS = {
        ast.IntLiteral: _literal,
        ast.FloatLiteral: _literal,
        ast.StringLiteral: _literal,
        ast.Identifier: _identifier,
        ast.ArraySubscript: _subscript,
        ast.BinaryOp: _binary,
        ast.UnaryOp: _unary,
        ast.Assignment: _assignment,
        ast.IncDec: _incdec,
        ast.Call: _call,
        ast.AddressOf: _address_of,
        ast.Deref: _deref,
        ast.ConditionalExpr: _conditional,
    }

    _STATEMENTS = {
        ast.CompoundStmt: _compound,
        ast.Declaration: declaration,
        ast.ExprStmt: lambda self, node, n: self.expr(node.expr, n),
        ast.ForStmt: _for,
        ast.WhileStmt: _while,
        ast.IfStmt: _if,
        ast.ReturnStmt: _return,
        ast.BreakStmt: _jump,
        ast.ContinueStmt: _jump,
        ast.NullStmt: lambda self, node, n: self.ticker(n),
        ast.OmpStmt: _omp,
    }


def _raise(message: str):
    raise InterpreterError(message)


def _render(expr: ast.Expr) -> str:
    from repro.analysis.accesses import render_expr

    return render_expr(expr)


def _alloc_array(dims: List[int], default):
    head, *rest = dims
    if not rest:
        return [default] * max(head, 0)
    return [_alloc_array(rest, default) for _ in range(head)]


def _lock_name(call: ast.Call) -> Optional[str]:
    if not call.args:
        return None
    arg = call.args[0]
    if isinstance(arg, ast.AddressOf) and isinstance(arg.operand, ast.Identifier):
        return arg.operand.name
    if isinstance(arg, ast.Identifier):
        return arg.name
    return None


def _team_size(pragma: ast.OmpPragma) -> Optional[int]:
    """The ``num_threads`` clause's team size, or None for the run's default."""
    clause = pragma.clause("num_threads")
    if clause and clause.arguments:
        try:
            return max(1, int(clause.arguments[0]))
        except ValueError:
            return None
    return None


class Program:
    """A translation unit compiled once into closures, runnable any number of times."""

    def __init__(self, unit: ast.TranslationUnit) -> None:
        compiler = _Compiler(unit)
        main = unit.main
        self.globals: List[Closure] = []
        self.main: Optional[Closure] = None
        if main is None or main.body is None:
            return
        try:
            self.globals = [compiler.declaration(decl, 0) for decl in unit.globals]
            self.main = compiler.stmt(main.body)
        except RecursionError:
            # Compiling takes about two Python frames per nesting level;
            # a program nested that deeply fails when run, not here.
            self.globals = []
            self.main = compiler.raiser(0, "program nesting too deep to compile")


class Interpreter:
    """Executes a parsed microbenchmark and records shared-access events."""

    def __init__(
        self,
        *,
        num_threads: int = 4,
        schedule: str = "static",
        limits: Optional[InterpreterLimits] = None,
    ) -> None:
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        if schedule not in ("static", "roundrobin"):
            raise ValueError("schedule must be 'static' or 'roundrobin'")
        self.num_threads = num_threads
        self.schedule = schedule
        self.limits = limits or InterpreterLimits()

    def run_source(self, source: str) -> ExecutionTrace:
        """Parse and execute a C source string."""
        return self.run(parse(source))

    def run(self, unit: Union[ast.TranslationUnit, Program]) -> ExecutionTrace:
        """Execute ``main`` of a parsed translation unit or an already compiled program."""
        program = unit if isinstance(unit, Program) else Program(unit)
        if program.main is None:
            raise InterpreterError("program has no main function")
        rt = _Runtime(self.num_threads, self.schedule, self.limits)
        self._memory = rt.memory
        try:
            for declare in program.globals:
                declare(rt, None)
            program.main(rt, None)
        except _ReturnSignal:
            pass
        except (_BreakSignal, _ContinueSignal):
            raise InterpreterError("break or continue outside a loop") from None
        except RecursionError:
            raise InterpreterError("call depth limit exceeded") from None
        rt.trace.steps_executed = rt.steps
        rt.trace.regions_executed = rt.region
        return rt.trace
