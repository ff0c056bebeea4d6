"""Unit tests for the recursive-descent parser and pragma parser."""

import pytest

from repro.cparse import ast, parse, parse_pragma
from repro.cparse.parser import MAX_NESTING_DEPTH, NESTING_COST, ParseError
from repro.cparse.pragma import PragmaError


EXAMPLE = """
#include <stdio.h>
int main(int argc, char *argv[])
{
  int i;
  int len = 1000;
  int a[1000];
  for (i = 0; i < len; i++)
    a[i] = i;
#pragma omp parallel for
  for (i = 0; i < len - 1; i++)
    a[i] = a[i+1] + 1;
  printf("a[500]=%d\\n", a[500]);
  return 0;
}
"""


class TestTopLevel:
    def test_parses_main(self):
        unit = parse(EXAMPLE)
        assert unit.main is not None
        assert unit.main.name == "main"
        assert len(unit.includes) == 1

    def test_main_parameters(self):
        unit = parse(EXAMPLE)
        params = unit.main.params
        assert [p.name for p in params] == ["argc", "argv"]
        assert params[1].pointer_depth == 1 and params[1].is_array

    def test_global_declaration(self):
        unit = parse("int counter = 0;\nint main() { counter = 1; return 0; }")
        assert len(unit.globals) == 1
        assert unit.globals[0].declarators[0].name == "counter"

    def test_multiple_functions(self):
        src = "void helper(int x) { x = x + 1; }\nint main() { helper(3); return 0; }"
        unit = parse(src)
        assert {f.name for f in unit.functions} == {"helper", "main"}


class TestStatements:
    def test_for_loop_structure(self):
        unit = parse(EXAMPLE)
        body = unit.main.body.body
        fors = [s for s in body if isinstance(s, ast.ForStmt)]
        assert len(fors) == 1  # second loop is under the OmpStmt
        assert fors[0].loop_variable() == "i"

    def test_omp_statement_wraps_loop(self):
        unit = parse(EXAMPLE)
        omp = [s for s in unit.main.body.body if isinstance(s, ast.OmpStmt)]
        assert len(omp) == 1
        assert omp[0].pragma.directives == ("parallel", "for")
        assert isinstance(omp[0].body, ast.ForStmt)

    def test_if_else(self):
        src = "int main() { int x = 0; if (x > 1) x = 2; else x = 3; return x; }"
        unit = parse(src)
        stmts = unit.main.body.body
        ifs = [s for s in stmts if isinstance(s, ast.IfStmt)]
        assert len(ifs) == 1 and ifs[0].other is not None

    def test_while_break_continue(self):
        src = """
        int main() {
          int i = 0;
          while (i < 10) {
            i++;
            if (i == 5) continue;
            if (i == 9) break;
          }
          return 0;
        }
        """
        unit = parse(src)
        whiles = [s for s in unit.main.body.body if isinstance(s, ast.WhileStmt)]
        assert len(whiles) == 1

    def test_declaration_in_for_init(self):
        src = "int main() { for (int j = 0; j < 4; j++) { ; } return 0; }"
        unit = parse(src)
        loop = next(s for s in unit.main.body.body if isinstance(s, ast.ForStmt))
        assert isinstance(loop.init, ast.Declaration)
        assert loop.loop_variable() == "j"

    def test_standalone_barrier(self):
        src = """
        int main() {
        #pragma omp parallel
        {
          int x = 0;
        #pragma omp barrier
          x = 1;
        }
        return 0; }
        """
        unit = parse(src)
        par = next(s for s in unit.main.body.body if isinstance(s, ast.OmpStmt))
        inner = [s for s in par.body.body if isinstance(s, ast.OmpStmt)]
        assert inner and inner[0].pragma.directives == ("barrier",)
        assert inner[0].body is None

    def test_array_declaration_dims(self):
        src = "int main() { double b[100][50]; b[1][2] = 0.5; return 0; }"
        unit = parse(src)
        decl = next(s for s in unit.main.body.body if isinstance(s, ast.Declaration))
        assert len(decl.declarators[0].array_dims) == 2

    def test_brace_initializer(self):
        src = "int main() { int v[3] = {1, 2, 3}; return v[0]; }"
        unit = parse(src)
        decl = next(s for s in unit.main.body.body if isinstance(s, ast.Declaration))
        init = decl.declarators[0].init
        assert isinstance(init, ast.Call) and init.name == "__init_list__"
        assert len(init.args) == 3


class TestExpressions:
    def _expr_of(self, source_stmt: str) -> ast.Expr:
        unit = parse("int main() { int a[10]; int x; int y; int i; " + source_stmt + " return 0; }")
        stmt = unit.main.body.body[-2]
        assert isinstance(stmt, ast.ExprStmt)
        return stmt.expr

    def test_precedence_mul_over_add(self):
        expr = self._expr_of("x = 1 + 2 * 3;")
        assert isinstance(expr, ast.Assignment)
        add = expr.value
        assert isinstance(add, ast.BinaryOp) and add.op == "+"
        assert isinstance(add.right, ast.BinaryOp) and add.right.op == "*"

    def test_array_subscript_affine(self):
        expr = self._expr_of("a[i] = a[i+1] + 1;")
        assert isinstance(expr, ast.Assignment)
        target = expr.target
        assert isinstance(target, ast.ArraySubscript)
        assert target.root_name() == "a"

    def test_nested_subscript_root_name(self):
        unit = parse("int main() { int b[4][4]; int i; int j; b[i][j] = 1; return 0; }")
        stmt = unit.main.body.body[-2]
        sub = stmt.expr.target
        assert isinstance(sub, ast.ArraySubscript)
        assert sub.root_name() == "b"
        assert len(sub.indices()) == 2

    def test_binary_operators_associate_left(self):
        expr = self._expr_of("x = y - 2 - i;")
        outer = expr.value
        assert outer.op == "-" and isinstance(outer.right, ast.Identifier)
        assert outer.left.op == "-" and outer.left.right.value == 2

    def test_every_precedence_level(self):
        expr = self._expr_of("x = i || y && i | y ^ i & y == i < y << i + y * i;")
        ops = []
        node = expr.value
        while isinstance(node, ast.BinaryOp):
            ops.append(node.op)
            assert isinstance(node.left, ast.Identifier)
            node = node.right
        assert ops == ["||", "&&", "|", "^", "&", "==", "<", "<<", "+", "*"]

    def test_lower_level_after_higher_closes_operand(self):
        expr = self._expr_of("x = i * y + i < y;")
        cmp = expr.value
        assert cmp.op == "<" and cmp.left.op == "+" and cmp.left.left.op == "*"

    def test_compound_assignment(self):
        expr = self._expr_of("x += y;")
        assert isinstance(expr, ast.Assignment) and expr.is_compound

    def test_incdec_postfix(self):
        expr = self._expr_of("x++;")
        assert isinstance(expr, ast.IncDec) and not expr.prefix

    def test_call_with_address_of(self):
        unit = parse(
            "int main() { omp_lock_t lck; omp_set_lock(&lck); return 0; }"
        )
        stmt = unit.main.body.body[1]
        call = stmt.expr
        assert isinstance(call, ast.Call) and call.name == "omp_set_lock"
        assert isinstance(call.args[0], ast.AddressOf)

    def test_ternary(self):
        expr = self._expr_of("x = y > 0 ? y : 0;")
        assert isinstance(expr.value, ast.ConditionalExpr)

    def test_unary_minus_and_not(self):
        expr = self._expr_of("x = -y + !i;")
        assert isinstance(expr.value, ast.BinaryOp)

    def test_cast_is_transparent(self):
        expr = self._expr_of("x = (int)y;")
        assert isinstance(expr.value, ast.Identifier)

    def test_location_of_subscript(self):
        unit = parse("int main()\n{\n  int a[10];\n  int i;\n  a[i] = a[i+1] + 1;\n  return 0;\n}\n")
        stmt = unit.main.body.body[2]
        assign = stmt.expr
        assert assign.target.loc.line == 5
        assert assign.target.loc.col == 3
        # RHS access a[i+1] starts at column 10
        assert assign.value.left.loc.col == 10


class TestPragmas:
    def test_parallel_for_private(self):
        pragma = parse_pragma("omp parallel for private(i, j) shared(a)")
        assert pragma.directives == ("parallel", "for")
        assert pragma.clause_vars("private") == ["i", "j"]
        assert pragma.clause_vars("shared") == ["a"]

    def test_reduction_clause(self):
        pragma = parse_pragma("omp parallel for reduction(+:sum)")
        clause = pragma.clause("reduction")
        assert clause is not None
        assert clause.reduction_op == "+" and clause.arguments == ["sum"]

    def test_schedule_and_num_threads(self):
        pragma = parse_pragma("omp parallel for schedule(dynamic, 4) num_threads(8)")
        assert pragma.clause("schedule").arguments == ["dynamic", "4"]
        assert pragma.clause("num_threads").arguments == ["8"]

    def test_critical_named(self):
        pragma = parse_pragma("omp critical (updatelock)")
        assert pragma.directives == ("critical",)
        assert pragma.clause("name").arguments == ["updatelock"]

    def test_atomic_update(self):
        pragma = parse_pragma("omp atomic update")
        assert pragma.has_directive("atomic")
        assert pragma.clause("update") is not None

    def test_target_teams_distribute(self):
        pragma = parse_pragma(
            "omp target teams distribute parallel for map(tofrom: a)"
        )
        assert "target" in pragma.directives
        assert pragma.clause("map").arguments[0] == "tofrom"

    def test_simd_safelen(self):
        pragma = parse_pragma("omp simd safelen(4)")
        assert pragma.has_directive("simd")

    def test_task_depend(self):
        pragma = parse_pragma("omp task depend(out: x)")
        assert pragma.has_directive("task")

    def test_not_omp_raises(self):
        with pytest.raises(PragmaError):
            parse_pragma("once")

    def test_unknown_clause_raises(self):
        with pytest.raises(PragmaError):
            parse_pragma("omp parallel for bogusclause(i)")

    def test_ordered_is_a_directive_unless_a_paren_follows(self):
        pragma = parse_pragma("omp parallel for ordered")
        assert pragma.directives == ("parallel", "for", "ordered")
        assert pragma.clauses == []
        pragma = parse_pragma("omp for ordered(2)")
        assert pragma.directives == ("for",)
        assert pragma.clause("ordered").arguments == ["2"]

    def test_whitespace_between_clause_and_paren(self):
        pragma = parse_pragma("omp parallel for private \t (i)  ordered\n(1)")
        assert pragma.directives == ("parallel", "for")
        assert pragma.clause_vars("private") == ["i"]
        assert pragma.clause("ordered").arguments == ["1"]

    def test_critical_name_after_tab(self):
        pragma = parse_pragma("omp critical\t(lock)")
        assert pragma.directives == ("critical",)
        assert pragma.clause("name").arguments == ["lock"]

    def test_unicode_whitespace_separates_words(self):
        pragma = parse_pragma("omp\u00a0parallel\u2003for\u3000private\u2009(i)")
        assert pragma.directives == ("parallel", "for")
        assert pragma.clause_vars("private") == ["i"]

    def test_unbalanced_clause_paren_raises(self):
        with pytest.raises(PragmaError, match="unbalanced"):
            parse_pragma("omp parallel for private(i")


class TestParseErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("int main() { int x = 1 return 0; }")

    def test_unbalanced_brace(self):
        with pytest.raises(ParseError):
            parse("int main() { int x = 1; ")

    def test_garbage_at_top_level(self):
        with pytest.raises(ParseError):
            parse("+++")

    @pytest.mark.parametrize(
        "literal, message",
        [("08", "invalid integer literal"), ("1.5u", "invalid floating literal")],
    )
    def test_literal_python_cannot_read(self, literal, message):
        with pytest.raises(ParseError, match=message):
            parse(f"int main() {{ double x = {literal}; return 0; }}")


#: ``(construct, build(n))``: inputs nesting one construct ``n`` deep.  The
#: expressions sit in a file-scope initializer, so the operators are their
#: only nesting; the blocks sit in a function body, whose own braces are
#: not a statement.
NESTED = {
    "unary": ("prefix", lambda n: "int x = " + "!" * n + "1;"),
    "parenthesised": ("paren", lambda n: "int x = " + "(" * n + "1" + ")" * n + ";"),
    "block": ("statement", lambda n: "void f() { " + "{" * n + "}" * n + " }"),
}


def _deepest(kind: str) -> int:
    """How many levels of ``kind`` fit in the limit."""
    return MAX_NESTING_DEPTH // NESTING_COST[NESTED[kind][0]]


class TestNestingLimit:
    @pytest.mark.parametrize("kind", sorted(NESTED))
    def test_nesting_at_the_limit_parses(self, kind):
        parse(NESTED[kind][1](_deepest(kind)))

    @pytest.mark.parametrize("depth", ["limit+1", "10000"])
    @pytest.mark.parametrize("kind", sorted(NESTED))
    def test_deeper_nesting_is_a_parse_error(self, kind, depth):
        n = _deepest(kind) + 1 if depth == "limit+1" else 10_000
        with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING_DEPTH}"):
            parse(NESTED[kind][1](n))

    @pytest.mark.parametrize(
        "body",
        [
            "x = " + "!" * 10_000 + "1;",
            "x = " + "a[" * 10_000 + "1" + "]" * 10_000 + ";",
            "x = " + "f(" * 10_000 + "1" + ")" * 10_000 + ";",
            "x = " + "(int)" * 10_000 + "1;",
            "x = " + "a ? " * 10_000 + "1" + " : 2" * 10_000 + ";",
            "if (a) " * 10_000 + "x = 1;",
            "#pragma omp critical\n" * 10_000 + "x = 1;",
        ],
        ids=["unary", "subscript", "call", "cast", "conditional", "if", "pragma"],
    )
    def test_every_recursive_construct_is_bounded(self, body):
        with pytest.raises(ParseError, match="nesting deeper"):
            parse("int main() { " + body + " }")

    @pytest.mark.parametrize(
        "source",
        ["a = " * 10_000 + "1;", "a ? 1 : " * 10_000 + "2;"],
        ids=["assignment", "else-chain"],
    )
    def test_right_associative_chains_are_not_nesting(self, source):
        """Assignment and ``?:`` else-chains fold in a loop, any length."""
        unit = parse("int main() { " + source + " }")
        assert len(unit.functions[0].body.body) == 1

    def test_chains_keep_their_right_associative_shape(self):
        stmt = parse("int main() { a = b += c ? d : e ? f : g; }").functions[0].body.body[0]
        outer = stmt.expr
        assert isinstance(outer, ast.Assignment) and outer.op == "="
        inner = outer.value
        assert isinstance(inner, ast.Assignment) and inner.op == "+="
        conditional = inner.value
        assert isinstance(conditional, ast.ConditionalExpr)
        assert isinstance(conditional.other, ast.ConditionalExpr)


class TestWalk:
    def test_walk_visits_all_subscripts(self):
        unit = parse(EXAMPLE)
        subs = [n for n in ast.walk(unit) if isinstance(n, ast.ArraySubscript)]
        # a[i] (init), a[i] (write), a[i+1] (read), a[500] in printf
        assert len(subs) == 4
