"""Tests for expression binding and evaluation (three-valued logic etc.)."""

import pytest

from repro.engine.errors import ExecutionError, PlanError, SqlTypeError
from repro.engine.expr import BindContext, ColumnSlot, Env, Layout, bind_expr, eval_row
from repro.engine.sql import ast, parse_statement


def expr_of(sql_expr: str) -> ast.Expr:
    """Parse a standalone expression via a SELECT wrapper."""
    return parse_statement(f"SELECT {sql_expr}").items[0].expr


def where_of(sql_pred: str) -> ast.Expr:
    return parse_statement(f"SELECT 1 FROM t WHERE {sql_pred}").where


LAYOUT = Layout(
    [ColumnSlot("t", "a"), ColumnSlot("t", "b"), ColumnSlot("t", "s")]
)
CTX = BindContext(LAYOUT)


def evaluate(sql_pred: str, row=(1, 2, "abc")):
    bound = bind_expr(where_of(sql_pred), CTX)
    return eval_row(bound, Env(row))


def evaluate_expr(sql_expr: str, row=(1, 2, "abc")):
    bound = bind_expr(expr_of(sql_expr), CTX)
    return eval_row(bound, Env(row))


class TestLiteralsAndColumns:
    def test_literal(self):
        assert evaluate_expr("42") == 42
        assert evaluate_expr("'hi'") == "hi"
        assert evaluate_expr("NULL") is None

    def test_column_lookup(self):
        assert evaluate_expr("a") == 1
        assert evaluate_expr("t.b") == 2

    def test_unknown_column(self):
        with pytest.raises(PlanError):
            bind_expr(expr_of("zzz"), CTX)

    def test_ambiguous_column(self):
        layout = Layout([ColumnSlot("x", "a"), ColumnSlot("y", "a")])
        with pytest.raises(PlanError):
            bind_expr(expr_of("a"), BindContext(layout))
        # qualified references disambiguate
        assert eval_row(bind_expr(expr_of("x.a"), BindContext(layout)), Env((7, 8))) == 7


class TestArithmetic:
    def test_basic(self):
        assert evaluate_expr("a + b * 2") == 5
        assert evaluate_expr("b / 4") == 0.5
        assert evaluate_expr("7 % 4") == 3
        assert evaluate_expr("-b") == -2

    def test_null_propagation(self):
        assert evaluate_expr("a + NULL") is None
        assert evaluate_expr("-(NULL)") is None

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            evaluate_expr("1 / 0")
        with pytest.raises(ExecutionError):
            evaluate_expr("1 % 0")

    def test_type_errors(self):
        with pytest.raises(SqlTypeError):
            evaluate_expr("s + 1")
        with pytest.raises(SqlTypeError):
            evaluate_expr("-s")

    def test_concat(self):
        assert evaluate_expr("s || '!'") == "abc!"
        assert evaluate_expr("s || NULL") is None
        with pytest.raises(SqlTypeError):
            evaluate_expr("s || 1")


class TestThreeValuedLogic:
    def test_and(self):
        assert evaluate("TRUE AND TRUE") is True
        assert evaluate("TRUE AND FALSE") is False
        assert evaluate("FALSE AND NULL") is False  # short-circuit
        assert evaluate("TRUE AND NULL") is None
        assert evaluate("NULL AND NULL") is None

    def test_or(self):
        assert evaluate("TRUE OR NULL") is True
        assert evaluate("FALSE OR NULL") is None
        assert evaluate("FALSE OR FALSE") is False

    def test_not(self):
        assert evaluate("NOT TRUE") is False
        assert evaluate("NOT NULL") is None

    def test_comparisons_with_null(self):
        assert evaluate("a = NULL") is None
        assert evaluate("NULL <> NULL") is None

    def test_comparison_operators(self):
        assert evaluate("a < b") is True
        assert evaluate("a >= b") is False
        assert evaluate("a <> b") is True
        assert evaluate("s = 'abc'") is True


class TestPredicates:
    def test_is_null(self):
        assert evaluate("NULL IS NULL") is True
        assert evaluate("a IS NULL") is False
        assert evaluate("a IS NOT NULL") is True

    def test_in_list(self):
        assert evaluate("a IN (1, 2)") is True
        assert evaluate("a IN (5, 6)") is False
        assert evaluate("a NOT IN (5)") is True
        # NULL member: unknown unless a match is found.
        assert evaluate("a IN (1, NULL)") is True
        assert evaluate("a IN (5, NULL)") is None
        assert evaluate("NULL IN (1)") is None

    def test_between(self):
        assert evaluate("b BETWEEN 1 AND 3") is True
        assert evaluate("b NOT BETWEEN 1 AND 3") is False
        assert evaluate("b BETWEEN NULL AND 3") is None

    def test_like(self):
        assert evaluate("s LIKE 'a%'") is True
        assert evaluate("s LIKE '_bc'") is True
        assert evaluate("s LIKE 'a_c'") is True  # _ matches the 'b'
        assert evaluate("s LIKE 'a_d'") is False
        assert evaluate("s NOT LIKE 'z%'") is True
        assert evaluate("s LIKE NULL") is None
        with pytest.raises(SqlTypeError):
            evaluate("a LIKE 'x'")

    def test_like_escapes_regex_chars(self):
        layout = Layout([ColumnSlot("t", "a"), ColumnSlot("t", "b"), ColumnSlot("t", "s")])
        bound = bind_expr(where_of("s LIKE 'a.c'"), BindContext(layout))
        assert bound([(1, 2, "abc"), (1, 2, "a.c")], None) == [False, True]

    def test_case(self):
        assert evaluate_expr("CASE WHEN a = 1 THEN 'one' ELSE 'other' END") == "one"
        assert evaluate_expr("CASE WHEN a = 9 THEN 'nine' END") is None


class TestFunctions:
    def test_scalars(self):
        assert evaluate_expr("abs(-3)") == 3
        assert evaluate_expr("round(2.567, 1)") == 2.6
        assert evaluate_expr("floor(2.9)") == 2
        assert evaluate_expr("ceil(2.1)") == 3
        assert evaluate_expr("length(s)") == 3
        assert evaluate_expr("upper(s)") == "ABC"
        assert evaluate_expr("lower('XY')") == "xy"
        assert evaluate_expr("coalesce(NULL, NULL, 5)") == 5
        assert evaluate_expr("nullif(1, 1)") is None
        assert evaluate_expr("nullif(1, 2)") == 1

    def test_null_in_scalar(self):
        assert evaluate_expr("abs(NULL)") is None
        assert evaluate_expr("upper(NULL)") is None

    def test_unknown_function(self):
        with pytest.raises(PlanError):
            bind_expr(expr_of("frobnicate(1)"), CTX)

    def test_aggregate_rejected_in_scalar_context(self):
        with pytest.raises(PlanError):
            bind_expr(expr_of("sum(a)"), CTX)


class TestCorrelation:
    def test_outer_reference(self):
        outer = BindContext(Layout([ColumnSlot("p", "k")]))
        inner = BindContext(Layout([ColumnSlot("l", "k")]), outer=outer)
        bound = bind_expr(expr_of("p.k"), inner)
        env = Env((10,), parent=Env((99,)))
        assert eval_row(bound, env) == 99

    def test_inner_shadows_outer(self):
        outer = BindContext(Layout([ColumnSlot("p", "k")]))
        inner = BindContext(Layout([ColumnSlot("l", "k")]), outer=outer)
        bound = bind_expr(expr_of("k"), inner)
        env = Env((10,), parent=Env((99,)))
        assert eval_row(bound, env) == 10

    def test_escaped_scope_raises(self):
        outer = BindContext(Layout([ColumnSlot("p", "k")]))
        inner = BindContext(Layout([ColumnSlot("l", "k")]), outer=outer)
        bound = bind_expr(expr_of("p.k"), inner)
        with pytest.raises(ExecutionError):
            eval_row(bound, Env((10,)))  # no parent env

    def test_subquery_requires_compiler(self):
        with pytest.raises(PlanError):
            bind_expr(where_of("a > (SELECT 1)"), CTX)
