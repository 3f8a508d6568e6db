"""Tests for the SQL parser."""

import pytest

from repro.engine.errors import ParseError
from repro.engine.sql import ast, parse_statement, parse_statements


class TestSelect:
    def test_minimal(self):
        s = parse_statement("SELECT 1")
        assert isinstance(s, ast.Select)
        assert s.items[0].expr == ast.Literal(1)
        assert s.from_items == ()

    def test_star(self):
        s = parse_statement("SELECT * FROM t")
        assert isinstance(s.items[0].expr, ast.Star)

    def test_qualified_star(self):
        s = parse_statement("SELECT p.* FROM part p")
        assert s.items[0].expr == ast.Star(qualifier="p")

    def test_aliases(self):
        s = parse_statement("SELECT a AS x, b y FROM t")
        assert s.items[0].alias == "x"
        assert s.items[1].alias == "y"

    def test_table_alias(self):
        s = parse_statement("SELECT 1 FROM part_1 AS p")
        assert s.from_items[0] == ast.TableRef(name="part_1", alias="p")
        s2 = parse_statement("SELECT 1 FROM part_1 p")
        assert s2.from_items[0].alias == "p"

    def test_where_precedence(self):
        s = parse_statement("SELECT 1 FROM t WHERE a OR b AND c")
        assert isinstance(s.where, ast.BinaryOp)
        assert s.where.op == "OR"
        assert s.where.right.op == "AND"

    def test_arithmetic_precedence(self):
        s = parse_statement("SELECT 1 + 2 * 3")
        expr = s.items[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_unary_minus(self):
        s = parse_statement("SELECT -a")
        assert s.items[0].expr == ast.UnaryOp("-", ast.ColumnRef("a"))

    def test_not_equal_normalised(self):
        s = parse_statement("SELECT 1 FROM t WHERE a != b")
        assert s.where.op == "<>"

    def test_group_by_having(self):
        s = parse_statement(
            "SELECT k, count(*) FROM t GROUP BY k HAVING count(*) > 3"
        )
        assert len(s.group_by) == 1
        assert s.having is not None

    def test_order_limit_offset(self):
        s = parse_statement("SELECT a FROM t ORDER BY a DESC, b LIMIT 10 OFFSET 5")
        assert s.order_by[0].descending is True
        assert s.order_by[1].descending is False
        assert s.limit == 10
        assert s.offset == 5

    def test_distinct(self):
        assert parse_statement("SELECT DISTINCT a FROM t").distinct

    def test_joins(self):
        s = parse_statement("SELECT 1 FROM a JOIN b ON a.x = b.y CROSS JOIN c")
        join = s.from_items[0]
        assert isinstance(join, ast.Join)
        assert join.kind == "CROSS"
        assert isinstance(join.left, ast.Join)
        assert join.left.kind == "INNER"

    def test_comma_join(self):
        s = parse_statement("SELECT 1 FROM a, b")
        assert len(s.from_items) == 2

    def test_between_and_in(self):
        s = parse_statement("SELECT 1 FROM t WHERE a BETWEEN 1 AND 2 AND b IN (1,2)")
        assert isinstance(s.where.left, ast.Between)
        assert isinstance(s.where.right, ast.InList)

    def test_not_variants(self):
        s = parse_statement(
            "SELECT 1 FROM t WHERE a NOT IN (1) AND b NOT LIKE 'x%' "
            "AND c NOT BETWEEN 1 AND 2 AND d IS NOT NULL"
        )
        conj = []

        def flatten(e):
            if isinstance(e, ast.BinaryOp) and e.op == "AND":
                flatten(e.left)
                flatten(e.right)
            else:
                conj.append(e)

        flatten(s.where)
        assert conj[0].negated and conj[1].negated and conj[2].negated
        assert conj[3].negated  # IS NOT NULL

    def test_case(self):
        s = parse_statement("SELECT CASE WHEN a THEN 1 ELSE 0 END FROM t")
        case = s.items[0].expr
        assert isinstance(case, ast.Case)
        assert case.else_ == ast.Literal(0)

    def test_case_requires_when(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT CASE ELSE 1 END")

    def test_scalar_subquery(self):
        s = parse_statement(
            "SELECT 1 FROM p WHERE p.x > (SELECT sum(y) FROM l WHERE l.k = p.k)"
        )
        assert isinstance(s.where.right, ast.ScalarSubquery)

    def test_exists_and_in_subquery(self):
        s = parse_statement(
            "SELECT 1 FROM t WHERE EXISTS (SELECT 1 FROM u) AND a IN (SELECT b FROM v)"
        )
        assert isinstance(s.where.left, ast.ExistsSubquery)
        assert isinstance(s.where.right, ast.InSubquery)

    def test_count_star_and_distinct(self):
        s = parse_statement("SELECT count(*), count(DISTINCT a) FROM t")
        assert s.items[0].expr.star
        assert s.items[1].expr.distinct

    def test_boolean_and_null_literals(self):
        s = parse_statement("SELECT TRUE, FALSE, NULL")
        assert [i.expr.value for i in s.items] == [True, False, None]


class TestOtherStatements:
    def test_create_table(self):
        s = parse_statement(
            "CREATE TABLE t (a INT NOT NULL, b VARCHAR(20), c DECIMAL(10,2))"
        )
        assert isinstance(s, ast.CreateTable)
        assert s.columns[0].nullable is False
        assert s.columns[1].nullable is True

    def test_primary_key_means_not_null(self):
        s = parse_statement("CREATE TABLE t (id INT PRIMARY KEY)")
        assert s.columns[0].nullable is False

    def test_create_index(self):
        s = parse_statement("CREATE INDEX i ON t (col)")
        assert isinstance(s, ast.CreateIndex)
        assert (s.name, s.table, s.column) == ("i", "t", "col")

    def test_script(self):
        stmts = parse_statements("SELECT 1; SELECT 2;; SELECT 3")
        assert len(stmts) == 3

    def test_single_statement_enforced(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT 1; SELECT 2")


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT",
            "SELECT 1 FROM",
            "SELECT 1 WHERE",
            "SELECT 1 FROM t WHERE",
            "INSERT INTO",
            "CREATE BLAH",
            "SELECT 1 FROM t LIMIT x",
            "SELECT 1 FROM t GROUP",
            "SELECT a NOT 5 FROM t",
            "SELECT (1",
            "FROM t",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(ParseError):
            parse_statement(bad)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_statement("SELECT 1 FROM t WHERE )")
        assert err.value.position is not None
