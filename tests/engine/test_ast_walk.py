"""The expression child table of :mod:`repro.engine.sql.ast`, checked
against the node dataclasses themselves.

Every expression walker -- aggregate and column-reference collection,
subquery detection, ``transform_expr`` and the shard router's table
scan -- reads ``ast.CHILD_FIELDS`` through ``ast.children``.  A field the
table misses is a child every walker skips at once, so the table is
checked two ways that do not read it:

* a scan of each node's field annotations: the expression-valued fields
  of every ``Expr`` dataclass are exactly its table entry;
* a brute-force walk of each node's field values over parsed trees of
  the grammar-fuzz corpus, which ``children`` must equal and
  ``transform_expr`` with a no-op visitor must rebuild unchanged.
"""

import dataclasses
import typing

import pytest
from hypothesis import given, settings

from repro.engine.errors import EngineError
from repro.engine.sql import ast, parse_statement

from tests.engine.test_execution_modes import AGGREGATE_OPERAND_CORPUS
from tests.engine.test_sql_fuzz import SEEDS, mutated_sql

CORPUS = SEEDS + AGGREGATE_OPERAND_CORPUS + [
    "SELECT k FROM t WHERE s LIKE (SELECT min(pat) FROM p)",
]

NODE_TYPES = [
    cls for cls in vars(ast).values()
    if isinstance(cls, type) and issubclass(cls, ast.Expr)
    and dataclasses.is_dataclass(cls)
]


def _mentions(tp, base) -> bool:
    if isinstance(tp, type):
        return issubclass(tp, base)
    return any(_mentions(arg, base) for arg in typing.get_args(tp))


def fields_of_type(cls, base) -> tuple[str, ...]:
    hints = typing.get_type_hints(cls)
    return tuple(
        f.name for f in dataclasses.fields(cls) if _mentions(hints[f.name], base)
    )


def field_children(expr) -> tuple:
    """Every expression held in *expr*'s fields; a ``Select`` is opaque."""
    out = []

    def flat(value):
        if isinstance(value, ast.Expr):
            out.append(value)
        elif isinstance(value, tuple):
            for v in value:
                flat(v)

    for f in dataclasses.fields(expr):
        flat(getattr(expr, f.name))
    return tuple(out)


def every_expr(node):
    """Every expression node in a statement, subquery bodies included."""
    if isinstance(node, ast.Expr):
        yield node
    if dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from every_expr(getattr(node, f.name))
    elif isinstance(node, tuple):
        for v in node:
            yield from every_expr(v)


def scope_column_refs(expr) -> list:
    if isinstance(expr, ast.ColumnRef):
        return [expr]
    return [r for c in field_children(expr) for r in scope_column_refs(c)]


def assert_walks_agree(statement) -> None:
    for e in every_expr(statement):
        assert ast.children(e) == field_children(e), e
        assert ast.transform_expr(e, lambda n: None) == e
        assert ast.collect_column_refs(e) == scope_column_refs(e)
        assert ast.contains_subquery(e) == (
            isinstance(e, ast.SUBQUERY_NODES)
            or any(map(ast.contains_subquery, field_children(e)))
        )


class TestChildTable:
    @pytest.mark.parametrize("cls", NODE_TYPES, ids=lambda c: c.__name__)
    def test_table_lists_every_expression_field(self, cls):
        assert ast.CHILD_FIELDS.get(cls, ()) == fields_of_type(cls, ast.Expr)

    def test_table_names_only_expression_nodes(self):
        assert set(ast.CHILD_FIELDS) <= set(NODE_TYPES)

    def test_subquery_nodes_are_the_nodes_holding_a_select(self):
        assert set(ast.SUBQUERY_NODES) == {
            cls for cls in NODE_TYPES if fields_of_type(cls, ast.Select)
        }


class TestCorpusWalks:
    @pytest.mark.parametrize("sql", CORPUS)
    def test_seed_walks_match_field_walk(self, sql):
        assert_walks_agree(parse_statement(sql))

    @given(sql=mutated_sql())
    @settings(max_examples=300, deadline=None)
    def test_mutated_walks_match_field_walk(self, sql):
        try:
            statement = parse_statement(sql)
        except EngineError:
            return
        assert_walks_agree(statement)
