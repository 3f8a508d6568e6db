"""Grammar-mutation fuzzing of :meth:`Database.query`.

Starting from every workload template and the differential SQL corpus,
hypothesis deletes, duplicates and swaps tokens and truncates the text.
Whatever the result, ``Database.query`` may only return rows or raise a
subclass of :class:`~repro.engine.errors.EngineError` -- never a bare
``TypeError``, ``IndexError``, ``KeyError`` or the like -- with the
decorrelation rewrite and without it, where every subquery stays an
expression node with a per-row subplan.  Boundary inputs
(empty text, a cut inside a string literal or a subquery, a dangling
operator) are pinned as explicit examples.
"""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.engine.errors import EngineError
from repro.workload.queries import join_query, paper_query, scan_query
from repro.workload.tpcr import LINEITEM_DDL, part_table_ddl

from tests.engine.helpers import undecorrelated
from tests.engine.test_decorrelate_differential import (
    FALLBACK_CORPUS,
    REWRITTEN_CORPUS,
)
from tests.engine.test_execution_modes import SQL_CORPUS

SEEDS = (
    [paper_query(1), join_query(1), scan_query(1)]
    + SQL_CORPUS
    + REWRITTEN_CORPUS
    + FALLBACK_CORPUS
)

#: Words, quoted strings, numbers, then any other single character.
_TOKEN = re.compile(r"'[^']*'|\w+(?:\.\w+)?|\S")


@pytest.fixture(scope="module")
def db():
    """Every table the seeds name, kept tiny: a mutated query may well
    cross-join all of them."""
    d = Database(page_capacity=4)
    d.execute(LINEITEM_DDL)
    d.execute(part_table_ddl(1))
    d.insert_rows(
        "lineitem",
        [(i % 6, float(1 + i % 5), 100.0 + 7 * i) for i in range(24)],
    )
    d.insert_rows("part_1", [(i, 900.0 + 150 * i) for i in range(6)])
    for name in ("t", "s"):
        d.execute(f"CREATE TABLE {name} (k INT, v FLOAT)")
        d.insert_rows(
            name, [(None if i == 3 else i % 4, float(i) - 2.5) for i in range(9)]
        )
    d.execute("CREATE INDEX lineitem_partkey ON lineitem (partkey)")
    d.analyze()
    return d


@st.composite
def mutated_sql(draw):
    tokens = _TOKEN.findall(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        if not tokens:
            break
        op = draw(st.sampled_from(["delete", "duplicate", "swap"]))
        i = draw(st.integers(0, len(tokens) - 1))
        if op == "delete":
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
    text = " ".join(tokens)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


def assert_rows_or_engine_error(db, sql):
    try:
        rows = db.query(sql)
    except EngineError:
        return
    assert isinstance(rows, list)
    assert all(isinstance(row, tuple) for row in rows)


class TestGrammarMutations:
    @given(sql=mutated_sql(), per_row=st.booleans())
    @example(sql="", per_row=False)
    @example(sql="SELECT", per_row=False)
    @example(sql="SELECT abs(v), upper('x", per_row=False)
    @example(sql=paper_query(1)[:-30], per_row=False)
    @example(sql=paper_query(1)[:-30], per_row=True)
    @example(sql="SELECT k FROM t WHERE k IN (1, 2,)", per_row=False)
    @example(sql="SELECT k, v FROM t ORDER BY v LIMIT", per_row=False)
    @settings(max_examples=400, deadline=None)
    def test_rows_or_engine_error(self, db, sql, per_row):
        # Without the rewrite every subquery stays an expression node.
        assert_rows_or_engine_error(undecorrelated(db) if per_row else db, sql)

    @pytest.mark.parametrize("sql", SEEDS)
    def test_every_seed_runs(self, db, sql):
        assert isinstance(db.query(sql), list)
