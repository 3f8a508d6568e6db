"""The user-facing database facade.

:class:`Database` ties the catalog, parser, planner and executor together:

>>> db = Database()
>>> db.execute("CREATE TABLE part (partkey INT, retailprice FLOAT)")
>>> db.execute("INSERT INTO part VALUES (1, 9.99), (2, 19.99)")
2
>>> db.query("SELECT partkey FROM part WHERE retailprice > 10")
[(2,)]

DDL and DML run eagerly; ``prepare`` returns a steppable
:class:`~repro.engine.executor.QueryExecution` for cooperative execution
(what the simulator timeshares and progress indicators observe).

Repeated statements are cheap to parse: SELECT/UNION ASTs are memoized by
SQL text.  Plans are never cached: every ``query()`` and ``prepare()``
binds a fresh plan over the shared AST, which planning never mutates.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.engine.catalog import Catalog, Table
from repro.engine.errors import PlanError
from repro.engine.executor import QueryExecution
from repro.engine.expr import bind_expr, eval_row, BindContext, Layout
from repro.engine.operators.base import Operator, WorkAccount
from repro.engine.planner import Planner
from repro.engine.schema import Column, TableSchema
from repro.engine.sql import ast, parse_statement
from repro.engine.stats import analyze_table
from repro.engine.storage import DEFAULT_PAGE_CAPACITY
from repro.engine.types import SqlType

#: Statement-cache size cap; the cache is cleared wholesale past this
#: (simple, and the workloads this engine serves repeat a small set of
#: templates).
_STATEMENT_CACHE_LIMIT = 256


def _matching(predicate, rows: list[tuple]) -> list[int]:
    """Positions of the *rows* a DML ``WHERE`` selects (all without one)."""
    if predicate is None:
        return list(range(len(rows)))
    return [i for i, v in enumerate(predicate(rows, None)) if v is True]


class Database:
    """An in-memory SQL database with a steppable executor."""

    def __init__(
        self,
        page_capacity: int = DEFAULT_PAGE_CAPACITY,
        batch_size: Optional[int] = None,
        decorrelate: bool = True,
    ) -> None:
        self.catalog = Catalog(page_capacity=page_capacity)
        #: *decorrelate*: whether top-level plans run the subquery
        #: decorrelation rewrite.
        self.planner = Planner(self.catalog, decorrelate=decorrelate)
        #: Default vector width for executions (``None`` = engine default).
        self.batch_size = batch_size
        self._statement_cache: dict[str, ast.Select | ast.Union] = {}

    # ------------------------------------------------------------------
    # Statement cache
    # ------------------------------------------------------------------

    def _parse_query(self, sql: str) -> ast.Select | ast.Union:
        """Parse a SELECT/UNION through the statement cache."""
        cached = self._statement_cache.get(sql)
        if cached is not None:
            return cached
        statement = parse_statement(sql)
        if not isinstance(statement, (ast.Select, ast.Union)):
            raise PlanError("requires a SELECT (or UNION) statement")
        self._statement_cache[sql] = statement
        if len(self._statement_cache) > _STATEMENT_CACHE_LIMIT:
            self._statement_cache.clear()
            self._statement_cache[sql] = statement
        return statement

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------

    def execute(self, sql: str) -> Any:
        """Run one statement of any kind.

        Returns query rows for SELECT, the inserted-row count for INSERT,
        and ``None`` for DDL.
        """
        statement = parse_statement(sql)
        if isinstance(statement, (ast.Select, ast.Union)):
            return self._run_query(statement, sql)
        if isinstance(statement, ast.Insert):
            return self._run_insert(statement)
        if isinstance(statement, ast.CreateTable):
            self._run_create_table(statement)
            return None
        if isinstance(statement, ast.CreateIndex):
            self.catalog.create_index(
                statement.name, statement.table, statement.column
            )
            return None
        if isinstance(statement, ast.DropTable):
            self.catalog.drop_table(statement.name)
            return None
        if isinstance(statement, ast.Update):
            return self._run_update(statement)
        if isinstance(statement, ast.Delete):
            return self._run_delete(statement)
        if isinstance(statement, ast.Analyze):
            self.analyze(statement.table)
            return None
        if isinstance(statement, ast.Explain):
            return self._plan(statement.statement, WorkAccount()).explain()
        raise PlanError(f"unsupported statement {type(statement).__name__}")

    def query(self, sql: str) -> list[tuple]:
        """Run a SELECT (or UNION) to completion and return its rows."""
        return self._run_query(self._parse_query(sql), sql)

    def prepare(
        self,
        sql: str,
        checkpoint_interval: Optional[float] = None,
        batch_size: Optional[int] = None,
    ) -> QueryExecution:
        """Plan a SELECT (or UNION) and return a steppable execution handle.

        Always plans fresh (executions are concurrent and stateful); only
        the parsed statement is cached.

        Parameters
        ----------
        checkpoint_interval:
            Take a work-preserving checkpoint every so many U's of work.
        batch_size:
            Rows per operator output batch; defaults to the database's.
        """
        statement = self._parse_query(sql)
        account = WorkAccount()
        return QueryExecution(
            root=self._plan(statement, account),
            account=account,
            sql=sql,
            checkpoint_interval=checkpoint_interval,
            batch_size=batch_size if batch_size is not None else self.batch_size,
        )

    def explain(self, sql: str) -> str:
        """The annotated physical plan of a SELECT."""
        return self.prepare(sql).explain()

    def estimated_cost(self, sql: str) -> float:
        """The optimizer's cost estimate of a SELECT, in U's."""
        return self.prepare(sql).root.est_cost

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _plan(
        self, statement: ast.Select | ast.Union, account: WorkAccount
    ) -> Operator:
        if isinstance(statement, ast.Union):
            return self.planner.plan_union(statement, account)
        return self.planner.plan_select(statement, account)

    def _run_query(self, statement, sql: str) -> list[tuple]:
        account = WorkAccount()
        execution = QueryExecution(
            root=self._plan(statement, account),
            account=account,
            sql=sql,
            batch_size=self.batch_size,
        )
        return execution.run_to_completion()

    def _run_update(self, statement: ast.Update) -> int:
        """UPDATE: evaluate assignments per matching row, rewrite the table.

        The heap is append-only, so updates rewrite the table in place:
        every row is re-validated and indexes are rebuilt.  Returns the
        number of rows updated.
        """
        table = self.catalog.table(statement.table)
        schema = table.schema
        layout = Layout.for_table(statement.table, schema.column_names)
        ctx = BindContext(layout)
        predicate = (
            bind_expr(statement.where, ctx) if statement.where is not None else None
        )
        assignments = [
            (schema.column_position(col), bind_expr(expr, ctx))
            for col, expr in statement.assignments
        ]

        rows = [row for _, row in table.heap.scan_rows()]
        hits = _matching(predicate, rows)
        matched = [rows[i] for i in hits]
        columns = [(pos, compute(matched, None)) for pos, compute in assignments]
        for j, i in enumerate(hits):
            values = list(rows[i])
            for pos, column in columns:
                values[pos] = column[j]
            rows[i] = schema.validate_row(values)
        self._rewrite_table(table, rows)
        return len(hits)

    def _run_delete(self, statement: ast.Delete) -> int:
        """DELETE: drop matching rows, rewrite the table.

        Returns the number of rows deleted.
        """
        table = self.catalog.table(statement.table)
        layout = Layout.for_table(statement.table, table.schema.column_names)
        ctx = BindContext(layout)
        predicate = (
            bind_expr(statement.where, ctx) if statement.where is not None else None
        )
        rows = [row for _, row in table.heap.scan_rows()]
        doomed = set(_matching(predicate, rows))
        self._rewrite_table(
            table, [row for i, row in enumerate(rows) if i not in doomed]
        )
        return len(doomed)

    def _rewrite_table(self, table: Table, rows: list[tuple]) -> None:
        """Replace a table's heap contents and rebuild its indexes."""
        from repro.engine.storage import HeapFile

        # Keep the table's own capacity: it may differ from the catalog
        # default when created via ``create_table(..., page_capacity=...)``.
        table.heap = HeapFile(table.heap.page_capacity)
        index_positions = {
            name: table.schema.column_position(index.column)
            for name, index in table.indexes.items()
        }
        fresh = {}
        for name, index in table.indexes.items():
            from repro.engine.index import BTreeIndex

            fresh[name] = BTreeIndex(
                name=index.name,
                table=index.table,
                column=index.column,
                fanout=index.fanout,
                leaf_capacity=index.leaf_capacity,
            )
        for row in rows:
            rid = table.heap.append(row)
            for name, index in fresh.items():
                index.insert(row[index_positions[name]], rid)
        table.indexes = fresh
        table.stats = None

    def _run_insert(self, statement: ast.Insert) -> int:
        table = self.catalog.table(statement.table)
        schema = table.schema
        empty_ctx = BindContext(Layout([]))

        if statement.columns:
            positions = [schema.column_position(c) for c in statement.columns]
        else:
            positions = list(range(len(schema.columns)))

        count = 0
        for value_row in statement.rows:
            if len(value_row) != len(positions):
                raise PlanError(
                    f"INSERT expects {len(positions)} values, got {len(value_row)}"
                )
            full: list[Any] = [None] * len(schema.columns)
            for pos, expr in zip(positions, value_row):
                full[pos] = eval_row(bind_expr(expr, empty_ctx), None)
            table.insert(full)
            count += 1
        return count

    def _run_create_table(
        self, statement: ast.CreateTable, page_capacity: int | None = None
    ) -> Table:
        columns = [
            Column(
                name=c.name,
                sql_type=SqlType.parse(c.type_name),
                nullable=c.nullable,
            )
            for c in statement.columns
        ]
        return self.catalog.create_table(
            TableSchema.of(statement.name, columns), page_capacity=page_capacity
        )

    def create_table(self, ddl: str, page_capacity: int | None = None) -> Table:
        """Run a CREATE TABLE statement with an optional per-table page
        capacity override (used by benchmarks to sweep page sizes).

        Raises
        ------
        PlanError
            If *ddl* is not a CREATE TABLE statement.
        """
        statement = parse_statement(ddl)
        if not isinstance(statement, ast.CreateTable):
            raise PlanError("create_table expects a CREATE TABLE statement")
        return self._run_create_table(statement, page_capacity=page_capacity)

    # ------------------------------------------------------------------
    # Maintenance utilities
    # ------------------------------------------------------------------

    def analyze(self, table_name: Optional[str] = None) -> None:
        """Collect statistics for one table (or all tables)."""
        if table_name is None:
            tables = self.catalog.tables()
        else:
            tables = [self.catalog.table(table_name)]
        for table in tables:
            analyze_table(table)

    def insert_rows(self, table_name: str, rows: Sequence[Sequence[Any]]) -> int:
        """Bulk-insert Python values directly (bypasses SQL parsing)."""
        return self.catalog.table(table_name).insert_many(rows)
