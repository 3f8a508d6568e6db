"""The user-facing database facade.

:class:`Database` ties the catalog, parser, planner and executor together:

>>> db = Database()
>>> db.execute("CREATE TABLE part (partkey INT, retailprice FLOAT)")
>>> db.insert_rows("part", [(1, 9.99), (2, 19.99)])
2
>>> db.query("SELECT partkey FROM part WHERE retailprice > 10")
[(2,)]

SQL statements are SELECT, CREATE TABLE and CREATE INDEX; rows are loaded
with :meth:`Database.insert_rows`.  DDL runs eagerly; ``prepare`` returns
a steppable :class:`~repro.engine.executor.QueryExecution` for cooperative
execution (what the simulator timeshares and progress indicators observe).

Repeated statements are cheap to parse: SELECT ASTs are memoized by SQL
text.  Plans are never cached: every ``query()`` and ``prepare()``
binds a fresh plan over the shared AST, which planning never mutates.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.engine.catalog import Catalog, Table
from repro.engine.errors import PlanError
from repro.engine.executor import QueryExecution
from repro.engine.operators.base import WorkAccount
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
        self._statement_cache: dict[str, ast.Select] = {}

    # ------------------------------------------------------------------
    # Statement cache
    # ------------------------------------------------------------------

    def _parse_query(self, sql: str) -> ast.Select:
        """Parse a SELECT through the statement cache."""
        cached = self._statement_cache.get(sql)
        if cached is not None:
            return cached
        statement = parse_statement(sql)
        if not isinstance(statement, ast.Select):
            raise PlanError("requires a SELECT statement")
        self._statement_cache[sql] = statement
        if len(self._statement_cache) > _STATEMENT_CACHE_LIMIT:
            self._statement_cache.clear()
            self._statement_cache[sql] = statement
        return statement

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------

    def execute(self, sql: str) -> Any:
        """Run one SELECT, CREATE TABLE or CREATE INDEX statement.

        Returns query rows for SELECT and ``None`` for DDL.
        """
        statement = parse_statement(sql)
        if isinstance(statement, ast.Select):
            return self._run_query(statement, sql)
        if isinstance(statement, ast.CreateTable):
            self._run_create_table(statement)
            return None
        self.catalog.create_index(
            statement.name, statement.table, statement.column
        )
        return None

    def query(self, sql: str) -> list[tuple]:
        """Run a SELECT to completion and return its rows."""
        return self._run_query(self._parse_query(sql), sql)

    def prepare(
        self,
        sql: str,
        checkpoint_interval: Optional[float] = None,
        batch_size: Optional[int] = None,
    ) -> QueryExecution:
        """Plan a SELECT and return a steppable execution handle.

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
            root=self.planner.plan_select(statement, account),
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

    def _run_query(self, statement, sql: str) -> list[tuple]:
        account = WorkAccount()
        execution = QueryExecution(
            root=self.planner.plan_select(statement, account),
            account=account,
            sql=sql,
            batch_size=self.batch_size,
        )
        return execution.run_to_completion()

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
