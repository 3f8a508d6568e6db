"""A from-scratch mini SQL engine with a steppable, cost-accounted executor.

This package substitutes for the PostgreSQL prototype the paper instrumented.
It is a real (if small) database engine:

* :mod:`repro.engine.sql` -- lexer, AST and recursive-descent parser for a
  practical SQL subset (SELECT with joins, correlated scalar subqueries,
  aggregates, GROUP BY / HAVING / ORDER BY / LIMIT, INSERT, CREATE TABLE,
  CREATE INDEX).
* :mod:`repro.engine.storage` / :mod:`repro.engine.index` -- page-based heap
  files and simulated B-tree indexes.  **One page of work = one U**, the
  paper's work unit.
* :mod:`repro.engine.stats` / :mod:`repro.engine.cost` -- ANALYZE statistics,
  selectivity estimation and an optimizer cost model in U's.
* :mod:`repro.engine.planner` / :mod:`repro.engine.operators` -- physical
  planning and pull-based iterators that account work as they touch pages.
* :mod:`repro.engine.executor` -- cooperative execution: a query advances in
  work-unit budgets (``step(units)``), which is what lets the simulator
  timeshare many queries and what gives progress indicators their counters.
  Operators are vectorized: each pull yields a batch of up to
  ``DEFAULT_BATCH_SIZE`` rows.
* :mod:`repro.engine.progress` -- the per-query progress tracker (refined
  remaining cost), the single-query machinery of [11, 12] both PIs build on.
* :mod:`repro.engine.database` -- the user-facing :class:`Database` facade.
* :mod:`repro.engine.decorrelate` -- the plan-time subquery-decorrelation
  rewrite (correlated scalar/EXISTS/IN subqueries become grouped LEFT
  joins so they ride the vectorized path); ``Database(decorrelate=False)``
  turns it off.
"""

from repro.engine.cancel import CancellationToken
from repro.engine.database import Database
from repro.engine.decorrelate import decorrelate_select, decorrelate_statement
from repro.engine.errors import (
    CatalogError,
    EngineError,
    ExecutionError,
    MemoryBudgetExceeded,
    ParseError,
    PlanError,
    QueryCancelled,
    SqlTypeError,
)
from repro.engine.executor import (
    DEFAULT_BATCH_SIZE,
    ExecutionCheckpoint,
    QueryExecution,
)
from repro.engine.memory import MemoryGovernor, MemoryPressureEvent
from repro.engine.schema import Column, TableSchema

__all__ = [
    "CancellationToken",
    "CatalogError",
    "Column",
    "DEFAULT_BATCH_SIZE",
    "Database",
    "EngineError",
    "ExecutionCheckpoint",
    "ExecutionError",
    "MemoryBudgetExceeded",
    "MemoryGovernor",
    "MemoryPressureEvent",
    "ParseError",
    "PlanError",
    "QueryCancelled",
    "QueryExecution",
    "SqlTypeError",
    "TableSchema",
    "decorrelate_select",
    "decorrelate_statement",
]
