"""The paper's query templates (Section 5.1).

``Q_i`` finds parts selling on average 25% below suggested retail price --
a nested query whose correlated subquery plans to an index scan on
``lineitem``, the exact shape the paper instruments:

    select * from part_i p where p.retailprice * 0.75 >
        (select sum(l.extendedprice) / sum(l.quantity)
         from lineitem l where l.partkey = p.partkey);

A few extra templates exercise other plan shapes (join, aggregate, sort)
for the engine-mode experiments.
"""

from __future__ import annotations

from repro.engine.database import Database
from repro.engine.executor import QueryExecution
from repro.sim.jobs import EngineJob


def paper_query(i: int) -> str:
    """The paper's ``Q_i`` against ``part_i``."""
    if i < 1:
        raise ValueError("part table index starts at 1")
    return (
        f"select * from part_{i} p where p.retailprice * 0.75 > "
        "(select sum(l.extendedprice) / sum(l.quantity) "
        "from lineitem l where l.partkey = p.partkey)"
    )


def join_query(i: int) -> str:
    """An equi-join between ``part_i`` and lineitem with an aggregate."""
    if i < 1:
        raise ValueError("part table index starts at 1")
    return (
        f"select p.partkey, sum(l.extendedprice) revenue "
        f"from part_{i} p join lineitem l on l.partkey = p.partkey "
        "group by p.partkey order by revenue desc limit 10"
    )


def scan_query(i: int) -> str:
    """A filtered scan with a sort."""
    if i < 1:
        raise ValueError("part table index starts at 1")
    return (
        f"select partkey, retailprice from part_{i} "
        "where retailprice > 1200 order by retailprice desc"
    )


def prepare_paper_query(db: Database, i: int) -> QueryExecution:
    """Plan ``Q_i`` for cooperative execution."""
    return db.prepare(paper_query(i))


def engine_job(
    db: Database,
    query_id: str,
    i: int,
    priority: int = 0,
    deadline: float | None = None,
) -> EngineJob:
    """Wrap ``Q_i`` as a simulator job (estimated costs, real execution)."""
    return EngineJob(
        query_id=query_id,
        execution=prepare_paper_query(db, i),
        priority=priority,
        deadline=deadline,
    )
