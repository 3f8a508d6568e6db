"""The shard router: scatter-gather queries over a simulated cluster.

:class:`ShardedCluster` assembles N :class:`~repro.dist.node.ShardNode`
members (one shard per node, fragments replicated onto the next
``replication - 1`` nodes), a :class:`~repro.dist.catalog.ShardCatalog`
and a :class:`~repro.dist.global_pi.GlobalProgressAggregator`, and routes
distributed queries over them:

* **pushdown** -- a single-table filter/project query over an
  order-preserving (block) partitioning runs as one rewritten sub-query
  per shard; the router concatenates the per-shard results in shard
  order, which *is* the original row order.
* **gather** -- everything else (joins, aggregates, subqueries, ORDER
  BY, hash/range partitionings) runs one fragment scan per (table,
  shard); the router reassembles each table's rows into their original
  global order (the catalog kept every fragment row's position), merges
  them into a table with the original DDL/indexes/statistics -- built
  once and reused while the shipped fragments compare equal to the ones
  it was built from -- and executes the original SQL on a coordinator
  database holding exactly the query's tables.  The merge execution is
  work-for-work the single-node execution, so the distributed result is
  byte-identical to the single-node result for any SELECT.

Time advances in **epoch lockstep**: every node's virtual clock moves
together in :data:`TICK`-sized slices, and all router-side processing --
collecting finished sub-queries, failing work over, refreshing the
global PI -- happens at epoch boundaries, when all clocks agree.

Failover is the robustness core.  A node crash fails every sub-query on
it (via the node RDBMS's ``on_failure`` hooks, which the router
subscribes to); at the next epoch boundary the router re-routes each
victim to the fragment's next live replica, re-plans the sub-query
there, restores the last work-preserving checkpoint of the dead attempt
(checkpoints are detached plain data -- they survive their node), and
resubmits after a jittered backoff delay so a mass failure does not
become a retry storm.  Work-conservation is accounted per failover:
``preserved`` (checkpointed U's the replica did not redo) vs ``lost``
(U's the crashed attempt had done past its last checkpoint).  While a
shard has no fresh estimate -- its node is down, unreachable or between
failover and resume -- the global PI carries back the last finite value
and flags the shard degraded; it never reports NaN.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Sequence

from repro.dist.catalog import ShardCatalog
from repro.dist.global_pi import GlobalProgressAggregator, GlobalQueryEstimate
from repro.dist.node import TICK, ShardNode
from repro.dist.partition import Partitioner
from repro.engine.catalog import Table
from repro.engine.database import Database
from repro.engine.sql import ast, parse_statement
from repro.faults.retry import MAX_ATTEMPTS, retry_delay
from repro.obs.runtime import Observability, resolve
from repro.qos.breaker import BreakerBoard
from repro.sim.jobs import EngineJob

_EPS = 1e-9
#: Virtual seconds a sub-query may wait with no serving replica before
#: its query fails.
FAILOVER_TIMEOUT = 30.0


def fragment_table(table: str, shard: int) -> str:
    """The node-local name of one table fragment."""
    return f"{table}__s{shard}"


def _rewrite_table(sql: str, table: str, shard: int) -> str:
    """Point every whole-word reference to *table* at its fragment.

    Plain word-boundary substitution; table names in this codebase never
    collide with column names, which keeps the rewrite trivial.
    """
    return re.sub(rf"\b{re.escape(table)}\b", fragment_table(table, shard), sql)


def _rewrite_index_ddl(ddl: str, table: str, shard: int) -> str:
    """Fragment-localise an index DDL: table name *and* index name.

    Index names are database-global in the engine catalog, and one node
    can host several fragments of the same table, so the index name gets
    the same ``__sN`` suffix as the fragment.
    """
    ddl = _rewrite_table(ddl, table, shard)
    return re.sub(
        r"(?i)(CREATE\s+INDEX\s+)(\w+)", rf"\g<1>\g<2>__s{shard}", ddl, count=1
    )


def referenced_tables(statement) -> set[str]:
    """Every base-table name a SELECT references, subqueries included."""
    names: set[str] = set()

    def walk_stmt(stmt) -> None:
        for item in stmt.from_items:
            walk_from(item)
        for sel in stmt.items:
            walk_subqueries(sel.expr)
        if stmt.where is not None:
            walk_subqueries(stmt.where)
        for expr in stmt.group_by:
            walk_subqueries(expr)
        if stmt.having is not None:
            walk_subqueries(stmt.having)
        for item in stmt.order_by:
            walk_subqueries(item.expr)

    def walk_from(item) -> None:
        if isinstance(item, ast.TableRef):
            names.add(item.name)
        elif isinstance(item, ast.DerivedTable):
            walk_stmt(item.select)
        elif isinstance(item, ast.Join):
            walk_from(item.left)
            walk_from(item.right)
            if item.condition is not None:
                walk_subqueries(item.condition)

    def walk_subqueries(expr) -> None:
        if isinstance(expr, ast.SUBQUERY_NODES):
            walk_stmt(expr.select)
        for child in ast.children(expr):
            walk_subqueries(child)

    walk_stmt(statement)
    return names


@dataclass
class SubQuery:
    """One shard's slice of a distributed query."""

    sub_id: str
    parent_id: str
    table: str
    shard: int
    sql: str
    node_id: str
    job: EngineJob
    status: str = "running"  # running | failed | finished
    attempts: int = 1
    rows: list[tuple] | None = None

    @property
    def execution(self):
        """The sub-query's current engine execution."""
        return self.job.execution


@dataclass
class DistributedQuery:
    """One scatter-gather query and its per-shard sub-queries."""

    query_id: str
    sql: str
    strategy: str  # "pushdown" | "gather"
    tables: tuple[str, ...]
    priority: int
    weight: float | None
    submitted_at: float
    subqueries: dict[str, SubQuery] = field(default_factory=dict)
    status: str = "running"  # running | finished | failed
    finished_at: float | None = None
    result: list[tuple] | None = None
    error: str | None = None

    @property
    def finished(self) -> bool:
        """Whether the query's results are assembled and final."""
        return self.status == "finished"

    @property
    def terminal(self) -> bool:
        """Whether the query will make no further progress."""
        return self.status in ("finished", "failed")

    def shard_subqueries(self, shard: int) -> list[SubQuery]:
        """The sub-queries contributing to one shard."""
        return [s for s in self.subqueries.values() if s.shard == shard]

    @property
    def shards(self) -> tuple[int, ...]:
        """Distinct shard indices this query touches, ascending."""
        return tuple(sorted({s.shard for s in self.subqueries.values()}))


class ShardedCluster:
    """N simulated nodes, a shard router, and a fault-tolerant global PI."""

    #: Epoch length (:data:`TICK`), for callers that step epoch by epoch.
    tick = TICK

    def __init__(
        self,
        n_shards: int,
        replication: int = 2,
        processing_rate: float = 1.0,
        checkpoint_interval: float | None = 2.0,
        obs: Observability | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if not 1 <= replication <= n_shards:
            raise ValueError(
                f"replication must be in [1, n_shards={n_shards}], "
                f"got {replication}"
            )
        self.n_shards = n_shards
        self.replication = replication
        self.checkpoint_interval = checkpoint_interval
        self.catalog = ShardCatalog()
        self.aggregator = GlobalProgressAggregator()
        #: Per-node circuit breakers: consecutive sub-query failures trip
        #: a node's breaker open, and routing/failover stop sending work
        #: at it until the cooldown's half-open probe succeeds.
        self.breakers = BreakerBoard()
        self.nodes: dict[str, ShardNode] = {}
        for i in range(n_shards):
            node_id = f"node{i}"
            node = ShardNode(node_id, processing_rate)
            self.nodes[node_id] = node
            self.catalog.register_node(node_id)
            node.rdbms.on_failure.append(
                lambda t, qid, reason, nid=node_id:
                    self._note_failure(nid, qid, reason)
            )
            node.rdbms.on_finish.append(
                lambda t, qid, nid=node_id: self._note_finish(nid, qid)
            )
        self._clock = 0.0
        self._queries: dict[str, DistributedQuery] = {}
        self._subs: dict[str, SubQuery] = {}
        self._pending_failover: list[tuple[str, str]] = []
        #: Parked sub-queries (no serving replica) -> when parking began.
        self._parked_since: dict[str, float] = {}
        self._pending_finish: list[str] = []
        #: Cluster-wide work-conservation tally across all failovers.
        self.work_preserved = 0.0
        self.work_lost = 0.0
        self.failovers = 0
        #: Gathered table -> (the ``{shard: rows}`` it was merged from, the
        #: merged engine table).  One merged copy per table, kept for the
        #: cluster's lifetime and reused only while the shipped fragments
        #: compare equal to the ones it was built from.
        self._merged: dict[str, tuple[dict[int, list[tuple]], Table]] = {}
        self._obs = resolve(obs)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _emit(self, event: str, query_id: str | None = None, **fields) -> None:
        self._obs.tracer.emit(event, self._clock, query_id, **fields)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def clock(self) -> float:
        """Cluster virtual time (every node's clock at epoch boundaries)."""
        return self._clock

    def node_ids(self) -> tuple[str, ...]:
        """All node ids, shard order."""
        return tuple(self.nodes)

    def query(self, query_id: str) -> DistributedQuery:
        """The distributed-query record of *query_id*."""
        try:
            return self._queries[query_id]
        except KeyError:
            raise KeyError(f"unknown distributed query {query_id!r}") from None

    def queries(self) -> dict[str, DistributedQuery]:
        """All distributed queries, keyed by id."""
        return dict(self._queries)

    def result_rows(self, query_id: str) -> list[tuple]:
        """The final rows of a finished distributed query."""
        dq = self.query(query_id)
        if dq.result is None:
            raise ValueError(f"query {query_id!r} is {dq.status}, no result")
        return list(dq.result)

    def global_estimate(self, query_id: str) -> GlobalQueryEstimate:
        """The query's current global PI estimate (always finite)."""
        self.query(query_id)  # raise for unknown ids
        return self.aggregator.estimate(query_id, self._clock)

    def estimates(self) -> dict[str, GlobalQueryEstimate]:
        """Global PI estimates for every distributed query."""
        return self.aggregator.estimates(self._clock)

    # ------------------------------------------------------------------
    # Data loading
    # ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        ddl: str,
        rows: Sequence[tuple],
        partitioner: Partitioner,
        index_ddls: Sequence[str] = (),
    ) -> None:
        """Partition *rows* across the shards and replicate each fragment.

        Fragment ``i`` of every table is primary on ``node i`` with
        replicas on the following ``replication - 1`` nodes (round
        robin), so losing any single node leaves every fragment with a
        live replica when ``replication >= 2``.
        """
        self.catalog.register_table(
            name, ddl, partitioner, index_ddls=tuple(index_ddls)
        )
        assignment = partitioner.assign(rows, self.n_shards)
        if len(assignment) != len(rows):
            raise ValueError(
                f"partitioner returned {len(assignment)} assignments "
                f"for {len(rows)} rows"
            )
        node_ids = list(self.nodes)
        for shard in range(self.n_shards):
            positions = tuple(
                i for i, s in enumerate(assignment) if s == shard
            )
            frag_rows = [rows[i] for i in positions]
            replicas = tuple(
                node_ids[(shard + r) % len(node_ids)]
                for r in range(self.replication)
            )
            self.catalog.place_fragment(name, shard, replicas, positions)
            frag = fragment_table(name, shard)
            for node_id in replicas:
                db = self.nodes[node_id].db
                db.execute(_rewrite_table(ddl, name, shard))
                db.insert_rows(frag, frag_rows)
                for index_ddl in index_ddls:
                    db.execute(_rewrite_index_ddl(index_ddl, name, shard))
                db.analyze(frag)
        if self._obs is not None:
            self._emit("shard.table.load", table=name, rows=len(rows),
                       shards=self.n_shards, replication=self.replication)

    # ------------------------------------------------------------------
    # Query submission
    # ------------------------------------------------------------------

    def submit(
        self,
        query_id: str,
        sql: str,
        priority: int = 0,
        weight: float | None = None,
    ) -> DistributedQuery:
        """Scatter *sql* across the shards as one distributed query."""
        if query_id in self._queries:
            raise ValueError(f"duplicate distributed query id {query_id!r}")
        statement = parse_statement(sql)
        if not isinstance(statement, ast.Select):
            raise ValueError("only SELECT statements can be distributed")
        tables = referenced_tables(statement)
        known = {m.name for m in self.catalog.tables()}
        unknown = tables - known
        if unknown:
            raise ValueError(
                f"query references unpartitioned tables: {sorted(unknown)}"
            )
        pushdown_table = self._pushdown_table(statement, tables)
        strategy = "pushdown" if pushdown_table is not None else "gather"
        # Gather scans fragments in catalog registration order so the
        # merge database replays DDL in the original creation order.
        ordered = tuple(
            m.name for m in self.catalog.tables() if m.name in tables
        )
        dq = DistributedQuery(
            query_id=query_id, sql=sql, strategy=strategy, tables=ordered,
            priority=priority, weight=weight, submitted_at=self._clock,
        )
        self._queries[query_id] = dq
        if strategy == "pushdown":
            for shard in range(self.n_shards):
                sub_sql = _rewrite_table(sql, pushdown_table, shard)
                self._launch_subquery(
                    dq, f"{query_id}#s{shard}", pushdown_table, shard, sub_sql
                )
        else:
            for table in ordered:
                for shard in range(self.n_shards):
                    sub_sql = f"SELECT * FROM {fragment_table(table, shard)}"
                    self._launch_subquery(
                        dq, f"{query_id}@{table}#s{shard}", table, shard,
                        sub_sql,
                    )
        if self._obs is not None:
            self._obs.metrics.counter("dist.queries").inc()
            self._emit("shard.query.submit", query_id, strategy=strategy,
                       subqueries=len(dq.subqueries))
        return dq

    def _pushdown_table(self, statement, tables: set[str]) -> str | None:
        """The single table a pushdown may target, or None for gather.

        Pushdown + concat is only byte-identical when the sub-results
        concatenate into exactly the single-node row stream: one base
        table, no row-order- or cross-shard-sensitive clauses, and an
        order-preserving partitioning.
        """
        if not isinstance(statement, ast.Select):
            return None
        if (
            statement.group_by or statement.having or statement.order_by
            or statement.distinct or statement.limit is not None
            or statement.offset is not None
        ):
            return None
        if len(statement.from_items) != 1:
            return None
        ref = statement.from_items[0]
        if not isinstance(ref, ast.TableRef):
            return None
        exprs = [item.expr for item in statement.items]
        if statement.where is not None:
            exprs.append(statement.where)
        if any(ast.contains_subquery(e) for e in exprs):
            return None
        if any(ast.contains_aggregate(e) for e in exprs):
            return None
        if not self.catalog.table(ref.name).partitioner.order_preserving:
            return None
        return ref.name

    def _route_target(self, table: str, shard: int) -> str | None:
        """First serving replica whose breaker admits a request, or None.

        Walks the fragment's replica chain in priority order, skipping
        nodes the catalog knows are down/unreachable *and* nodes whose
        circuit breaker is open -- nominally-serving nodes that have
        been failing every request.  An open breaker whose cooldown has
        elapsed moves to half-open here and the returned node receives
        the probe request.
        """
        for node_id in self.catalog.replicas_for(table, shard):
            if not self.catalog.node(node_id).serving:
                continue
            if self.breakers.for_node(node_id).allow(self._clock):
                return node_id
        return None

    def _launch_subquery(
        self, dq: DistributedQuery, sub_id: str, table: str, shard: int,
        sub_sql: str,
    ) -> None:
        node_id = self._route_target(table, shard)
        if node_id is None:
            # Every breaker is open (or every replica is down): fall back
            # to the catalog primary rather than refusing the submission
            # outright -- admission control, not the router, decides
            # whether to accept work under overload.
            node_id = self.catalog.primary_for(table, shard)
        if node_id is None:
            raise RuntimeError(
                f"no live replica for shard {shard} of table {table!r}"
            )
        node = self.nodes[node_id]
        execution = node.db.prepare(
            sub_sql, checkpoint_interval=self.checkpoint_interval
        )
        job = EngineJob(
            sub_id, execution, priority=dq.priority, weight=dq.weight
        )
        sub = SubQuery(
            sub_id=sub_id, parent_id=dq.query_id, table=table, shard=shard,
            sql=sub_sql, node_id=node_id, job=job,
        )
        first_on_shard = not dq.shard_subqueries(shard)
        dq.subqueries[sub_id] = sub
        self._subs[sub_id] = sub
        node.submit(job)
        initial = self._finite_or(
            execution.progress.estimated_remaining_cost()
            / node.rdbms.processing_rate,
            fallback=1.0,
        )
        if first_on_shard:
            self.aggregator.register(dq.query_id, shard, initial, self._clock)
        else:
            # A gather query scans several tables per shard; the shard's
            # estimate is the max over them, as in ``_refresh_pi``.
            registered = self.aggregator.estimate(dq.query_id, self._clock)
            if initial > registered.shards[shard].remaining_seconds:
                self.aggregator.report(
                    dq.query_id, shard, initial, self._clock
                )
        if self._obs is not None:
            self._emit("shard.subquery.submit", sub_id, shard=shard,
                       table=table, node=node_id)

    @staticmethod
    def _finite_or(value: float, fallback: float) -> float:
        return value if math.isfinite(value) and value >= 0 else fallback

    # ------------------------------------------------------------------
    # Node hooks (fire mid-epoch; processed at the next boundary)
    # ------------------------------------------------------------------

    def _note_failure(self, node_id: str, sub_id: str, reason: str) -> None:
        sub = self._subs.get(sub_id)
        if sub is None or sub.node_id != node_id or sub.status == "finished":
            return
        sub.status = "failed"
        self._pending_failover.append((sub_id, reason))
        self.breakers.for_node(node_id).record_failure(
            self.nodes[node_id].rdbms.clock, reason
        )

    def _note_finish(self, node_id: str, sub_id: str) -> None:
        sub = self._subs.get(sub_id)
        if sub is None or sub.node_id != node_id or sub.status == "finished":
            return
        self._pending_finish.append(sub_id)
        self.breakers.for_node(node_id).record_success(
            self.nodes[node_id].rdbms.clock
        )

    # ------------------------------------------------------------------
    # Time advancement (epoch lockstep)
    # ------------------------------------------------------------------

    def run_until(self, target: float) -> None:
        """Advance every node in lockstep to *target*, epoch by epoch."""
        if target < self._clock - _EPS:
            raise ValueError(
                f"cannot run backwards to {target} from {self._clock}"
            )
        while self._clock < target - _EPS:
            boundary = min(self._clock + TICK, target)
            for node in self.nodes.values():
                node.run_until(boundary)
            self._clock = boundary
            self._epoch()

    def run_to_completion(self, max_time: float = 1e6) -> None:
        """Run until every distributed query is terminal.

        Raises :class:`RuntimeError` at *max_time* -- with replicated
        fragments and a bounded fault plan this means a routing bug, not
        bad luck.
        """
        while any(not dq.terminal for dq in self._queries.values()):
            if self._clock >= max_time:
                unfinished = sorted(
                    q for q, dq in self._queries.items() if not dq.terminal
                )
                raise RuntimeError(
                    f"cluster exceeded max_time={max_time}; "
                    f"unfinished: {unfinished}"
                )
            self.run_until(self._clock + TICK)

    def _epoch(self) -> None:
        """Router-side processing at one epoch boundary."""
        self._collect_finishes()
        self._process_failovers()
        self._refresh_pi()

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _collect_finishes(self) -> None:
        deferred: list[str] = []
        for sub_id in self._pending_finish:
            sub = self._subs[sub_id]
            status = self.catalog.node(sub.node_id)
            if not status.up:
                # The node died with the results still on it: the finish
                # notification never made it out.  Re-run on a replica.
                sub.status = "failed"
                self._pending_failover.append(
                    (sub_id, f"node {sub.node_id} lost results in crash")
                )
                continue
            if not status.reachable:
                # Alive but partitioned: the results exist, the router
                # just cannot fetch them yet.  Collect after healing.
                deferred.append(sub_id)
                continue
            self._finish_subquery(sub)
        self._pending_finish = deferred

    def _finish_subquery(self, sub: SubQuery) -> None:
        sub.status = "finished"
        sub.rows = sub.execution.rows
        dq = self._queries[sub.parent_id]
        if all(s.status == "finished" for s in dq.shard_subqueries(sub.shard)):
            self.aggregator.mark_done(dq.query_id, sub.shard, self._clock)
        if self._obs is not None:
            self._emit("shard.subquery.finish", sub.sub_id, shard=sub.shard,
                       node=sub.node_id, attempts=sub.attempts)
        if all(s.status == "finished" for s in dq.subqueries.values()):
            self._finalize(dq)

    def _finalize(self, dq: DistributedQuery) -> None:
        if dq.strategy == "pushdown":
            rows: list[tuple] = []
            for shard in range(self.n_shards):
                for sub in dq.shard_subqueries(shard):
                    assert sub.rows is not None
                    rows.extend(sub.rows)
            dq.result = rows
        else:
            dq.result = self._gather_merge(dq)
        dq.status = "finished"
        dq.finished_at = self._clock
        if self._obs is not None:
            self._obs.metrics.counter("dist.finished").inc()
            self._emit("shard.query.finish", dq.query_id,
                       strategy=dq.strategy, rows=len(dq.result),
                       duration=self._clock - dq.submitted_at)

    def _gather_merge(self, dq: DistributedQuery) -> list[tuple]:
        """Run the original SQL over the merged referenced tables.

        A fresh coordinator database adopts exactly the query's tables,
        in catalog-registration order, and the untouched SQL executes
        there -- the same plan over the same data in the same order as a
        single-node run, hence byte-identical rows.  (Fresh per query:
        the planner reads statistics by bare column name across the whole
        catalog, so another query's tables must not be visible.)
        """
        merge_db = Database()
        for table in dq.tables:
            merge_db.catalog.adopt_table(self._merged_table(dq, table))
        return merge_db.prepare(dq.sql).run_to_completion()

    def _merged_table(self, dq: DistributedQuery, table: str) -> Table:
        """The merged engine table for the fragments *dq* shipped.

        Built once per content: the table merged from the previous gather
        is reused when this query's fragments compare equal to the ones it
        was built from (content only -- any difference, or a NaN that is
        not the very same object, rebuilds).  A build re-slots the
        fragment rows into their original global positions and replays
        the original DDL / index / ``ANALYZE`` sequence.
        """
        fragments: dict[int, list[tuple]] = {}
        for sub in dq.subqueries.values():
            if sub.table != table:
                continue
            if sub.shard in fragments:
                raise RuntimeError(
                    f"query {dq.query_id!r} has more than one sub-query "
                    f"for fragment {fragment_table(table, sub.shard)}"
                )
            assert sub.rows is not None
            expected = len(self.catalog.positions_for(table, sub.shard))
            if expected != len(sub.rows):
                raise RuntimeError(
                    f"fragment {fragment_table(table, sub.shard)} returned "
                    f"{len(sub.rows)} rows, catalog expects {expected}"
                )
            fragments[sub.shard] = sub.rows
        cached = self._merged.get(table)
        if cached is not None and cached[0] == fragments:
            if self._obs is not None:
                self._obs.metrics.counter("dist.gather.tables_reused").inc()
            return cached[1]
        meta = self.catalog.table(table)
        build_db = Database()
        build_db.execute(meta.ddl)
        placed: list[tuple[int, tuple]] = []
        for shard, rows in fragments.items():
            placed.extend(zip(self.catalog.positions_for(table, shard), rows))
        placed.sort(key=lambda pr: pr[0])
        build_db.insert_rows(table, [row for _, row in placed])
        for index_ddl in meta.index_ddls:
            build_db.execute(index_ddl)
        build_db.analyze(table)
        merged = build_db.catalog.table(table)
        self._merged[table] = (fragments, merged)
        if self._obs is not None:
            self._obs.metrics.counter("dist.gather.tables_built").inc()
            self._emit("shard.gather.build", dq.query_id, table=table,
                       rows=len(placed),
                       reason="first" if cached is None else "changed")
        return merged

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------

    def _process_failovers(self) -> None:
        pending = self._pending_failover
        self._pending_failover = []
        for sub_id, reason in pending:
            sub = self._subs[sub_id]
            if sub.status == "finished":
                continue
            dq = self._queries[sub.parent_id]
            if dq.terminal:
                continue
            if sub.attempts >= MAX_ATTEMPTS:
                self._give_up(dq, sub, reason)
                continue
            target = self._route_target(sub.table, sub.shard)
            breaker = None
            if target is None:
                serving = [
                    n for n in self.catalog.replicas_for(sub.table, sub.shard)
                    if self.catalog.node(n).serving
                ]
                if not serving:
                    # Every replica is down/unreachable right now; keep the
                    # sub-query parked and try again next epoch -- but not
                    # forever: past the failover timeout the query fails
                    # cleanly instead of hanging on a fragment nobody holds.
                    since = self._parked_since.setdefault(sub_id, self._clock)
                    if self._clock - since >= FAILOVER_TIMEOUT:
                        self._parked_since.pop(sub_id, None)
                        self._give_up(
                            dq, sub,
                            f"no serving replica for shard {sub.shard} within "
                            f"{FAILOVER_TIMEOUT:g}s: {reason}",
                        )
                        continue
                    self._pending_failover.append((sub_id, reason))
                    self.aggregator.mark_degraded(dq.query_id, sub.shard)
                    continue
                # Replicas are nominally serving but every breaker is
                # open: schedule the retry for the soonest half-open
                # window instead of hammering a failing node with the
                # plain backoff ladder.
                target = min(
                    serving,
                    key=lambda n: self.breakers.for_node(n).retry_after(
                        self._clock
                    ),
                )
                breaker = self.breakers.for_node(target)
            self._parked_since.pop(sub_id, None)
            delay = retry_delay(
                sub.attempts, sub_id, breaker=breaker, now=self._clock
            )
            self.nodes[target].rdbms.add_event(
                self._clock + delay,
                lambda _rdbms, sid=sub_id, nid=target, why=reason:
                    self._execute_failover(sid, nid, why),
            )
            self.aggregator.mark_degraded(dq.query_id, sub.shard)
            if self._obs is not None:
                self._emit("shard.failover.schedule", sub_id,
                           shard=sub.shard, target=target, delay=delay,
                           reason=reason)

    def _execute_failover(self, sub_id: str, target: str, reason: str) -> None:
        """Resume a failed sub-query on *target* (fires as a node event)."""
        sub = self._subs[sub_id]
        if sub.status == "finished":
            return
        dq = self._queries[sub.parent_id]
        if dq.terminal:
            return
        node = self.nodes[target]
        if not node.up or not self.catalog.node(target).serving:
            # The replica died between scheduling and firing; re-park.
            self._pending_failover.append((sub_id, reason))
            return
        if self.breakers.for_node(target).state == "open":
            # The target's breaker tripped (again) between scheduling and
            # firing; re-park rather than hammering it.
            self._pending_failover.append((sub_id, reason))
            return
        old_exec = sub.execution
        ckpt = old_exec.last_checkpoint
        execution = node.db.prepare(
            sub.sql, checkpoint_interval=self.checkpoint_interval
        )
        if ckpt is not None:
            execution.restore(ckpt)
        preserved = execution.paid_work
        lost = max(old_exec.paid_work - preserved, 0.0)
        self.work_preserved += preserved
        self.work_lost += lost
        self.failovers += 1
        job = EngineJob(
            sub_id, execution, priority=dq.priority, weight=dq.weight
        )
        sub.job = job
        sub.node_id = target
        sub.attempts += 1
        sub.status = "running"
        rdbms = node.rdbms
        if sub_id in rdbms.records():
            record = rdbms.resubmit(job)
        else:
            record = rdbms.submit(job)
        record.trace.record_attempt_work(preserved, lost)
        remaining = self._finite_or(
            execution.progress.estimated_remaining_cost()
            / rdbms.processing_rate,
            fallback=1.0,
        )
        self.aggregator.move_shard(
            dq.query_id, sub.shard, remaining, self._clock
        )
        if self._obs is not None:
            self._obs.metrics.counter("dist.failovers").inc()
            self._obs.metrics.gauge("dist.work_preserved").set(
                self.work_preserved
            )
            self._obs.metrics.gauge("dist.work_lost").set(self.work_lost)
            self._emit("shard.failover", sub_id, shard=sub.shard,
                       node=target, attempt=sub.attempts,
                       preserved=preserved, lost=lost, reason=reason)

    def _give_up(self, dq: DistributedQuery, sub: SubQuery, reason: str) -> None:
        lost = sub.execution.paid_work
        self.work_lost += lost
        dq.status = "failed"
        dq.finished_at = self._clock
        dq.error = (
            f"sub-query {sub.sub_id} exhausted "
            f"{MAX_ATTEMPTS} attempts: {reason}"
        )
        # Cancel the doomed query's surviving siblings so they stop
        # consuming capacity other queries could use.
        for sibling in dq.subqueries.values():
            if sibling.status != "running":
                continue
            rdbms = self.nodes[sibling.node_id].rdbms
            record = rdbms.records().get(sibling.sub_id)
            if record is not None and not record.terminal:
                rdbms.abort(sibling.sub_id, reason="distributed query gave up")
        if self._obs is not None:
            self._obs.metrics.counter("dist.gave_up").inc()
            self._emit("shard.query.give_up", dq.query_id, sub=sub.sub_id,
                       reason=reason)

    # ------------------------------------------------------------------
    # Global PI refresh
    # ------------------------------------------------------------------

    def _refresh_pi(self) -> None:
        """Roll fresh per-node estimates into the global aggregator.

        One ``remaining_times`` sweep per serving node covers all its
        running sub-queries; queued sub-queries fall back to their
        optimizer estimate over the node's full rate.  A shard whose
        sub-queries cannot all be freshly measured (node down or
        unreachable, sub-query parked between failover and resume) is
        marked degraded and its last finite value carries back.
        """
        node_rts: dict[str, dict[str, float]] = {}
        for node_id, node in self.nodes.items():
            if self.catalog.node(node_id).serving:
                node_rts[node_id] = node.rdbms.remaining_times()
        for dq in self._queries.values():
            if dq.terminal:
                continue
            for shard in dq.shards:
                subs = dq.shard_subqueries(shard)
                open_subs = [s for s in subs if s.status != "finished"]
                if not open_subs:
                    continue  # mark_done already recorded it
                values: list[float] = []
                fresh = True
                for sub in open_subs:
                    value = self._subquery_estimate(sub, node_rts)
                    if value is None:
                        fresh = False
                    else:
                        values.append(value)
                if fresh and values:
                    self.aggregator.report(
                        dq.query_id, shard, max(values), self._clock
                    )
                else:
                    self.aggregator.mark_degraded(dq.query_id, shard)
        if self._obs is not None:
            m = self._obs.metrics
            m.counter("dist.pi_refreshes").inc()
            # Overload/outage visibility: how stale the worst carried-back
            # shard estimate is, and how many shard contributions are
            # degraded right now -- in metrics, not just snapshots.
            m.gauge("dist.pi.staleness_max").set(
                self.aggregator.max_staleness(self._clock)
            )
            m.gauge("dist.pi.degraded_shards").set(
                self.aggregator.degraded_count()
            )

    def _subquery_estimate(
        self, sub: SubQuery, node_rts: dict[str, dict[str, float]]
    ) -> float | None:
        """One sub-query's fresh remaining-time estimate, or None."""
        if sub.status == "failed":
            return None
        rts = node_rts.get(sub.node_id)
        if rts is None:
            return None  # node down or unreachable
        value = rts.get(sub.sub_id)
        if value is None:
            # Queued behind the node's multiprogramming limit: estimate
            # from the optimizer's remaining cost at the node's full rate.
            rate = self.nodes[sub.node_id].rdbms.processing_rate
            value = sub.job.estimated_remaining_cost() / rate
        return value if math.isfinite(value) and value >= 0 else None

    def describe(self) -> str:
        """Human-readable cluster state: layout plus live queries."""
        lines = [self.catalog.describe()]
        for dq in self._queries.values():
            done = sum(
                1 for s in dq.subqueries.values() if s.status == "finished"
            )
            lines.append(
                f"query {dq.query_id}: {dq.status} ({dq.strategy}, "
                f"{done}/{len(dq.subqueries)} sub-queries done)"
            )
        return "\n".join(lines)
