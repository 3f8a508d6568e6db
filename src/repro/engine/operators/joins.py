"""Join operators: nested loop and hash join."""

from __future__ import annotations

import math
from typing import Iterator, Optional

from repro.engine.errors import SqlTypeError
from repro.engine.expr import BoundExpr, Env
from repro.engine.operators.base import Operator


class NestedLoopJoin(Operator):
    """Inner join by rescanning the (usually materialized) inner side.

    The optional condition is evaluated over the concatenated row; a missing
    condition makes this a cross join.
    """

    def __init__(
        self,
        outer: Operator,
        inner: Operator,
        condition: Optional[BoundExpr] = None,
        label: str = "",
        left_outer: bool = False,
    ) -> None:
        super().__init__(outer.layout.merge(inner.layout), outer.account)
        self.outer = outer
        self.inner = inner
        self.condition = condition
        self.label = label
        self.left_outer = left_outer

    def children(self) -> tuple[Operator, ...]:
        return (self.outer, self.inner)

    def batches(self, outer_env: Optional[Env] = None) -> Iterator[list]:
        # One output batch per *outer* input batch.  The inner side is
        # rescanned per outer row (its materialized cache makes the
        # rescans free after the first).
        condition = self.condition
        pad = (None,) * len(self.inner.layout)
        for outer_batch in self.outer.batches(outer_env):
            out = []
            for left in outer_batch:
                matched = False
                for inner_batch in self.inner.batches(outer_env):
                    combined = [left + right for right in inner_batch]
                    if condition is None:
                        if combined:
                            matched = True
                            out.extend(combined)
                        continue
                    verdicts = condition(combined, outer_env)
                    for row, verdict in zip(combined, verdicts):
                        if verdict is True:
                            matched = True
                            out.append(row)
                        elif verdict is not False and verdict is not None:
                            raise SqlTypeError("join condition must be boolean")
                if self.left_outer and not matched:
                    out.append(left + pad)
            if out:
                yield out

    def describe(self) -> str:
        if self.left_outer:
            kind = "NestedLoopLeftJoin"
        elif self.condition:
            kind = "NestedLoopJoin"
        else:
            kind = "CrossJoin"
        return f"{kind} {self.label}".rstrip()


class HashJoin(Operator):
    """Equi-join: build a hash table on the right side, probe with the left.

    Charges a modeled partition spill of the build side
    (``2 * ceil(rows / rows_per_page)`` U) on top of the children's own
    costs, mirroring a grace hash join that writes and rereads build
    partitions.  Residual (non-equi) predicates can be attached by wrapping
    the join in a Filter.

    Run-time state (the build table) lives on the instance, which makes the
    join checkpointable: the build runs inside one root pull, so between
    pulls the join is either untouched (the build child's position is the
    snapshot) or probing, where the finished table and the probe child's
    position are.  Every probe batch is fully joined before its output
    batch is yielded, so no probe row is ever in flight at a checkpoint.
    Under memory pressure the join degrades to a modeled block-partitioned
    join: the build table is treated as spilled (its rows stop counting
    against the budget) and the extra partition passes are charged as work
    at build end.
    """

    def __init__(
        self,
        probe_side: Operator,
        build_side: Operator,
        probe_key: BoundExpr,
        build_key: BoundExpr,
        rows_per_page: int = 50,
        label: str = "",
        left_outer: bool = False,
        residual: Optional[BoundExpr] = None,
    ) -> None:
        super().__init__(probe_side.layout.merge(build_side.layout), probe_side.account)
        self.probe_side = probe_side
        self.build_side = build_side
        self.probe_key = probe_key
        self.build_key = build_key
        self.rows_per_page = rows_per_page
        self.label = label
        self.left_outer = left_outer
        self.residual = residual
        #: ``"idle"`` / ``"build"`` / ``"probe"`` -- the current phase.
        self._phase = "idle"
        self._table: dict = {}
        self._build_count = 0
        self._reserved = 0
        self._degraded = False
        self._resume: dict | None = None

    def children(self) -> tuple[Operator, ...]:
        return (self.probe_side, self.build_side)

    # ------------------------------------------------------------------
    # Checkpoint/restore
    # ------------------------------------------------------------------

    def checkpoint(self) -> dict | None:
        if self._phase == "probe":
            probe_state = self.probe_side.checkpoint()
            if probe_state is None:
                return None
            # The build table is frozen once the probe phase starts (only
            # the build loop inserts; a re-run rebinds it), so probe-phase
            # checkpoints share it and a probe-phase restore reads it.
            return {
                "phase": "probe",
                "table": self._table,
                "count": self._build_count,
                "degraded": self._degraded,
                "probe": probe_state,
            }
        if self._phase == "build":
            # Only seen from inside a pull, or after one raised.
            return None
        build_state = self.build_side.checkpoint()
        if build_state is None:
            return None
        return {"phase": "idle", "build": build_state}

    def restore(self, state: dict) -> None:
        self._resume = state
        if state["phase"] == "probe":
            self.probe_side.restore(state["probe"])
        else:
            self.build_side.restore(state["build"])

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _begin_build(self) -> None:
        self._phase = "build"
        self._table = {}
        self._build_count = 0
        self._degraded = False
        self._reserved = 0

    def _finish_build(self) -> None:
        """Charge the build side's partition passes and start probing."""
        gov = self.account.memory
        self.account.charge(2.0 * math.ceil(self._build_count / self.rows_per_page))
        if self._degraded and gov is not None:
            # (passes - 1) extra write+read sweeps over the spilled build
            # partitions, the block-nested-loop cost of not fitting.
            passes = math.ceil(self._build_count / gov.budget_rows)
            extra = (passes - 1) * 2.0 * math.ceil(
                self._build_count / self.rows_per_page
            )
            if extra > 0:
                self.account.charge(extra)
                gov.record(
                    "HashJoin", "spill",
                    f"{passes} partition passes over {self._build_count} "
                    f"build rows (+{extra:g} U)",
                )
        self._phase = "probe"

    def batches(self, outer_env: Optional[Env] = None) -> Iterator[list]:
        resume = self._resume
        self._resume = None
        gov = self.account.memory

        if resume is not None and resume["phase"] == "probe":
            self._phase = "probe"
            self._table = resume["table"]
            self._build_count = resume["count"]
            self._degraded = resume["degraded"]
            self._reserved = 0
            yield from self._probe_batches(outer_env)
            return

        self._begin_build()

        build_key = self.build_key
        key_slot = getattr(build_key, "slot", None)
        table = self._table
        table_get = table.get
        for batch in self.build_side.batches(outer_env):
            if gov is None and key_slot is not None:
                # Tightest path: bare-column key, no memory governance --
                # index the tuple directly, skip the key column entirely.
                # This loop carries the whole build side.
                inserted = 0
                for row in batch:
                    key = row[key_slot]
                    if key is None:
                        continue  # NULL never joins
                    bucket = table_get(key)
                    if bucket is None:
                        table[key] = [row]
                    else:
                        bucket.append(row)
                    inserted += 1
                self._build_count += inserted
                continue
            keys = build_key(batch, outer_env)
            if gov is None:
                inserted = 0
                for key, row in zip(keys, batch):
                    if key is None:
                        continue  # NULL never joins
                    bucket = table_get(key)
                    if bucket is None:
                        table[key] = [row]
                    else:
                        bucket.append(row)
                    inserted += 1
                self._build_count += inserted
                continue
            for key, row in zip(keys, batch):
                if key is None:
                    continue  # NULL never joins
                bucket = table.get(key)
                if bucket is None:
                    table[key] = [row]
                else:
                    bucket.append(row)
                self._build_count += 1
                if not self._degraded:
                    self._reserved += 1
                    if not gov.reserve("HashJoin"):
                        self._degraded = True
                        gov.release(self._reserved)
                        self._reserved = 0
                        gov.record(
                            "HashJoin", "degrade",
                            "build side over budget: block-partitioned fallback",
                        )

        self._finish_build()
        yield from self._probe_batches(outer_env)
        if gov is not None and self._reserved:
            gov.release(self._reserved)
            self._reserved = 0

    def _probe_batches(self, outer_env: Optional[Env]) -> Iterator[list]:
        """Probe in bulk: one output batch per probe input batch."""
        probe_key = self.probe_key
        residual = self.residual
        table = self._table
        left_outer = self.left_outer
        pad = (None,) * len(self.build_side.layout)
        for batch in self.probe_side.batches(outer_env):
            keys = probe_key(batch, outer_env)
            out = []
            if residual is None:
                emit = out.append
                for key, left in zip(keys, batch):
                    bucket = table.get(key) if key is not None else None
                    if bucket:
                        for right in bucket:
                            emit(left + right)
                    elif left_outer:
                        emit(left + pad)
            else:
                for key, left in zip(keys, batch):
                    matched = False
                    if key is not None:
                        combined = [left + right for right in table.get(key, ())]
                        if combined:
                            verdicts = residual(combined, outer_env)
                            for row, verdict in zip(combined, verdicts):
                                if verdict is True:
                                    matched = True
                                    out.append(row)
                                elif verdict not in (False, None):
                                    raise SqlTypeError(
                                        "join condition must be boolean"
                                    )
                    if left_outer and not matched:
                        out.append(left + pad)
            if out:
                yield out

    def describe(self) -> str:
        kind = "HashLeftJoin" if self.left_outer else "HashJoin"
        suffix = " (block partitioned)" if self._degraded else ""
        return f"{kind} {self.label}{suffix}".rstrip()
