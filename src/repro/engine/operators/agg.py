"""Aggregation: hash aggregate with SQL NULL semantics.

Supports SUM / COUNT / AVG / MIN / MAX, ``COUNT(*)`` and ``DISTINCT``
arguments.  With no GROUP BY the aggregate produces exactly one row even on
empty input (``COUNT`` = 0, other aggregates = NULL), matching SQL.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from operator import add
from typing import Any, Iterator, Optional, Sequence

from repro.engine.errors import PlanError, SqlTypeError
from repro.engine.expr import BoundExpr, Env, Layout
from repro.engine.operators.base import Operator
from repro.engine.types import compare_values, is_numeric
from repro.engine.vector import ColumnVector, take_values

if sys.version_info >= (3, 12):
    def _chain_sum(values: Sequence, start: Any) -> Any:
        """``start + values[0] + values[1] + ...``, left to right, in C.

        CPython 3.12+ compensates float rounding inside ``sum()``, which
        would part the clean fast paths from a per-value fold.
        """
        return reduce(add, values, start)
else:
    _chain_sum = sum


@dataclass
class AggSpec:
    """One aggregate to compute: function, argument, DISTINCT flag."""

    func: str  # SUM / COUNT / AVG / MIN / MAX
    arg: Optional[BoundExpr]  # None only for COUNT(*)
    distinct: bool = False

    def __post_init__(self) -> None:
        self.func = self.func.upper()
        if self.func not in ("SUM", "COUNT", "AVG", "MIN", "MAX"):
            raise PlanError(f"unknown aggregate {self.func!r}")
        if self.arg is None and self.func != "COUNT":
            raise PlanError(f"{self.func} requires an argument")


class _AggState:
    """Accumulator for one aggregate within one group."""

    __slots__ = ("spec", "count", "total", "extreme", "seen")

    def __init__(self, spec: AggSpec) -> None:
        self.spec = spec
        self.count = 0
        self.total: Any = None
        self.extreme: Any = None
        self.seen: set | None = set() if spec.distinct else None

    def update(self, value: Any) -> None:
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        func = self.spec.func
        self.count += 1
        if func in ("SUM", "AVG"):
            if not is_numeric(value):
                raise SqlTypeError(f"{func} requires numeric input, got {value!r}")
            self.total = value if self.total is None else self.total + value
        elif func == "MIN":
            if self.extreme is None or compare_values(value, self.extreme) < 0:
                self.extreme = value
        elif func == "MAX":
            if self.extreme is None or compare_values(value, self.extreme) > 0:
                self.extreme = value

    def update_batch(self, values: list) -> None:
        """Fold a whole column of values at once.

        Equivalent to calling :meth:`update` per value, but non-DISTINCT
        aggregates take C-level fast paths over columns whose
        :class:`ColumnVector` metadata proves them clean:

        * COUNT of a no-null column is just ``len``.
        * SUM/AVG of a clean numeric column use ``_chain_sum(values[1:],
          values[0])`` -- the *same* left-to-right chain of additions as
          the scalar path (never starting from ``0.0``, which would turn
          a leading ``-0.0`` into ``+0.0``), so float totals stay
          bit-identical to a per-value fold.  A per-batch sum folded into
          the running total afterwards would re-associate the additions
          and drift in the last ulps.
        * MIN/MAX use the builtins only on pure-int columns, where ``<``
          agrees exactly with ``compare_values`` (no NaN, no cross-type
          surprises).
        """
        columnar = type(values) is ColumnVector
        func = self.spec.func
        if self.seen is not None or func in ("MIN", "MAX"):
            if (
                self.seen is None
                and columnar
                and values.kind == "int"
                and not values.has_null
                and values
            ):
                extreme = min(values) if func == "MIN" else max(values)
                self.count += len(values)
                if self.extreme is None:
                    self.extreme = extreme
                elif func == "MIN":
                    if compare_values(extreme, self.extreme) < 0:
                        self.extreme = extreme
                elif compare_values(extreme, self.extreme) > 0:
                    self.extreme = extreme
                return
            for value in values:
                self.update(value)
            return
        if func == "COUNT":
            if columnar and not values.has_null:
                self.count += len(values)
            else:
                self.count += len(values) - values.count(None)
            return
        # SUM / AVG.
        if columnar and values.is_clean_numeric:
            if not values:
                return
            self.count += len(values)
            total = self.total
            if total is None:
                self.total = (
                    _chain_sum(values[1:], values[0])
                    if len(values) > 1 else values[0]
                )
            else:
                self.total = _chain_sum(values, total)
            return
        # Generic path: same accumulation order, per-value checks.
        count = self.count
        total = self.total
        for value in values:
            if value is None:
                continue
            if not is_numeric(value):
                raise SqlTypeError(f"{func} requires numeric input, got {value!r}")
            count += 1
            total = value if total is None else total + value
        self.count = count
        self.total = total

    def update_count_star(self, n: int) -> None:
        """Fold *n* COUNT(*) rows (each row contributes the constant 1)."""
        if self.seen is not None:
            for _ in range(n):
                self.update(1)
            return
        self.count += n

    def result(self) -> Any:
        func = self.spec.func
        if func == "COUNT":
            return self.count
        if func == "SUM":
            return self.total
        if func == "AVG":
            return None if self.count == 0 else self.total / self.count
        return self.extreme


def _key_runs(keys: Sequence, limit: int) -> list[tuple[Any, int, int]] | None:
    """``(first key, start, stop)`` per run of equal adjacent *keys*.

    ``None`` as soon as a run past the *limit*-th begins: keys that
    scattered are cheaper to bucket.  ``groupby`` joins only keys that
    ``==`` (or identity) says are equal, and those already share one dict
    group, so a run never merges what grouping would keep apart.
    """
    runs = []
    start = 0
    for key, run in groupby(keys):
        if len(runs) == limit:
            return None
        stop = start + len(list(run))
        runs.append((key, start, stop))
        start = stop
    return runs


class HashAggregate(Operator):
    """Group rows by key expressions and fold aggregates per group.

    Output rows are ``group values + aggregate values`` in declaration
    order; *layout* must match.

    The build (consume the child, fold every group) runs inside one root
    pull, so between pulls the aggregate is either untouched -- the
    child's position is its checkpoint -- or emitting, where the result
    rows and the emit cursor are.  Under memory pressure the partials are
    treated as spilled and the extra re-aggregation passes are charged as
    work at build end.
    """

    def __init__(
        self,
        child: Operator,
        group_exprs: Sequence[BoundExpr],
        aggregates: Sequence[AggSpec],
        layout: Layout,
        rows_per_page: int = 50,
    ) -> None:
        if len(layout) != len(group_exprs) + len(aggregates):
            raise ValueError("aggregate layout arity mismatch")
        super().__init__(layout, child.account)
        self.child = child
        self.group_exprs = list(group_exprs)
        self.aggregates = list(aggregates)
        self.rows_per_page = rows_per_page
        #: ``"idle"`` / ``"build"`` / ``"emit"`` -- the current phase.
        self._phase = "idle"
        #: Group key -> partials, in creation order; only while building.
        self._groups: dict[tuple, list[_AggState]] = {}
        self._pending: list[tuple] = []
        self._emitted = 0
        self._reserved = 0
        self._degraded = False
        self._resume: dict | None = None

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    # ------------------------------------------------------------------
    # Checkpoint/restore
    # ------------------------------------------------------------------

    def checkpoint(self) -> dict | None:
        if self._phase == "emit":
            # Child fully consumed: the result rows and cursor suffice.
            # ``_pending`` is never mutated once built (a re-run rebinds
            # it), so every emit-phase checkpoint shares it; restore copies.
            return {
                "phase": "emit",
                "pending": self._pending,
                "emitted": self._emitted,
            }
        if self._phase == "build":
            # Only seen from inside a pull, or after one raised.
            return None
        child_state = self.child.checkpoint()
        if child_state is None:
            return None
        return {"phase": "idle", "child": child_state}

    def restore(self, state: dict) -> None:
        self._resume = state
        if state["phase"] == "idle":
            self.child.restore(state["child"])

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    def _resume_emit(self) -> bool:
        """Take a pending restore; ``True`` if it resumes the emit phase."""
        resume = self._resume
        self._resume = None
        if resume is None or resume["phase"] != "emit":
            return False
        self._phase = "emit"
        self._pending = list(resume["pending"])
        self._emitted = resume["emitted"]
        return True

    def _begin_build(self) -> None:
        self._phase = "build"
        self._groups = {}
        self._degraded = False
        self._reserved = 0

    def _new_group(self, key: tuple) -> list[_AggState]:
        """Create group *key*'s partials, reserving them with the governor."""
        states = [_AggState(spec) for spec in self.aggregates]
        self._groups[key] = states
        gov = self.account.memory
        if gov is not None and not self._degraded:
            self._reserved += 1
            if not gov.reserve("HashAggregate"):
                # Degrade: treat the partials as spilled from here on; the
                # re-aggregation passes are charged at build end.
                self._degraded = True
                gov.release(self._reserved)
                self._reserved = 0
                gov.record(
                    "HashAggregate", "degrade",
                    "group partials over budget: spill fallback",
                )
        return states

    def _finish_build(self) -> None:
        """Charge any spill passes, compute the result rows, start emitting."""
        gov = self.account.memory
        if self._degraded and gov is not None:
            group_count = len(self._groups)
            passes = math.ceil(group_count / gov.budget_rows)
            extra = (passes - 1) * 2.0 * math.ceil(
                group_count / self.rows_per_page
            )
            if extra > 0:
                self.account.charge(extra)
                gov.record(
                    "HashAggregate", "spill",
                    f"{passes} re-aggregation passes over {group_count} "
                    f"groups (+{extra:g} U)",
                )

        if not self._groups and not self.group_exprs:
            # Global aggregate over empty input: one row of identities.
            self._pending = [
                tuple(_AggState(spec).result() for spec in self.aggregates)
            ]
        else:
            self._pending = [
                key + tuple(state.result() for state in states)
                for key, states in self._groups.items()
            ]
        # The partials die with the build, not with the operator.
        self._groups = {}
        if gov is not None and self._reserved:
            gov.release(self._reserved)
            self._reserved = 0
        self._phase = "emit"
        self._emitted = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def batches(self, outer_env: Optional[Env] = None) -> Iterator[list]:
        if not self._resume_emit():
            self._begin_build()
            fold = self._fold_grouped if self.group_exprs else self._fold_global
            for batch in self.child.batches(outer_env):
                arg_columns = [
                    spec.arg(batch, outer_env)
                    if spec.arg is not None else None
                    for spec in self.aggregates
                ]
                fold(batch, arg_columns, outer_env)
            self._finish_build()
        yield from self._emit_batches(self._emitted)

    def _fold_global(self, batch: list, arg_columns: list, outer_env) -> None:
        states = self._groups.get(())
        if states is None:
            states = self._new_group(())
        for state, column in zip(states, arg_columns):
            if column is None:
                state.update_count_star(len(batch))
            else:
                state.update_batch(column)

    def _fold_grouped(self, batch: list, arg_columns: list, outer_env) -> None:
        """Fold one batch into its groups, a run of equal keys at a time.

        Input that arrives clustered on the key (a table stored in key
        order, a sorted or merged stream) holds a few long runs per batch:
        each costs one group lookup and, per aggregate, one fold of a
        contiguous slice.  A clean SUM/AVG folds as ``_chain_sum(col[s+1:e],
        col[s])`` or ``_chain_sum(col[s:e], total)`` -- the left-to-right chain
        of a per-row fold -- and anything else goes through
        :meth:`_AggState.update_batch` on the slice.  Groups are created in
        order of first appearance and each group's rows fold in stream
        order, so results, group order and governor reservations do not
        depend on the batch width.  A batch whose keys change more often than every
        eighth row is bucketed by key instead (:meth:`_fold_buckets`).
        """
        key_columns = [g(batch, outer_env) for g in self.group_exprs]
        single = len(key_columns) == 1
        keys = key_columns[0] if single else list(zip(*key_columns))
        n = len(keys)
        runs = _key_runs(keys, max(n >> 3, 1))
        if runs is None:
            self._fold_buckets(keys, single, arg_columns)
            return
        clean_sums = [
            column is not None
            and type(column) is ColumnVector
            and column.is_clean_numeric
            and spec.func in ("SUM", "AVG")
            and not spec.distinct
            for spec, column in zip(self.aggregates, arg_columns)
        ]
        groups = self._groups
        for key, start, stop in runs:
            if single:
                key = (key,)
            states = groups.get(key)
            if states is None:
                states = self._new_group(key)
            for state, column, clean_sum in zip(states, arg_columns, clean_sums):
                if column is None:
                    state.update_count_star(stop - start)
                elif clean_sum:
                    state.count += stop - start
                    total = state.total
                    if total is None:
                        state.total = _chain_sum(
                            column[start + 1:stop], column[start]
                        )
                    else:
                        state.total = _chain_sum(column[start:stop], total)
                elif stop - start == n:
                    state.update_batch(column)
                else:
                    state.update_batch(take_values(column, range(start, stop)))

    def _fold_buckets(self, keys: list, single: bool, arg_columns: list) -> None:
        """Fold a batch with scattered keys: bucket row indices by key first
        (insertion order = first appearance, the group creation order of
        a per-row fold), then fold each group's rows in one
        ``update_batch`` call.  Within a group the stream order is
        preserved, so float totals stay identical to per-row accumulation.
        A single key column is bucketed by its bare values, which a dict
        tells apart exactly as it does their 1-tuples.
        """
        buckets: dict[Any, list[int]] = {}
        for i, key in enumerate(keys):
            idxs = buckets.get(key)
            if idxs is None:
                buckets[key] = [i]
            else:
                idxs.append(i)
        groups = self._groups
        for key, idxs in buckets.items():
            if single:
                key = (key,)
            states = groups.get(key)
            if states is None:
                states = self._new_group(key)
            for state, column in zip(states, arg_columns):
                if column is None:
                    state.update_count_star(len(idxs))
                elif len(idxs) == len(keys):
                    state.update_batch(column)
                else:
                    # Gather the group's slice; ColumnVector metadata
                    # carries over so the fast paths stay live.
                    state.update_batch(take_values(column, idxs))

    def _emit_batches(self, start: int) -> Iterator[list]:
        cap = max(self.batch_size, 1)
        pending = self._pending
        total = len(pending)
        position = start
        while position < total:
            end = min(position + cap, total)
            chunk = pending[position:end]
            self._emitted = end
            yield chunk
            position = end

    def describe(self) -> str:
        aggs = ", ".join(s.func for s in self.aggregates)
        suffix = " (spilled partials)" if self._degraded else ""
        return f"HashAggregate groups={len(self.group_exprs)} aggs=[{aggs}]{suffix}"
