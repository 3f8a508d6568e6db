"""Cooperative query execution in work-unit budgets.

:class:`QueryExecution` wraps a planned operator tree and advances it with
``step(budget_units)``: the root iterator is pulled until at least that much
work has been charged (or the query finishes).  A single pull can overshoot
its budget -- e.g. one outer tuple of the paper's query triggers a whole
correlated index probe -- so the execution keeps a *work debt* and repays it
from subsequent budgets, preserving long-run conservation when a simulator
timeshares many queries.

Executions can also be made **work-preserving**: with a
``checkpoint_interval`` the execution snapshots its operator tree every so
many U's of work (an :class:`ExecutionCheckpoint`), and a fresh execution
of the same SQL can be :meth:`restored <QueryExecution.restore>` from such
a snapshot -- it re-emits nothing, re-charges nothing, and its work counter
is pre-credited with the preserved work.  A checkpoint costs the rows
emitted *since the previous one*: the execution appends its output to a
private append-only row log, and a checkpoint is a length into that log,
not a copy of it.  A
:class:`~repro.engine.cancel.CancellationToken` threaded through the
account aborts the pull loop promptly (checked on every charge and on
every ``step``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.engine.errors import ExecutionError
from repro.engine.operators.base import (
    Operator,
    PlanState,
    WorkAccount,
    configure_batch_size,
)
from repro.engine.progress import ProgressTracker
from repro.engine.vector import Chunk
from repro.obs.runtime import Observability, resolve

_SENTINEL = object()

#: Rows per operator output batch, unless an execution asks for another.
DEFAULT_BATCH_SIZE = 1024


@dataclass(frozen=True)
class ExecutionCheckpoint:
    """A detached, resumable snapshot of one query execution.

    Plain data only: it stays valid after the execution (or the whole
    simulated backend) that produced it is gone.  ``plan_state`` is the
    operator tree's recursive state as produced by
    :meth:`~repro.engine.operators.base.Operator.checkpoint`.

    The output rows are not copied into the checkpoint: it holds the
    producing execution's append-only row log and the length of its own
    prefix, so every checkpoint of one execution shares one flat list and
    taking one costs nothing per row already emitted.  The log only ever
    grows past ``rows_emitted``; nothing rewrites the prefix.
    """

    sql: str
    work_done: float
    plan_state: PlanState = field(repr=False)
    #: Charged-but-unpaid work at snapshot time.  Execution charges in
    #: spikes and repays from later budgets; preserving the debt keeps a
    #: restored run time-conserving (it still owes the scheduler what the
    #: crashed attempt had banked).
    debt: float
    #: Output rows already produced at checkpoint time.
    rows_emitted: int
    _log: list[tuple] = field(repr=False, compare=False)

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The rows produced before the checkpoint, materialised on demand."""
        return tuple(self._log[: self.rows_emitted])

    def __eq__(self, other: object) -> bool:
        # Two checkpoints are equal when their *prefixes* are, whatever
        # the logs they share have grown to since.
        if not isinstance(other, ExecutionCheckpoint):
            return NotImplemented
        return (
            self.sql, self.work_done, self.plan_state, self.debt, self.rows
        ) == (
            other.sql, other.work_done, other.plan_state, other.debt, other.rows
        )


class QueryExecution:
    """One query's cooperative execution state."""

    def __init__(
        self,
        root: Operator,
        account: WorkAccount,
        sql: str = "",
        checkpoint_interval: Optional[float] = None,
        obs: Optional[Observability] = None,
        batch_size: Optional[int] = None,
    ) -> None:
        if checkpoint_interval is not None and not (
            math.isfinite(checkpoint_interval) and checkpoint_interval > 0
        ):
            raise ExecutionError("checkpoint_interval must be finite and > 0")
        self.batch_size = batch_size if batch_size is not None else DEFAULT_BATCH_SIZE
        configure_batch_size(root, self.batch_size)
        self.root = root
        self.account = account
        self.sql = sql
        self.checkpoint_interval = checkpoint_interval
        self.progress = ProgressTracker(
            root,
            account,
            optimizer_estimate=root.est_cost,
            outstanding_debt=lambda: self._debt,
        )
        self.rows: list[tuple] = []
        #: Append-only log of every row emitted, shared with this
        #: execution's checkpoints (each is a length into it).  Kept apart
        #: from :attr:`rows`, which callers own and may reorder or clear.
        self._log: list[tuple] = []
        #: Most recent checkpoint taken (by cadence or explicitly).
        self.last_checkpoint: Optional[ExecutionCheckpoint] = None
        #: The checkpoint this execution was restored from, if any.
        self.restored_from: Optional[ExecutionCheckpoint] = None
        #: The restored plan state until the first pull consumes it: the
        #: operators are primed, not yet resumed, so a checkpoint taken in
        #: between (debt repayment comes first) must hand this on rather
        #: than read their still-fresh run-time state.
        self._primed_plan_state: Optional[PlanState] = None
        #: Number of checkpoints successfully taken.
        self.checkpoints_taken = 0
        self._iterator: Optional[Iterator[list]] = None
        self._finished = False
        self._debt = 0.0
        self._next_checkpoint_at = (
            checkpoint_interval if checkpoint_interval is not None else math.inf
        )
        #: Paid-work cadence mark: keeps checkpoints flowing while the
        #: execution is repaying banked debt (charged work -- the other
        #: cadence -- stands still during repayment).
        self._next_paid_checkpoint_at = (
            checkpoint_interval if checkpoint_interval is not None else math.inf
        )
        self._obs = resolve(obs)
        self._pressure_seen = 0

    @property
    def finished(self) -> bool:
        """Whether the query has produced all of its rows."""
        return self._finished

    @property
    def work_done(self) -> float:
        """Total work charged so far, in U's."""
        return self.account.total

    @property
    def paid_work(self) -> float:
        """Work the scheduler has actually paid for, in U's.

        Charged work minus the banked overshoot debt: the smooth,
        budget-conserving counter schedulers and speed monitors should
        read (charged work moves in batch-sized spikes).
        """
        return max(self.account.total - self._debt, 0.0)

    @property
    def cancel_token(self):
        """The cancellation token threaded through the work account."""
        return self.account.cancel_token

    @property
    def column_names(self) -> tuple[str, ...]:
        """Output column names."""
        return tuple(slot.name for slot in self.root.layout.slots)

    # ------------------------------------------------------------------
    # Checkpoint/restore
    # ------------------------------------------------------------------

    def checkpoint(self) -> Optional[ExecutionCheckpoint]:
        """Snapshot the execution now, or ``None`` if it cannot be.

        ``None`` means the plan has no cheap resumable state at this point
        (some operator in the hot path is non-checkpointable), or the
        query already finished.  Safe to call between any two ``step``
        calls -- the pipeline is suspended at a root-pull boundary.
        """
        if self._finished:
            return None
        plan_state = self._primed_plan_state
        if plan_state is None:
            plan_state = self.root.checkpoint()
        if plan_state is None:
            return None
        previous = self.last_checkpoint
        ckpt = ExecutionCheckpoint(
            sql=self.sql,
            work_done=self.account.total,
            plan_state=plan_state,
            debt=self._debt,
            rows_emitted=len(self._log),
            _log=self._log,
        )
        self.last_checkpoint = ckpt
        self.checkpoints_taken += 1
        self._next_paid_checkpoint_at = (
            self.paid_work + (self.checkpoint_interval or math.inf)
        )
        if self._obs is not None:
            # Rows the log gained since the previous checkpoint (or the
            # one restored from): all a checkpoint adds to what is stored.
            rows_new = ckpt.rows_emitted - (
                previous.rows_emitted if previous is not None else 0
            )
            self._obs.metrics.counter("executor.checkpoints").inc()
            self._obs.metrics.counter("executor.checkpoint.rows_copied").inc(
                rows_new
            )
            # Engine executions have no simulation clock: virtual_time=None.
            self._obs.tracer.emit(
                "executor.checkpoint", None,
                work_done=ckpt.work_done, rows=ckpt.rows_emitted,
                rows_new=rows_new,
            )
        return ckpt

    def restore(self, ckpt: ExecutionCheckpoint) -> None:
        """Resume a *fresh* execution from *ckpt*.

        The execution must not have run yet: restore primes the operator
        tree, replays the already-produced rows into :attr:`rows`, and
        credits the account with the preserved work so conservation holds
        (``work_done`` continues from the checkpoint, not from zero).  The
        checkpoint's prefix seeds this execution's *own* row log: the
        attempt that took the checkpoint may still be appending to its
        log, and must never write into its successor's.
        """
        if self._iterator is not None or self._finished or self.rows:
            raise ExecutionError("restore() requires a fresh execution")
        if ckpt.sql and self.sql and ckpt.sql != self.sql:
            raise ExecutionError(
                f"checkpoint is for a different query "
                f"({ckpt.sql!r} != {self.sql!r})"
            )
        self.root.restore(ckpt.plan_state)
        self._primed_plan_state = ckpt.plan_state
        self.account.credit(ckpt.work_done)
        self._debt = ckpt.debt
        self._log = ckpt._log[: ckpt.rows_emitted]
        self.rows = self._log.copy()
        self.restored_from = ckpt
        self.last_checkpoint = ckpt
        self.progress.note_restore(ckpt.work_done)
        if self._obs is not None:
            self._obs.metrics.counter("executor.restores").inc()
            self._obs.tracer.emit(
                "executor.restore", None,
                work_done=ckpt.work_done, rows=ckpt.rows_emitted,
            )
        if self.checkpoint_interval is not None:
            self._next_checkpoint_at = (
                self.account.total + self.checkpoint_interval
            )
            self._next_paid_checkpoint_at = (
                self.paid_work + self.checkpoint_interval
            )

    def _maybe_checkpoint(self) -> None:
        """Take a cadence checkpoint if the work counter crossed the mark."""
        if self.account.total < self._next_checkpoint_at:
            return
        self.checkpoint()
        # Advance even if the snapshot failed (non-checkpointable plan):
        # retrying every row would only add overhead, not a checkpoint.
        self._next_checkpoint_at = (
            self.account.total + (self.checkpoint_interval or math.inf)
        )

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def step(self, budget: float) -> float:
        """Run until roughly *budget* more U's are consumed.

        Returns the budget consumed: exactly *budget* while running (debt
        smooths overshoot), possibly less on the step that finishes the
        query.

        Raises
        ------
        ExecutionError
            If called with a negative budget.
        QueryCancelled
            If the execution's cancellation token has fired.
        """
        if budget < 0:
            raise ExecutionError("budget must be >= 0")
        if self._finished:
            return 0.0
        if self.account.cancel_token is not None:
            # Charges also check the token; this catches zero-work pulls.
            self.account.cancel_token.raise_if_cancelled()
        if self._iterator is None:
            self._iterator = self.root.batches(None)

        if self._debt >= budget:
            # Still paying off a previous overshoot.  Refresh the stored
            # checkpoint on the paid-work cadence so a crash mid-repayment
            # does not fall back to a snapshot with the full spike's debt.
            self._debt -= budget
            if self.paid_work >= self._next_paid_checkpoint_at:
                self.checkpoint()
            return budget

        debt_start = self._debt
        effective = budget - debt_start  # > 0: at least one pull follows
        self._primed_plan_state = None
        start = self.account.total
        consumed_at_finish: Optional[float] = None
        # Inside the loop, none of this step's budget counts as paid yet:
        # keep the banked-debt view current so a cadence checkpoint taken
        # mid-spike records the full outstanding debt (a restore must not
        # forgive work the scheduler never paid for).  Cadence checkpoints
        # are taken at batch boundaries.
        while self.account.total - start < effective:
            batch = next(self._iterator, _SENTINEL)
            if batch is _SENTINEL:
                self._finished = True
                self.progress.mark_finished()
                consumed_at_finish = self.account.total - start
                break
            # Columnar chunks materialize to row tuples exactly here --
            # the query output is the last pipeline breaker.
            if type(batch) is Chunk:
                batch = batch.tuples()
            self.rows.extend(batch)
            self._log.extend(batch)
            self._debt = debt_start + (self.account.total - start)
            self._maybe_checkpoint()

        actual = self.account.total - start
        if self._obs is not None:
            self._obs.metrics.histogram("executor.step_work").observe(actual)
            pressure = self.progress.memory_pressure_events()
            if pressure > self._pressure_seen:
                self._obs.metrics.counter("executor.memory_pressure").inc(
                    pressure - self._pressure_seen
                )
                self._obs.tracer.emit(
                    "executor.memory_pressure", None,
                    events=pressure, work_done=self.account.total,
                )
                self._pressure_seen = pressure
            if self._finished:
                self._obs.metrics.counter("executor.finished").inc()
                self._obs.tracer.emit(
                    "executor.finish", None,
                    work_done=self.account.total, rows=len(self.rows),
                )
        if self._finished:
            # Pay down debt with the work actually performed this step.
            used = debt_start + (consumed_at_finish or actual)
            self._debt = 0.0
            return min(used, budget)
        # Ran past the budget: bank the overshoot as debt.
        self._debt = max(debt_start + actual - budget, 0.0)
        return budget

    def run_to_completion(self, chunk: float = 1000.0) -> list[tuple]:
        """Run the query to completion and return its rows."""
        while not self._finished:
            self.step(chunk)
        return self.rows

    def explain(self) -> str:
        """The annotated physical plan."""
        return self.root.explain()
