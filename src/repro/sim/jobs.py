"""Job abstractions executed by the simulated RDBMS.

A *job* is one query's worth of work.  The simulator only needs four things
from a job: how much work it has done, an estimate of what remains, a way to
push it forward by some amount of work, and whether it has finished.

Two families are provided:

* :class:`SyntheticJob` -- the cost is an exact, known number of U's.  This
  realises the paper's Assumption 2 (perfect knowledge of remaining cost)
  and is what the analytical experiments use.
* :class:`EngineJob` -- wraps a steppable :mod:`repro.engine` execution whose
  *true* remaining work is unknown until it finishes; the job reports the
  engine progress tracker's refined estimate instead.  This reproduces the
  realistic regime where PI inputs are imprecise (paper Section 4).

:class:`CostNoiseJob` decorates any job with multiplicative estimation error
for the assumption-violation ablations.
"""

from __future__ import annotations

import abc
from typing import Callable, TYPE_CHECKING

from repro.core.model import QuerySnapshot, weight_for_priority

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.executor import QueryExecution


class Job(abc.ABC):
    """One query's work, as scheduled by the simulator."""

    def __init__(
        self,
        query_id: str,
        priority: int = 0,
        weight: float | None = None,
        deadline: float | None = None,
    ):
        self.query_id = query_id
        self.priority = priority
        self.weight = weight_for_priority(priority) if weight is None else float(weight)
        if self.weight <= 0:
            raise ValueError("weight must be > 0")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be > 0 seconds")
        #: Relative deadline in seconds from submission, or None.  The
        #: simulated RDBMS converts it to an absolute expiry at submit
        #: time and aborts the query when it passes.
        self.deadline = deadline

    @property
    @abc.abstractmethod
    def completed_work(self) -> float:
        """Work completed so far, in U's."""

    @property
    @abc.abstractmethod
    def finished(self) -> bool:
        """Whether the job has run to completion."""

    @abc.abstractmethod
    def estimated_remaining_cost(self) -> float:
        """Best current estimate of the remaining work, in U's.

        For synthetic jobs this is exact; for engine jobs it is the refined
        optimizer estimate and may be wrong.
        """

    @abc.abstractmethod
    def advance(self, work: float) -> float:
        """Execute up to *work* U's; return the work actually consumed.

        Returns less than *work* only when the job finishes mid-grant.
        """

    def memory_pressure_events(self) -> int:
        """Memory-governance incidents so far (engine jobs override)."""
        return 0

    def progress_reading(self) -> tuple[float, float, int]:
        """Remaining cost, completed work and memory pressure, in one call.

        The fields :meth:`snapshot` takes from the job.  Job types that can
        read all three in one pass (engine jobs) override this.
        """
        return (
            self.estimated_remaining_cost(),
            self.completed_work,
            self.memory_pressure_events(),
        )

    def snapshot(self) -> QuerySnapshot:
        """This job as a :class:`QuerySnapshot` for the PI algorithms."""
        remaining, done, pressure = self.progress_reading()
        return QuerySnapshot(
            self.query_id, 0.0 if 0.0 > remaining else remaining, done,
            self.weight, self.priority, pressure,
        )

    def retry_copy(self) -> "Job":
        """A fresh, zero-progress copy of this job for retry resubmission.

        Used by the retry layer after a runtime failure: the failed attempt's
        partial work is lost and the query starts over.  Job types whose
        execution state cannot be recreated (engine-backed jobs hold a live
        executor) raise :class:`NotImplementedError`; callers then must
        supply an explicit job factory to the retry controller.
        """
        raise NotImplementedError(
            f"{type(self).__name__} cannot be restarted automatically; "
            "pass an explicit job_factory to the retry controller"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} {self.query_id!r} "
            f"done={self.completed_work:.1f} rem~{self.estimated_remaining_cost():.1f}>"
        )


class SyntheticJob(Job):
    """A job with an exactly known total cost in U's.

    With a ``checkpoint_interval`` the job models work-preserving
    checkpoints every so many U's: a retry copy restarts from the last
    interval mark below the crash point instead of from zero.
    """

    def __init__(
        self,
        query_id: str,
        cost: float,
        priority: int = 0,
        weight: float | None = None,
        initial_done: float = 0.0,
        deadline: float | None = None,
        checkpoint_interval: float | None = None,
    ) -> None:
        super().__init__(query_id, priority, weight, deadline=deadline)
        if cost < 0:
            raise ValueError("cost must be >= 0")
        if not 0.0 <= initial_done <= cost:
            raise ValueError("initial_done must be within [0, cost]")
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be > 0")
        self.total_cost = float(cost)
        self.checkpoint_interval = checkpoint_interval
        self._done = float(initial_done)

    @property
    def completed_work(self) -> float:
        return self._done

    @property
    def finished(self) -> bool:
        return self._done >= self.total_cost - 1e-12

    def estimated_remaining_cost(self) -> float:
        return max(self.total_cost - self._done, 0.0)

    def true_remaining_cost(self) -> float:
        """Exact remaining work (same as the estimate for synthetic jobs)."""
        return self.estimated_remaining_cost()

    def advance(self, work: float) -> float:
        if work < 0:
            raise ValueError("work must be >= 0")
        consumed = min(work, self.total_cost - self._done)
        self._done += consumed
        return consumed

    def retry_copy(self) -> "SyntheticJob":
        """A retry copy: zero progress, or the last checkpoint mark.

        Without a checkpoint interval all partial work is lost.  With one,
        the copy starts from ``floor(done / interval) * interval`` -- the
        most recent checkpoint the crashed attempt had completed.
        """
        preserved = 0.0
        if self.checkpoint_interval is not None:
            marks = int(self._done / self.checkpoint_interval)
            preserved = min(marks * self.checkpoint_interval, self.total_cost)
        return SyntheticJob(
            self.query_id, self.total_cost, priority=self.priority,
            weight=self.weight, initial_done=preserved,
            deadline=self.deadline,
            checkpoint_interval=self.checkpoint_interval,
        )


class EngineJob(Job):
    """A job backed by a steppable SQL-engine execution.

    The engine's :class:`~repro.engine.executor.QueryExecution` exposes
    ``step(units)`` (run up to that much work) and a progress tracker with a
    refined remaining-cost estimate.  The simulator neither knows nor needs
    the true total cost -- the job is done when the executor says so.

    With a ``prepare`` factory (a zero-argument callable returning a fresh
    execution of the same SQL) the job becomes retryable: a retry copy
    plans the query anew and, when the failed execution took a
    work-preserving checkpoint, resumes from it instead of starting over.
    """

    def __init__(
        self,
        query_id: str,
        execution: "QueryExecution",
        priority: int = 0,
        weight: float | None = None,
        deadline: float | None = None,
        prepare: Callable[[], "QueryExecution"] | None = None,
    ) -> None:
        super().__init__(query_id, priority, weight, deadline=deadline)
        self._execution = execution
        self._prepare = prepare

    @property
    def execution(self) -> "QueryExecution":
        """The underlying engine execution (for result retrieval)."""
        return self._execution

    @property
    def completed_work(self) -> float:
        # Paid (budget-conserving) work, not charged work: batch-mode
        # executions charge in spikes and repay from later budgets, and
        # the simulator's accounting must move with the budgets it grants.
        return self._execution.paid_work

    @property
    def finished(self) -> bool:
        return self._execution.finished

    def estimated_remaining_cost(self) -> float:
        return self._execution.progress.estimated_remaining_cost()

    def memory_pressure_events(self) -> int:
        return self._execution.progress.memory_pressure_events()

    def progress_reading(self) -> tuple[float, float, int]:
        # One tracker pass; its paid work is ``execution.paid_work``.
        return self._execution.progress.read()

    def advance(self, work: float) -> float:
        if work < 0:
            raise ValueError("work must be >= 0")
        if self.finished:
            return 0.0
        return self._execution.step(work)

    def retry_copy(self) -> "EngineJob":
        """A fresh execution, resumed from the last checkpoint if one exists."""
        if self._prepare is None:
            return super().retry_copy()  # raises NotImplementedError
        execution = self._prepare()
        ckpt = self._execution.last_checkpoint
        if ckpt is not None:
            execution.restore(ckpt)
        return EngineJob(
            self.query_id, execution, priority=self.priority,
            weight=self.weight, deadline=self.deadline,
            prepare=self._prepare,
        )


class CostNoiseJob(Job):
    """Decorator that corrupts a job's remaining-cost *estimates*.

    The underlying job executes normally, but
    :meth:`estimated_remaining_cost` is scaled by ``error_factor``.  This
    violates Assumption 2 in a controlled way, for the Section 4 ablations.
    """

    def __init__(self, inner: Job, error_factor: float) -> None:
        super().__init__(
            inner.query_id, inner.priority, inner.weight, deadline=inner.deadline
        )
        if error_factor <= 0:
            raise ValueError("error_factor must be > 0")
        self._inner = inner
        self._factor = float(error_factor)

    @property
    def inner(self) -> Job:
        """The wrapped job."""
        return self._inner

    @property
    def completed_work(self) -> float:
        return self._inner.completed_work

    @property
    def finished(self) -> bool:
        return self._inner.finished

    def estimated_remaining_cost(self) -> float:
        return self._inner.estimated_remaining_cost() * self._factor

    def memory_pressure_events(self) -> int:
        return self._inner.memory_pressure_events()

    def advance(self, work: float) -> float:
        return self._inner.advance(work)

    def retry_copy(self) -> "CostNoiseJob":
        """A fresh copy wrapping a retry copy of the inner job."""
        return CostNoiseJob(self._inner.retry_copy(), self._factor)
