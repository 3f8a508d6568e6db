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
from typing import TYPE_CHECKING

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

    def progress_reading(self) -> tuple[float, float]:
        """Remaining cost and completed work, in one call.

        The fields :meth:`snapshot` takes from the job.  Job types that can
        read both in one pass (engine jobs) override this.
        """
        return self.estimated_remaining_cost(), self.completed_work

    def snapshot(self) -> QuerySnapshot:
        """This job as a :class:`QuerySnapshot` for the PI algorithms."""
        remaining, done = self.progress_reading()
        return QuerySnapshot(
            self.query_id, 0.0 if 0.0 > remaining else remaining, done,
            self.weight, self.priority,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} {self.query_id!r} "
            f"done={self.completed_work:.1f} rem~{self.estimated_remaining_cost():.1f}>"
        )


class SyntheticJob(Job):
    """A job with an exactly known total cost in U's."""

    def __init__(
        self,
        query_id: str,
        cost: float,
        priority: int = 0,
        weight: float | None = None,
        initial_done: float = 0.0,
        deadline: float | None = None,
    ) -> None:
        super().__init__(query_id, priority, weight, deadline=deadline)
        if cost < 0:
            raise ValueError("cost must be >= 0")
        if not 0.0 <= initial_done <= cost:
            raise ValueError("initial_done must be within [0, cost]")
        self.total_cost = float(cost)
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


class EngineJob(Job):
    """A job backed by a steppable SQL-engine execution.

    The engine's :class:`~repro.engine.executor.QueryExecution` exposes
    ``step(units)`` (run up to that much work) and a progress tracker with a
    refined remaining-cost estimate.  The simulator neither knows nor needs
    the true total cost -- the job is done when the executor says so.
    """

    def __init__(
        self,
        query_id: str,
        execution: "QueryExecution",
        priority: int = 0,
        weight: float | None = None,
        deadline: float | None = None,
    ) -> None:
        super().__init__(query_id, priority, weight, deadline=deadline)
        self._execution = execution

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

    def progress_reading(self) -> tuple[float, float]:
        # One tracker pass; its paid work is ``execution.paid_work``.
        return self._execution.progress.read()

    def advance(self, work: float) -> float:
        if work < 0:
            raise ValueError("work must be >= 0")
        if self.finished:
            return 0.0
        return self._execution.step(work)


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

    def advance(self, work: float) -> float:
        return self._inner.advance(work)
