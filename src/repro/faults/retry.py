"""Retry policy and controller: resubmit failed queries with backoff.

A real workload manager does not let a transient crash discard a query: it
resubmits, with exponential backoff so a persistently failing query cannot
monopolise the admission queue.  This module provides that loop for the
simulated RDBMS:

* :class:`RetryPolicy` -- attempts cap, exponential backoff in virtual
  time (x :data:`BACKOFF_MULTIPLIER` per attempt), and *deterministic*
  jitter of :data:`JITTER` (hashed from the query id and attempt number,
  so runs are reproducible without a shared RNG).
* :class:`RetryController` -- subscribes to the RDBMS ``on_failure`` hook;
  on each failure it either schedules a resubmission
  (:meth:`~repro.sim.rdbms.SimulatedRDBMS.resubmit`) after the policy's
  delay, or gives up once the attempts cap is reached.  Attempt history
  lands on the :class:`~repro.sim.rdbms.QueryRecord` and the query's
  trace, so progress indicators can account for redone work.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.sim.jobs import Job
from repro.sim.rdbms import SimulatedRDBMS

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a hard dep
    from repro.qos.breaker import CircuitBreaker

#: Exponential growth factor of the backoff per further attempt.
BACKOFF_MULTIPLIER = 2.0
#: Symmetric jitter fraction: each delay is scaled by a deterministic
#: factor in ``[1 - JITTER, 1 + JITTER]`` derived from the query id and
#: attempt number.  Zero jitter would resubmit every query that one node
#: crash killed at the same virtual instant -- a retry storm.
JITTER = 0.1


def _unit_hash(query_id: str, attempt: int) -> float:
    """Deterministic pseudo-random number in [0, 1) from (query_id, attempt).

    Uses CRC32 rather than :func:`hash` because the latter is salted per
    process for strings -- backoff schedules must be stable across runs.
    """
    return zlib.crc32(f"{query_id}#{attempt}".encode()) / 2**32


@dataclass(frozen=True)
class RetryPolicy:
    """How failed queries are retried.

    Attributes
    ----------
    max_attempts:
        Total execution attempts allowed per query, including the first
        (``1`` disables retries).
    base_delay:
        Backoff before the second attempt, in virtual seconds.
    """

    max_attempts: int = 3
    base_delay: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not math.isfinite(self.base_delay) or self.base_delay < 0:
            raise ValueError(f"base_delay must be finite and >= 0, got {self.base_delay}")

    def delay(
        self,
        failed_attempts: int,
        query_id: str = "",
        breaker: "CircuitBreaker | None" = None,
        now: float = 0.0,
    ) -> float:
        """Backoff delay after *failed_attempts* attempts have failed.

        ``failed_attempts`` is 1 after the first failure.  The delay grows
        as ``base_delay * BACKOFF_MULTIPLIER ** (failed_attempts - 1)``,
        then is jittered deterministically per ``(query_id,
        failed_attempts)``.

        When the target node's circuit *breaker* is open at virtual time
        *now*, the breaker's remaining cooldown replaces the backoff: a
        retry before the breaker would even let the request through is a
        futile attempt, so the schedule waits for the half-open probe
        window instead of burning backoff steps.  A closed (or half-open)
        breaker leaves the backoff sequence byte-identical to the
        breaker-less path.
        """
        if failed_attempts < 1:
            raise ValueError(f"failed_attempts must be >= 1, got {failed_attempts}")
        if breaker is not None:
            hold = breaker.retry_after(now)
            if hold > 0:
                return hold
        d = self.base_delay * BACKOFF_MULTIPLIER ** (failed_attempts - 1)
        return d * (
            1.0 + JITTER * (2.0 * _unit_hash(query_id, failed_attempts) - 1.0)
        )


@dataclass(frozen=True)
class RetryEvent:
    """One retry-layer decision: a scheduled resubmission or a give-up."""

    time: float
    query_id: str
    #: ``"scheduled"``, ``"resubmitted"``, or ``"gave-up"``.
    action: str
    attempt: int
    detail: str = ""


#: Given the failed job and the next attempt number, build the fresh job to
#: resubmit.  The default uses :meth:`repro.sim.jobs.Job.retry_copy`.
JobFactory = Callable[[Job, int], Job]


class RetryController:
    """Automatically resubmit failed queries under a :class:`RetryPolicy`.

    Attach one controller per RDBMS *before* running the simulation; it
    hooks ``on_failure`` and schedules resubmissions as virtual-time
    events.  Queries whose jobs cannot be recreated automatically
    (engine-backed executions) need an explicit ``job_factory``.

    Parameters
    ----------
    rdbms:
        The simulator to protect.
    policy:
        The retry policy; defaults to 3 attempts with 1s/2x backoff.
    job_factory:
        ``(failed_job, next_attempt) -> fresh Job``.  Defaults to
        ``failed_job.retry_copy()``.
    """

    def __init__(
        self,
        rdbms: SimulatedRDBMS,
        policy: RetryPolicy | None = None,
        job_factory: JobFactory | None = None,
    ) -> None:
        self._rdbms = rdbms
        self.policy = policy if policy is not None else RetryPolicy()
        self._factory = job_factory
        #: Chronological log of retry decisions.
        self.events: list[RetryEvent] = []
        #: Query ids the controller stopped retrying (cap reached, drain,
        #: or an unreproducible job), in give-up order.
        self.given_up: list[str] = []
        rdbms.on_failure.append(self._on_failure)

    def _log(self, query_id: str, action: str, attempt: int, detail: str = "") -> None:
        self.events.append(
            RetryEvent(
                time=self._rdbms.clock,
                query_id=query_id,
                action=action,
                attempt=attempt,
                detail=detail,
            )
        )

    def _give_up(self, query_id: str, attempt: int, why: str) -> None:
        self.given_up.append(query_id)
        self._log(query_id, "gave-up", attempt, why)
        record = self._rdbms.record(query_id)
        record.trace.record_fault(self._rdbms.clock, "retry-exhausted", why)
        # The abandoned attempt's work is lost in full.
        record.trace.record_attempt_work(0.0, record.job.completed_work)

    def _on_failure(self, time: float, query_id: str, reason: str) -> None:
        record = self._rdbms.record(query_id)
        attempts = record.attempts
        if attempts >= self.policy.max_attempts:
            self._give_up(
                query_id, attempts,
                f"attempt {attempts}/{self.policy.max_attempts} failed: {reason}",
            )
            return
        delay = self.policy.delay(attempts, query_id)
        self._log(
            query_id, "scheduled", attempts + 1,
            f"retry in {delay:g}s after: {reason}",
        )
        self._rdbms.add_event(
            time + delay, lambda rdbms, qid=query_id: self._resubmit(qid)
        )

    def _resubmit(self, query_id: str) -> None:
        record = self._rdbms.record(query_id)
        if record.status != "failed":
            return  # finished/aborted/resubmitted by someone else meanwhile
        if self._rdbms.draining:
            self._give_up(query_id, record.attempts, "system draining")
            return
        next_attempt = record.attempts + 1
        try:
            if self._factory is not None:
                job = self._factory(record.job, next_attempt)
            else:
                job = record.job.retry_copy()
        except NotImplementedError as exc:
            self._give_up(query_id, record.attempts, str(exc))
            return
        # Work accounting: whatever the replacement starts with was carried
        # over from a checkpoint (work-preserving recovery); the rest of the
        # failed attempt's work is redone from scratch, i.e. lost.
        failed_work = record.job.completed_work
        preserved = min(max(job.completed_work, 0.0), failed_work)
        lost = max(failed_work - preserved, 0.0)
        record.trace.record_attempt_work(preserved, lost)
        self._rdbms.resubmit(job)
        self._log(
            query_id, "resubmitted", next_attempt,
            f"preserved {preserved:g} U, lost {lost:g} U",
        )

    def retried(self, query_id: str) -> int:
        """Number of resubmissions performed so far for *query_id*."""
        return sum(
            1
            for e in self.events
            if e.query_id == query_id and e.action == "resubmitted"
        )
