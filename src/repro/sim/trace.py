"""Trace recording: the time series the experiments and figures plot.

Each query accumulates a :class:`QueryTrace` -- its completed-work curve,
observed speed samples and per-estimator remaining-time estimates -- and a
:class:`TraceSet` holds them per run.  Figures 3-5 and 10 of the paper are
direct renderings of these series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.metrics import StepSeries


@dataclass(frozen=True)
class FaultEvent:
    """One resilience-relevant event in a query's lifetime.

    Recorded by the simulator: runtime errors, injected crashes,
    resubmissions, aborts and expired deadlines.  ``kind`` is a short
    machine-readable tag (``"runtime-error"``, ``"crash"``, ``"retry"``,
    ``"abort"``, ...); ``detail`` is free-form human-readable context.
    """

    time: float
    kind: str
    detail: str = ""


@dataclass
class QueryTrace:
    """All recorded series for one query."""

    query_id: str
    #: Time the query was submitted to the RDBMS.
    submitted_at: float = 0.0
    #: Time the query started running (left the admission queue).
    started_at: float | None = None
    #: Time the query finished, or None if aborted / still running.
    finished_at: float | None = None
    #: Time the query was aborted by a workload-management action, if it was.
    #: Distinct from ``failed_at``: an abort is an intentional decision.
    aborted_at: float | None = None
    #: Time the query last failed with a runtime error (engine error or
    #: injected crash), if it ever did.  Cleared markers are never rewound:
    #: a retried query keeps the time of its most recent failure here and
    #: the full history in ``fault_events``.
    failed_at: float | None = None
    #: Number of execution attempts so far (1 = never retried).
    attempts: int = 1
    #: Per-failure work accounting, one entry per failed attempt: the U's
    #: carried over into the next attempt via a checkpoint (preserved)
    #: and the U's redone or discarded (lost).  A give-up records its
    #: final all-lost entry here too.
    work_preserved: list[float] = field(default_factory=list)
    work_lost: list[float] = field(default_factory=list)
    #: Resilience events: failures, injected faults, retries, WM actions.
    fault_events: list[FaultEvent] = field(default_factory=list)
    #: Cumulative completed work (U's) over time.  With retries the series
    #: can step back down: each new attempt redoes the lost work from zero.
    work: StepSeries = field(default_factory=StepSeries)
    #: Observed execution speed (U/s) over time.
    speed: StepSeries = field(default_factory=StepSeries)
    #: Remaining-time estimates per estimator name, (time, seconds) series.
    estimates: dict[str, StepSeries] = field(default_factory=dict)

    def record_estimate(self, estimator: str, time: float, seconds: float) -> None:
        """Append one remaining-time estimate from *estimator*."""
        self.estimates.setdefault(estimator, StepSeries()).append(time, seconds)

    def record_fault(self, time: float, kind: str, detail: str = "") -> None:
        """Append one :class:`FaultEvent` to this query's history."""
        self.fault_events.append(FaultEvent(time=time, kind=kind, detail=detail))

    def record_attempt_work(self, preserved: float, lost: float) -> None:
        """Account one failed attempt's work: carried over vs discarded."""
        if preserved < 0 or lost < 0:
            raise ValueError("preserved and lost work must be >= 0")
        self.work_preserved.append(preserved)
        self.work_lost.append(lost)

    @property
    def preserved_work(self) -> float:
        """Total U's carried across retries via checkpoints."""
        return sum(self.work_preserved)

    @property
    def wasted_work(self) -> float:
        """Total U's performed by failed attempts and then discarded.

        Conservation: the gross work a query's attempts performed equals
        the last attempt's completed work plus ``wasted_work``.
        """
        return sum(self.work_lost)

    def actual_remaining(self, time: float) -> float:
        """Ground-truth remaining execution time at *time*.

        Only defined for queries that finished; raises otherwise.
        """
        if self.finished_at is None:
            raise ValueError(f"query {self.query_id!r} did not finish")
        return max(self.finished_at - time, 0.0)

    @property
    def response_time(self) -> float | None:
        """Submission-to-finish latency, if the query finished."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def queue_wait(self) -> float | None:
        """Time spent in the admission queue, if the query ever started."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at


@dataclass
class TraceSet:
    """Traces for every query in one simulated run."""

    queries: dict[str, QueryTrace] = field(default_factory=dict)

    def for_query(self, query_id: str) -> QueryTrace:
        """Get (or create) the trace of *query_id*."""
        if query_id not in self.queries:
            self.queries[query_id] = QueryTrace(query_id=query_id)
        return self.queries[query_id]

    def __contains__(self, query_id: str) -> bool:
        return query_id in self.queries

    def __getitem__(self, query_id: str) -> QueryTrace:
        return self.queries[query_id]

    def finished_queries(self) -> list[QueryTrace]:
        """Traces of queries that ran to completion, by finish time."""
        done = [t for t in self.queries.values() if t.finished_at is not None]
        return sorted(done, key=lambda t: t.finished_at)

    def last_finishing(self) -> QueryTrace:
        """The query that finished last (paper Section 5.2.3)."""
        done = self.finished_queries()
        if not done:
            raise ValueError("no query finished")
        return done[-1]
