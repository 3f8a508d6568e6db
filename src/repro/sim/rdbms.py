"""The simulated multi-query RDBMS.

:class:`SimulatedRDBMS` advances a virtual clock over a population of jobs:

* running jobs progress simultaneously at the speeds dictated by the
  :class:`~repro.sim.scheduler.SpeedModel` (weighted fair sharing by
  default -- the paper's Assumptions 1+3),
* an admission queue with a multiprogramming limit holds the overflow
  (Section 2.3),
* scripted arrival schedules submit new queries over time (Section 2.4),
* periodic samplers fire so progress indicators can observe the system,
* the workload-management actions of Section 3 (abort / block / unblock /
  priority change / drain) can be applied at any virtual time, and
* resilience hooks let the fault-injection layer (:mod:`repro.faults`)
  script failures against the system: one-shot virtual-time events
  (:meth:`SimulatedRDBMS.add_event`), forced runtime failures
  (:meth:`SimulatedRDBMS.fail`), retry resubmission
  (:meth:`SimulatedRDBMS.resubmit`) and estimate corruption
  (:meth:`SimulatedRDBMS.corrupt_estimates`), with ``on_failure`` /
  ``on_resubmit`` observer hooks.

Synthetic jobs finish at analytically exact instants.  Engine-backed jobs
(whose completion cannot be predicted) advance in small work quanta; their
recorded finish time is accurate to one quantum.
"""

from __future__ import annotations

import heapq
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Literal, Sequence

from repro.core.incremental import IncrementalSchedule
from repro.core.model import QuerySnapshot, SystemSnapshot, weight_for_priority
from repro.core.standard_case import standard_case
from repro.core.validation import validate_finite
from repro.engine.errors import EngineError
from repro.obs.runtime import Observability, resolve
from repro.sim.arrivals import ArrivalSchedule
from repro.sim.jobs import Job, SyntheticJob
from repro.sim.scheduler import SpeedModel, WeightedFairSharing
from repro.sim.trace import QueryTrace, TraceSet

Status = Literal["queued", "running", "blocked", "finished", "aborted", "failed"]

#: Numerical slack for event-time comparisons.
_EPS = 1e-9


@dataclass
class QueryRecord:
    """Lifecycle record of one submitted query."""

    job: Job
    status: Status
    trace: QueryTrace
    #: The runtime error message, for queries that fail mid-execution.
    error: str | None = None
    #: Number of execution attempts so far (1 = never resubmitted).
    attempts: int = 1
    #: Absolute virtual time at which the query's deadline expires, or
    #: None.  Set at submit time from the job's relative ``deadline`` and
    #: *not* reset by resubmission: the deadline belongs to the query,
    #: not to any one attempt.
    deadline_at: float | None = None

    @property
    def query_id(self) -> str:
        """Identifier of the underlying job."""
        return self.job.query_id

    @property
    def terminal(self) -> bool:
        """Whether the query has reached a terminal status."""
        return self.status in ("finished", "aborted", "failed")


class SamplerHandle:
    """Handle to one periodic sampler registered with the simulator.

    Lets QoS layers retune a sampler's cadence after registration: the
    degradation ladder multiplies PI-refresh intervals under overload and
    restores them when pressure clears.  ``base_interval`` remembers the
    cadence the sampler was registered with.
    """

    __slots__ = ("_rdbms", "_cell", "base_interval")

    def __init__(self, rdbms: "SimulatedRDBMS", cell: list) -> None:
        self._rdbms = rdbms
        self._cell = cell
        self.base_interval = cell[0]

    @property
    def interval(self) -> float:
        """The sampler's current firing interval, virtual seconds."""
        return self._cell[0]

    def set_interval(self, interval: float) -> None:
        """Change the cadence; the next fire is re-anchored to now+interval."""
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self._cell[0] = interval
        self._cell[1] = self._rdbms.clock + interval


class SimulatedRDBMS:
    """A virtual-time RDBMS processing concurrent queries.

    Parameters
    ----------
    processing_rate:
        Total work rate ``C`` in U/s (Assumption 1).
    multiprogramming_limit:
        Maximum concurrent queries; ``None`` for unlimited.
    speed_model:
        How capacity is divided; defaults to weighted fair sharing.
    quantum:
        Time-slice upper bound (seconds) used when jobs with unpredictable
        completion (engine jobs) are running.
    obs:
        Optional :class:`~repro.obs.runtime.Observability` bundle; defaults
        to the process-global one (usually ``None`` = disabled).  Resolved
        once here so the hot paths only pay an identity check.
    """

    def __init__(
        self,
        processing_rate: float = 1.0,
        multiprogramming_limit: int | None = None,
        speed_model: SpeedModel | None = None,
        quantum: float = 0.25,
        obs: Observability | None = None,
    ) -> None:
        if processing_rate <= 0:
            raise ValueError("processing_rate must be > 0")
        if multiprogramming_limit is not None and multiprogramming_limit < 1:
            raise ValueError("multiprogramming_limit must be >= 1 or None")
        if quantum <= 0:
            raise ValueError("quantum must be > 0")
        self.processing_rate = processing_rate
        self.multiprogramming_limit = multiprogramming_limit
        self.speed_model = speed_model or WeightedFairSharing()
        self.quantum = quantum
        self._obs = resolve(obs)

        self._clock = 0.0
        self._running: list[Job] = []
        self._queue: list[Job] = []
        self._blocked: dict[str, Job] = {}
        self._records: dict[str, QueryRecord] = {}
        self._pending: list[tuple[float, Callable[[], Job]]] = []
        self._pending_idx = 0
        self._samplers: list[list] = []  # [interval, next_time, callback]
        self._events: list[tuple[float, int, Callable[["SimulatedRDBMS"], None]]] = []
        self._event_seq = 0
        self._estimate_corruption: dict[str | None, float] = {}
        self._rejecting_arrivals = False
        #: When set (see :meth:`repro.qos.AdmissionController.attach`),
        #: scripted arrivals are routed through its ``submit`` gate
        #: instead of being admitted unconditionally.
        self.admission_controller = None
        #: Memoized earliest live deadline (None = dirty).  ``_step``
        #: consults it up to three times per slice; recomputing the O(n)
        #: record scan each time dominated large-population runs.
        self._deadline_cache: float | None = None
        #: Memoized job snapshots of the running set and of the queue,
        #: and the standard-case solve over the running ones (None =
        #: stale).  Every reader of one simulator state -- ``snapshot()``,
        #: ``remaining_times()``, ``remaining_time_of()`` -- shares one set
        #: of ``Job.snapshot()`` calls and one solve; see
        #: :meth:`_invalidate_snapshots`.  Kept only while the clock is
        #: being advanced (``_sharing_reads``): that is where one state
        #: has several readers -- the sampler callbacks and hooks of a
        #: step -- and where the next step is sure to drop them.  A
        #: simulator at rest holds no snapshots, so a driver polling once
        #: between ``run_until`` calls leaves nothing behind for the
        #: garbage collector to carry.
        self._sharing_reads = False
        self._running_snapshots: tuple[QuerySnapshot, ...] | None = None
        self._queued_snapshots: tuple[QuerySnapshot, ...] | None = None
        self._solved_cache: dict[str, float] | None = None
        #: The shared incremental schedule serving all PIs, built lazily
        #: and maintained across steps; None when invalidated.
        self._shared_schedule: IncrementalSchedule | None = None
        self.traces = TraceSet()
        #: Called with (time, query_id) when a query finishes.
        self.on_finish: list[Callable[[float, str], None]] = []
        #: Called with (time, query_id) when a query is submitted.
        self.on_arrival: list[Callable[[float, str], None]] = []
        #: Called with (time, query_id, reason) when a query fails at
        #: runtime -- whether from an engine error or an injected crash.
        self.on_failure: list[Callable[[float, str, str], None]] = []
        #: Called with (time, query_id, attempt) when a failed or aborted
        #: query is resubmitted for another attempt.
        self.on_resubmit: list[Callable[[float, str, int], None]] = []

    # ------------------------------------------------------------------
    # Observability (no-ops unless a bundle was resolved at construction)
    # ------------------------------------------------------------------

    @property
    def obs(self) -> Observability | None:
        """The observability bundle this instance reports to (or ``None``)."""
        return self._obs

    def _emit(self, event: str, query_id: str | None = None, **fields) -> None:
        """Emit a trace event stamped with the current virtual time.

        Callers on hot paths must guard with ``if self._obs is not None``
        *before* building keyword arguments, so the disabled path never
        allocates.
        """
        self._obs.tracer.emit(event, self._clock, query_id, **fields)

    def _count(self, name: str) -> None:
        self._obs.metrics.counter(name).inc()

    def _observe_population(self) -> None:
        """Refresh the population gauges after a membership change."""
        m = self._obs.metrics
        m.gauge("rdbms.running").set(len(self._running))
        m.gauge("rdbms.queued").set(len(self._queue))
        m.gauge("rdbms.blocked").set(len(self._blocked))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def clock(self) -> float:
        """Current virtual time, in seconds."""
        return self._clock

    @property
    def running(self) -> tuple[Job, ...]:
        """Jobs currently executing."""
        return tuple(self._running)

    @property
    def queued(self) -> tuple[Job, ...]:
        """Jobs in the admission queue, FIFO order."""
        return tuple(self._queue)

    @property
    def blocked(self) -> tuple[Job, ...]:
        """Jobs currently blocked by workload-management actions."""
        return tuple(self._blocked.values())

    def record(self, query_id: str) -> QueryRecord:
        """Lifecycle record of *query_id*."""
        try:
            return self._records[query_id]
        except KeyError:
            raise KeyError(f"unknown query {query_id!r}") from None

    def records(self) -> dict[str, QueryRecord]:
        """All lifecycle records, keyed by query id."""
        return dict(self._records)

    def snapshot(self) -> SystemSnapshot:
        """The system as a :class:`SystemSnapshot` for the PI algorithms.

        Remaining costs are the jobs' own (possibly imprecise) estimates,
        exactly what a real PI would read from executor counters.  Any
        active estimate corruption (see :meth:`corrupt_estimates`) is
        applied here: the PIs see the corrupted numbers, the execution
        itself is unaffected.
        """
        running = self._snapshots_of_running()
        queued = self._queued_snapshots
        if queued is None:
            queued = tuple(j.snapshot() for j in self._queue)
            if self._sharing_reads:
                self._queued_snapshots = queued
        if self._estimate_corruption:
            running = tuple(self._corrupted(s) for s in running)
            queued = tuple(self._corrupted(s) for s in queued)
        return SystemSnapshot(
            running=running,
            queued=queued,
            processing_rate=self.processing_rate,
            multiprogramming_limit=self.multiprogramming_limit,
            time=self._clock,
        )

    def _snapshots_of_running(self) -> tuple[QuerySnapshot, ...]:
        """The running jobs' own (uncorrupted) snapshots.

        Taken once per simulator state, however many readers of a
        running simulator ask.
        """
        snapshots = self._running_snapshots
        if snapshots is None:
            snapshots = tuple(j.snapshot() for j in self._running)
            if self._obs is not None:
                self._count("rdbms.snapshots.built")
            if self._sharing_reads:
                self._running_snapshots = snapshots
        return snapshots

    def _solved_remaining_times(self) -> dict[str, float]:
        """One from-scratch solve per simulator state; callers must copy."""
        solved = self._solved_cache
        if solved is None:
            solved = standard_case(
                self._snapshots_of_running(),
                self.processing_rate,
                include_stages=False,
            ).remaining_times
            if self._sharing_reads:
                self._solved_cache = solved
        return solved

    def _invalidate_snapshots(self) -> None:
        """Mark the memoized job snapshots and their solve stale.

        Must be called whenever what a ``Job.snapshot()`` would return, or
        the membership or order of the running set or the queue, may have
        changed: every step that advances jobs and every mutator.  A stale
        memo would hand PIs the estimates of an earlier state.
        """
        self._running_snapshots = None
        self._queued_snapshots = None
        self._solved_cache = None

    def _corrupted(self, snap):
        factor = self._estimate_corruption.get(
            snap.query_id, self._estimate_corruption.get(None)
        )
        if factor is None:
            return snap
        return replace(snap, remaining_cost=snap.remaining_cost * factor)

    def current_speeds(self) -> dict[str, float]:
        """Instantaneous per-query speeds, U/s."""
        return self.speed_model.speeds(self._running, self.processing_rate)

    # ------------------------------------------------------------------
    # Shared incremental schedule (one structure serves all PIs)
    # ------------------------------------------------------------------

    @property
    def shared_schedule_supported(self) -> bool:
        """Whether the running mix can be served by the shared schedule.

        True only under pure weighted fair sharing (the paper's
        Assumptions 1+3) with analytically-predictable synthetic jobs.
        Engine jobs, degraded speed models and fault-injection overlays
        (which replace ``speed_model`` with a
        :class:`~repro.sim.scheduler.ScaledSpeedModel`) make the shared
        schedule's predictions diverge from execution, so those
        configurations are solved from scratch -- once per simulator
        state, by the flat kernel, for all readers together.

        This stays false for engine jobs on purpose.  A treap earns its
        keep when the schedule outlives the refresh and few entries move
        between reads; every engine job's estimate moves every quantum,
        so mirroring them costs ``n`` ``O(log n)`` treap updates per
        *step* against one sort per *refresh* (``docs/PERFORMANCE.md``
        section 10).
        """
        return type(self.speed_model) is WeightedFairSharing and all(
            isinstance(j, SyntheticJob) for j in self._running
        )

    def shared_schedule(self) -> IncrementalSchedule | None:
        """The shared :class:`IncrementalSchedule` over the running set.

        Built lazily the first time a reader needs it, then maintained
        incrementally across admissions, completions, blocks and
        priority changes -- amortized ``O(log n)`` per change instead of
        an ``O(n log n)`` rebuild per PI refresh.  Every concurrent PI
        is served from this one structure.

        Returns ``None`` when the current configuration is unsupported
        (see :attr:`shared_schedule_supported`) or a running job carries
        a non-finite estimate; callers fall back to
        :func:`~repro.core.standard_case.standard_case`.

        The schedule reads the jobs' own uncorrupted estimates (the
        engine-internal view); :meth:`corrupt_estimates` only affects
        :meth:`snapshot`, i.e. what external PIs observe.
        """
        if not self.shared_schedule_supported:
            self._invalidate_schedule()
            return None
        if self._shared_schedule is None:
            sched = IncrementalSchedule(self.processing_rate)
            try:
                for job in self._running:
                    sched.add(job.snapshot())
            except ValueError:
                return None
            self._shared_schedule = sched
            if self._obs is not None:
                self._count("rdbms.schedule.builds")
                self._emit("schedule.build", size=len(self._running))
        return self._shared_schedule

    def remaining_time_of(self, query_id: str) -> float:
        """Remaining time of one *running* query under the current mix.

        Served from the shared schedule in ``O(log n)`` when available,
        otherwise from the one solve that all readers of this simulator
        state share while the clock is being advanced (``n`` PIs reading
        their own estimate from a sampler cost one solve, not ``n``).  Raises
        :class:`KeyError` for unknown queries and :class:`ValueError`
        when the query is not currently running.
        """
        record = self.record(query_id)
        if record.status != "running":
            raise ValueError(f"query {query_id!r} is {record.status}, not running")
        sched = self.shared_schedule()
        if sched is not None:
            return sched.remaining_time_of(query_id)
        return self._solved_remaining_times()[query_id]

    def remaining_times(self) -> dict[str, float]:
        """Remaining times of every running query, in one ``O(n)`` sweep."""
        sched = self.shared_schedule()
        if sched is not None:
            if self._obs is not None:
                self._count("rdbms.refresh.shared")
            return sched.remaining_times()
        if self._obs is not None:
            self._count("rdbms.refresh.recompute")
        # A fresh dict: callers may mutate what they get, not the memo.
        return dict(self._solved_remaining_times())

    def _invalidate_schedule(self) -> None:
        if self._shared_schedule is not None and self._obs is not None:
            self._count("rdbms.schedule.invalidations")
            self._emit("schedule.invalidate")
        self._shared_schedule = None

    def _schedule_admit(self, job: Job) -> None:
        """Mirror an admission into the shared schedule, if one is live."""
        if self._shared_schedule is None:
            return
        if not isinstance(job, SyntheticJob):
            self._invalidate_schedule()
            return
        try:
            self._shared_schedule.add(job.snapshot())
        except ValueError:
            self._invalidate_schedule()

    def _sync_schedule(self, dt: float, finished: list[Job]) -> None:
        """Advance the shared schedule alongside one simulation step.

        The queries the schedule retires must exactly match the jobs the
        simulator just finished; any divergence (changed speed model,
        numerical disagreement) invalidates the schedule so the next
        reader rebuilds from ground truth.
        """
        if not self.shared_schedule_supported:
            self._invalidate_schedule()
            return
        schedule = self._shared_schedule
        assert schedule is not None
        finished_ids = {j.query_id for j in finished}
        if dt > 0:
            for _, qid in schedule.advance(dt):
                if qid not in finished_ids:
                    self._invalidate_schedule()
                    return
        for qid in finished_ids:
            schedule.discard(qid)

    # ------------------------------------------------------------------
    # Workload submission
    # ------------------------------------------------------------------

    def submit(self, job: Job) -> QueryRecord:
        """Submit *job* now; it runs immediately or joins the queue."""
        if job.query_id in self._records:
            raise ValueError(f"duplicate query id {job.query_id!r}")
        if self._rejecting_arrivals:
            raise RuntimeError("RDBMS is draining: new queries are rejected")
        trace = self.traces.for_query(job.query_id)
        trace.submitted_at = self._clock
        record = QueryRecord(job=job, status="queued", trace=trace)
        if job.deadline is not None:
            record.deadline_at = self._clock + job.deadline
            self._invalidate_deadline_cache()
        self._records[job.query_id] = record
        self._queue.append(job)
        self._invalidate_snapshots()
        if self._obs is not None:
            self._count("rdbms.submitted")
            self._emit("query.submit", job.query_id,
                       cost=job.estimated_remaining_cost(), weight=job.weight)
        for cb in self.on_arrival:
            cb(self._clock, job.query_id)
        self._admit()
        return record

    def schedule(self, arrivals: ArrivalSchedule) -> None:
        """Register future submissions (processed as the clock reaches them)."""
        merged = self._pending[self._pending_idx :] + arrivals.sorted_entries()
        merged.sort(key=lambda e: e[0])
        self._pending = merged
        self._pending_idx = 0

    def add_sampler(
        self, interval: float, callback: Callable[["SimulatedRDBMS"], None],
        start: float | None = None,
    ) -> "SamplerHandle":
        """Invoke *callback(self)* every *interval* virtual seconds.

        Returns a :class:`SamplerHandle` so QoS layers can retune the
        cadence later (the degradation ladder coalesces PI refresh
        samplers under overload).
        """
        if interval <= 0:
            raise ValueError("interval must be > 0")
        first = self._clock + interval if start is None else start
        cell = [interval, first, callback]
        self._samplers.append(cell)
        return SamplerHandle(self, cell)

    def add_event(
        self, time: float, callback: Callable[["SimulatedRDBMS"], None]
    ) -> None:
        """Schedule *callback(self)* to fire once at virtual *time*.

        The one-shot counterpart of :meth:`add_sampler`, and the hook the
        fault-injection and retry layers script against: brownout windows,
        stall windows and backoff-delayed resubmissions are all timed
        events.  Events count as outstanding work for
        :meth:`run_to_completion`, so a scheduled retry is never silently
        skipped because the system looked idle.
        """
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time}")
        if time < self._clock - _EPS:
            raise ValueError(f"cannot schedule event at {time}, clock is {self._clock}")
        heapq.heappush(self._events, (time, self._event_seq, callback))
        self._event_seq += 1

    # ------------------------------------------------------------------
    # Workload-management actions (paper Section 3)
    # ------------------------------------------------------------------

    def abort(
        self,
        query_id: str,
        rollback_overhead: float = 0.0,
        reason: str = "workload-management abort",
    ) -> None:
        """Abort a query wherever it is (running, queued or blocked).

        ``rollback_overhead`` models the non-negligible cost of aborting
        (the paper's Section 3.3 future-work case): that much work is
        injected as an internal rollback job that must be processed --
        even while draining -- before the system is quiescent.
        ``reason`` is recorded in the trace's fault event.  An abort is
        an intentional decision: it does not fire ``on_failure`` and is
        therefore never retried by the retry layer.
        """
        if rollback_overhead < 0:
            raise ValueError("rollback_overhead must be >= 0")
        record = self.record(query_id)
        if record.status in ("finished", "aborted"):
            raise ValueError(f"query {query_id!r} already {record.status}")
        self._remove_everywhere(query_id)
        record.status = "aborted"
        self._invalidate_deadline_cache()
        record.trace.aborted_at = self._clock
        record.trace.record_fault(self._clock, "abort", reason)
        if self._obs is not None:
            self._count("rdbms.aborted")
            self._emit("query.abort", query_id, reason=reason,
                       rollback_overhead=rollback_overhead)
            self._observe_population()
        if rollback_overhead > 0:
            rollback = SyntheticJob(
                f"__rollback_{query_id}",
                rollback_overhead,
                weight=record.job.weight,
            )
            self._submit_internal(rollback)
        self._admit()

    def fail(self, query_id: str, reason: str = "injected fault") -> None:
        """Fail a query with a runtime error at the current virtual time.

        The fault-injection analogue of an engine error: the query leaves
        the system wherever it is (running, queued or blocked), its record
        turns ``failed`` with ``reason`` as the error, the trace gets a
        ``failed_at`` timestamp and a fault event, and the ``on_failure``
        hooks fire (which is how the retry layer notices).
        """
        record = self.record(query_id)
        if record.terminal:
            raise ValueError(f"query {query_id!r} already {record.status}")
        self._remove_everywhere(query_id)
        record.status = "failed"
        self._invalidate_deadline_cache()
        record.error = reason
        record.trace.failed_at = self._clock
        record.trace.record_fault(self._clock, "crash", reason)
        if self._obs is not None:
            self._count("rdbms.failed")
            self._emit("query.fail", query_id, reason=reason)
            self._observe_population()
        for cb in self.on_failure:
            cb(self._clock, query_id, reason)
        self._admit()

    def fail_everything(self, reason: str = "node crash") -> tuple[str, ...]:
        """Fail every non-terminal query at once (the node-crash shape).

        Running, queued and blocked queries all fail with *reason*; the
        per-query ``on_failure`` hooks fire for each, in deterministic
        (sorted query-id) order.  Returns the failed ids.  Used by the
        sharded cluster when a whole node dies: the router observes the
        failures and fails the sub-queries over to replica nodes.
        """
        victims = sorted(
            qid for qid, r in self._records.items() if not r.terminal
        )
        for qid in victims:
            self.fail(qid, reason)
        return tuple(victims)

    def resubmit(self, job: Job) -> QueryRecord:
        """Resubmit a failed or aborted query for another attempt.

        ``job`` must carry the same ``query_id`` as an existing terminal
        (failed/aborted) record and should be a fresh, zero-progress
        execution (see :meth:`repro.sim.jobs.Job.retry_copy`).  The record
        is reused: its attempt count increments, the trace keeps the full
        fault/attempt history, and the query re-enters the admission queue
        at the back like any other arrival.  The previous attempt's terminal
        timestamp (``failed_at`` / ``aborted_at``) is cleared -- terminal
        stamps describe the *final* outcome; per-attempt history stays in
        ``fault_events`` and ``attempts``.
        """
        record = self.record(job.query_id)
        if record.status not in ("failed", "aborted"):
            raise ValueError(
                f"query {job.query_id!r} is {record.status}; "
                "only failed or aborted queries can be resubmitted"
            )
        if self._rejecting_arrivals:
            raise RuntimeError("RDBMS is draining: resubmissions are rejected")
        record.job = job
        record.status = "queued"
        self._invalidate_deadline_cache()
        record.error = None
        record.attempts += 1
        record.trace.attempts = record.attempts
        record.trace.failed_at = None
        record.trace.aborted_at = None
        record.trace.record_fault(
            self._clock, "retry", f"attempt {record.attempts} resubmitted"
        )
        self._queue.append(job)
        self._invalidate_snapshots()
        if self._obs is not None:
            self._count("rdbms.resubmitted")
            self._emit("query.resubmit", job.query_id, attempt=record.attempts)
        for cb in self.on_resubmit:
            cb(self._clock, job.query_id, record.attempts)
        self._admit()
        return record

    def set_deadline(self, query_id: str, deadline_at: float | None) -> None:
        """Set (or clear) a query's absolute deadline at virtual time.

        Overrides any deadline derived from the job at submit time.  When
        the clock passes ``deadline_at`` while the query is still alive
        (queued, running or blocked), the query is aborted with a
        ``"deadline"`` fault event.
        """
        record = self.record(query_id)
        if record.terminal:
            raise ValueError(f"query {query_id!r} already {record.status}")
        if deadline_at is not None and deadline_at < self._clock - _EPS:
            raise ValueError(
                f"deadline_at {deadline_at} is in the past (clock {self._clock})"
            )
        record.deadline_at = deadline_at
        self._invalidate_deadline_cache()

    def corrupt_estimates(self, factor: float, query_id: str | None = None) -> None:
        """Corrupt the remaining-cost estimates PIs read from snapshots.

        Models corrupted optimizer statistics: every snapshot taken while
        the corruption is active reports ``remaining_cost * factor`` for
        the affected queries (``query_id=None`` affects all queries without
        a per-query override).  ``factor`` may be NaN or ``inf`` -- that is
        the point: downstream estimators must reject or survive such
        inputs.  Execution itself is unaffected.  Negative factors are
        rejected here because a negative cost is not expressible in a
        snapshot.
        """
        if factor < 0:
            raise ValueError(f"corruption factor must not be negative, got {factor}")
        self._estimate_corruption[query_id] = float(factor)

    def clear_estimate_corruption(self, query_id: str | None = None) -> None:
        """Remove the estimate corruption for *query_id* (or the global one)."""
        self._estimate_corruption.pop(query_id, None)

    @property
    def estimate_corruption(self) -> dict[str | None, float]:
        """Active corruption factors, keyed by query id (``None`` = global)."""
        return dict(self._estimate_corruption)

    def _submit_internal(self, job: Job) -> QueryRecord:
        """Submit system work (e.g. rollback) that bypasses drain rejection."""
        if job.query_id in self._records:
            raise ValueError(f"duplicate query id {job.query_id!r}")
        trace = self.traces.for_query(job.query_id)
        trace.submitted_at = self._clock
        record = QueryRecord(job=job, status="queued", trace=trace)
        self._records[job.query_id] = record
        self._queue.append(job)
        self._invalidate_snapshots()
        self._admit()
        return record

    def block(self, query_id: str, admit_replacement: bool = False) -> None:
        """Suspend a running query (Section 3.1's victim action).

        By default no queued query is admitted in its place -- the freed
        capacity goes to the surviving queries, which is the entire point of
        blocking a victim.  While :meth:`drain`-ing, ``admit_replacement``
        is ignored: a drain means "start nothing new", and promoting a
        queued query into the freed slot would start new work.
        """
        record = self.record(query_id)
        if record.status != "running":
            raise ValueError(f"query {query_id!r} is {record.status}, not running")
        self._running = [j for j in self._running if j.query_id != query_id]
        self._invalidate_snapshots()
        if self._shared_schedule is not None:
            self._shared_schedule.discard(query_id)
        self._blocked[query_id] = record.job
        record.status = "blocked"
        if self._obs is not None:
            self._count("rdbms.blocked_actions")
            self._emit("query.block", query_id,
                       admit_replacement=admit_replacement)
            self._observe_population()
        if admit_replacement and not self._rejecting_arrivals:
            self._admit()

    def unblock(self, query_id: str) -> None:
        """Resume a blocked query (front of the admission queue)."""
        record = self.record(query_id)
        if record.status != "blocked":
            raise ValueError(f"query {query_id!r} is {record.status}, not blocked")
        job = self._blocked.pop(query_id)
        self._queue.insert(0, job)
        self._invalidate_snapshots()
        record.status = "queued"
        if self._obs is not None:
            self._count("rdbms.unblocked_actions")
            self._emit("query.unblock", query_id)
        self._admit()

    def set_priority(self, query_id: str, priority: int, weight: float | None = None):
        """Change a query's priority (and hence its scheduling weight).

        A weight that is not finite and > 0 raises ``ValueError`` and
        changes nothing.
        """
        record = self.record(query_id)
        weight = validate_finite(
            weight_for_priority(priority) if weight is None else float(weight),
            "weight",
            minimum=0.0,
            exclusive=True,
        )
        job = record.job
        job.priority = priority
        job.weight = weight
        self._invalidate_snapshots()
        if self._shared_schedule is not None and record.status == "running":
            try:
                self._shared_schedule.reweight(query_id, job.weight)
            except (KeyError, ValueError):
                self._invalidate_schedule()

    def drain(self, rejecting: bool = True) -> None:
        """Operation O1 of the maintenance problem: reject new arrivals."""
        self._rejecting_arrivals = rejecting

    @property
    def draining(self) -> bool:
        """Whether new arrivals are currently rejected."""
        return self._rejecting_arrivals

    # ------------------------------------------------------------------
    # Time advancement
    # ------------------------------------------------------------------

    def run_until(self, target: float) -> None:
        """Advance the virtual clock to *target* seconds."""
        if target < self._clock - _EPS:
            raise ValueError(f"cannot run backwards to {target} from {self._clock}")
        with self._advancing():
            while self._clock < target - _EPS:
                self._step(target)

    def run_to_completion(self, max_time: float = 1e9) -> None:
        """Run until no runnable or pending work remains (blocked jobs stay).

        Raises :class:`RuntimeError` if *max_time* is reached first.
        """
        with self._advancing():
            while self._has_outstanding_work():
                if self._clock >= max_time:
                    raise RuntimeError(
                        f"simulation exceeded max_time={max_time}"
                    )
                self._step(max_time)

    def quiescent(self) -> bool:
        """True when nothing is running, queued or pending."""
        return not self._has_outstanding_work()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @contextmanager
    def _advancing(self):
        """The span in which readers of one state share job snapshots."""
        self._sharing_reads = True
        try:
            yield
        finally:
            self._sharing_reads = False
            self._invalidate_snapshots()

    def _has_outstanding_work(self) -> bool:
        return bool(
            self._running
            or self._queue
            or self._pending_idx < len(self._pending)
            or self._events
        )

    def _admit(self) -> None:
        mpl = self.multiprogramming_limit
        admitted = False
        while self._queue and (mpl is None or len(self._running) < mpl):
            job = self._queue.pop(0)
            self._running.append(job)
            self._invalidate_snapshots()
            self._schedule_admit(job)
            record = self._records[job.query_id]
            record.status = "running"
            if record.trace.started_at is None:
                record.trace.started_at = self._clock
            admitted = True
            if self._obs is not None:
                self._count("rdbms.admitted")
                self._emit("query.admit", job.query_id,
                           queue_wait=self._clock - record.trace.submitted_at
                           if record.trace.submitted_at is not None else 0.0)
                self._obs.accuracy.mark_started(job.query_id, self._clock)
        if admitted and self._obs is not None:
            self._observe_population()

    def _next_pending_time(self) -> float:
        if self._pending_idx < len(self._pending):
            return self._pending[self._pending_idx][0]
        return math.inf

    def _next_sampler_time(self) -> float:
        return min((s[1] for s in self._samplers), default=math.inf)

    def _next_event_time(self) -> float:
        return self._events[0][0] if self._events else math.inf

    def _invalidate_deadline_cache(self) -> None:
        """Mark the memoized earliest-deadline value stale.

        Must be called whenever a record's ``deadline_at`` or terminal
        status changes -- a stale *low* value would pin ``dt`` at zero
        (the clock would never pass a dead deadline), a stale *high* one
        would let an analytic jump overshoot a live deadline.
        """
        self._deadline_cache = None

    def _next_deadline_time(self) -> float:
        """Earliest live deadline, so analytic jumps never overshoot one.

        Memoized: the O(records) scan runs only after a mutation
        (submit/resubmit/set_deadline/abort/fail/finish) dirtied the
        cache, not on every consult within a step.
        """
        if self._deadline_cache is None:
            self._deadline_cache = min(
                (
                    r.deadline_at
                    for r in self._records.values()
                    if r.deadline_at is not None and not r.terminal
                ),
                default=math.inf,
            )
        return self._deadline_cache

    def _enforce_deadlines(self) -> None:
        """Abort every live query whose deadline has passed."""
        for record in list(self._records.values()):
            if record.terminal or record.deadline_at is None:
                continue
            if record.deadline_at <= self._clock + _EPS:
                record.trace.record_fault(
                    self._clock, "deadline",
                    f"deadline {record.deadline_at:g}s expired",
                )
                self.abort(
                    record.query_id,
                    reason=f"deadline {record.deadline_at:g}s expired",
                )

    def _predictable_finish_dt(self, speeds: dict[str, float]) -> float:
        """Exact time to the next synthetic-job completion, or inf."""
        best = math.inf
        for job in self._running:
            if isinstance(job, SyntheticJob):
                s = speeds.get(job.query_id, 0.0)
                if s > 0:
                    best = min(best, job.true_remaining_cost() / s)
        return best

    def _step(self, target: float) -> None:
        """Advance by one event slice, not beyond *target*."""
        speeds = self.speed_model.speeds(self._running, self.processing_rate)

        dt = target - self._clock
        dt = min(dt, self._next_pending_time() - self._clock)
        dt = min(dt, self._next_sampler_time() - self._clock)
        dt = min(dt, self._next_event_time() - self._clock)
        dt = min(dt, self._next_deadline_time() - self._clock)
        dt = min(dt, self._predictable_finish_dt(speeds))
        has_unpredictable = any(
            not isinstance(j, SyntheticJob) for j in self._running
        )
        if has_unpredictable:
            dt = min(dt, self.quantum)
        if dt is math.inf or dt > target - self._clock:
            dt = target - self._clock
        dt = max(dt, 0.0)

        if not self._running and dt == 0.0 and self._next_pending_time() > self._clock:
            # Idle with nothing due now: jump straight to the next event.
            nxt = min(
                self._next_pending_time(),
                self._next_sampler_time(),
                self._next_event_time(),
                self._next_deadline_time(),
                target,
            )
            if nxt is math.inf:
                self._clock = target
                return
            dt = nxt - self._clock

        # Advance running jobs.  A job whose execution raises an engine
        # error (e.g. a runtime division by zero in real SQL) fails in
        # isolation: it leaves the system, everyone else keeps running.
        finished: list[Job] = []
        failed: list[tuple[Job, Exception]] = []
        if dt > 0:
            for job in list(self._running):
                work = speeds.get(job.query_id, 0.0) * dt
                try:
                    if work > 0:
                        job.advance(work)
                    if job.finished:
                        finished.append(job)
                except EngineError as exc:
                    failed.append((job, exc))
        else:
            finished = [j for j in self._running if j.finished]
        self._clock += dt
        self._invalidate_snapshots()
        if self._shared_schedule is not None:
            self._sync_schedule(dt, finished)

        # A hook below may rebuild the schedule over jobs not yet retired,
        # so each retirement leaves it too.
        for job, exc in failed:
            self._running = [j for j in self._running if j.query_id != job.query_id]
            self._invalidate_snapshots()
            if self._shared_schedule is not None:
                self._shared_schedule.discard(job.query_id)
            record = self._records[job.query_id]
            record.status = "failed"
            self._invalidate_deadline_cache()
            record.error = str(exc)
            record.trace.failed_at = self._clock
            record.trace.record_fault(self._clock, "runtime-error", str(exc))
            if self._obs is not None:
                self._count("rdbms.failed")
                self._emit("query.fail", job.query_id, reason=str(exc))
            for cb in self.on_failure:
                cb(self._clock, job.query_id, str(exc))
        if failed:
            self._admit()

        # Retire completions (deterministic order).
        for job in sorted(finished, key=lambda j: j.query_id):
            self._running = [j for j in self._running if j.query_id != job.query_id]
            self._invalidate_snapshots()
            if self._shared_schedule is not None:
                self._shared_schedule.discard(job.query_id)
            record = self._records[job.query_id]
            record.status = "finished"
            self._invalidate_deadline_cache()
            record.trace.finished_at = self._clock
            record.trace.work.append(self._clock, job.completed_work)
            if self._obs is not None:
                self._count("rdbms.finished")
                started = record.trace.started_at
                if started is not None:
                    self._obs.metrics.histogram("rdbms.query_lifetime").observe(
                        self._clock - started
                    )
                self._emit("query.finish", job.query_id, attempts=record.attempts)
                self._obs.accuracy.mark_finished(job.query_id, self._clock)
            for cb in self.on_finish:
                cb(self._clock, job.query_id)
        if finished:
            self._admit()
        if (failed or finished) and self._obs is not None:
            self._observe_population()

        # Expire deadlines after retiring completions, so a query that
        # finishes exactly at its deadline counts as finished.
        self._enforce_deadlines()

        # Process due arrivals.
        while (
            self._pending_idx < len(self._pending)
            and self._pending[self._pending_idx][0] <= self._clock + _EPS
        ):
            _, factory = self._pending[self._pending_idx]
            self._pending_idx += 1
            if self._rejecting_arrivals:
                continue
            if self.admission_controller is not None:
                self.admission_controller.submit(factory())
            else:
                self.submit(factory())

        # Fire due one-shot events (fault windows, retries) before samplers,
        # so observers sample the post-event state.
        while self._events and self._events[0][0] <= self._clock + _EPS:
            _, _, callback = heapq.heappop(self._events)
            callback(self)

        # Fire due samplers (record traces first so callbacks see them).
        due = [s for s in self._samplers if s[1] <= self._clock + _EPS]
        if due:
            self._record_trace_point()
        for s in due:
            while s[1] <= self._clock + _EPS:
                s[1] += s[0]
        for s in due:
            s[2](self)

    def _remove_everywhere(self, query_id: str) -> None:
        self._running = [j for j in self._running if j.query_id != query_id]
        self._queue = [j for j in self._queue if j.query_id != query_id]
        self._blocked.pop(query_id, None)
        self._invalidate_snapshots()
        if self._shared_schedule is not None:
            self._shared_schedule.discard(query_id)

    def _record_trace_point(self) -> None:
        speeds = self.current_speeds()
        for job in self._running:
            trace = self.traces.for_query(job.query_id)
            trace.work.append(self._clock, job.completed_work)
            trace.speed.append(self._clock, speeds.get(job.query_id, 0.0))


def make_synthetic_workload(
    costs: Sequence[float],
    priorities: Iterable[int] | None = None,
    prefix: str = "Q",
    initial_done: Sequence[float] | None = None,
) -> list[SyntheticJob]:
    """Build synthetic jobs ``Q1..Qn`` from cost (and optional priority) lists."""
    prios = list(priorities) if priorities is not None else [0] * len(costs)
    if len(prios) != len(costs):
        raise ValueError("priorities must match costs in length")
    done = list(initial_done) if initial_done is not None else [0.0] * len(costs)
    if len(done) != len(costs):
        raise ValueError("initial_done must match costs in length")
    return [
        SyntheticJob(f"{prefix}{i + 1}", cost, priority=prios[i], initial_done=done[i])
        for i, cost in enumerate(costs)
    ]
