"""Event-driven forward projection of system execution.

This generalises the Section 2.2 stage algorithm in two directions the paper
needs:

* **Non-empty admission queues** (Section 2.3): queries waiting in the
  admission queue are "known" future work.  When a running query finishes and
  a multiprogramming slot frees up, the head of the queue is admitted.
* **Predicted future arrivals** (Section 2.4): every ``1 / lambda`` seconds a
  virtual query with the average cost ``c̄`` and average priority weight
  ``w̄`` is assumed to arrive, and it competes for capacity like any real
  query.

The projection simulates forward under the paper's three assumptions
(constant total rate ``C``, known remaining costs, speed proportional to
weight) and records the predicted finish time of every *real* query.  It
terminates once all real queries have finished; virtual queries beyond that
point are irrelevant.

The projection has one engine.  While arrivals or admissions can still
change the active set, the running queries live in an
:class:`~repro.core.incremental.IncrementalSchedule`, so each event costs
``O(log n)``.  As soon as nothing can arrive or be admitted any more --
the queue is empty, the known arrivals are used up, the forecast has run
out -- the rest *is* the Section 2.2 standard case, and one sort plus one
sweep of the flat kernel (:func:`~repro.core.standard_case.solve_stages`)
finishes it in place of one treap pop per query (the *tail rule*).  When
that holds from the start -- no forecast, no known arrivals, a queue that
fits under the multiprogramming limit -- the projection is that one solve
and builds no schedule at all.  A projection is ``O((n + arrivals) log n)``
and deterministic: same inputs, bit-identical outputs.

With an empty queue and no forecast the projection therefore equals
:func:`repro.core.standard_case.standard_case` exactly.  The paper's
step-by-step event loop -- ``O(n)`` per event, every completion popped one
by one -- lives in the test suite as the oracle the differential tests
hold this engine to (1e-9).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Sequence

from repro.core.forecast import WorkloadForecast
from repro.core.incremental import IncrementalSchedule
from repro.core.model import QuerySnapshot
from repro.core.standard_case import solve_stages
from repro.core.validation import validate_finite, validate_snapshots

#: Hard caps protecting against unstable forecasts (``lambda * c̄ > C``):
#: beyond this many concurrently active virtual queries, further virtual
#: arrivals are dropped (the projection degrades gracefully instead of
#: livelocking).
_MAX_VIRTUAL_ACTIVE = 512
_MAX_EVENTS = 1_000_000


class ProjectionError(RuntimeError):
    """Raised when a projection exceeds its event budget or stalls."""


@dataclass
class _Waiting:
    query_id: str
    cost: float
    weight: float
    virtual: bool
    arrived_at: float


class _ActiveSet:
    """The running queries of a projection, in an incremental schedule.

    Admissions are buffered and enter the treap only when the event loop
    next asks for a completion time, so the tail rule (see
    :meth:`finish_rest`) takes whatever is still buffered as it is.
    """

    def __init__(self, processing_rate: float) -> None:
        self._rate = processing_rate
        self._schedule = IncrementalSchedule(processing_rate)
        #: Admitted ``(query_id, cost, weight)`` not yet in the treap.
        self._fresh: list[tuple[str, float, float]] = []
        self._virtual_ids: set[str] = set()

    def __len__(self) -> int:
        return len(self._schedule) + len(self._fresh)

    def virtual_count(self) -> int:
        return len(self._virtual_ids)

    def add(self, query_id: str, cost: float, weight: float, virtual: bool) -> None:
        self._fresh.append((query_id, cost, weight))
        if virtual:
            self._virtual_ids.add(query_id)

    def finish_dt(self) -> float:
        """Time until the earliest active completion, or ``inf``."""
        for entry in self._fresh:
            self._schedule.add_validated(*entry)
        self._fresh.clear()
        head = self._schedule.next_finish()
        return head[0] if head is not None else float("inf")

    def advance(self, dt: float) -> list[tuple[str, bool]]:
        """Run *dt* seconds; retire and return ``(query_id, virtual)``."""
        out = []
        for _, qid in self._schedule.advance(dt):
            virtual = qid in self._virtual_ids
            self._virtual_ids.discard(qid)
            out.append((qid, virtual))
        return out

    def finish_rest(self, clock: float) -> list[tuple[str, bool, float]]:
        """Finish every active job in one kernel sweep starting at *clock*.

        Only valid once nothing can arrive or be admitted any more (see
        :func:`_solve_rest`).  Returns ``(query_id, virtual, finish_time)``
        in finish order.
        """
        active = [
            (q.query_id, q.remaining_cost, q.weight)
            for q in self._schedule.snapshots()
        ] + self._fresh
        if not active:
            return []
        order, times = _solve_rest(*zip(*active), self._rate, clock)
        virtual_ids = self._virtual_ids
        return [(qid, qid in virtual_ids, t) for qid, t in zip(order, times)]


def _solve_rest(
    ids: Sequence[str],
    costs: Sequence[float],
    weights: Sequence[float],
    processing_rate: float,
    clock: float,
) -> tuple[list[str], list[float]]:
    """The tail rule: finish an active set that nothing joins any more.

    From the moment nothing can arrive or be admitted, the projection
    *is* the Section 2.2 standard case over the active set, so one sort
    and one sweep of the flat kernel replace one event per completion.
    Returns ``(finish_order, finish_times)``, the times offset by *clock*.
    """
    return solve_stages(ids, costs, weights, processing_rate, start=clock)


@dataclass(frozen=True)
class ProjectedQuery:
    """Projection output for one real query."""

    query_id: str
    #: Predicted time until the query finishes, seconds from the snapshot.
    finish_time: float
    #: Predicted time the query spends waiting in the admission queue
    #: (from its arrival -- or the snapshot, for already-queued queries --
    #: until it starts running).
    queue_wait: float


@dataclass(frozen=True)
class ProjectionResult:
    """Output of :func:`project`.

    The per-query :class:`ProjectedQuery` records of :attr:`queries` are
    assembled from :attr:`finish_times` and :attr:`queue_waits` on first
    access, so a caller that only reads times (a PI refresh) never builds
    them.
    """

    #: Predicted time until each real query finishes, seconds from the
    #: snapshot, in finish order.
    finish_times: dict[str, float]
    #: Predicted time each real query waits in the admission queue.
    queue_waits: dict[str, float]
    #: Time at which the last real query finishes.
    quiescent_time: float

    @cached_property
    def queries(self) -> dict[str, ProjectedQuery]:
        """Per-query projection records, in finish order."""
        waits = self.queue_waits
        return {
            qid: ProjectedQuery(qid, t_fin, waits[qid])
            for qid, t_fin in self.finish_times.items()
        }

    def remaining_time(self, query_id: str) -> float:
        """Predicted remaining execution time of *query_id*, in seconds."""
        try:
            return self.finish_times[query_id]
        except KeyError:
            raise KeyError(f"query {query_id!r} not in projection") from None

    @property
    def remaining_times(self) -> dict[str, float]:
        """A fresh mapping of query id to predicted remaining time, seconds."""
        return dict(self.finish_times)


def _forecast_arrivals(
    forecast: WorkloadForecast | None, start: float
) -> Iterator[tuple[float, float, float]]:
    """Yield ``(arrival_time, cost, weight)`` for predicted future queries.

    Per Section 2.4, one virtual query of cost ``c̄`` and weight ``w̄``
    arrives every ``1 / lambda`` seconds, starting one inter-arrival time
    after the snapshot.
    """
    if forecast is None or forecast.arrival_rate <= 0 or forecast.average_cost <= 0:
        return
    interval = 1.0 / forecast.arrival_rate
    t = start + interval
    while forecast.horizon is None or t <= forecast.horizon:
        yield (t, forecast.average_cost, forecast.average_weight)
        t += interval


def project(
    running: Sequence[QuerySnapshot],
    queued: Sequence[QuerySnapshot] = (),
    processing_rate: float = 1.0,
    multiprogramming_limit: int | None = None,
    forecast: WorkloadForecast | None = None,
    extra_arrivals: Iterable[tuple[float, QuerySnapshot]] = (),
) -> ProjectionResult:
    """Project the execution of the current workload forward in time.

    Parameters
    ----------
    running:
        Queries currently executing.
    queued:
        Queries in the admission queue, FIFO order (Section 2.3).
    processing_rate:
        Total work rate ``C`` in U/s.
    multiprogramming_limit:
        Maximum number of concurrent queries, or ``None`` for unlimited.  If
        the system is transiently over the limit no admissions occur until
        enough queries finish.
    forecast:
        Optional prediction of future arrivals (Section 2.4).
    extra_arrivals:
        Known one-off future arrivals as ``(time, snapshot)`` pairs -- used
        by workload-management what-if analyses.

    Returns
    -------
    ProjectionResult
        Predicted finish time (and queue wait) of every real query: every
        query in ``running``, ``queued`` or ``extra_arrivals``.

    Raises
    ------
    ValueError
        If ``processing_rate`` is not a positive finite number, any query
        (running, queued or in ``extra_arrivals``) carries a NaN /
        infinite / negative cost or weight, or one query id appears twice
        across the three inputs.
    """
    validate_finite(processing_rate, "processing_rate", minimum=0.0, exclusive=True)
    validate_snapshots(running, where="running")
    validate_snapshots(queued, where="queued")
    extra_arrivals = tuple(extra_arrivals)
    for t, q in extra_arrivals:
        validate_finite(
            t, f"arrival time of query {q.query_id!r} (in extra_arrivals)",
            minimum=0.0,
        )
    validate_snapshots((q for _, q in extra_arrivals), where="extra_arrivals")
    seen: set[str] = set()
    for q in chain(running, queued, (q for _, q in extra_arrivals)):
        if q.query_id in seen:
            raise ValueError(f"duplicate query id {q.query_id!r}")
        seen.add(q.query_id)
    return project_validated(
        running, queued, processing_rate, multiprogramming_limit, forecast,
        extra_arrivals,
    )


def project_validated(
    running: Sequence[QuerySnapshot],
    queued: Sequence[QuerySnapshot],
    processing_rate: float,
    multiprogramming_limit: int | None,
    forecast: WorkloadForecast | None,
    extra_arrivals: Sequence[tuple[float, QuerySnapshot]],
) -> ProjectionResult:
    """The body of :func:`project`, which checks nothing.

    For an entry point that has itself validated the rate and every
    snapshot, and whose query ids are unique by construction
    (:meth:`MultiQueryProgressIndicator.estimate
    <repro.core.multi_query.MultiQueryProgressIndicator.estimate>` reads a
    :class:`~repro.core.model.SystemSnapshot`), so that each query is
    checked once per refresh, not once per layer.
    """
    mpl = multiprogramming_limit
    virtual_stream = _forecast_arrivals(forecast, start=0.0)
    next_virtual = next(virtual_stream, None)
    if (
        next_virtual is None
        and not extra_arrivals
        and (not queued or mpl is None or len(running) + len(queued) <= mpl)
    ):
        # The tail rule from the first event: the whole queue is admitted
        # at t = 0 and nothing else can arrive, so the projection is one
        # solve -- no schedule, no per-query bookkeeping.
        active = (*running, *queued) if queued else running
        order, times = _solve_rest(
            [q.query_id for q in active],
            [q.remaining_cost for q in active],
            [q.weight for q in active],
            processing_rate,
            0.0,
        )
        finish_times = dict(zip(order, times))
        queue_waits = dict.fromkeys(finish_times, 0.0)
        events = len(order)
    else:
        finish_times, queue_waits, events = _run_events(
            processing_rate, running, queued, mpl, extra_arrivals,
            virtual_stream, next_virtual,
        )

    quiescent = max(finish_times.values(), default=0.0)
    from repro.obs.runtime import current as _current_obs

    obs = _current_obs()
    if obs is not None:
        # virtual_time is None: a projection is a pure algorithm call with
        # no simulation clock of its own (it starts at a relative t=0).
        obs.metrics.histogram("projection.events").observe(events)
        obs.tracer.emit(
            "projection.run",
            None,
            events=events,
            queries=len(finish_times),
            quiescent_time=quiescent,
        )
    return ProjectionResult(finish_times, queue_waits, quiescent)


def _run_events(
    processing_rate: float,
    running: Sequence[QuerySnapshot],
    queued: Sequence[QuerySnapshot],
    mpl: int | None,
    extra_arrivals: Sequence[tuple[float, QuerySnapshot]],
    virtual_stream: Iterator[tuple[float, float, float]],
    next_virtual: tuple[float, float, float] | None,
) -> tuple[dict[str, float], dict[str, float], int]:
    """The event loop: completions, arrivals and admissions in time order.

    Returns ``(finish_times, queue_waits, events)`` of the real queries.
    The loop hands over to :func:`_solve_rest` as soon as nothing can
    arrive or be admitted any more.
    """
    active = _ActiveSet(processing_rate)
    for q in running:
        active.add(q.query_id, q.remaining_cost, q.weight, virtual=False)
    waiting: deque[_Waiting] = deque(
        _Waiting(q.query_id, q.remaining_cost, q.weight, virtual=False, arrived_at=0.0)
        for q in queued
    )

    pending = sorted(
        ((t, q.query_id, q.remaining_cost, q.weight) for t, q in extra_arrivals),
        key=lambda item: item[0],
    )
    pending_idx = 0
    virtual_seq = 0

    real_outstanding = len(running) + len(waiting) + len(pending)
    finish_times: dict[str, float] = {}
    started_at: dict[str, float] = {q.query_id: 0.0 for q in running}
    arrived_at: dict[str, float] = {q.query_id: 0.0 for q in running}
    arrived_at.update({w.query_id: 0.0 for w in waiting})

    clock = 0.0
    events = 0

    def admit() -> None:
        """Move queued jobs into the active set while slots are available."""
        while waiting and (mpl is None or len(active) < mpl):
            w = waiting.popleft()
            active.add(w.query_id, w.cost, w.weight, w.virtual)
            if not w.virtual:
                started_at[w.query_id] = clock

    admit()

    while real_outstanding > 0:
        if not waiting and pending_idx >= len(pending) and next_virtual is None:
            # Nothing can arrive or be admitted any more: what is left is
            # the standard case, one event per completion.
            for qid, virtual, t_fin in active.finish_rest(clock):
                events += 1
                if not virtual:
                    finish_times[qid] = t_fin
                    real_outstanding -= 1
                    if real_outstanding == 0:
                        break
            break
        events += 1
        if events > _MAX_EVENTS:
            raise ProjectionError(
                f"projection exceeded {_MAX_EVENTS} events; "
                "forecast load is likely far above capacity"
            )

        # Earliest completion among active jobs.
        finish_dt = active.finish_dt()

        # Next arrival (known one-off or virtual forecast).
        arrival_t = float("inf")
        if pending_idx < len(pending):
            arrival_t = pending[pending_idx][0]
        if next_virtual is not None:
            arrival_t = min(arrival_t, next_virtual[0])
        # Clamped: after one of several arrivals at the same instant the
        # clock can sit an ulp past the next one's time.
        arrival_dt = (
            max(arrival_t - clock, 0.0) if arrival_t < float("inf") else float("inf")
        )

        if finish_dt == float("inf") and arrival_dt == float("inf"):
            raise ProjectionError("projection stalled: outstanding work cannot run")

        dt = min(finish_dt, arrival_dt)
        clock += dt
        for qid, virtual in active.advance(dt):
            if not virtual:
                finish_times[qid] = clock
                real_outstanding -= 1

        if arrival_dt <= dt:
            # Arrival event: enqueue the arriving query, then try to admit.
            if pending_idx < len(pending) and pending[pending_idx][0] <= arrival_t:
                _, qid, cost, weight = pending[pending_idx]
                pending_idx += 1
                waiting.append(_Waiting(qid, cost, weight, False, arrived_at=clock))
                arrived_at[qid] = clock
            elif next_virtual is not None:
                _, cost, weight = next_virtual
                n_virtual = active.virtual_count() + sum(
                    1 for w in waiting if w.virtual
                )
                if n_virtual < _MAX_VIRTUAL_ACTIVE:
                    virtual_seq += 1
                    waiting.append(
                        _Waiting(f"__virtual_{virtual_seq}", cost, weight, True, clock)
                    )
                next_virtual = next(virtual_stream, None)
        admit()

    queue_waits = {
        qid: max(started_at.get(qid, 0.0) - arrived_at.get(qid, 0.0), 0.0)
        for qid in finish_times
    }
    return finish_times, queue_waits, events
