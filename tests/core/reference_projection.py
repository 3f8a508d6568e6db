"""The paper's event loop, step by step: the oracle for ``project()``.

:func:`reference_project` simulates the Section 2.2-2.4 workload forward
exactly as the paper derives it: at every event it recomputes the minimum
``c/w`` ratio over the active set, charges work to every active query
individually and pops completions one by one -- ``O(n)`` per event, no
shared schedule and no tail rule.  It shares no code with
:mod:`repro.core.projection` (only the snapshot and forecast types), so a
bug in the production event loop, its treap or its kernel sweep shows up
as a disagreement in the differential suites rather than twice in the
same place.

Its signature matches :func:`repro.core.projection.project_validated`, so
a test can monkeypatch it into :mod:`repro.core.multi_query` and drive a
whole experiment through the oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.core.forecast import WorkloadForecast
from repro.core.model import QuerySnapshot

#: Numerical slack used when comparing event times.
_EPS = 1e-12

#: Beyond this many concurrently active virtual queries, further virtual
#: arrivals are dropped; the same caps as the production projection.
_MAX_VIRTUAL_ACTIVE = 512
_MAX_EVENTS = 1_000_000


class ReferenceQuery(NamedTuple):
    query_id: str
    finish_time: float
    queue_wait: float


@dataclass(frozen=True)
class ReferenceProjection:
    """The oracle's answer, read through the same names as ``project()``'s."""

    finish_times: dict[str, float]
    queue_waits: dict[str, float]
    quiescent_time: float
    #: Events processed: one per arrival and one per completion instant.
    events: int

    @property
    def remaining_times(self) -> dict[str, float]:
        return dict(self.finish_times)

    @cached_property
    def queries(self) -> dict[str, ReferenceQuery]:
        return {
            qid: ReferenceQuery(qid, t, self.queue_waits[qid])
            for qid, t in self.finish_times.items()
        }


@dataclass
class _Job:
    query_id: str
    remaining: float
    weight: float
    virtual: bool


@dataclass
class _Waiting:
    query_id: str
    cost: float
    weight: float
    virtual: bool
    arrived_at: float


class _ReferenceEngine:
    """Active set as a flat job list: ``O(n)`` per event.

    Every event recomputes the minimum ``c/w`` ratio and charges work to
    every active job individually.
    """

    def __init__(self, processing_rate: float) -> None:
        self._rate = processing_rate
        self._jobs: list[_Job] = []

    def __len__(self) -> int:
        return len(self._jobs)

    def virtual_count(self) -> int:
        return sum(1 for j in self._jobs if j.virtual)

    def add(self, query_id: str, cost: float, weight: float, virtual: bool) -> None:
        self._jobs.append(_Job(query_id, cost, weight, virtual))

    def finish_dt(self) -> float:
        """Time until the earliest active completion, or ``inf``."""
        if not self._jobs:
            return float("inf")
        total = sum(j.weight for j in self._jobs)
        if total <= 0:  # pragma: no cover - weights are validated > 0
            return float("inf")
        min_ratio = min(j.remaining / j.weight for j in self._jobs)
        return max(min_ratio * total / self._rate, 0.0)

    def advance(self, dt: float, clock_after: float) -> list[tuple[str, bool]]:
        """Charge *dt* seconds of work; retire and return finished jobs."""
        total = sum(j.weight for j in self._jobs)
        if dt > 0 and self._jobs and total > 0:
            for j in self._jobs:
                j.remaining -= self._rate * (j.weight / total) * dt
        slack = _EPS * max(1.0, clock_after)
        done = [j for j in self._jobs if j.remaining <= slack]
        if done:
            done_ids = {id(j) for j in done}
            self._jobs = [j for j in self._jobs if id(j) not in done_ids]
        return [(j.query_id, j.virtual) for j in done]


def _forecast_arrivals(
    forecast: WorkloadForecast | None,
) -> Iterator[tuple[float, float, float]]:
    """``(arrival_time, cost, weight)``: one ``c̄``/``w̄`` query per ``1/lambda``."""
    if forecast is None or forecast.arrival_rate <= 0 or forecast.average_cost <= 0:
        return
    interval = 1.0 / forecast.arrival_rate
    t = interval
    while forecast.horizon is None or t <= forecast.horizon:
        yield (t, forecast.average_cost, forecast.average_weight)
        t += interval


def reference_project(
    running: Sequence[QuerySnapshot],
    queued: Sequence[QuerySnapshot] = (),
    processing_rate: float = 1.0,
    multiprogramming_limit: int | None = None,
    forecast: WorkloadForecast | None = None,
    extra_arrivals: Iterable[tuple[float, QuerySnapshot]] = (),
) -> ReferenceProjection:
    """Completions, arrivals and admissions in time order, one at a time.

    Inputs are trusted: finite non-negative costs, positive weights and
    unique query ids.
    """
    mpl = multiprogramming_limit
    engine = _ReferenceEngine(processing_rate)
    virtual_stream = _forecast_arrivals(forecast)
    next_virtual = next(virtual_stream, None)

    for q in running:
        engine.add(q.query_id, q.remaining_cost, q.weight, virtual=False)
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
        while waiting and (mpl is None or len(engine) < mpl):
            w = waiting.popleft()
            engine.add(w.query_id, w.cost, w.weight, w.virtual)
            if not w.virtual:
                started_at[w.query_id] = clock

    admit()

    while real_outstanding > 0:
        events += 1
        if events > _MAX_EVENTS:
            raise RuntimeError(f"reference projection exceeded {_MAX_EVENTS} events")

        # Earliest completion among active jobs.
        finish_dt = engine.finish_dt()

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
            raise RuntimeError("reference projection stalled")

        dt = min(finish_dt, arrival_dt)
        clock += dt
        for qid, virtual in engine.advance(dt, clock):
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
                n_virtual = engine.virtual_count() + sum(
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
    quiescent = max(finish_times.values(), default=0.0)
    return ReferenceProjection(finish_times, queue_waits, quiescent, events)
