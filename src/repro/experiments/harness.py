"""Wiring progress indicators into a simulated RDBMS run.

:class:`PIHarness` attaches any mix of estimators to a
:class:`~repro.sim.rdbms.SimulatedRDBMS` and samples them on a fixed
interval.  Each sample:

1. feeds every running query's cumulative completed work into its
   single-query speed monitor,
2. asks each attached single-query PI for ``c / s``,
3. asks each attached multi-query PI for its system-wide estimate, and
4. records everything into the run's :class:`~repro.sim.trace.TraceSet`
   under the estimator's name.

Estimator names become the series keys used by the figure benches
(``single-query``, ``multi-query``, ``multi-query-no-queue``, ...).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.multi_query import MultiQueryProgressIndicator
from repro.core.single_query import SingleQueryProgressIndicator
from repro.sim.rdbms import SimulatedRDBMS

#: Canonical estimator names, matching the paper's figure legends.
SINGLE_QUERY = "single-query"
MULTI_QUERY = "multi-query"
MULTI_QUERY_NO_QUEUE = "multi-query-no-queue"


class PIHarness:
    """Attach progress indicators to a simulation and sample them.

    Parameters
    ----------
    rdbms:
        The simulation to observe.
    interval:
        Sampling period, virtual seconds.
    speed_window:
        Window of the single-query PIs' speed monitors, seconds.
    multi_indicators:
        Mapping of series name to a configured
        :class:`MultiQueryProgressIndicator`.  Defaults to one plain
        ``multi-query`` indicator (queue-aware, no forecast).
    with_single:
        Whether to run a per-query single-query PI alongside.
    """

    def __init__(
        self,
        rdbms: SimulatedRDBMS,
        interval: float = 1.0,
        speed_window: float = 10.0,
        multi_indicators: dict[str, MultiQueryProgressIndicator] | None = None,
        with_single: bool = True,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.rdbms = rdbms
        self.speed_window = speed_window
        self.with_single = with_single
        if multi_indicators is None:
            multi_indicators = {MULTI_QUERY: MultiQueryProgressIndicator()}
        self.multi_indicators = dict(multi_indicators)
        self._single: dict[str, SingleQueryProgressIndicator] = {}
        self._single_attempts: dict[str, int] = {}
        rdbms.add_sampler(interval, self._sample)
        rdbms.on_arrival.append(self._notify_arrival)

    def single_indicator(self, query_id: str) -> SingleQueryProgressIndicator:
        """The per-query single-query PI (created lazily)."""
        if query_id not in self._single:
            self._single[query_id] = SingleQueryProgressIndicator(self.speed_window)
        return self._single[query_id]

    def _notify_arrival(self, time: float, query_id: str) -> None:
        """Feed real arrivals to adaptive forecasters attached to the PIs."""
        job = self.rdbms.record(query_id).job
        for indicator in self.multi_indicators.values():
            indicator.observe_arrival(time, job.estimated_remaining_cost(), job.weight)

    def _record(
        self, rdbms: SimulatedRDBMS, qid: str, name: str, t: float, seconds: float
    ) -> None:
        """Record one estimate into the trace and the accuracy telemetry."""
        rdbms.traces.for_query(qid).record_estimate(name, t, seconds)
        if rdbms.obs is not None:
            rdbms.obs.accuracy.observe(qid, name, t, seconds)

    def _sample(self, rdbms: SimulatedRDBMS) -> None:
        t = rdbms.clock
        if self.with_single:
            for job in rdbms.running:
                # A retried query is a *new* execution: its completed work
                # restarts at the checkpoint (or zero), so the previous
                # attempt's speed samples describe a dead executor.  Give
                # each attempt a fresh monitor instead of feeding it a
                # work regression it would (rightly) reject.
                attempt = rdbms.record(job.query_id).attempts
                if self._single_attempts.get(job.query_id) != attempt:
                    self._single.pop(job.query_id, None)
                    self._single_attempts[job.query_id] = attempt
                pi = self.single_indicator(job.query_id)
                pi.observe(t, job.completed_work)
                est = pi.estimate(t, job.estimated_remaining_cost())
                if est is not None:
                    self._record(
                        rdbms, job.query_id, SINGLE_QUERY, t,
                        est.remaining_seconds,
                    )
        if self.multi_indicators:
            snapshot = rdbms.snapshot()
            for name, indicator in self.multi_indicators.items():
                estimate = indicator.estimate(snapshot)
                for qid, seconds in estimate.remaining_seconds.items():
                    self._record(rdbms, qid, name, t, seconds)

    def sample_now(self) -> None:
        """Take one sample immediately (e.g. at time 0 before running)."""
        self._sample(self.rdbms)


def estimate_series(
    rdbms: SimulatedRDBMS, query_id: str, estimator: str
) -> list[tuple[float, float]]:
    """The recorded (time, remaining-seconds) series of one estimator."""
    trace = rdbms.traces[query_id]
    series = trace.estimates.get(estimator)
    if series is None:
        return []
    return list(series)


def actual_remaining_series(
    rdbms: SimulatedRDBMS, query_id: str, times: Iterable[float]
) -> list[tuple[float, float]]:
    """Ground-truth remaining time of *query_id* sampled at *times*."""
    trace = rdbms.traces[query_id]
    return [(t, trace.actual_remaining(t)) for t in times]
