"""The multi-query progress indicator (paper Sections 2.2-2.4).

Given a :class:`~repro.core.model.SystemSnapshot`, the multi-query PI
predicts the remaining execution time of every query by explicitly modelling:

* the other running queries and their remaining costs (Section 2.2),
* queries waiting in the admission queue (Section 2.3, optional), and
* forecast future arrivals (Section 2.4, optional).

The estimator itself is stateless between calls -- adaptivity comes from
calling it again with fresh snapshots (and, when a forecaster is attached,
with an updated blended forecast), exactly the paper's "monitor continuously
and adjust" loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.forecast import AdaptiveForecaster, WorkloadForecast
from repro.core.model import SystemSnapshot
from repro.core.projection import ProjectionResult, project_validated
from repro.core.validation import validate_finite, validate_snapshots


@dataclass(frozen=True)
class MultiQueryEstimate:
    """Remaining-time estimates for every query in a snapshot."""

    time: float
    remaining_seconds: dict[str, float]
    queue_waits: dict[str, float]
    quiescent_time: float
    forecast_used: WorkloadForecast | None

    def for_query(self, query_id: str) -> float:
        """Remaining time of one query, in seconds."""
        try:
            return self.remaining_seconds[query_id]
        except KeyError:
            raise KeyError(f"query {query_id!r} not in estimate") from None


class MultiQueryProgressIndicator:
    """Multi-query PI with optional queue visibility and arrival forecasting.

    Parameters
    ----------
    consider_queue:
        If ``True`` (default), queries in the admission queue are modelled
        (Section 2.3).  Setting it to ``False`` reproduces the weaker
        "multi-query estimate without considering admission queue" line of
        paper Figure 5.
    forecast:
        Static prediction of future arrivals (Section 2.4), or ``None`` for
        no forecasting.
    forecaster:
        Optional :class:`AdaptiveForecaster`.  When attached, each call to
        :meth:`estimate` uses the forecaster's *current* blended forecast,
        and callers should feed real arrivals in via
        :meth:`observe_arrival`.  Overrides ``forecast``.
    horizon_drain_factor:
        How far into the future arrivals are forecast, as a multiple of the
        current workload's no-arrival drain time (total remaining work over
        ``C``).  Only applies when the forecast itself has no explicit
        horizon.  A finite horizon keeps estimates bounded even when the
        forecast rate exceeds capacity -- beyond the horizon the PI relies
        on its continuous re-estimation rather than speculation (the
        behaviour the paper's Figures 8-10 exhibit).  ``None`` forecasts
        arrivals indefinitely.
    """

    name = "multi-query"

    def __init__(
        self,
        consider_queue: bool = True,
        forecast: WorkloadForecast | None = None,
        forecaster: AdaptiveForecaster | None = None,
        horizon_drain_factor: float | None = 3.0,
    ) -> None:
        if horizon_drain_factor is not None:
            validate_finite(
                horizon_drain_factor, "horizon_drain_factor",
                minimum=0.0, exclusive=True,
            )
        self._consider_queue = consider_queue
        self._forecast = forecast
        self._forecaster = forecaster
        self._horizon_drain_factor = horizon_drain_factor

    @property
    def consider_queue(self) -> bool:
        """Whether admission-queue contents are modelled."""
        return self._consider_queue

    def current_forecast(self) -> WorkloadForecast | None:
        """The forecast the next :meth:`estimate` call will use."""
        if self._forecaster is not None:
            return self._forecaster.current()
        return self._forecast

    def observe_arrival(self, time: float, cost: float, weight: float = 1.0) -> None:
        """Report a real arrival to the attached adaptive forecaster."""
        if self._forecaster is not None:
            self._forecaster.observe_arrival(time, cost, weight)

    def estimate(self, snapshot: SystemSnapshot) -> MultiQueryEstimate:
        """Estimate remaining times for every query in *snapshot*.

        All returned times are relative to ``snapshot.time``.

        Raises
        ------
        ValueError
            If any modelled query carries a NaN / infinite / negative cost
            or weight (corrupted statistics must not silently become
            estimates; callers wanting graceful degradation catch this and
            fall back -- see :mod:`repro.core.validation`).
        """
        validate_snapshots(snapshot.running, where="running")
        if self._consider_queue:
            validate_snapshots(snapshot.queued, where="queued")
        forecast = self.current_forecast()
        if (
            forecast is not None
            and forecast.horizon is None
            and self._horizon_drain_factor is not None
        ):
            drain = snapshot.total_remaining_cost / snapshot.processing_rate
            forecast = replace(
                forecast, horizon=self._horizon_drain_factor * drain
            )
        validate_finite(
            snapshot.processing_rate, "processing_rate", minimum=0.0, exclusive=True
        )
        result: ProjectionResult = project_validated(
            running=snapshot.running,
            queued=snapshot.queued if self._consider_queue else (),
            processing_rate=snapshot.processing_rate,
            multiprogramming_limit=snapshot.multiprogramming_limit,
            forecast=forecast,
            extra_arrivals=(),
        )
        # The projection is this call's own: its dicts are handed on.
        remaining = result.finish_times
        waits = result.queue_waits

        if not self._consider_queue and snapshot.queued:
            # Queue-blind estimator: pretend each queued query will start
            # the moment a slot frees and run alone at full weight share --
            # i.e. it simply has no estimate for queued queries.  We report
            # +inf so callers can distinguish "not modelled".
            for q in snapshot.queued:
                remaining.setdefault(q.query_id, float("inf"))
                waits.setdefault(q.query_id, float("inf"))

        return MultiQueryEstimate(
            time=snapshot.time,
            remaining_seconds=remaining,
            queue_waits=waits,
            quiescent_time=result.quiescent_time,
            forecast_used=forecast,
        )

    def estimate_for(self, snapshot: SystemSnapshot, query_id: str) -> float:
        """Remaining time of a single query, in seconds from the snapshot."""
        return self.estimate(snapshot).for_query(query_id)
