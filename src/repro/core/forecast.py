"""Workload forecasts and online estimators (paper Sections 2.4 and 5.2.3).

The multi-query PI's visibility into the future rests on three aggregate
numbers: the average arrival rate ``lambda``, the average query cost ``c̄``
and the average priority ``p̄`` (represented here directly by its weight
``w̄``).  The paper stresses that these need only be *approximate*: the PI
re-estimates continuously and corrects bad initial guesses.

This module provides:

* :class:`WorkloadForecast` -- an immutable forecast triple.
* :class:`OnlineArrivalRateEstimator` -- sliding-window arrival-rate
  estimation from observed arrival timestamps.
* :class:`OnlineMeanEstimator` -- running arithmetic mean, used for
  average cost and average weight.
* :class:`AdaptiveForecaster` -- blends a prior forecast (possibly wrong,
  like the ``lambda' != lambda`` experiments in Section 5.2.3) with live
  observations, converging to the truth as evidence accumulates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class WorkloadForecast:
    """Prediction about queries that will arrive in the future.

    Attributes
    ----------
    arrival_rate:
        Expected arrivals per second (``lambda``).  ``0`` disables
        forecasting.
    average_cost:
        Expected cost ``c̄`` of a future query, in U's.
    average_weight:
        Expected priority weight ``w̄`` of a future query.
    horizon:
        Optional absolute cut-off (seconds from the snapshot) beyond which no
        arrivals are predicted; ``None`` means unbounded.
    """

    arrival_rate: float
    average_cost: float
    average_weight: float = 1.0
    horizon: float | None = None

    def __post_init__(self) -> None:
        from repro.core.validation import validate_finite

        validate_finite(self.arrival_rate, "arrival_rate", minimum=0.0)
        validate_finite(self.average_cost, "average_cost", minimum=0.0)
        validate_finite(self.average_weight, "average_weight", minimum=0.0, exclusive=True)
        if self.horizon is not None:
            validate_finite(self.horizon, "horizon", minimum=0.0)

    @property
    def mean_interarrival(self) -> float:
        """Average inter-arrival time ``t̄ = 1 / lambda`` (``inf`` if idle)."""
        return 1.0 / self.arrival_rate if self.arrival_rate > 0 else float("inf")

    def scaled(self, rate_factor: float) -> "WorkloadForecast":
        """Return a copy with the arrival rate scaled by *rate_factor*.

        Used by the Section 5.2.3 experiments to feed the PI a deliberately
        wrong ``lambda' = rate_factor * lambda``.
        """
        if rate_factor < 0:
            raise ValueError("rate_factor must be >= 0")
        return replace(self, arrival_rate=self.arrival_rate * rate_factor)


#: A forecast that predicts no future queries at all.
NO_FORECAST = WorkloadForecast(arrival_rate=0.0, average_cost=0.0)


#: Upper bound on the estimated arrival rate (arrivals/second).  A window
#: whose arrivals all share one timestamp has zero span, and the naive
#: ``(n - 1) / span`` estimate diverges; capping keeps the burst reading
#: finite *and* small enough that projections stay tractable (the virtual
#: arrival interval ``1 / rate`` never drops below a microsecond).
BURST_RATE_CAP = 1e6

#: Arrivals in the arrival-rate estimator's sliding window.
RATE_WINDOW = 50
#: Pseudo-observations a prior forecast counts as in the adaptive blend.
PRIOR_STRENGTH = 10.0


class OnlineArrivalRateEstimator:
    """Estimate the arrival rate from observed arrival timestamps.

    Uses a sliding window of the :data:`RATE_WINDOW` most recent arrivals:
    the rate is the number of observed inter-arrival gaps divided by the
    observation span.  With fewer than two observations the estimate is
    ``None``.

    A burst of simultaneous arrivals (all windowed timestamps equal, so the
    span is zero) reports the capped rate :data:`BURST_RATE_CAP` rather than
    ``None``: the rate is at its *highest* in that moment, and returning
    ``None`` would silently disable forecasting exactly when it matters.
    """

    def __init__(self) -> None:
        self._times: deque[float] = deque(maxlen=RATE_WINDOW)

    def observe(self, arrival_time: float) -> None:
        """Record one arrival at *arrival_time* (non-decreasing)."""
        if self._times and arrival_time < self._times[-1]:
            raise ValueError("arrival times must be non-decreasing")
        self._times.append(arrival_time)

    @property
    def count(self) -> int:
        """Number of arrivals currently inside the window."""
        return len(self._times)

    def rate(self) -> float | None:
        """Current arrival-rate estimate in arrivals/second, or ``None``."""
        if len(self._times) < 2:
            return None
        span = self._times[-1] - self._times[0]
        gaps = len(self._times) - 1
        if span <= 0 or gaps / span > BURST_RATE_CAP:
            return BURST_RATE_CAP
        return gaps / span


class OnlineMeanEstimator:
    """Running arithmetic mean of every observation."""

    def __init__(self) -> None:
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        """Total number of observations ever recorded."""
        return self._count

    def mean(self) -> float | None:
        """Current mean, or ``None`` if nothing was observed."""
        if self._count == 0:
            return None
        return self._sum / self._count


class AdaptiveForecaster:
    """Blend a prior forecast with live observations of the arrival stream.

    The blend treats the prior as :data:`PRIOR_STRENGTH` pseudo-observations:

        ``lambda_hat = (k0 * lambda' + k * lambda_obs) / (k0 + k)``

    where ``k`` is the number of real observations backing ``lambda_obs``.
    The same scheme applies to the average cost and weight.  As observations
    accumulate the estimate converges to the measured workload regardless of
    how wrong the prior was -- the adaptivity demonstrated in Figures 8-10.
    """

    def __init__(self, prior: WorkloadForecast) -> None:
        self._prior = prior
        self._rate = OnlineArrivalRateEstimator()
        self._cost = OnlineMeanEstimator()
        self._weight = OnlineMeanEstimator()

    @property
    def prior(self) -> WorkloadForecast:
        """The (possibly wrong) prior forecast this forecaster started from."""
        return self._prior

    def observe_arrival(self, time: float, cost: float, weight: float = 1.0) -> None:
        """Record one real arrival: its time, initial cost and weight.

        Corrupted observations (NaN / infinite / negative cost or weight)
        are rejected with :class:`ValueError` rather than silently poisoning
        the running means every later forecast would be built from.
        """
        from repro.core.validation import validate_finite

        validate_finite(time, "arrival time", minimum=0.0)
        validate_finite(cost, "arrival cost", minimum=0.0)
        validate_finite(weight, "arrival weight", minimum=0.0, exclusive=True)
        self._rate.observe(time)
        self._cost.observe(cost)
        self._weight.observe(weight)

    def _blend(self, prior_value: float, observed: float | None, k: float) -> float:
        if observed is None or k <= 0:
            return prior_value
        k0 = PRIOR_STRENGTH
        return (k0 * prior_value + k * observed) / (k0 + k)

    def current(self) -> WorkloadForecast:
        """The blended forecast given the evidence so far."""
        rate_obs = self._rate.rate()
        k_rate = max(self._rate.count - 1, 0)
        cost_obs = self._cost.mean()
        weight_obs = self._weight.mean()
        return WorkloadForecast(
            arrival_rate=self._blend(self._prior.arrival_rate, rate_obs, k_rate),
            average_cost=self._blend(self._prior.average_cost, cost_obs, self._cost.count),
            average_weight=max(
                self._blend(self._prior.average_weight, weight_obs, self._weight.count),
                1e-9,
            ),
            horizon=self._prior.horizon,
        )
