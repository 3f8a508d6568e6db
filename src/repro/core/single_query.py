"""The single-query progress indicator baseline (paper Section 2).

The single-query PIs of [11, 12] estimate the remaining execution time of a
query ``Q`` as ``t = c / s`` where ``c`` is the refined remaining cost in U's
and ``s`` is the *currently observed* execution speed in U/s.  The observed
speed implicitly reflects concurrent load, but the estimator has no idea how
long that load will last -- which is exactly the failure mode the multi-query
PI fixes.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

from repro.core.validation import validate_finite

#: Width of the speed-monitoring window, simulated seconds.
WINDOW_SECONDS = 10.0


class SpeedMonitor:
    """Measure a query's recent execution speed from work observations.

    The monitor receives ``(time, completed_work)`` samples and reports the
    average speed over a sliding :data:`WINDOW_SECONDS` time window,
    mirroring how a real PI samples executor counters.  A window keeps the
    estimate responsive to load shifts without being dominated by a single
    scheduling quantum.
    """

    def __init__(self) -> None:
        self._samples: deque[tuple[float, float]] = deque()

    def observe(self, time: float, completed_work: float) -> None:
        """Record cumulative *completed_work* (U's) at *time* (seconds)."""
        if not (
            math.isfinite(time)
            and math.isfinite(completed_work)
            and completed_work >= 0.0
        ):
            # The checks (and their messages) only once one has failed.
            validate_finite(time, "observation time")
            validate_finite(completed_work, "completed_work", minimum=0.0)
        samples = self._samples
        if samples:
            last_time, last_work = samples[-1]
            if time < last_time:
                raise ValueError("observation times must be non-decreasing")
            if completed_work < last_work - 1e-9:
                raise ValueError("completed_work must be non-decreasing")
        samples.append((time, completed_work))
        cutoff = time - WINDOW_SECONDS
        # Keep one sample at or before the cutoff so the window stays full.
        while len(samples) > 2 and samples[1][0] <= cutoff:
            samples.popleft()

    def speed(self) -> float | None:
        """Average speed over the window, U/s, or ``None`` if undetermined."""
        if len(self._samples) < 2:
            return None
        t0, w0 = self._samples[0]
        t1, w1 = self._samples[-1]
        if t1 <= t0:
            return None
        return (w1 - w0) / (t1 - t0)


class SingleQueryEstimate(NamedTuple):
    """One output of the single-query PI."""

    time: float
    remaining_cost: float
    speed: float
    remaining_seconds: float


class SingleQueryProgressIndicator:
    """Single-query PI: ``t = c / s`` with monitored current speed."""

    name = "single-query"

    def __init__(self) -> None:
        self._monitor = SpeedMonitor()
        self._last: SingleQueryEstimate | None = None

    def observe(self, time: float, completed_work: float) -> None:
        """Feed one executor progress sample into the speed monitor."""
        self._monitor.observe(time, completed_work)

    def estimate(self, time: float, remaining_cost: float) -> SingleQueryEstimate | None:
        """Estimate the remaining execution time at *time*.

        Returns ``None`` until the monitor has seen enough samples to
        determine a speed, or if the observed speed is zero while work
        remains (the estimate would be infinite).

        Raises :class:`ValueError` on NaN / infinite / negative
        ``remaining_cost`` -- a corrupted cost input must not silently
        become an estimate.
        """
        if not (math.isfinite(remaining_cost) and remaining_cost >= 0.0):
            validate_finite(remaining_cost, "remaining_cost", minimum=0.0)
        speed = self._monitor.speed()
        if speed is None:
            return None
        if remaining_cost == 0:
            est = SingleQueryEstimate(time, 0.0, speed, 0.0)
        elif speed <= 0:
            return None
        else:
            est = SingleQueryEstimate(time, remaining_cost, speed, remaining_cost / speed)
        self._last = est
        return est

    @property
    def last_estimate(self) -> SingleQueryEstimate | None:
        """The most recent successful estimate, if any."""
        return self._last
