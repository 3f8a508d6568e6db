"""Core multi-query progress-indicator algorithms (paper Section 2).

This package contains the paper's primary contribution in pure,
substrate-independent form:

* :mod:`repro.core.model` -- snapshots of queries and of the whole system.
* :mod:`repro.core.standard_case` -- the Section 2.2 closed-form stage
  algorithm for ``n`` concurrent queries under weighted fair sharing.
* :mod:`repro.core.incremental` -- the shared, incrementally-maintained
  stage schedule: amortized ``O(log n)`` updates serve all concurrent PIs
  from one structure (see ``docs/PERFORMANCE.md``).
* :mod:`repro.core.projection` -- an event-driven forward projection that
  generalises the standard case to non-empty admission queues (Section 2.3)
  and predicted future arrivals (Section 2.4).
* :mod:`repro.core.single_query` -- the single-query baseline PI
  (``t = c / s``) the paper compares against.
* :mod:`repro.core.multi_query` -- the multi-query progress indicator.
* :mod:`repro.core.forecast` -- workload forecasts and online estimators of
  arrival rate / average cost (the adaptive-lambda machinery of Section 5.2.3).
* :mod:`repro.core.metrics` -- relative error and time-series helpers.
* :mod:`repro.core.validation` -- shared input guards: estimators reject
  NaN / infinite / negative costs instead of silently propagating garbage.
"""

from repro.core.forecast import (
    AdaptiveForecaster,
    OnlineArrivalRateEstimator,
    OnlineMeanEstimator,
    WorkloadForecast,
)
from repro.core.incremental import IncrementalSchedule
from repro.core.metrics import relative_error
from repro.core.model import QuerySnapshot, SystemSnapshot
from repro.core.multi_query import MultiQueryEstimate, MultiQueryProgressIndicator
from repro.core.projection import (
    ProjectedQuery,
    ProjectionResult,
    project,
)
from repro.core.single_query import SingleQueryProgressIndicator, SpeedMonitor
from repro.core.standard_case import Stage, StandardCaseResult, standard_case
from repro.core.validation import finite_snapshots, validate_finite, validate_snapshots

__all__ = [
    "AdaptiveForecaster",
    "IncrementalSchedule",
    "MultiQueryEstimate",
    "MultiQueryProgressIndicator",
    "OnlineArrivalRateEstimator",
    "OnlineMeanEstimator",
    "ProjectedQuery",
    "ProjectionResult",
    "QuerySnapshot",
    "SingleQueryProgressIndicator",
    "SpeedMonitor",
    "Stage",
    "StandardCaseResult",
    "SystemSnapshot",
    "WorkloadForecast",
    "finite_snapshots",
    "project",
    "relative_error",
    "standard_case",
    "validate_finite",
    "validate_snapshots",
]
