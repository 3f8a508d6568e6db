"""Observability layer: tracing, metrics and PI-accuracy telemetry.

See ``docs/OBSERVABILITY.md`` for the event schema, metric names and the
accuracy-report fields, and ``docs/PERFORMANCE.md`` for the overhead
methodology behind the disabled-path guarantee.
"""

from repro.obs.accuracy import (
    AccuracyReport,
    AccuracyTracker,
    EstimatorAccuracy,
    QueryAccuracy,
    format_accuracy,
)
from repro.obs.metrics import (
    HISTOGRAM_BOUNDARIES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_metrics,
)
from repro.obs.report import (
    ObservedRun,
    format_observed_run,
    run_observed_mcq,
)
from repro.obs.runtime import (
    Observability,
    current,
    install,
    observed,
    resolve,
    uninstall,
)
from repro.obs.tracer import (
    EVENT_FIELDS,
    JsonlSink,
    MemorySink,
    Tracer,
    TraceSchemaError,
    validate_event,
    validate_events,
    validate_trace_file,
)

__all__ = [
    "AccuracyReport",
    "AccuracyTracker",
    "Counter",
    "HISTOGRAM_BOUNDARIES",
    "EVENT_FIELDS",
    "EstimatorAccuracy",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "Observability",
    "ObservedRun",
    "QueryAccuracy",
    "TraceSchemaError",
    "Tracer",
    "current",
    "format_accuracy",
    "format_metrics",
    "format_observed_run",
    "install",
    "observed",
    "resolve",
    "run_observed_mcq",
    "uninstall",
    "validate_event",
    "validate_events",
    "validate_trace_file",
]
