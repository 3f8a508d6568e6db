"""Run a fully observed seeded MCQ experiment and summarise its telemetry.

This is the backing of ``repro report --observe`` (and the CI observability
gate): one :func:`~repro.experiments.mcq.run_mcq` run with the process-global
observability installed, tracing every simulator seam, and rendering a
**deterministic** summary -- every number in it derives from virtual time,
so repeated runs with the same seed produce byte-identical output
(wall-clock stamps exist only inside the trace file and are never
printed).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.obs.accuracy import AccuracyReport, format_accuracy
from repro.obs.metrics import format_metrics
from repro.obs.runtime import Observability, observed


@dataclass
class ObservedRun:
    """Everything one observed MCQ run produced."""

    obs: Observability
    accuracy: AccuracyReport
    #: The MCQResult of the underlying experiment.
    result: object
    #: Path of the JSONL trace, if one was written.
    trace_path: Path | None
    #: Number of trace events emitted.
    events: int


def run_observed_mcq(
    seed: int = 1,
    trace_path: str | Path | None = None,
    n_queries: int | None = None,
) -> ObservedRun:
    """Run one seeded MCQ experiment with full observability."""
    from repro.experiments.mcq import MCQConfig, run_mcq

    kwargs = {"seed": seed}
    if n_queries is not None:
        kwargs["n_queries"] = n_queries
    config = MCQConfig(**kwargs)
    with observed(trace_path) as obs:
        result = run_mcq(config)
        events = obs.tracer.emitted
    return ObservedRun(
        obs=obs,
        accuracy=obs.accuracy.report(),
        result=result,
        trace_path=Path(trace_path) if trace_path is not None else None,
        events=events,
    )


def format_observed_run(run: ObservedRun) -> str:
    """Render an :class:`ObservedRun` as deterministic text.

    Counters and gauges are virtual-time-driven and printed; histograms
    carry wall-time-derived figures for some metrics, so only those known
    to be deterministic are included (``rdbms.query_lifetime``,
    ``projection.events``).
    """
    lines = ["observed MCQ run"]
    lines.append(f"trace events: {run.events}")
    if run.trace_path is not None:
        lines.append(f"trace file: {run.trace_path}")
    lines.append("")
    lines.append("metrics (counters):")
    for line in format_metrics(run.obs.metrics, kinds=("counters",)).splitlines():
        lines.append("  " + line)
    lines.append("")
    lines.append(format_accuracy(run.accuracy))
    return "\n".join(lines)
