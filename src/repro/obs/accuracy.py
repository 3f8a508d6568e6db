"""PI-accuracy telemetry: how good were the estimates, per query, online.

König et al. and Wu et al. (see PAPERS.md) both argue a progress estimator
must *track its own error* while running.  This module does that for every
query of a simulated run:

* each remaining-time estimate any estimator produces is appended to a
  per-(query, estimator) :class:`~repro.core.metrics.StepSeries`;
* when the query finishes, the actual remaining time at every sample
  instant is known exactly (``finish - t``), so the tracker computes the
  paper's Section 5.2.3 *relative error* ``|est - actual| / actual`` for
  the whole trajectory;
* the per-query summary reports the **relative-error profile** (error
  resampled at fixed fractions of the query's observed lifetime -- the
  carry-back resampling of :meth:`StepSeries.sample` handles estimators
  that started late) and the **forecast-correction lag** (how long until
  the estimator's error dropped -- and stayed -- below a threshold).

Everything here is driven by virtual time only, so reports are
deterministic for seeded runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.metrics import StepSeries, mean_finite, relative_error

#: Default lifetime fractions of the relative-error profile.
DEFAULT_PROFILE_FRACTIONS: tuple[float, ...] = (
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
)


@dataclass(frozen=True)
class EstimatorAccuracy:
    """Accuracy summary of one estimator on one query."""

    estimator: str
    #: Number of estimates recorded before the query finished.
    samples: int
    #: Mean / max Section 5.2.3 relative error over the recorded samples
    #: (non-finite estimates count as ``inf`` and are capped at 10 for the
    #: mean, mirroring the figure benches' policy).
    mean_rel_error: float
    max_rel_error: float
    #: Relative error of the last estimate before the finish.
    final_rel_error: float
    #: Relative error resampled at fixed fractions of the query lifetime:
    #: ``(fraction, rel_error)`` pairs.
    profile: tuple[tuple[float, float], ...]
    #: Seconds from the query's start until the estimator's relative error
    #: dropped below the threshold *and stayed there*; ``inf`` if it never
    #: settled.  The paper's "corrects bad forecasts" claim, quantified.
    correction_lag: float


@dataclass(frozen=True)
class QueryAccuracy:
    """Accuracy summary of one finished query."""

    query_id: str
    started_at: float
    finished_at: float
    estimators: dict[str, EstimatorAccuracy]

    @property
    def lifetime(self) -> float:
        """Observed running lifetime, seconds."""
        return self.finished_at - self.started_at


@dataclass(frozen=True)
class AccuracyReport:
    """Per-query accuracy summaries for one observed run."""

    queries: tuple[QueryAccuracy, ...]
    #: Queries that never finished (no ground truth, so no summary).
    unfinished: tuple[str, ...]
    error_threshold: float

    def for_query(self, query_id: str) -> QueryAccuracy:
        """The summary of one query; raises :class:`KeyError` if absent."""
        for q in self.queries:
            if q.query_id == query_id:
                return q
        raise KeyError(f"no accuracy summary for query {query_id!r}")


@dataclass
class _QueryLog:
    """Mutable per-query state while the run is live."""

    query_id: str
    started_at: float | None = None
    finished_at: float | None = None
    series: dict[str, StepSeries] = field(default_factory=dict)


class AccuracyTracker:
    """Record estimate trajectories online; summarise accuracy on demand.

    Parameters
    ----------
    error_threshold:
        Relative-error level used by the correction-lag statistic: the lag
        is the time until the estimator's error last crossed *below* this
        threshold (default 0.25, i.e. 25%).
    profile_fractions:
        Lifetime fractions the relative-error profile is resampled at.
    mean_error_cap:
        Cap substituted for non-finite relative errors when averaging
        (see :func:`repro.core.metrics.mean_finite`).
    """

    def __init__(
        self,
        error_threshold: float = 0.25,
        profile_fractions: tuple[float, ...] = DEFAULT_PROFILE_FRACTIONS,
        mean_error_cap: float = 10.0,
    ) -> None:
        if not (math.isfinite(error_threshold) and error_threshold > 0):
            raise ValueError(
                f"error_threshold must be finite and > 0, got {error_threshold}"
            )
        if not profile_fractions:
            raise ValueError("profile_fractions must not be empty")
        for f in profile_fractions:
            if not 0 < f < 1:
                raise ValueError(
                    f"profile fractions must lie in (0, 1), got {f}"
                )
        self._threshold = error_threshold
        self._fractions = tuple(profile_fractions)
        self._cap = mean_error_cap
        self._logs: dict[str, _QueryLog] = {}

    # ------------------------------------------------------------------
    # Online recording
    # ------------------------------------------------------------------

    def _log(self, query_id: str) -> _QueryLog:
        if query_id not in self._logs:
            self._logs[query_id] = _QueryLog(query_id)
        return self._logs[query_id]

    def mark_started(self, query_id: str, time: float) -> None:
        """Record that *query_id* started running at virtual *time*.

        The first start wins: retries do not rebase the lifetime (the
        budget an operator cares about is total occupancy).
        """
        log = self._log(query_id)
        if log.started_at is None:
            log.started_at = time

    def mark_finished(self, query_id: str, time: float) -> None:
        """Record that *query_id* finished at virtual *time*."""
        self._log(query_id).finished_at = time

    def observe(
        self, query_id: str, estimator: str, time: float, seconds: float
    ) -> None:
        """Record one remaining-time estimate for *query_id*.

        Non-finite estimates are recorded as-is: they show up as infinite
        relative error, which is exactly what "the estimator declined to
        answer" should cost it in the accuracy report.
        """
        log = self._log(query_id)
        series = log.series.setdefault(estimator, StepSeries())
        series.append(time, seconds)

    @property
    def tracked_queries(self) -> tuple[str, ...]:
        """Ids of queries with any recorded state, sorted."""
        return tuple(sorted(self._logs))

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    def report(self) -> AccuracyReport:
        """Summarise every finished query (deterministic, sorted by id)."""
        done: list[QueryAccuracy] = []
        unfinished: list[str] = []
        for qid in sorted(self._logs):
            log = self._logs[qid]
            if log.finished_at is None:
                unfinished.append(qid)
                continue
            done.append(self._summarise(log))
        return AccuracyReport(
            queries=tuple(done),
            unfinished=tuple(unfinished),
            error_threshold=self._threshold,
        )

    def _summarise(self, log: _QueryLog) -> QueryAccuracy:
        finish = log.finished_at
        assert finish is not None
        earliest_sample = min(
            (s.first_time() for s in log.series.values() if len(s)),
            default=finish,
        )
        start = log.started_at if log.started_at is not None else earliest_sample
        start = min(start, earliest_sample, finish)
        estimators: dict[str, EstimatorAccuracy] = {}
        for name in sorted(log.series):
            series = log.series[name]
            summary = self._summarise_estimator(name, series, start, finish)
            if summary is not None:
                estimators[name] = summary
        return QueryAccuracy(
            query_id=log.query_id,
            started_at=start,
            finished_at=finish,
            estimators=estimators,
        )

    def _summarise_estimator(
        self, name: str, series: StepSeries, start: float, finish: float
    ) -> EstimatorAccuracy | None:
        pairs = [(t, v) for t, v in series if t < finish]
        if not pairs:
            return None
        errors = [
            (t, relative_error(est, finish - t)) for t, est in pairs
        ]
        rel_values = [e for _, e in errors]
        # Profile over the query's observed lifetime.  The resample grid
        # can start before the estimator's first sample (a query observed
        # late); StepSeries.sample carries the first value back.
        lifetime = finish - start
        profile: list[tuple[float, float]] = []
        if lifetime > 0:
            grid = [start + f * lifetime for f in self._fractions]
            grid = [t for t in grid if t < finish]
            sampled = series.sample(grid, carry_back=True)
            profile = [
                (
                    round((t - start) / lifetime, 12),
                    relative_error(est, finish - t),
                )
                for t, est in zip(grid, sampled)
            ]
        # Correction lag: time from start until the error is last seen
        # above the threshold (the estimate settled after that sample).
        lag = 0.0
        for t, err in errors:
            if err > self._threshold:
                lag = math.inf
        if math.isinf(lag):
            settled: float | None = None
            for t, err in errors:
                if err > self._threshold:
                    settled = None
                elif settled is None:
                    settled = t
            lag = (settled - start) if settled is not None else math.inf
        return EstimatorAccuracy(
            estimator=name,
            samples=len(pairs),
            mean_rel_error=mean_finite(rel_values, cap=self._cap),
            max_rel_error=max(rel_values),
            final_rel_error=rel_values[-1],
            profile=tuple(profile),
            correction_lag=lag,
        )


def format_accuracy(report: AccuracyReport) -> str:
    """Render an :class:`AccuracyReport` as deterministic text lines.

    Only virtual-time-derived numbers appear, so the output is identical
    across repeated seeded runs -- the property the CLI test asserts.
    """
    lines = [
        f"accuracy report ({len(report.queries)} finished, "
        f"{len(report.unfinished)} unfinished; "
        f"threshold {report.error_threshold:g})"
    ]
    for q in report.queries:
        lines.append(
            f"  {q.query_id}: lifetime {q.lifetime:.2f}s "
            f"[{q.started_at:.2f} -> {q.finished_at:.2f}]"
        )
        for name, e in q.estimators.items():
            lag = "never" if math.isinf(e.correction_lag) else f"{e.correction_lag:.2f}s"
            lines.append(
                f"    {name}: n={e.samples} mean_rel={e.mean_rel_error:.4f} "
                f"max_rel={e.max_rel_error:.4f} final_rel={e.final_rel_error:.4f} "
                f"settle={lag}"
            )
            if e.profile:
                prof = " ".join(f"{f:.0%}:{err:.3f}" for f, err in e.profile)
                lines.append(f"      profile {prof}")
    if report.unfinished:
        lines.append("  unfinished: " + ", ".join(report.unfinished))
    return "\n".join(lines)
