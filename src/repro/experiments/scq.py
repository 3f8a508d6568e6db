"""The Stream Concurrent Query (SCQ) experiment (paper Section 5.2.3).

At time 0 ten queries are running, each at a random point of its execution;
new queries keep arriving according to a Poisson process with rate
``lambda``.  All query sizes follow Zipf(``a = 2.2``).  For each initial
query the PIs estimate, *at time 0*, its remaining execution time; the
relative error ``|t_est - t_actual| / t_actual`` is measured against the
simulated truth.

Reproduced figures:

* **Figure 6** -- relative error vs ``lambda`` for the *last finishing*
  query (single- vs multi-query PI, exact ``lambda``/``c̄`` known).
* **Figure 7** -- same, averaged over all ten initial queries.
* **Figure 8 / 9** -- the multi-query PI is fed a wrong rate
  ``lambda' != lambda`` (``lambda = 0.03``): error vs ``lambda'``.
* **Figure 10** -- remaining-time estimates over time for the last
  finishing query under wrong ``lambda'``, with the adaptive forecaster
  correcting the error as real arrivals are observed.

Implementation notes
--------------------
The time-0 estimates do not influence execution, so each simulated run is
evaluated under arbitrarily many ``lambda'`` values without re-simulation.
Arrivals are generated lazily in horizon chunks until every initial query
has finished; in the unstable regime (``lambda * c̄ > C``) generation stops
after ``max_horizon_factor`` times the nominal drain time -- a documented
simulation bound that only matters far above saturation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.core.forecast import AdaptiveForecaster, WorkloadForecast
from repro.core.metrics import mean, relative_error
from repro.core.model import SystemSnapshot
from repro.core.multi_query import MultiQueryProgressIndicator
from repro.experiments.harness import PIHarness
from repro.sim.arrivals import ArrivalSchedule, poisson_arrival_times
from repro.sim.jobs import SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS
from repro.workload.zipf import ZipfSampler


@dataclass(frozen=True)
class SCQConfig:
    """Parameters of the SCQ experiment (paper defaults)."""

    n_initial: int = 10
    zipf_a: float = 2.2
    max_size: int = 100
    processing_rate: float = 1.0
    #: Work per unit of size.  ``None`` calibrates so the system saturates at
    #: ``lambda ~= 0.07`` exactly as in the paper (``c̄ = C / 0.07``).
    cost_per_size: float | None = None
    saturation_lambda: float = 0.07
    #: Arrival-horizon chunk, as a multiple of the nominal drain time.
    horizon_factor: float = 2.0
    #: Stop generating arrivals beyond this multiple of the nominal drain
    #: time (bounds unstable-regime runs).
    max_horizon_factor: float = 40.0
    runs: int = 30
    seed: int = 42


def calibrated_cost_per_size(config: SCQConfig) -> float:
    """Work per size unit such that saturation falls at ``saturation_lambda``.

    The system saturates when ``lambda * c̄ = C``; with Zipf-mean size ``m``
    this gives ``cost_per_size = C / (saturation_lambda * m)``.
    """
    if config.cost_per_size is not None:
        return config.cost_per_size
    sampler = ZipfSampler.over_range(config.zipf_a, config.max_size)
    return config.processing_rate / (config.saturation_lambda * sampler.mean())


def mean_arrival_cost(config: SCQConfig) -> float:
    """The exact average cost ``c̄`` of arriving queries, in U's."""
    sampler = ZipfSampler.over_range(config.zipf_a, config.max_size)
    return sampler.mean() * calibrated_cost_per_size(config)


@dataclass
class SCQRun:
    """One simulated SCQ run: ground truth plus the time-0 system state."""

    snapshot0: SystemSnapshot
    speeds0: dict[str, float]
    actual_finish: dict[str, float]
    initial_ids: tuple[str, ...]
    arrival_times: list[float]

    @property
    def last_finishing(self) -> str:
        """The initial query that finished last."""
        return max(self.initial_ids, key=lambda q: self.actual_finish[q])


def simulate_scq_run(config: SCQConfig, lam: float, seed: int) -> SCQRun:
    """Simulate one run at arrival rate *lam*; return ground truth."""
    return _simulate(config, lam, seed)[1]


def _simulate(
    config: SCQConfig,
    lam: float,
    seed: int,
    attach: Callable[[SimulatedRDBMS], None] | None = None,
) -> tuple[SimulatedRDBMS, SCQRun]:
    """One seeded run; *attach* hooks observers in before any arrival."""
    rng = random.Random(seed)
    cps = calibrated_cost_per_size(config)
    sizes = ZipfSampler.over_range(config.zipf_a, config.max_size, rng)

    rdbms = SimulatedRDBMS(processing_rate=config.processing_rate)
    initial: list[SyntheticJob] = []
    for i in range(config.n_initial):
        cost = sizes.sample() * cps
        done = rng.uniform(0.0, 0.95) * cost
        job = SyntheticJob(f"Q{i + 1}", cost, initial_done=done)
        initial.append(job)
        rdbms.submit(job)
    initial_ids = tuple(j.query_id for j in initial)

    nominal_drain = (
        sum(j.estimated_remaining_cost() for j in initial) / config.processing_rate
    )
    nominal_drain = max(nominal_drain, 1.0)

    snapshot0 = rdbms.snapshot()
    speeds0 = rdbms.current_speeds()
    if attach is not None:
        attach(rdbms)

    # Lazy arrival generation in horizon chunks.
    arrival_times: list[float] = []
    seq = 0
    horizon = 0.0

    def extend_arrivals(upto: float) -> None:
        nonlocal horizon, seq
        if lam <= 0 or upto <= horizon:
            return
        times = poisson_arrival_times(lam, upto - horizon, rng)
        schedule = ArrivalSchedule()
        for t in times:
            seq += 1
            when = horizon + t
            cost = sizes.sample() * cps

            def factory(cost: float = cost, k: int = seq) -> SyntheticJob:
                return SyntheticJob(f"A{k}", cost)

            schedule.add(when, factory)
            arrival_times.append(when)
        rdbms.schedule(schedule)
        horizon = upto

    chunk = config.horizon_factor * nominal_drain
    max_horizon = config.max_horizon_factor * nominal_drain
    extend_arrivals(min(chunk, max_horizon))

    def initial_done() -> bool:
        return all(rdbms.record(q).status == "finished" for q in initial_ids)

    while not initial_done():
        rdbms.run_until(rdbms.clock + chunk)
        if not initial_done() and lam > 0 and horizon < max_horizon:
            extend_arrivals(min(horizon + chunk, max_horizon))

    actual = {
        q: rdbms.traces[q].finished_at
        for q in initial_ids
    }
    return rdbms, SCQRun(
        snapshot0=snapshot0,
        speeds0=speeds0,
        actual_finish=actual,  # type: ignore[arg-type]
        initial_ids=initial_ids,
        arrival_times=arrival_times,
    )


@dataclass
class SCQErrors:
    """Relative errors of both PIs on one run."""

    single: dict[str, float]
    multi: dict[str, float]
    last_finishing: str

    def single_last(self) -> float:
        """Single-query relative error for the last finishing query."""
        return self.single[self.last_finishing]

    def multi_last(self) -> float:
        """Multi-query relative error for the last finishing query."""
        return self.multi[self.last_finishing]

    def single_avg(self) -> float:
        """Single-query relative error averaged over the initial queries."""
        return mean(self.single.values())

    def multi_avg(self) -> float:
        """Multi-query relative error averaged over the initial queries."""
        return mean(self.multi.values())


def evaluate_run(
    run: SCQRun,
    forecast: WorkloadForecast | None,
) -> SCQErrors:
    """Compute both PIs' time-0 relative errors for one simulated run.

    ``forecast`` is what the multi-query PI believes about future arrivals
    (exact, wrong, or ``None`` for no forecasting); the single-query PI by
    definition uses only the current speed.
    """
    single: dict[str, float] = {}
    multi_pi = MultiQueryProgressIndicator(forecast=forecast)
    estimate = multi_pi.estimate(run.snapshot0)
    multi: dict[str, float] = {}
    for qid in run.initial_ids:
        actual = run.actual_finish[qid]
        q = run.snapshot0.find(qid)
        speed = run.speeds0[qid]
        if actual <= 0:
            continue
        single[qid] = relative_error(q.remaining_cost / speed, actual)
        multi[qid] = relative_error(estimate.for_query(qid), actual)
    last = run.last_finishing
    return SCQErrors(single=single, multi=multi, last_finishing=last)


@dataclass
class SCQSweepPoint:
    """Aggregated errors at one arrival rate (or one ``lambda'``)."""

    lam: float
    single_last: float
    multi_last: float
    single_avg: float
    multi_avg: float


@dataclass
class SCQSweepResult:
    """A full sweep: one :class:`SCQSweepPoint` per x-axis value."""

    points: list[SCQSweepPoint] = field(default_factory=list)

    def as_rows(self) -> list[tuple[float, float, float, float, float]]:
        """Rows of (x, single_last, multi_last, single_avg, multi_avg)."""
        return [
            (p.lam, p.single_last, p.multi_last, p.single_avg, p.multi_avg)
            for p in self.points
        ]


def run_scq_sweep(
    config: SCQConfig = SCQConfig(),
    lambdas: tuple[float, ...] = (0.0, 0.02, 0.04, 0.06, 0.08, 0.12, 0.16, 0.2),
) -> SCQSweepResult:
    """Figures 6 and 7: error vs arrival rate, exact forecast."""
    c_bar = mean_arrival_cost(config)
    result = SCQSweepResult()
    for lam in lambdas:
        errors = []
        for r in range(config.runs):
            run = simulate_scq_run(
                config, lam, seed=config.seed + 1000 * r + int(lam * 1e6) % 997
            )
            forecast = (
                WorkloadForecast(arrival_rate=lam, average_cost=c_bar)
                if lam > 0
                else None
            )
            errors.append(evaluate_run(run, forecast))
        result.points.append(
            SCQSweepPoint(
                lam=lam,
                single_last=mean(e.single_last() for e in errors),
                multi_last=mean(e.multi_last() for e in errors),
                single_avg=mean(e.single_avg() for e in errors),
                multi_avg=mean(e.multi_avg() for e in errors),
            )
        )
    return result


def run_lambda_sensitivity(
    config: SCQConfig = SCQConfig(),
    true_lambda: float = 0.03,
    lambda_primes: tuple[float, ...] = (0.0, 0.01, 0.03, 0.05, 0.08, 0.12, 0.16, 0.2),
) -> SCQSweepResult:
    """Figures 8 and 9: the multi-query PI believes ``lambda'``, not ``lambda``.

    The same simulated runs (at the true rate) are re-evaluated under every
    ``lambda'``; the single-query PI's error is constant across the sweep by
    construction, exactly as in the paper's figures.
    """
    c_bar = mean_arrival_cost(config)
    runs = [
        simulate_scq_run(config, true_lambda, seed=config.seed + 1000 * r)
        for r in range(config.runs)
    ]
    result = SCQSweepResult()
    for lp in lambda_primes:
        forecast = (
            WorkloadForecast(arrival_rate=lp, average_cost=c_bar) if lp > 0 else None
        )
        errors = [evaluate_run(run, forecast) for run in runs]
        result.points.append(
            SCQSweepPoint(
                lam=lp,
                single_last=mean(e.single_last() for e in errors),
                multi_last=mean(e.multi_last() for e in errors),
                single_avg=mean(e.single_avg() for e in errors),
                multi_avg=mean(e.multi_avg() for e in errors),
            )
        )
    return result


@dataclass
class AdaptiveTraceResult:
    """Figure 10: multi-query estimates over time under a wrong ``lambda'``."""

    focus_query: str
    finish_time: float
    #: Per-lambda' series of (time, estimated remaining seconds).
    series: dict[float, list[tuple[float, float]]]

    def final_error(self, lambda_prime: float) -> float:
        """Relative error of the last estimate before completion."""
        pts = [p for p in self.series[lambda_prime] if p[0] < self.finish_time]
        if not pts:
            raise ValueError("no estimates before completion")
        t, est = pts[-1]
        return relative_error(est, self.finish_time - t)

    def initial_error(self, lambda_prime: float) -> float:
        """Relative error of the first recorded estimate."""
        pts = self.series[lambda_prime]
        if not pts:
            raise ValueError("no estimates recorded")
        t, est = pts[0]
        return relative_error(est, max(self.finish_time - t, 1e-9))


def run_adaptive_trace(
    config: SCQConfig = SCQConfig(),
    true_lambda: float = 0.03,
    lambda_primes: tuple[float, ...] = (0.04, 0.05),
    sample_interval: float = 2.0,
    seed_offset: int = 7,
) -> AdaptiveTraceResult:
    """Figure 10: one run, traced estimates under wrong ``lambda'`` values.

    Each multi-query PI carries an :class:`AdaptiveForecaster` seeded with
    the wrong prior; observed arrivals pull the blended rate towards the
    truth over time.
    """
    c_bar = mean_arrival_cost(config)
    seed = config.seed + seed_offset

    # First pass, without samplers: the last finishing query and the
    # ground truth.  The traced reruns advance the clock in sampler-sized
    # steps, so their finish times may differ from it in the last bits.
    probe = simulate_scq_run(config, true_lambda, seed=seed)
    focus = probe.last_finishing

    # Second pass: the identical run (same seed) with a PI attached.
    series: dict[float, list[tuple[float, float]]] = {}
    for lp in lambda_primes:
        prior = WorkloadForecast(arrival_rate=lp, average_cost=c_bar)
        indicator = MultiQueryProgressIndicator(
            forecaster=AdaptiveForecaster(prior)
        )

        def attach(rdbms: SimulatedRDBMS) -> None:
            PIHarness(
                rdbms,
                interval=sample_interval,
                with_single=False,
                multi_indicators={"multi-query": indicator},
            )

        rdbms, _ = _simulate(config, true_lambda, seed, attach)
        trace = rdbms.traces[focus]
        fin = trace.finished_at or rdbms.clock
        est = trace.estimates.get("multi-query")
        series[lp] = [(t, v) for t, v in est if t <= fin] if est else []
    return AdaptiveTraceResult(
        focus_query=focus, finish_time=probe.actual_finish[focus],
        series=series,
    )
