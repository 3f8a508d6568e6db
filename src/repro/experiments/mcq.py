"""The Multiple Concurrent Query (MCQ) experiment (paper Section 5.2.1).

Ten queries run concurrently; their sizes ``N_i`` follow a Zipf distribution
with parameter ``a = 1.2`` and at time 0 each query is at a random point of
its execution.  No new queries arrive.  We focus on a typical large query
``Q`` (the one finishing last) and trace:

* **Figure 3** -- the remaining execution time estimated over time by the
  single-query PI and the multi-query PI, against the actual remaining time;
* **Figure 4** -- the execution speed of ``Q`` monitored over time (which
  rises roughly five-fold as the other queries finish).

The paper's headline observations, which the benches assert as *shape*:
the multi-query estimate stays close to the actual remaining time, while the
single-query estimate starts roughly a factor of three too high.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.metrics import StepSeries
from repro.experiments.harness import MULTI_QUERY, SINGLE_QUERY, PIHarness
from repro.sim.jobs import SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS
from repro.workload.zipf import ZipfSampler


@dataclass(frozen=True)
class MCQConfig:
    """Parameters of one MCQ run (paper defaults)."""

    n_queries: int = 10
    zipf_a: float = 1.2
    #: Candidate part-table sizes N (ranks of the Zipf distribution).
    max_size: int = 100
    #: Work units per unit of size: cost_i = cost_per_size * N_i.
    cost_per_size: float = 30.0
    #: Total processing rate C, U/s.
    processing_rate: float = 10.0
    #: PI sampling interval, seconds.
    sample_interval: float = 2.0
    seed: int = 1


@dataclass
class MCQResult:
    """Series for the focus query, ready to render Figures 3 and 4."""

    focus_query: str
    finish_time: float
    #: (time, actual remaining seconds) -- the dashed line of Figure 3.
    actual: list[tuple[float, float]]
    #: (time, estimate) series per estimator name.
    estimates: dict[str, list[tuple[float, float]]]
    #: (time, U/s) observed execution speed -- Figure 4.
    speed: list[tuple[float, float]]
    #: Finish time of every query in the run.
    finish_times: dict[str, float]

    def initial_overestimate_factor(self, estimator: str = SINGLE_QUERY) -> float:
        """Ratio of the estimator's first estimate to the truth at that time.

        The paper reports the single-query PI starting ~3x too high.
        """
        series = self.estimates[estimator]
        if not series:
            raise ValueError(f"no estimates recorded for {estimator!r}")
        t0, est0 = series[0]
        actual = max(self.finish_time - t0, 1e-9)
        return est0 / actual

    def speedup_factor(self) -> float:
        """Ratio of the focus query's final speed to its initial speed."""
        if len(self.speed) < 2:
            raise ValueError("not enough speed samples")
        first = self.speed[0][1]
        last = self.speed[-1][1]
        if first <= 0:
            raise ValueError("initial speed is zero")
        return last / first

    def mean_abs_error(self, estimator: str) -> float:
        """Mean absolute error (seconds) of an estimator over the run."""
        series = self.estimates[estimator]
        if not series:
            raise ValueError(f"no estimates recorded for {estimator!r}")
        errs = [abs(est - max(self.finish_time - t, 0.0)) for t, est in series]
        return sum(errs) / len(errs)


def run_mcq(config: MCQConfig = MCQConfig()) -> MCQResult:
    """Run one MCQ experiment and collect the Figure 3 / Figure 4 series."""
    rng = random.Random(config.seed)
    sizes = ZipfSampler.over_range(config.zipf_a, config.max_size, rng).sample_many(
        config.n_queries
    )
    rdbms = SimulatedRDBMS(processing_rate=config.processing_rate)
    jobs = []
    for i, size in enumerate(sizes):
        cost = size * config.cost_per_size
        done = rng.uniform(0.0, 0.95) * cost
        jobs.append(SyntheticJob(f"Q{i + 1}", cost, initial_done=done))
    for job in jobs:
        rdbms.submit(job)

    harness = PIHarness(rdbms, interval=config.sample_interval)

    # Focus on the query with the largest remaining cost: it finishes last
    # and experiences the full speed-up as the others drain.
    focus = max(jobs, key=lambda j: j.estimated_remaining_cost()).query_id

    rdbms.run_to_completion()

    trace = rdbms.traces[focus]
    finish = trace.finished_at
    assert finish is not None

    estimates: dict[str, list[tuple[float, float]]] = {}
    for name in (SINGLE_QUERY, MULTI_QUERY):
        series = trace.estimates.get(name, StepSeries())
        estimates[name] = [(t, v) for t, v in series if t <= finish]

    actual = [
        (t, finish - t)
        for t, _ in estimates[MULTI_QUERY]
    ]
    speed = [(t, v) for t, v in trace.speed if t <= finish]
    finish_times = {
        qid: tr.finished_at
        for qid, tr in rdbms.traces.queries.items()
        if tr.finished_at is not None
    }
    del harness
    return MCQResult(
        focus_query=focus,
        finish_time=finish,
        actual=actual,
        estimates=estimates,
        speed=speed,
        finish_times=finish_times,
    )
