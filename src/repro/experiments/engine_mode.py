"""Engine-mode MCQ experiment: the paper's prototype fidelity level.

The synthetic MCQ experiment (:mod:`repro.experiments.mcq`) gives the PIs
*exact* remaining costs (Assumption 2).  This variant instead runs the
paper's actual SQL -- ``Q_i`` over Zipf-sized ``part_i`` tables against a
real ``lineitem`` with an index -- through :mod:`repro.engine` executors
timeshared by the simulator.  Remaining costs are now the executor's
*refined estimates*, initial costs come from the optimizer, and estimation
error is real, exactly as in the PostgreSQL prototype of Section 5.

The headline observation must survive this realism: the multi-query
estimate for a large query tracks the truth while the single-query PI
grossly overestimates early (Figure 3's shape).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.metrics import relative_error
from repro.experiments.harness import PIHarness
from repro.sim.jobs import EngineJob
from repro.sim.rdbms import SimulatedRDBMS
from repro.workload.queries import engine_job, join_query, scan_query
from repro.workload.tpcr import TpcrConfig, add_part_table, build_lineitem
from repro.engine.database import Database
from repro.workload.zipf import ZipfSampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan
    from repro.faults.retry import RetryPolicy


def make_job(db: Database, query_id: str, i: int, config: "EngineMCQConfig") -> EngineJob:
    """Build the ``i``-th workload query, honouring the query mix.

    Every job carries a prepare factory so the retry layer can replan it
    after an injected crash, resuming from the last checkpoint when the
    config sets a ``checkpoint_interval``.
    """
    interval = config.checkpoint_interval
    if config.query_mix and i % 4 == 3:
        sql = join_query(i)
    elif config.query_mix and i % 4 == 0:
        sql = scan_query(i)
    else:
        return engine_job(db, query_id, i, checkpoint_interval=interval)

    def prepare():
        return db.prepare(sql, checkpoint_interval=interval)

    return EngineJob(query_id, prepare(), prepare=prepare)


@dataclass(frozen=True)
class EngineMCQConfig:
    """Parameters of the engine-backed MCQ run."""

    n_queries: int = 8
    zipf_a: float = 1.2
    max_size: int = 20
    scale: float = 1 / 4000
    processing_rate: float = 10.0
    sample_interval: float = 2.0
    quantum: float = 0.25
    #: Fraction of each query pre-executed before time 0 (random per query).
    max_head_start: float = 0.6
    #: Mix of query shapes.  The paper notes "We repeated our experiments
    #: with other kinds of queries.  The results were similar"; with
    #: ``query_mix=True`` every third/fourth query is the join / filtered
    #: scan template instead of the correlated-subquery one.
    query_mix: bool = False
    #: Work-preserving checkpoint cadence (U's) for every engine execution,
    #: or None to run without checkpoints.
    checkpoint_interval: float | None = None
    seed: int = 11


@dataclass
class EngineMCQResult:
    """Traced estimates for the focus (largest) query."""

    focus_query: str
    finish_time: float
    estimates: dict[str, list[tuple[float, float]]]
    initial_costs: dict[str, float]
    final_works: dict[str, float]

    def mean_relative_error(self, estimator: str) -> float:
        """Mean relative error of *estimator* over the focus query's life."""
        series = [
            (t, v)
            for t, v in self.estimates.get(estimator, [])
            if t < self.finish_time
        ]
        if not series:
            raise ValueError(f"no estimates for {estimator!r}")
        errs = [relative_error(v, self.finish_time - t) for t, v in series]
        return sum(errs) / len(errs)

    def cost_estimation_error(self, query_id: str) -> float:
        """How wrong the optimizer's initial cost was: |est - actual| / actual."""
        actual = self.final_works[query_id]
        return abs(self.initial_costs[query_id] - actual) / actual


def build_database(config: EngineMCQConfig) -> tuple[Database, list[int]]:
    """Create the TPC-R data with Zipf-distributed part sizes."""
    rng = random.Random(config.seed)
    tpcr = TpcrConfig(scale=config.scale, seed=config.seed)
    # Decorrelation off: the paper's prototype executed this workload
    # with per-row correlated subplans, and the characteristic optimizer
    # estimation error the experiment measures comes from exactly that
    # plan shape.  (The decorrelated plans estimate near-perfectly.)
    db = Database(page_capacity=tpcr.page_capacity, decorrelate=False)
    build_lineitem(db, tpcr, rng)
    sampler = ZipfSampler.over_range(config.zipf_a, config.max_size, rng)
    sizes = [int(sampler.sample()) for _ in range(config.n_queries)]
    for i, n in enumerate(sizes, start=1):
        add_part_table(db, i, n, tpcr, rng)
    db.analyze()
    return db, sizes


@dataclass
class EngineMaintenanceResult:
    """Realised UW/TW per method at prototype fidelity."""

    deadline_fraction: float
    #: method name -> realised unfinished-work fraction.
    fractions: dict[str, float]
    #: Ground-truth total cost per query (from oracle runs), U's.
    true_costs: dict[str, float]


def run_engine_maintenance(
    config: EngineMCQConfig = EngineMCQConfig(),
    deadline_fraction: float = 0.5,
) -> EngineMaintenanceResult:
    """The Figure 11 comparison with *real SQL queries* as the workload.

    Each method sees the executors' refined cost estimates (imperfect);
    realised lost work is accounted against ground-truth costs learned from
    oracle runs of the same deterministic queries.  Because each part table
    gets its own deterministic query, re-preparing the same SQL reproduces
    the same execution for every method -- an apples-to-apples comparison.
    """
    from repro.wm.policies import (
        decide_multi_pi,
        decide_no_pi,
        decide_single_pi,
        execute_policy,
    )

    rng = random.Random(config.seed + 2)
    db, _sizes = build_database(config)

    # Oracle pass: learn each query's true total cost.
    true_costs: dict[str, float] = {}
    for i in range(1, config.n_queries + 1):
        probe = make_job(db, f"oracle_Q{i}", i, config)
        probe.execution.run_to_completion()
        true_costs[f"Q{i}"] = probe.execution.work_done

    head_fractions = [
        rng.uniform(0.0, config.max_head_start)
        for _ in range(config.n_queries)
    ]
    true_remaining = sum(
        true_costs[f"Q{i}"] * (1 - head_fractions[i - 1])
        for i in range(1, config.n_queries + 1)
    )
    t_finish = true_remaining / config.processing_rate
    deadline = deadline_fraction * t_finish

    methods = {
        "no PI": decide_no_pi,
        "single-query PI": decide_single_pi,
        "multi-query PI": decide_multi_pi,
    }
    fractions: dict[str, float] = {}
    for name, decision in methods.items():
        rdbms = SimulatedRDBMS(
            processing_rate=config.processing_rate, quantum=config.quantum
        )
        for i in range(1, config.n_queries + 1):
            job = make_job(db, f"Q{i}", i, config)
            job.execution.step(head_fractions[i - 1] * true_costs[f"Q{i}"])
            rdbms.submit(job)
        outcome = execute_policy(
            rdbms, decision, deadline, total_costs=true_costs
        )
        fractions[name] = outcome.unfinished_fraction

    return EngineMaintenanceResult(
        deadline_fraction=deadline_fraction,
        fractions=fractions,
        true_costs=true_costs,
    )


def run_engine_mcq(
    config: EngineMCQConfig = EngineMCQConfig(),
    fault_plan: "FaultPlan | None" = None,
    retry_policy: "RetryPolicy | None" = None,
) -> EngineMCQResult:
    """Run the engine-backed MCQ experiment.

    With a ``fault_plan`` the run executes under injected faults; pair it
    with a ``retry_policy`` (and a config ``checkpoint_interval``) so
    crashed queries are resubmitted -- resuming from their checkpoints --
    and the experiment still produces a complete report.
    """
    rng = random.Random(config.seed + 1)
    db, _sizes = build_database(config)

    rdbms = SimulatedRDBMS(
        processing_rate=config.processing_rate, quantum=config.quantum
    )
    if retry_policy is not None:
        from repro.faults.retry import RetryController

        RetryController(rdbms, retry_policy)
    if fault_plan is not None:
        from repro.faults.injector import FaultInjector

        FaultInjector(rdbms, fault_plan).arm()
    jobs = []
    initial_costs = {}
    for i in range(1, config.n_queries + 1):
        job = make_job(db, f"Q{i}", i, config)
        initial_costs[job.query_id] = job.estimated_remaining_cost()
        # Random starting point: pre-execute a fraction before time 0.
        head = rng.uniform(0.0, config.max_head_start)
        job.execution.step(head * initial_costs[job.query_id])
        jobs.append(job)

    focus = max(jobs, key=lambda j: j.estimated_remaining_cost()).query_id
    for job in jobs:
        rdbms.submit(job)
    harness = PIHarness(rdbms, interval=config.sample_interval)
    rdbms.run_to_completion(max_time=1e7)
    del harness

    trace = rdbms.traces[focus]
    finish = trace.finished_at
    assert finish is not None
    estimates = {
        name: list(series)
        for name, series in trace.estimates.items()
    }
    # Read final works off the records: a retried query's live job is the
    # resubmitted copy, not the object submitted at time 0.
    final_works = {
        j.query_id: rdbms.record(j.query_id).job.completed_work for j in jobs
    }
    return EngineMCQResult(
        focus_query=focus,
        finish_time=finish,
        estimates=estimates,
        initial_costs=initial_costs,
        final_works=final_works,
    )
