"""The five workloads of the end-to-end benchmark.

Every workload follows one shape:

* ``__init__(seed, quick)`` derives the inputs (data sizes, arrival times,
  costs, SQL text) from the seed alone;
* ``build()`` makes the data the repetitions run over -- its wall time is
  the benchmark's ``setup_s``;
* ``repetition(data, tracer, check)`` builds fresh ``SimulatedRDBMS`` /
  ``ShardedCluster`` state, runs **from SQL text** until every query is
  terminal and returns a :class:`Rep`;
* ``verify(data, rep)`` checks the outputs of a repetition against an
  independent run of the same SQL; it runs outside the timed window.

Spans are recorded around public callables only (see ``spans.py``); with
``NullTracer`` no wrapper is installed at all, so the untraced run pays
two ``perf_counter()`` reads per PI refresh and nothing else.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from repro.core.multi_query import MultiQueryProgressIndicator
from repro.core.single_query import SingleQueryProgressIndicator
from repro.core.standard_case import standard_case
from repro.dist.dataset import load_tpcr
from repro.dist.router import ShardedCluster
from repro.qos import (
    AdmissionController,
    AdmissionPolicy,
    DegradationLadder,
    LadderConfig,
)
from repro.sim.arrivals import ArrivalSchedule
from repro.sim.jobs import EngineJob, Job, SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS
from repro.wm import choose_victim, choose_victim_for_all, plan_maintenance
from repro.workload import tpcr
from repro.workload.queries import join_query, paper_query, scan_query
from repro.workload.tpcr import TpcrConfig
from repro.workload.zipf import zipf_probabilities


@dataclass
class Outcome:
    """How one offered query ended, in virtual time."""

    status: str
    submitted_at: float = 0.0
    finished_at: float | None = None
    work: float = 0.0


@dataclass
class Rep:
    """Everything one repetition measured and produced."""

    wall_s: float = 0.0
    #: Host seconds inside PI refreshes, one entry per refresh.
    refresh_s: list = field(default_factory=list)
    #: Per-query estimates the PIs delivered.
    estimates: int = 0
    #: (virtual time, query id -> estimated remaining seconds) per refresh.
    samples: list = field(default_factory=list)
    outcomes: dict = field(default_factory=dict)
    makespan: float = 0.0
    rows_hash: str = ""
    #: Simulated counts that belong to the signature (decisions, rungs).
    counts: dict = field(default_factory=dict)
    #: Host-side layer counters and latencies of a traced repetition.
    layer: dict = field(default_factory=dict)
    #: Live objects the verifier reads (jobs, cluster, controller).
    live: dict = field(default_factory=dict)
    #: Verification failures found while the repetition ran (check=True).
    problems: list = field(default_factory=list)

    @property
    def pi_s(self) -> float:
        return sum(self.refresh_s)

    @property
    def offered(self) -> int:
        return len(self.outcomes)

    @property
    def finished(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.status == "finished")

    @property
    def work_u(self) -> float:
        """Useful work: completed work of the queries that finished."""
        return sum(
            o.work for o in self.outcomes.values() if o.status == "finished"
        )

    def pi_err_frac(self) -> float:
        """Mean |estimate - actual remaining| / response time, virtual s."""
        total, n = 0.0, 0
        for t, estimates in self.samples:
            for qid, est in estimates.items():
                o = self.outcomes[qid]
                if o.status != "finished" or o.finished_at <= t:
                    continue
                response = o.finished_at - o.submitted_at
                if response > 0:
                    total += abs(est - (o.finished_at - t)) / response
                    n += 1
        return total / n if n else 0.0

    def digest(self) -> str:
        """Signature of everything simulated; host time plays no part."""
        parts = [
            repr(self.makespan),
            repr(sorted(
                (q, o.status, o.finished_at) for q, o in self.outcomes.items()
            )),
            repr(sorted(self.counts.items())),
            self.rows_hash,
            repr(self.pi_err_frac()),
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def rows_digest(row_lists) -> str:
    h = hashlib.sha256()
    for rows in row_lists:
        h.update(repr(rows).encode())
    return h.hexdigest()[:16]


class TracedJob(Job):
    """Decorator (in the style of ``CostNoiseJob``) timing ``advance``.

    ``acc`` is a two-slot list ``[seconds, calls]``: engine steps are far
    too frequent for one span each, so they end up as one aggregate span.
    """

    def __init__(self, inner: EngineJob, acc: list) -> None:
        super().__init__(
            inner.query_id, inner.priority, inner.weight, deadline=inner.deadline
        )
        self._inner = inner
        self._acc = acc

    @property
    def completed_work(self) -> float:
        return self._inner.completed_work

    @property
    def finished(self) -> bool:
        return self._inner.finished

    def estimated_remaining_cost(self) -> float:
        return self._inner.estimated_remaining_cost()

    def memory_pressure_events(self) -> int:
        return self._inner.memory_pressure_events()

    def advance(self, work: float) -> float:
        t0 = perf_counter()
        try:
            return self._inner.advance(work)
        finally:
            self._acc[0] += perf_counter() - t0
            self._acc[1] += 1


class PISampler:
    """The benchmark's own PI consumer, registered via ``add_sampler``.

    Refresh time is taken with two ``perf_counter()`` reads per refresh in
    every run, traced or not; the spans inside only exist when tracing.
    """

    def __init__(self, rep: Rep, tracer, *, multi: bool, serving: bool,
                 single: bool, check: bool = False, wm_refreshes=()) -> None:
        self.rep = rep
        self.tracer = tracer
        self.multi = MultiQueryProgressIndicator() if multi else None
        self.serving = serving
        self.singles: dict | None = {} if single else None
        self.check = check
        self.wm_refreshes = set(wm_refreshes) if tracer.enabled else ()
        self.supported: list[bool] = []

    def __call__(self, rdbms: SimulatedRDBMS) -> None:
        rep, span = self.rep, self.tracer.span
        delivered = 0
        estimates = None
        t0 = perf_counter()
        with span("pi.refresh"):
            if self.serving:
                with span("core.remaining_times"):
                    estimates = rdbms.remaining_times()
                delivered += len(estimates)
            if self.multi is not None:
                with span("sim.snapshot"):
                    snapshot = rdbms.snapshot()
                with span("core.estimate"):
                    estimates = self.multi.estimate(snapshot).remaining_seconds
                delivered += len(estimates)
            if self.singles is not None:
                with span("core.single_pi"):
                    now = rdbms.clock
                    for job in rdbms.running:
                        pi = self.singles.get(job.query_id)
                        if pi is None:
                            pi = self.singles[job.query_id] = (
                                SingleQueryProgressIndicator()
                            )
                        pi.observe(now, job.completed_work)
                        estimate = pi.estimate(
                            now, job.estimated_remaining_cost()
                        )
                        if estimate is not None:
                            delivered += 1
        rep.refresh_s.append(perf_counter() - t0)
        rep.estimates += delivered
        rep.samples.append((rdbms.clock, estimates))
        if (self.check or self.tracer.enabled) and rdbms.running:
            self.supported.append(rdbms.shared_schedule_supported)
        if self.check:
            self._check(rdbms, estimates)
        if len(rep.refresh_s) in self.wm_refreshes:
            self._time_wm(rdbms)

    def _check(self, rdbms: SimulatedRDBMS, estimates: dict) -> None:
        """Verification-repetition only: the PI is finite and agrees."""
        rep = self.rep
        for qid, est in estimates.items():
            if not (math.isfinite(est) and est >= 0):
                rep.problems.append(f"PI of {qid} at {rdbms.clock}: {est}")
        if self.serving and len(rep.refresh_s) % 10 == 0 and rdbms.running:
            reference = standard_case(
                [j.snapshot() for j in rdbms.running], rdbms.processing_rate,
                include_stages=False,
            ).remaining_times
            served = rdbms.remaining_times()
            worst = max(abs(served[q] - reference[q]) for q in reference)
            if set(served) != set(reference) or worst > 1e-9:
                rep.problems.append(
                    f"remaining_times() off standard_case by {worst} "
                    f"at {rdbms.clock}"
                )

    def _time_wm(self, rdbms: SimulatedRDBMS) -> None:
        """Pure workload-management calls on the live snapshot."""
        with self.tracer.span("wm.decide"):
            queries = rdbms.snapshot().running
            if len(queries) < 2:
                return
            rate = rdbms.processing_rate
            target = max(queries, key=lambda q: (q.remaining_cost, q.query_id))
            drain = sum(q.remaining_cost for q in queries) / rate
            for name, call in (
                ("wm.choose_victim_ms",
                 lambda: choose_victim(queries, target.query_id, rate)),
                ("wm.choose_victim_for_all_ms",
                 lambda: choose_victim_for_all(queries, rate)),
                ("wm.plan_maintenance_ms",
                 lambda: plan_maintenance(queries, drain / 2, rate)),
            ):
                t0 = perf_counter()
                call()
                self.rep.layer.setdefault(name, []).append(
                    (perf_counter() - t0) * 1e3
                )


def node_outcomes(rdbms: SimulatedRDBMS) -> dict:
    return {
        qid: Outcome(
            r.status, r.trace.submitted_at, r.trace.finished_at,
            r.job.completed_work,
        )
        for qid, r in rdbms.records().items()
    }


class Workload:
    """Base: parameters at full and at ``--quick`` size."""

    name = ""
    FULL: dict = {}
    QUICK: dict = {}
    #: Whether a repetition consumes the data, so each needs a fresh build.
    fresh_data_per_rep = False

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.p = dict(self.FULL, **(self.QUICK if quick else {}))

    def generate_rows(self) -> int:
        """Generate the table rows again (timed as ``workload.generate_s``)."""
        rng = random.Random(self.config.seed)
        rows = len(tpcr.lineitem_rows(self.config, rng))
        for i, n in sorted(self.part_sizes.items()):
            tpcr.part_rows(i, n, self.config, rng)
        return rows

    def distinct_sql(self) -> list[str]:
        return []


# ----------------------------------------------------------------------
# Single node, engine jobs
# ----------------------------------------------------------------------

TEMPLATES = (paper_query, paper_query, join_query, scan_query)


class EngineMcq(Workload):
    """n concurrent ``EngineJob``s on one node, PI sampled periodically."""

    def build(self):
        return tpcr.generate(self.config, self.part_sizes).db

    def job_sql(self, k: int) -> str:
        return TEMPLATES[k % 4](k % len(self.part_sizes) + 1)

    def distinct_sql(self) -> list[str]:
        return sorted({self.job_sql(k) for k in range(self.p["n"])})

    def sampler(self, rep: Rep, tracer, check: bool) -> PISampler:
        raise NotImplementedError

    def repetition(self, db, tracer, check: bool = False) -> Rep:
        p = self.p
        rep = Rep()
        steps = [0.0, 0]
        t_start = perf_counter()
        with tracer.span("run"):
            rdbms = SimulatedRDBMS(
                processing_rate=p["rate"], quantum=p["quantum"]
            )
            jobs = []
            for k in range(p["n"]):
                with tracer.span("engine.prepare"):
                    execution = db.prepare(self.job_sql(k))
                jobs.append(EngineJob(
                    f"q{k:04d}", execution, priority=k % p["priorities"]
                ))
            for job in jobs:
                with tracer.span("sim.submit"):
                    rdbms.submit(
                        TracedJob(job, steps) if tracer.enabled else job
                    )
            sampler = self.sampler(rep, tracer, check)
            rdbms.add_sampler(p["pi_interval"], sampler)
            with tracer.span("sim.run") as run:
                rdbms.run_to_completion()
                if tracer.enabled:
                    tracer.aggregate("engine.step", run, steps[0], steps[1])
        rep.wall_s = perf_counter() - t_start
        rep.makespan = rdbms.clock
        rep.outcomes = node_outcomes(rdbms)
        rep.rows_hash = rows_digest(j.execution.rows for j in jobs)
        rep.live = {"jobs": jobs, "supported": sampler.supported}
        return rep

    def verify(self, db, rep: Rep) -> list[str]:
        problems = list(rep.problems)
        reference: dict[str, tuple] = {}
        for k, job in enumerate(rep.live["jobs"]):
            sql = self.job_sql(k)
            if sql not in reference:
                fresh = db.prepare(sql)
                fresh.run_to_completion()
                reference[sql] = (db.query(sql), fresh.work_done)
            rows, work = reference[sql]
            if job.execution.rows != rows:
                problems.append(f"{job.query_id}: rows differ from Database.query")
            if abs(job.completed_work - work) > 1e-6:
                problems.append(
                    f"{job.query_id}: work {job.completed_work} != {work}"
                )
        if any(rep.live["supported"]):
            problems.append("engine jobs were served by the shared schedule")
        return problems


class McqPaper(EngineMcq):
    """Paper section 5.2.1 at prototype fidelity: ten queries, Zipf sizes.

    The part-table sizes are the ten quantiles of Zipf(a = 1.2, max 100)
    in a fixed order, not ten draws from it: ten draws make the PI error
    of one seed a multiple of another's (0.06 to 1.9 over seeds 0-9), and
    the benchmark has to read the same on every seed.  The seed still
    draws every row.
    """

    name = "mcq_paper"
    FULL = dict(scale=1 / 200, n=10, zipf_max=100, rate=100.0, quantum=0.25,
                pi_interval=2.0, priorities=1)
    QUICK = dict(scale=1 / 2000, zipf_max=10)
    #: Which size quantile job k gets: big and small tables alternate, so
    #: every template (k mod 4) sees both.
    ORDER = (5, 0, 8, 3, 9, 1, 6, 4, 7, 2)

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        n = self.p["n"]
        cdf = list(itertools.accumulate(
            zipf_probabilities(1.2, self.p["zipf_max"])
        ))
        quantiles = [bisect.bisect_left(cdf, (i + 0.5) / n) + 1 for i in range(n)]
        self.part_sizes = {k + 1: quantiles[q] for k, q in enumerate(self.ORDER)}
        self.config = TpcrConfig(scale=self.p["scale"], seed=seed)

    def sampler(self, rep, tracer, check):
        return PISampler(rep, tracer, multi=True, serving=False, single=True,
                         check=check)


class McqWidePi(EngineMcq):
    """A thousand small engine jobs: the PI path at n >= 1000."""

    name = "mcq_wide_pi"
    FULL = dict(scale=1 / 8000, n=1000, parts=16, rate=1000.0, quantum=0.25,
                pi_interval=1.0, priorities=3)
    QUICK = dict(n=100)
    #: Refreshes (1-based) at which the traced run times the wm calls.
    WM_REFRESHES = (1, 2, 3, 5, 8)

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.part_sizes = {i + 1: 1 + i % 5 for i in range(self.p["parts"])}
        self.config = TpcrConfig(scale=self.p["scale"], seed=seed)

    def sampler(self, rep, tracer, check):
        return PISampler(rep, tracer, multi=True, serving=True, single=False,
                         check=check, wm_refreshes=self.WM_REFRESHES)


# ----------------------------------------------------------------------
# Single node, synthetic storm behind the QoS layer
# ----------------------------------------------------------------------

class TracedGate:
    """Stands in for the controller on ``rdbms.admission_controller``.

    The controller is built with ``auto_retry=False`` and this proxy posts
    the retry of a deferred job itself, through ``rdbms.add_event`` at the
    decision's ``retry_after`` -- the same event, in the same order, the
    attached controller would have posted, so the run is bit-identical.
    """

    def __init__(self, gate: AdmissionController, rdbms: SimulatedRDBMS) -> None:
        self.gate = gate
        self.rdbms = rdbms
        self.seconds = 0.0
        self.latencies: list[float] = []

    def submit(self, job: Job):
        t0 = perf_counter()
        decision = self.gate.submit(job)
        dt = perf_counter() - t0
        self.seconds += dt
        self.latencies.append(dt)
        if decision.outcome == "defer":
            self.rdbms.add_event(
                decision.retry_after, lambda _r, j=job: self.submit(j)
            )
        return decision


class StormQos(Workload):
    """An arrival storm at three times capacity, open loop in virtual time.

    The arrival schedule is fixed before the run and does not depend on
    progress; the generator cannot run late, because arrivals are events
    of the simulated clock.

    The ladder runs with ``low_priority_ceiling=-1`` (as
    ``BENCH_overload.json`` does): no query is eligible for parking.  At
    ceiling 0 the ladder parks every running low-priority query, nothing
    admits from the queue in their place, and the node idles with a full
    queue until a deadline expires -- whether and how often that happens
    flips with the seed (goodput 52 to 105 U/vs over seeds 0-9), which no
    bound can hold.  See README.md, finding 4.
    """

    name = "storm_qos"
    FULL = dict(n=3000, spread=100.0, rate=200.0, mpl=32, max_in_flight=128,
                work_budget=6000.0, max_defers=8, pi_interval=0.5,
                vip_deadline=60.0)
    QUICK = dict(n=300, spread=10.0)

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        rng = random.Random(seed)
        self.costs = [rng.uniform(5.0, 35.0) for _ in range(self.p["n"])]
        self.arrival_seed = rng.randrange(2**31)

    def build(self) -> ArrivalSchedule:
        """The storm needs no tables: set-up is drawing the schedule."""
        schedule = ArrivalSchedule()
        schedule.add_burst(0.0, self.p["n"], self.job, spread=self.p["spread"],
                           seed=self.arrival_seed)
        return schedule

    def generate_rows(self) -> int:
        self.build()
        return 0

    def job(self, i: int) -> SyntheticJob:
        if i % 4 == 0:
            return SyntheticJob(f"q{i:04d}", self.costs[i], priority=2,
                                deadline=self.p["vip_deadline"])
        return SyntheticJob(f"q{i:04d}", self.costs[i], priority=i % 2)

    def repetition(self, schedule, tracer, check: bool = False) -> Rep:
        p = self.p
        rep = Rep()
        t_start = perf_counter()
        with tracer.span("run"):
            rdbms = SimulatedRDBMS(
                processing_rate=p["rate"], multiprogramming_limit=p["mpl"]
            )
            gate = AdmissionController(
                rdbms,
                AdmissionPolicy(max_in_flight=p["max_in_flight"],
                                work_budget=p["work_budget"],
                                max_defers=p["max_defers"]),
                auto_retry=not tracer.enabled,
            )
            proxy = None
            if tracer.enabled:
                proxy = rdbms.admission_controller = TracedGate(gate, rdbms)
            else:
                gate.attach()
            ladder = DegradationLadder(
                rdbms, LadderConfig(low_priority_ceiling=-1), admission=gate
            ).attach()
            sampler = PISampler(rep, tracer, multi=False, serving=True,
                                single=False, check=check)
            ladder.register_pi_sampler(
                rdbms.add_sampler(p["pi_interval"], sampler)
            )
            with tracer.span("sim.submit"):
                rdbms.schedule(schedule)
            with tracer.span("sim.run") as run:
                rdbms.run_to_completion()
                if proxy is not None:
                    tracer.aggregate("qos.decide", run, proxy.seconds,
                                     len(proxy.latencies))
        rep.wall_s = perf_counter() - t_start
        rep.makespan = rdbms.clock
        rep.outcomes = node_outcomes(rdbms)
        for i in range(p["n"]):  # refused queries never reached the RDBMS
            rep.outcomes.setdefault(f"q{i:04d}", Outcome("rejected"))
        deadline_aborts = sum(
            1 for r in rdbms.records().values()
            if any(e.kind == "deadline" for e in r.trace.fault_events)
        )
        rep.counts = dict(
            gate.counts(), decisions=len(gate.decisions),
            deadline_aborts=deadline_aborts, shed=len(ladder.shed_ids),
            peak_rung=max((e.rung for e in ladder.events), default=0),
        )
        if proxy is not None:
            rep.layer["qos.latencies"] = proxy.latencies
        rep.live = {"gate": gate, "rdbms": rdbms, "ladder": ladder,
                    "supported": sampler.supported}
        return rep

    def verify(self, _schedule, rep: Rep) -> list[str]:
        problems = list(rep.problems)
        gate, rdbms = rep.live["gate"], rep.live["rdbms"]
        final = {"admit": 0, "degrade": 0, "defer": 0, "reject": 0}
        for decision in gate.outcomes.values():
            final[decision.outcome] += 1
        admitted = final["admit"] + final["degrade"]
        if final["defer"] or admitted + final["reject"] != self.p["n"]:
            problems.append(f"offered {self.p['n']} != admitted + rejected: {final}")
        records = rdbms.records()
        if len(records) != admitted:
            problems.append(f"{len(records)} records for {admitted} admissions")
        for qid, record in records.items():
            if record.status not in ("finished", "aborted"):
                problems.append(f"admitted {qid} ended {record.status}")
        if not all(rep.live["supported"]):
            problems.append("synthetic jobs fell off the shared schedule")
        if not final["reject"]:
            problems.append("nothing was refused: the storm is no overload")
        return problems


# ----------------------------------------------------------------------
# Four-shard cluster
# ----------------------------------------------------------------------

class Shard4(Workload):
    """Queries scattered over a 4-shard cluster with a global-PI monitor."""

    strategy = ""
    part_sizes = {1: 3, 2: 8, 3: 5, 4: 2}
    fresh_data_per_rep = True

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.config = TpcrConfig(scale=self.p["scale"], seed=seed)
        self.sql = [self.query_sql(k) for k in range(self.p["queries"])]

    def query_sql(self, k: int) -> str:
        raise NotImplementedError

    def distinct_sql(self) -> list[str]:
        return sorted(set(self.sql))

    def build(self) -> ShardedCluster:
        cluster = ShardedCluster(
            n_shards=4, replication=2, processing_rate=10.0,
            checkpoint_interval=2.0,
        )
        load_tpcr(cluster, self.config, self.part_sizes)
        return cluster

    def repetition(self, cluster: ShardedCluster, tracer,
                   check: bool = False) -> Rep:
        """Runs the queries on *cluster*, which must be freshly built."""
        rep = Rep()
        span = tracer.span
        if tracer.enabled:
            for node in cluster.nodes.values():
                node.run_until = tracer.timed("dist.node_step", node.run_until)
                node.rdbms.remaining_times = tracer.timed(
                    "dist.node_pi", node.rdbms.remaining_times
                )
        finalizing: list = []
        t_start = perf_counter()
        with span("run"):
            queries = []
            for k, sql in enumerate(self.sql):
                with span("dist.submit"):
                    queries.append(cluster.submit(f"d{k:02d}", sql))
            open_queries = list(queries)
            while open_queries:
                with span("dist.epoch") as epoch:
                    cluster.run_until(cluster.clock + cluster.tick)
                t0 = perf_counter()
                with span("dist.estimates"):
                    estimates = cluster.estimates()
                rep.refresh_s.append(perf_counter() - t0)
                rep.estimates += len(estimates)
                rep.samples.append((cluster.clock, {
                    q: e.remaining_seconds for q, e in estimates.items()
                }))
                still_open = [dq for dq in open_queries if not dq.terminal]
                if len(still_open) != len(open_queries):
                    finalizing.append(epoch)
                open_queries = still_open
        rep.wall_s = perf_counter() - t_start
        rep.makespan = cluster.clock
        rep.outcomes = {
            dq.query_id: Outcome(
                dq.status, dq.submitted_at, dq.finished_at,
                sum(s.job.completed_work for s in dq.subqueries.values()),
            )
            for dq in queries
        }
        rep.rows_hash = rows_digest(dq.result for dq in queries)
        rep.counts = dict(Counter("strategy." + dq.strategy for dq in queries))
        if tracer.enabled:
            own = tracer.self_times()
            rep.layer["dist.finalize_s"] = sum(own[s.span] for s in finalizing)
        rep.layer["dist.subqueries"] = sum(len(dq.subqueries) for dq in queries)
        rep.layer["dist.rows_reslotted"] = sum(
            len(s.rows) for dq in queries if dq.strategy == "gather"
            for s in dq.subqueries.values()
        )
        if check:
            for t, estimates in rep.samples:
                for qid, est in estimates.items():
                    if not (math.isfinite(est) and est >= 0):
                        rep.problems.append(f"global PI of {qid} at {t}: {est}")
        rep.live = {"cluster": cluster}
        return rep

    def verify(self, _cluster, rep: Rep) -> list[str]:
        problems = list(rep.problems)
        cluster = rep.live["cluster"]
        single = tpcr.generate(self.config, self.part_sizes).db
        for k, sql in enumerate(self.sql):
            dq = cluster.query(f"d{k:02d}")
            if dq.strategy != self.strategy:
                problems.append(f"{dq.query_id} routed {dq.strategy}")
            if dq.status != "finished":
                problems.append(f"{dq.query_id} ended {dq.status}: {dq.error}")
            elif cluster.result_rows(dq.query_id) != single.query(sql):
                problems.append(f"{dq.query_id}: rows differ from single node")
        return problems


class Shard4Pushdown(Shard4):
    """Order-preserving single-table scans: one sub-query per shard."""

    name = "shard4_pushdown"
    strategy = "pushdown"
    FULL = dict(scale=1 / 500, queries=24)
    QUICK = dict(scale=1 / 5000, queries=6)

    def query_sql(self, k: int) -> str:
        template = k % 3
        if template == 0:
            return (f"select partkey, quantity from lineitem "
                    f"where quantity > {10 + k}")
        if template == 1:
            return (f"select partkey, extendedprice from lineitem "
                    f"where extendedprice < {20000 + 1000 * k}")
        return (f"select partkey, retailprice from part_{k % 4 + 1} "
                f"where retailprice > {1000 + 20 * k}")


class Shard4Gather(Shard4):
    """Joins, aggregates and subqueries: re-slot and replay on a merge DB."""

    name = "shard4_gather"
    strategy = "gather"
    FULL = dict(scale=1 / 1000, queries=12)
    QUICK = dict(scale=1 / 10000, queries=3)

    def query_sql(self, k: int) -> str:
        template = k % 3
        if template == 0:
            return ("select partkey, sum(quantity) total from lineitem "
                    f"where quantity > {k} group by partkey "
                    "order by total desc limit 20")
        if template == 1:
            return join_query(k % 4 + 1)
        return paper_query(k % 4 + 1)


WORKLOADS = {
    w.name: w
    for w in (McqPaper, McqWidePi, StormQos, Shard4Pushdown, Shard4Gather)
}
