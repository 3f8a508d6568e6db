#!/usr/bin/env python3
"""A live progress dashboard over a concurrent workload (paper Fig 3/4).

Reproduces the MCQ experiment interactively: ten Zipf-sized queries run
concurrently; every few (virtual) seconds the dashboard prints each query's
completion bar, the single-query estimate and the multi-query estimate.
Watch the single-query column overestimate the big queries early on.

Run:  python examples/progress_dashboard.py
"""

import random

from repro.core.multi_query import MultiQueryProgressIndicator
from repro.core.single_query import SingleQueryProgressIndicator
from repro.sim.jobs import SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS
from repro.workload.zipf import ZipfSampler


def bar(fraction: float, width: int = 20) -> str:
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def main() -> None:
    rng = random.Random(7)
    sizes = ZipfSampler.over_range(1.2, 100, rng).sample_many(10)

    rdbms = SimulatedRDBMS(processing_rate=10.0)
    for i, size in enumerate(sizes, start=1):
        cost = size * 30.0
        done = rng.uniform(0, 0.9) * cost
        rdbms.submit(SyntheticJob(f"Q{i}", cost, initial_done=done))

    multi = MultiQueryProgressIndicator()
    # Each single-query PI averages speed over the fixed 10 s window
    # (WINDOW_SECONDS; see DESIGN.md, "Fixed settings").
    singles = {
        job.query_id: SingleQueryProgressIndicator() for job in rdbms.running
    }

    def dashboard(db: SimulatedRDBMS) -> None:
        snapshot = db.snapshot()
        estimate = multi.estimate(snapshot)
        print(f"\n=== t = {db.clock:6.1f}s   ({len(db.running)} running) ===")
        print(f"{'query':<6} {'progress':<24} {'single-est':>10} {'multi-est':>10}")
        for job in sorted(db.running, key=lambda j: j.query_id):
            qid = job.query_id
            total = job.completed_work + job.estimated_remaining_cost()
            pi = singles[qid]
            pi.observe(db.clock, job.completed_work)
            est = pi.estimate(db.clock, job.estimated_remaining_cost())
            single_txt = f"{est.remaining_seconds:8.1f}s" if est else "   (warm)"
            multi_txt = f"{estimate.for_query(qid):8.1f}s"
            print(
                f"{qid:<6} {bar(job.completed_work / total)} "
                f"{job.completed_work / total:4.0%} {single_txt:>10} {multi_txt:>10}"
            )

    rdbms.add_sampler(20.0, dashboard)
    dashboard(rdbms)
    rdbms.run_to_completion()

    print("\nAll queries finished at these times:")
    for qid, trace in sorted(rdbms.traces.queries.items()):
        print(f"  {qid}: t = {trace.finished_at:.1f}s")


if __name__ == "__main__":
    main()
