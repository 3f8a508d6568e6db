#!/usr/bin/env python3
"""Chaos engineering for the simulated RDBMS: inject faults, watch it recover.

The paper's multi-query PIs are pitched as *workload management* inputs, and
workload management earns its keep exactly when things go wrong.  This
script scripts a bad day for a four-query workload:

  * a system-wide brownout halves the processing rate for 10 s,
  * one query crashes mid-flight and is resubmitted with backoff,
  * one query stalls (a lock wait) for 4 s,
  * the runaway query's statistics are destroyed (NaN remaining cost),
    which disables the PI for the whole snapshot -- so the runaway-query
    watchdog falls back to its observed-work heuristic and still catches it.

At the end, every query is terminal: three finished (one on its second
attempt), the runaway was aborted by the watchdog, and the full recovery
timeline can be reconstructed from the injector, retry and watchdog logs
plus each query's trace.

Run:  python examples/chaos_recovery.py
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import Brownout, FaultPlan, QueryCrash, QueryStall, StatsCorruption
from repro.faults.retry import RetryController, RetryPolicy
from repro.sim.jobs import SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS
from repro.wm.watchdog import RunawayQueryWatchdog

COSTS = {"etl": 120.0, "report": 80.0, "runaway": 900.0, "lookup": 60.0}
RATE = 10.0  # U/s
BUDGET = 60.0  # per-query watchdog budget, virtual seconds


def build_plan() -> FaultPlan:
    """One fault of each shape, aimed at this workload."""
    return FaultPlan.of(
        Brownout(start=5.0, duration=10.0, factor=0.5),
        QueryCrash("report", at_fraction=0.5, reason="simulated node loss"),
        QueryStall("etl", at=8.0, duration=4.0),
        StatsCorruption(
            start=0.0, duration=None, factor=float("nan"), query_id="runaway"
        ),
    )


def main() -> None:
    """Run the chaos scenario and print the recovery story."""
    rdbms = SimulatedRDBMS(processing_rate=RATE)
    for qid, cost in COSTS.items():
        rdbms.submit(SyntheticJob(qid, cost))

    plan = build_plan()
    print("fault plan:")
    for line in plan.describe().splitlines():
        print(f"  {line}")

    injector = FaultInjector(rdbms, plan)
    injector.arm()
    retries = RetryController(
        rdbms, RetryPolicy(max_attempts=3, base_delay=2.0)
    )
    watchdog = RunawayQueryWatchdog(rdbms, budget_seconds=BUDGET)
    watchdog.attach()

    rdbms.run_to_completion(max_time=1000.0)

    print("\ninjections:")
    for line in injector.timeline():
        print(f"  {line}")
    print("\nretries:")
    for event in retries.events:
        print(
            f"  t={event.time:6.2f}s {event.action:<12} {event.query_id} "
            f"(attempt {event.attempt}) {event.detail}"
        )
    print("\nwatchdog:")
    for action in watchdog.actions:
        mode = "fallback" if action.used_fallback else "PI"
        print(f"  t={action.time:6.2f}s {action.action:<12} {action.query_id} "
              f"[{mode}] {action.reason}")

    print("\noutcome:")
    for qid in COSTS:
        record = rdbms.record(qid)
        print(f"  {qid:<8} {record.status:<9} attempts={record.attempts} "
              f"done={record.job.completed_work:.1f}U")

    # The invariants the chaos tests assert, checked live here too.
    assert all(rdbms.record(qid).terminal for qid in COSTS)
    assert rdbms.record("report").status == "finished"
    assert rdbms.record("report").attempts == 2
    assert rdbms.record("runaway").status == "aborted"
    assert watchdog.fallback_engaged
    print("\nall queries terminal; crash retried to completion; "
          "runaway caught on the fallback path.")


if __name__ == "__main__":
    main()
