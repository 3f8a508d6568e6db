#!/usr/bin/env python3
"""Work-preserving recovery: crash a real SQL execution, resume it.

The engine's operators (scans, sort, hash join, hash aggregate, ...) can
snapshot their internal state, so a :class:`QueryExecution` configured with
a ``checkpoint_interval`` periodically captures a consistent cut of the
whole plan.  When a fault kills the query mid-flight, the retry layer
replans the same SQL and *restores* the last checkpoint instead of
starting from zero -- the work done before the checkpoint is preserved,
and only the slice between the checkpoint and the crash is redone.

This script runs the paper's ``Q_1`` under a scripted crash at 50% of its
work, once without checkpoints and once with a 10-U cadence, and asserts:

  * both runs finish with *identical* result rows,
  * the crash lands at about half of the query's work,
  * the checkpointed run redoes at most one checkpoint interval, and so
    preserves >= 80% of the crashed attempt's work,
  * the work ledger balances: gross work = useful work + wasted work.

Run:  python examples/engine_checkpoint_recovery.py
"""

import random

from repro.engine.database import Database
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, QueryCrash
from repro.faults.retry import RetryController, RetryPolicy
from repro.sim.rdbms import SimulatedRDBMS
from repro.workload.queries import engine_job, paper_query
from repro.workload.tpcr import TpcrConfig, add_part_table, build_lineitem

RATE = 10.0  # U/s
CADENCE = 10.0  # checkpoint every this many work units


def build_db() -> Database:
    """A small deterministic TPC-R slice with one part table."""
    tpcr = TpcrConfig(scale=1 / 4000, seed=7)
    rng = random.Random(7)
    db = Database(page_capacity=tpcr.page_capacity)
    build_lineitem(db, tpcr, rng)
    add_part_table(db, 1, 12, tpcr, rng)
    db.analyze()
    return db


def crash_run(db: Database, interval: float | None):
    """Run Q_1 under a crash-at-50% plan; return the final query record."""
    rdbms = SimulatedRDBMS(processing_rate=RATE)
    RetryController(rdbms, RetryPolicy(max_attempts=3, base_delay=1.0))
    FaultInjector(rdbms, FaultPlan.of(QueryCrash("Q1", at_fraction=0.5))).arm()
    rdbms.submit(engine_job(db, "Q1", 1, checkpoint_interval=interval))
    rdbms.run_to_completion(max_time=1000.0)
    return rdbms.record("Q1")


def main() -> None:
    db = build_db()
    print(f"query: {paper_query(1)}\n")

    plain = crash_run(db, interval=None)
    ckpt = crash_run(db, interval=CADENCE)

    for label, rec in [("no checkpoints", plain), (f"{CADENCE:g}-U cadence", ckpt)]:
        trace = rec.trace
        print(f"[{label}] {rec.status} after {rec.attempts} attempts: "
              f"useful {rec.job.completed_work:.1f} U, "
              f"preserved {trace.preserved_work:.1f} U, "
              f"wasted {trace.wasted_work:.1f} U")

    # Same answer either way.
    assert plain.status == ckpt.status == "finished"
    assert plain.job.execution.rows == ckpt.job.execution.rows

    # The crash landed mid-flight and the retry actually resumed.
    assert plain.attempts == ckpt.attempts == 2
    assert plain.trace.preserved_work == 0.0
    crash_point = plain.trace.wasted_work / plain.job.completed_work
    print(f"\ncrash at {100 * crash_point:.0f}% of the query's work")
    assert 0.45 <= crash_point <= 0.60, crash_point

    # Work-preservation headline: >= 80% of the crashed attempt survived.
    crashed = ckpt.trace.preserved_work + ckpt.trace.wasted_work
    ratio = ckpt.trace.preserved_work / crashed
    print(f"preserved {100 * ratio:.0f}% of the crashed attempt's work")
    assert ckpt.trace.wasted_work <= CADENCE
    assert ratio >= 0.8, ratio

    # Conservation: everything ever executed is either useful or wasted.
    for rec in (plain, ckpt):
        gross = rec.job.completed_work + rec.trace.wasted_work
        redone = rec.job.completed_work - rec.trace.preserved_work
        assert gross >= rec.job.completed_work
        assert redone >= 0
    print("all assertions passed")


if __name__ == "__main__":
    main()
