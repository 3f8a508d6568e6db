"""Ladder liveness at the default ``low_priority_ceiling`` of 0.

At ceiling 0 rung 2 parks every running priority-0 query.  A parked
query must hand its slot to the admission queue: a node with queued work
and nothing running makes no progress until a deadline fires.
"""

import random

import pytest

from repro.qos import (
    AdmissionController,
    AdmissionPolicy,
    DegradationLadder,
    LadderConfig,
)
from repro.sim.arrivals import ArrivalSchedule
from repro.sim.jobs import SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS


def test_parking_frees_the_slot():
    rdbms = SimulatedRDBMS(processing_rate=10.0, multiprogramming_limit=2)
    ladder = DegradationLadder(rdbms)
    for i in range(4):
        rdbms.submit(SyntheticJob(f"q{i}", cost=50.0, priority=0))
    assert ladder.park_low_priority() == ("q0", "q1")
    assert len(rdbms.running) == 2
    assert {j.query_id for j in rdbms.running} == {"q2", "q3"}
    assert not rdbms.queued


def run_storm(seed, n=600, spread=20.0):
    """A seeded arrival storm at about three times capacity.

    One in four arrivals is a priority-2 query with a deadline; the rest
    alternate priority 0 (parkable at the default ceiling) and 1.
    Returns the simulator, the ladder and the 0.5 s ticks that found a
    non-empty queue with nothing running.
    """
    rng = random.Random(seed)
    costs = [rng.uniform(5.0, 35.0) for _ in range(n)]

    def job(i):
        if i % 4 == 0:
            return SyntheticJob(f"q{i:04d}", costs[i], priority=2, deadline=60.0)
        return SyntheticJob(f"q{i:04d}", costs[i], priority=i % 2)

    rdbms = SimulatedRDBMS(processing_rate=200.0, multiprogramming_limit=32)
    gate = AdmissionController(
        rdbms,
        AdmissionPolicy(max_in_flight=128, work_budget=6000.0, max_defers=8),
    )
    gate.attach()
    ladder = DegradationLadder(rdbms, LadderConfig(), admission=gate).attach()
    stalled = []

    def check(r):
        if r.queued and not r.running:
            stalled.append(r.clock)

    rdbms.add_sampler(0.5, check)
    schedule = ArrivalSchedule()
    schedule.add_burst(0.0, n, job, spread=spread, seed=rng.randrange(2**31))
    rdbms.schedule(schedule)
    rdbms.run_to_completion()
    return rdbms, ladder, stalled


@pytest.mark.overload
@pytest.mark.parametrize("seed", [0, 2])
def test_storm_never_idles_with_a_queue(seed):
    rdbms, ladder, stalled = run_storm(seed)
    assert LadderConfig().low_priority_ceiling == 0
    assert any(e.action == "park" for e in ladder.events)
    assert stalled == []
    statuses = {r.status for r in rdbms.records().values()}
    assert statuses <= {"finished", "aborted"}
    deadline_aborts = sum(
        1 for r in rdbms.records().values()
        if any(e.kind == "deadline" for e in r.trace.fault_events)
    )
    assert deadline_aborts == 0
