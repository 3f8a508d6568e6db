"""Tests for the graceful-degradation ladder."""

import dataclasses

import pytest

from repro.core.model import DEMOTED_PRIORITY
from repro.obs import Observability
from repro.qos.admission import AdmissionController
from repro.qos.ladder import (
    MAX_SHED_PER_STEP,
    REFRESH_FACTOR,
    RUNGS,
    SHED_AT,
    DegradationLadder,
    LadderConfig,
)
from repro.sim.jobs import SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS


def make_system(config=None, rate=10.0, mpl=4, obs=None, admission=False):
    rdbms = SimulatedRDBMS(
        processing_rate=rate, multiprogramming_limit=mpl, obs=obs
    )
    gate = AdmissionController(rdbms) if admission else None
    ladder = DegradationLadder(rdbms, config=config, admission=gate)
    return rdbms, ladder, gate


class TestConfigValidation:
    def test_one_setting(self):
        fields = dataclasses.fields(LadderConfig)
        assert [f.name for f in fields] == ["low_priority_ceiling"]
        assert LadderConfig().low_priority_ceiling == 0

    def test_rung_names(self):
        assert RUNGS == ("normal", "coalesce", "demote", "shed")


class TestOverloadScore:
    def test_idle_system_scores_zero(self):
        _, ladder, _ = make_system()
        assert ladder.overload_score() == 0.0

    def test_score_combines_queue_and_horizon(self):
        rdbms, ladder, _ = make_system(rate=10.0, mpl=2)
        for i in range(4):
            rdbms.submit(SyntheticJob(f"q{i}", cost=75.0))
        # 2 running + 2 queued: queue term = 2/2 = 1.0; total work
        # 300 U at 10 U/s = 30 s horizon -> horizon term = 30/30 = 1.0.
        assert ladder.overload_score() == pytest.approx(2.0)


class TestEscalation:
    def test_climbs_one_rung_per_tick(self):
        rdbms, ladder, _ = make_system(mpl=2)
        ladder.attach()
        # Queue term 4/2 = 2 plus a ~60 s horizon (term ~2): score ~4,
        # past DEMOTE_AT (3) but short of SHED_AT (6).
        for i in range(6):
            rdbms.submit(SyntheticJob(f"q{i}", cost=100.0, priority=1))
        assert ladder.rung == 0
        rdbms.run_until(1.01)  # first check
        assert ladder.rung == 1
        rdbms.run_until(2.01)  # second check
        assert ladder.rung == 2

    def test_descends_with_hysteresis(self):
        rdbms, ladder, _ = make_system()
        ladder.attach()
        rdbms.submit(SyntheticJob("q0", cost=500.0, priority=1))
        rdbms.run_until(1.01)
        assert ladder.rung == 1  # 49 s horizon -> score 1.63 >= 1.5
        # Work drains; the score falls below 1.5 * 0.75 once the horizon
        # drops under 33.75 s (t > 16.25).  Two calm ticks then clear it.
        rdbms.run_until(16.01)
        assert ladder.rung == 1  # score 1.13: not calm yet
        rdbms.run_until(17.01)
        assert ladder.rung == 1  # one calm tick so far
        rdbms.run_until(18.01)
        assert ladder.rung == 0
        actions = [e.action for e in ladder.events]
        assert "restore-cadence" in actions

    def test_ladder_sets_admission_pressure(self):
        rdbms, ladder, gate = make_system(admission=True)
        ladder.attach()
        # A 120 s horizon: score 4, between DEMOTE_AT and SHED_AT.
        for i in range(4):
            rdbms.submit(SyntheticJob(f"q{i}", cost=300.0, priority=1))
        rdbms.run_until(1.01)
        assert gate.pressure == 1
        rdbms.run_until(2.01)
        assert gate.pressure == 2

    def test_attach_is_single_shot(self):
        _, ladder, _ = make_system()
        ladder.attach()
        with pytest.raises(RuntimeError):
            ladder.attach()


class TestRungActions:
    def test_coalesce_and_restore_pi_cadence(self):
        rdbms, ladder, _ = make_system()
        ticks = []
        handle = rdbms.add_sampler(1.0, lambda r: ticks.append(r.clock))
        ladder.register_pi_sampler(handle)
        ladder.apply_coalesce()
        assert handle.interval == REFRESH_FACTOR == 4.0
        ladder.restore_cadence()
        assert handle.interval == 1.0

    def test_register_after_coalesce_coalesces_immediately(self):
        rdbms, ladder, _ = make_system()
        ladder.attach()
        # A 59 s horizon at the first check: score ~2, rung 1 only.
        rdbms.submit(SyntheticJob("q0", cost=600.0, priority=1))
        rdbms.run_until(1.01)
        assert ladder.rung == 1
        handle = rdbms.add_sampler(1.0, lambda r: None)
        ladder.register_pi_sampler(handle)
        assert handle.interval == 4.0

    def test_demote_targets_only_low_priority(self):
        rdbms, ladder, _ = make_system(LadderConfig(low_priority_ceiling=0))
        rdbms.submit(SyntheticJob("lo", cost=50.0, priority=0))
        rdbms.submit(SyntheticJob("hi", cost=50.0, priority=2))
        acted = ladder.demote_low_priority()
        assert acted == ("lo",)
        assert rdbms.record("lo").job.priority == DEMOTED_PRIORITY == -2
        assert rdbms.record("hi").job.priority == 2
        # Idempotent: a second sweep does nothing.
        assert ladder.demote_low_priority() == ()

    def test_park_and_release(self):
        rdbms, ladder, _ = make_system()
        rdbms.submit(SyntheticJob("lo", cost=50.0, priority=0))
        rdbms.submit(SyntheticJob("hi", cost=50.0, priority=2))
        parked = ladder.park_low_priority()
        assert parked == ("lo",)
        assert ladder.parked == ("lo",)
        assert rdbms.record("lo").status == "blocked"
        released = ladder.release_parked()
        assert released == ("lo",)
        assert ladder.parked == ()
        assert rdbms.record("lo").status in ("running", "queued")

    def test_shed_kills_least_progressed_first(self):
        rdbms, ladder, _ = make_system(rate=10.0, mpl=3)
        rdbms.submit(SyntheticJob("old", cost=100.0))
        rdbms.run_until(2.0)  # old has 20 U sunk
        rdbms.submit(SyntheticJob("mid", cost=100.0))
        rdbms.run_until(3.0)  # old 25 U, mid 5 U
        rdbms.submit(SyntheticJob("new", cost=100.0))
        shed = ladder.shed()
        assert MAX_SHED_PER_STEP == 2
        assert shed == ("new", "mid")  # least sunk work wasted
        assert rdbms.record("new").status == "aborted"
        assert rdbms.record("old").status == "running"
        assert ladder.shed_ids == ["new", "mid"]

    def test_shed_spares_high_priority_and_parked(self):
        rdbms, ladder, _ = make_system()
        rdbms.submit(SyntheticJob("hi", cost=50.0, priority=3))
        rdbms.submit(SyntheticJob("lo", cost=50.0, priority=0))
        ladder.park_low_priority()  # parks lo
        assert ladder.shed_candidates() == []
        assert ladder.shed() == ()

    def test_full_climb_sheds_under_storm(self):
        rdbms, ladder, _ = make_system(rate=1.0, mpl=2)
        ladder.attach()
        for i in range(8):
            rdbms.submit(SyntheticJob(f"q{i}", cost=100.0))
        # Queue term 6/2 = 3 plus an ~800 s horizon (term ~27): a real
        # overload far past SHED_AT.
        assert ladder.overload_score() >= SHED_AT
        rdbms.run_until(3.5)  # three checks: rungs 1, 2, 3
        assert ladder.rung == 3
        assert len(ladder.shed_ids) == MAX_SHED_PER_STEP  # one rung-3 check
        statuses = {qid: rdbms.record(qid).status for qid in ladder.shed_ids}
        assert all(s == "aborted" for s in statuses.values())

    def test_obs_counters_and_rung_gauge(self):
        obs = Observability()
        rdbms, ladder, _ = make_system(obs=obs)
        rdbms.submit(SyntheticJob("lo", cost=50.0, priority=0))
        ladder.demote_low_priority()
        assert obs.metrics.counter_value("qos.ladder.demote") == 1
        assert obs.metrics.gauge("qos.ladder.rung").value == 0
