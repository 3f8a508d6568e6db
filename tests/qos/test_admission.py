"""Tests for the PI-driven admission controller."""

import pytest

from repro.obs import Observability
from repro.core.model import DEMOTED_PRIORITY
from repro.qos.admission import (
    AdmissionController,
    AdmissionPolicy,
    priority_floor,
)
from repro.sim.arrivals import ArrivalSchedule
from repro.sim.jobs import SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS


def make_system(policy=None, rate=10.0, mpl=None, obs=None):
    rdbms = SimulatedRDBMS(
        processing_rate=rate, multiprogramming_limit=mpl, obs=obs
    )
    return rdbms, AdmissionController(rdbms, policy=policy)


class TestPolicyValidation:
    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_in_flight=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(work_budget=0.0)
        with pytest.raises(ValueError):
            AdmissionPolicy(max_defers=-1)

    def test_priority_floor_picks_the_strictest_active(self):
        assert priority_floor(0) is None
        assert priority_floor(1) is None
        assert priority_floor(2) == 0
        assert priority_floor(3) == 1
        assert priority_floor(9) == 1


class TestAdmit:
    def test_empty_system_admits(self):
        _, gate = make_system()
        d = gate.submit(SyntheticJob("q1", cost=50.0))
        assert d.outcome == "admit"
        assert d.admitted

    def test_feasible_deadline_admits(self):
        rdbms, gate = make_system()
        # Alone at 10 U/s, 50 U finishes at t=5 -- well inside t=10.
        d = gate.submit(SyntheticJob("q1", cost=50.0, deadline=10.0))
        assert d.outcome == "admit"
        rdbms.run_to_completion()
        assert rdbms.record("q1").status == "finished"


class TestDefer:
    def test_in_flight_budget_defers_then_retries(self):
        rdbms, gate = make_system(AdmissionPolicy(max_in_flight=1))
        gate.submit(SyntheticJob("q1", cost=50.0))
        d = gate.submit(SyntheticJob("q2", cost=50.0))
        assert d.outcome == "defer"
        assert d.retry_after is not None and d.retry_after > 0
        rdbms.run_to_completion()
        # The auto-retry re-gated q2 once q1 finished.
        assert gate.outcomes["q2"].outcome == "admit"
        assert rdbms.record("q2").status == "finished"

    def test_work_budget_defers(self):
        _, gate = make_system(AdmissionPolicy(work_budget=100.0))
        gate.submit(SyntheticJob("q1", cost=80.0))
        d = gate.submit(SyntheticJob("q2", cost=40.0))
        assert d.outcome == "defer"
        assert "work budget full" in d.reason

    def test_retry_after_tracks_next_projected_finish(self):
        rdbms, gate = make_system(AdmissionPolicy(max_in_flight=1))
        gate.submit(SyntheticJob("q1", cost=50.0))  # finishes at t=5
        d = gate.submit(SyntheticJob("q2", cost=50.0))
        assert d.retry_after == pytest.approx(5.0)

    def test_deadline_newcomer_defers_rather_than_degrades(self):
        _, gate = make_system()
        gate.submit(SyntheticJob("bg", cost=100.0, deadline=15.0))
        # Equal-weight sharing would push bg to t=20 > 15; the newcomer
        # carries its own deadline so best-effort demotion is pointless.
        d = gate.submit(SyntheticJob("q2", cost=100.0, deadline=30.0))
        assert d.outcome == "defer"
        assert "bg" in d.reason

    def test_defer_cap_turns_into_reject(self):
        rdbms, gate = make_system(
            AdmissionPolicy(max_in_flight=1, max_defers=2)
        )
        gate.submit(SyntheticJob("q1", cost=1000.0))
        job = SyntheticJob("q2", cost=10.0)
        assert gate.submit(job).outcome == "defer"
        assert gate.submit(job).outcome == "defer"
        d = gate.submit(job)
        assert d.outcome == "reject"
        assert "deferred 2 times" in d.reason


class TestDegrade:
    def test_infeasible_full_weight_admits_demoted(self):
        rdbms, gate = make_system()
        gate.submit(SyntheticJob("vip", cost=100.0, deadline=15.0))
        # Equal weight: vip finishes at t=20 (miss).  Demoted to weight
        # 0.25 the newcomer leaves vip 8 U/s -> t=12.5 (hit).
        d = gate.submit(SyntheticJob("q2", cost=100.0))
        assert d.outcome == "degrade"
        assert d.admitted
        assert d.demoted_priority == DEMOTED_PRIORITY == -2
        assert rdbms.record("q2").job.priority == DEMOTED_PRIORITY
        rdbms.run_to_completion()
        vip = rdbms.record("vip")
        assert vip.status == "finished"
        assert vip.trace.finished_at <= 15.0

    def test_degrade_disabled_defers_instead(self):
        _, gate = make_system(AdmissionPolicy(allow_degrade=False))
        gate.submit(SyntheticJob("vip", cost=100.0, deadline=15.0))
        d = gate.submit(SyntheticJob("q2", cost=100.0))
        assert d.outcome == "defer"


class TestReject:
    def test_draining_rejects(self):
        rdbms, gate = make_system()
        rdbms.drain()
        d = gate.submit(SyntheticJob("q1", cost=10.0))
        assert d.outcome == "reject"
        assert "draining" in d.reason
        assert "q1" not in rdbms.records()

    def test_pressure_floor_rejects_low_classes(self):
        _, gate = make_system()
        gate.set_pressure(2)
        assert gate.submit(SyntheticJob("lo", cost=1.0, priority=-1)).outcome \
            == "reject"
        assert gate.submit(SyntheticJob("ok", cost=1.0, priority=0)).outcome \
            == "admit"
        gate.set_pressure(3)
        assert gate.submit(SyntheticJob("mid", cost=1.0, priority=0)).outcome \
            == "reject"
        assert gate.submit(SyntheticJob("hi", cost=1.0, priority=1)).outcome \
            == "admit"

    def test_pressure_must_be_nonnegative(self):
        _, gate = make_system()
        with pytest.raises(ValueError):
            gate.set_pressure(-1)

    def test_non_finite_cost_rejects(self):
        _, gate = make_system()
        d = gate.submit(SyntheticJob("q1", cost=float("inf")))
        assert d.outcome == "reject"
        assert "non-finite" in d.reason


class TestWiring:
    def test_attach_gates_scripted_arrivals(self):
        rdbms, gate = make_system(AdmissionPolicy(max_in_flight=1))
        gate.attach()
        schedule = ArrivalSchedule()
        schedule.add(1.0, lambda: SyntheticJob("a1", cost=10.0))
        schedule.add(1.0, lambda: SyntheticJob("a2", cost=10.0))
        rdbms.schedule(schedule)
        rdbms.run_to_completion()
        assert gate.outcomes["a1"].admitted
        # a2 hit the in-flight cap on arrival, then retried in.
        assert gate.counts()["defer"] >= 1
        assert rdbms.record("a2").status == "finished"

    def test_resubmit_goes_through_the_gate(self):
        rdbms, gate = make_system()
        gate.submit(SyntheticJob("q1", cost=10.0))
        rdbms.run_until(0.1)
        rdbms.abort("q1")
        d = gate.resubmit(SyntheticJob("q1", cost=10.0))
        assert d.outcome == "admit"
        rdbms.run_to_completion()
        assert rdbms.record("q1").status == "finished"

    def test_decisions_log_and_counts(self):
        _, gate = make_system(AdmissionPolicy(max_in_flight=1))
        gate.submit(SyntheticJob("q1", cost=50.0))
        gate.submit(SyntheticJob("q2", cost=50.0))
        counts = gate.counts()
        assert counts == {"admit": 1, "degrade": 0, "defer": 1, "reject": 0}
        assert [d.query_id for d in gate.decisions] == ["q1", "q2"]

    def test_obs_counters_and_trace(self):
        obs = Observability()
        rdbms, gate = make_system(
            AdmissionPolicy(max_in_flight=1), obs=obs
        )
        gate.submit(SyntheticJob("q1", cost=50.0))
        gate.submit(SyntheticJob("q2", cost=50.0))
        assert obs.metrics.counter_value("qos.admission.admit") == 1
        assert obs.metrics.counter_value("qos.admission.defer") == 1
        kinds = [e["event"] for e in obs.tracer.events]
        assert "qos.admission.admit" in kinds
        assert "qos.admission.defer" in kinds
