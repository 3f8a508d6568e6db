"""End-to-end tests: the instrumented seams feed the observability layer."""

import pytest

from repro.core.multi_query import MultiQueryProgressIndicator
from repro.core.projection import project
from repro.core.model import QuerySnapshot
from repro.faults.injector import FaultInjector
from repro.faults.plan import Brownout, FaultPlan, QueryCrash
from repro.obs import (
    Observability,
    current,
    install,
    observed,
    uninstall,
    validate_events,
)
from repro.obs.report import format_observed_run, run_observed_mcq
from repro.sim.jobs import SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS
from repro.wm.watchdog import RunawayQueryWatchdog


@pytest.fixture(autouse=True)
def _no_global_obs():
    """Each test starts and ends with observability disabled."""
    uninstall()
    yield
    uninstall()


class TestRuntime:
    def test_disabled_by_default(self):
        assert current() is None
        assert SimulatedRDBMS().obs is None

    def test_observed_installs_and_restores(self):
        with observed() as obs:
            assert current() is obs
            assert SimulatedRDBMS().obs is obs
        assert current() is None

    def test_observed_restores_previous_bundle(self):
        outer = install(Observability())
        with observed() as inner:
            assert current() is inner
        assert current() is outer

    def test_explicit_bundle_wins_over_global(self):
        with observed():
            mine = Observability()
            assert SimulatedRDBMS(obs=mine).obs is mine


class TestRdbmsInstrumentation:
    def test_lifecycle_events_and_counters(self):
        with observed() as obs:
            rdbms = SimulatedRDBMS(processing_rate=10.0)
            rdbms.submit(SyntheticJob("A", 100.0))
            rdbms.submit(SyntheticJob("B", 50.0))
            rdbms.run_to_completion()
        names = [e["event"] for e in obs.tracer.events]
        assert names.count("query.submit") == 2
        assert names.count("query.admit") == 2
        assert names.count("query.finish") == 2
        m = obs.metrics
        assert m.counter_value("rdbms.submitted") == 2
        assert m.counter_value("rdbms.finished") == 2
        assert m.histogram("rdbms.query_lifetime").count == 2
        validate_events(obs.tracer.events)

    def test_abort_fail_resubmit_events(self):
        with observed() as obs:
            rdbms = SimulatedRDBMS(processing_rate=10.0)
            a = SyntheticJob("A", 100.0)
            rdbms.submit(a)
            rdbms.submit(SyntheticJob("B", 100.0))
            rdbms.run_until(1.0)
            rdbms.fail("A", reason="injected")
            rdbms.resubmit(a.retry_copy())
            rdbms.abort("B")
            rdbms.run_to_completion()
        names = [e["event"] for e in obs.tracer.events]
        assert "query.fail" in names
        assert "query.resubmit" in names
        assert "query.abort" in names
        assert obs.metrics.counter_value("rdbms.failed") == 1
        assert obs.metrics.counter_value("rdbms.resubmitted") == 1
        assert obs.metrics.counter_value("rdbms.aborted") == 1
        abort = next(e for e in obs.tracer.events if e["event"] == "query.abort")
        assert abort["query_id"] == "B"
        assert "reason" in abort

    def test_block_unblock_events(self):
        with observed() as obs:
            rdbms = SimulatedRDBMS(processing_rate=10.0)
            rdbms.submit(SyntheticJob("A", 100.0))
            rdbms.block("A")
            rdbms.unblock("A")
            rdbms.run_to_completion()
        names = [e["event"] for e in obs.tracer.events]
        assert "query.block" in names and "query.unblock" in names

    def test_schedule_build_and_invalidate(self):
        with observed() as obs:
            rdbms = SimulatedRDBMS(processing_rate=10.0)
            rdbms.submit(SyntheticJob("A", 100.0))
            rdbms.submit(SyntheticJob("B", 100.0))
            rdbms.remaining_times()  # builds the shared schedule
            rdbms.abort("A")         # discards within the live schedule
            rdbms.corrupt_estimates(float("nan"))
            rdbms.run_to_completion()
        assert obs.metrics.counter_value("rdbms.schedule.builds") >= 1
        assert obs.metrics.counter_value("rdbms.refresh.shared") == 1
        names = [e["event"] for e in obs.tracer.events]
        assert "schedule.build" in names

    def test_accuracy_marks_follow_lifecycle(self):
        with observed() as obs:
            rdbms = SimulatedRDBMS(processing_rate=10.0)
            rdbms.submit(SyntheticJob("A", 100.0))
            rdbms.run_to_completion()
        assert obs.accuracy.tracked_queries == ("A",)
        report = obs.accuracy.report()
        assert report.unfinished == ()
        (q,) = report.queries
        assert q.finished_at == pytest.approx(10.0)

    def test_disabled_rdbms_emits_nothing(self):
        sink_before = Observability()
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(SyntheticJob("A", 10.0))
        rdbms.run_to_completion()
        assert rdbms.obs is None
        assert sink_before.tracer.emitted == 0


class TestDecisionInstrumentation:
    def test_watchdog_decisions_traced_with_justification(self):
        with observed() as obs:
            rdbms = SimulatedRDBMS(processing_rate=1.0)
            rdbms.submit(SyntheticJob("slow", 500.0))
            wd = RunawayQueryWatchdog(
                rdbms, budget_seconds=5.0, check_interval=1.0
            )
            wd.attach()
            rdbms.run_to_completion(max_time=100.0)
        events = [
            e for e in obs.tracer.events if e["event"].startswith("watchdog.")
        ]
        assert any(e["event"] == "watchdog.deprioritize" for e in events)
        assert any(e["event"] == "watchdog.abort" for e in events)
        for e in events:
            # Snapshot that justified the decision rides on the event.
            assert "reason" in e and "used_fallback" in e and "budget" in e
        assert obs.metrics.counter_value("watchdog.abort") == len(wd.aborted)

    def test_fault_injections_traced(self):
        with observed() as obs:
            rdbms = SimulatedRDBMS(processing_rate=10.0)
            rdbms.submit(SyntheticJob("A", 200.0))
            FaultInjector(
                rdbms,
                FaultPlan.of(
                    Brownout(start=1.0, duration=2.0, factor=0.5),
                    QueryCrash("A", at_time=3.0),
                ),
            ).arm()
            rdbms.run_to_completion(max_time=100.0)
        names = [e["event"] for e in obs.tracer.events]
        assert any(n.startswith("fault.brownout") for n in names)
        assert any(n.startswith("fault.crash") for n in names)
        assert obs.metrics.counter_value("faults.injected") >= 2


class TestProjectionInstrumentation:
    def test_run_event_and_events_histogram(self):
        snaps = [QuerySnapshot("Q1", 100.0), QuerySnapshot("Q2", 50.0)]
        with observed() as obs:
            project(snaps, processing_rate=10.0)
            project(snaps, processing_rate=10.0)
        runs = [e for e in obs.tracer.events if e["event"] == "projection.run"]
        assert len(runs) == 2
        assert all(e["virtual_time"] is None for e in runs)
        assert all(e["events"] == 2 and e["queries"] == 2 for e in runs)
        assert obs.metrics.histogram("projection.events").count == 2

    def test_indicator_estimates_counted(self):
        snaps = [QuerySnapshot("Q1", 100.0)]
        from repro.core.model import SystemSnapshot

        with observed() as obs:
            MultiQueryProgressIndicator().estimate(
                SystemSnapshot(running=tuple(snaps), processing_rate=10.0)
            )
        assert obs.metrics.histogram("projection.events").count == 1


class TestObservedMcq:
    def test_deterministic_summary(self):
        run1 = run_observed_mcq(seed=3)
        run2 = run_observed_mcq(seed=3)
        assert format_observed_run(run1) == format_observed_run(run2)
        report = run1.accuracy
        assert report.unfinished == ()
        assert len(report.queries) == 10
        # Queries shorter than the sample interval finish unsampled; every
        # sampled query carries both estimators' error profiles.
        sampled = [q for q in report.queries if q.estimators]
        assert sampled
        for q in sampled:
            assert set(q.estimators) == {"multi-query", "single-query"}
            assert q.estimators["multi-query"].profile

    def test_trace_file_validates(self, tmp_path):
        path = tmp_path / "mcq.jsonl"
        run = run_observed_mcq(seed=1, trace_path=path)
        from repro.obs.tracer import validate_trace_file

        assert validate_trace_file(path) == run.events
        assert run.events > 0
