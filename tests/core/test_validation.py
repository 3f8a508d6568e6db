"""Tests for estimator input validation: NaN/inf/negative inputs fail loudly."""

import math

import pytest

from repro.core.forecast import AdaptiveForecaster, WorkloadForecast
from repro.core.model import QuerySnapshot
from repro.core.multi_query import MultiQueryProgressIndicator
from repro.core.projection import project
from repro.core.single_query import SingleQueryProgressIndicator, SpeedMonitor
from repro.core.standard_case import standard_case
from repro.core.validation import (
    carry_back,
    finite_snapshots,
    validate_finite,
    validate_snapshots,
)
from repro.sim.jobs import SyntheticJob
from repro.sim.rdbms import SimulatedRDBMS

NAN = float("nan")
INF = float("inf")


class NaNEstimateJob(SyntheticJob):
    """A synthetic job whose remaining-cost estimate reads NaN."""

    def estimated_remaining_cost(self) -> float:
        return NAN


class TestValidateFinite:
    def test_accepts_ordinary_values(self):
        validate_finite(1.5, "x")
        validate_finite(0.0, "x", minimum=0.0)

    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="x"):
            validate_finite(bad, "x")

    def test_enforces_minimum(self):
        with pytest.raises(ValueError):
            validate_finite(-0.1, "x", minimum=0.0)
        with pytest.raises(ValueError):
            validate_finite(0.0, "x", minimum=0.0, exclusive=True)

    def test_nan_cannot_sneak_past_a_range_check(self):
        # The reason this module exists: nan < 0 is False, so naive range
        # checks accept NaN. validate_finite must not.
        assert not (NAN < 0)
        with pytest.raises(ValueError):
            validate_finite(NAN, "x", minimum=0.0)


class TestValidateSnapshots:
    def test_accepts_clean_snapshots(self):
        validate_snapshots([QuerySnapshot("a", 10.0), QuerySnapshot("b", 0.0)])

    @pytest.mark.parametrize("bad", [NAN, INF, -1.0])
    def test_rejects_bad_remaining_cost(self, bad):
        with pytest.raises(ValueError, match="a"):
            validate_snapshots([QuerySnapshot("a", bad)])

    def test_rejects_bad_completed_work(self):
        with pytest.raises(ValueError):
            validate_snapshots([QuerySnapshot("a", 1.0, completed_work=NAN)])

    def test_happy_path_builds_no_label(self):
        class CountingId(str):
            reprs = 0

            def __repr__(self):
                CountingId.reprs += 1
                return super().__repr__()

        validate_snapshots(
            [QuerySnapshot(CountingId(f"q{i}"), 1.0 + i) for i in range(5)],
            where="running",
        )
        assert CountingId.reprs == 0

    @pytest.mark.parametrize("field, bad, where, message", [
        ("remaining_cost", NAN, "running",
         "remaining_cost of query 'Q3' (in running) must be finite, got nan"),
        ("remaining_cost", -1.0, "queries",
         "remaining_cost of query 'Q3' (in queries) must be >= 0.0, got -1.0"),
        ("completed_work", INF, "queued",
         "completed_work of query 'Q3' (in queued) must be finite, got inf"),
        ("completed_work", -2.5, "queries",
         "completed_work of query 'Q3' (in queries) must be >= 0.0, got -2.5"),
        ("weight", -INF, "queued",
         "weight of query 'Q3' (in queued) must be finite, got -inf"),
        ("weight", 0.0, "queries",
         "weight of query 'Q3' (in queries) must be > 0.0, got 0.0"),
    ])
    def test_failure_messages_are_byte_identical(self, field, bad, where, message):
        snap = QuerySnapshot("Q3", 4.0, completed_work=1.0, weight=2.0)
        # The constructor rejects negatives itself; a corrupted runtime
        # signal is modelled by overwriting the frozen field.
        object.__setattr__(snap, field, bad)
        with pytest.raises(ValueError) as info:
            validate_snapshots([QuerySnapshot("Q1", 1.0), snap], where=where)
        assert str(info.value) == message

    def test_first_failing_field_of_first_failing_query_wins(self):
        first = QuerySnapshot("a", NAN, completed_work=NAN)
        second = QuerySnapshot("b", INF)
        with pytest.raises(ValueError) as info:
            validate_snapshots([first, second])
        assert str(info.value) == (
            "remaining_cost of query 'a' (in queries) must be finite, got nan"
        )

    def test_finite_snapshots_filters_not_raises(self):
        good = QuerySnapshot("good", 10.0)
        kept = finite_snapshots([good, QuerySnapshot("bad", NAN)])
        assert list(kept) == [good]


class TestCarryBack:
    def test_finite_costs_are_recorded_and_kept_as_is(self):
        memory = {}
        snaps = (QuerySnapshot("a", 5.0), QuerySnapshot("b", 7.0))
        kept, carried = carry_back(snaps, memory)
        assert kept == snaps and kept[0] is snaps[0]
        assert carried == ()
        assert memory == {"a": 5.0, "b": 7.0}

    def test_non_finite_cost_takes_the_last_finite_one(self):
        memory = {"a": 5.0, "b": 7.0}
        kept, carried = carry_back(
            (QuerySnapshot("a", NAN, completed_work=3.0), QuerySnapshot("b", 6.0)),
            memory,
        )
        assert kept == (
            QuerySnapshot("a", 5.0, completed_work=3.0),
            QuerySnapshot("b", 6.0),
        )
        assert carried == ("a",)
        assert memory == {"a": 5.0, "b": 6.0}

    def test_departed_ids_are_forgotten(self):
        memory = {"gone": 4.0, "a": 1.0}
        carry_back((QuerySnapshot("a", 2.0),), memory)
        assert memory == {"a": 2.0}
        # A query that returns later with a corrupt cost has no history.
        kept, carried = carry_back((QuerySnapshot("gone", INF),), memory)
        assert kept == () and carried == ()

    def test_never_finite_ids_are_dropped(self):
        memory = {}
        kept, carried = carry_back(
            (QuerySnapshot("a", INF), QuerySnapshot("b", 1.0)), memory
        )
        assert [s.query_id for s in kept] == ["b"]
        assert carried == ()
        assert memory == {"b": 1.0}

    def test_input_order_is_kept(self):
        memory = {"c": 3.0, "a": 1.0}
        snaps = (
            QuerySnapshot("c", NAN),
            QuerySnapshot("z", NAN),
            QuerySnapshot("b", 2.0),
            QuerySnapshot("a", INF),
        )
        kept, carried = carry_back(snaps, memory)
        assert [s.query_id for s in kept] == ["c", "b", "a"]
        assert carried == ("c", "a")


class TestEstimatorsRejectCorruptInputs:
    def test_standard_case_rejects_nan_cost(self):
        with pytest.raises(ValueError):
            standard_case([QuerySnapshot("a", NAN)], 1.0)

    def test_standard_case_rejects_bad_rate(self):
        for bad in (0.0, -1.0, NAN, INF):
            with pytest.raises(ValueError):
                standard_case([QuerySnapshot("a", 10.0)], bad)

    def test_project_rejects_inf_cost(self):
        with pytest.raises(ValueError):
            project([QuerySnapshot("a", INF)], processing_rate=1.0)

    def test_multi_query_pi_rejects_corrupted_snapshot(self):
        rdbms = SimulatedRDBMS(processing_rate=10.0)
        rdbms.submit(NaNEstimateJob("q", 100))
        with pytest.raises(ValueError):
            MultiQueryProgressIndicator().estimate(rdbms.snapshot())

    def test_single_query_pi_rejects_nan_remaining(self):
        pi = SingleQueryProgressIndicator()
        pi.observe(0.0, 0.0)
        pi.observe(1.0, 2.0)
        with pytest.raises(ValueError):
            pi.estimate(2.0, NAN)

    def test_speed_monitor_rejects_nan_observation(self):
        monitor = SpeedMonitor()
        with pytest.raises(ValueError):
            monitor.observe(0.0, NAN)

    def test_workload_forecast_rejects_nan_rate(self):
        with pytest.raises(ValueError):
            WorkloadForecast(arrival_rate=NAN, average_cost=1.0, average_weight=1.0)

    def test_adaptive_forecaster_rejects_corrupt_arrival(self):
        prior = WorkloadForecast(
            arrival_rate=0.1, average_cost=10.0, average_weight=1.0
        )
        forecaster = AdaptiveForecaster(prior)
        with pytest.raises(ValueError):
            forecaster.observe_arrival(1.0, cost=INF)

    def test_clean_inputs_still_work(self):
        estimate = standard_case(
            [QuerySnapshot("a", 10.0), QuerySnapshot("b", 20.0)], 1.0
        )
        assert math.isfinite(estimate.remaining_times["b"])
