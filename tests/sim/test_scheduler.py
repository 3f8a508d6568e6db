"""Tests for the speed models."""

import pytest

from repro.sim.jobs import SyntheticJob
from repro.sim.scheduler import (
    THRASH_DEGRADATION,
    THRASH_KNEE,
    THRASH_MIN_FRACTION,
    NoisyFairSharing,
    ThrashingModel,
    WeightedFairSharing,
)


def jobs(*weights):
    return [SyntheticJob(f"q{i}", 100, weight=w) for i, w in enumerate(weights)]


class TestWeightedFairSharing:
    def test_proportional_split(self):
        model = WeightedFairSharing()
        speeds = model.speeds(jobs(1, 3), rate=8.0)
        assert speeds["q0"] == pytest.approx(2.0)
        assert speeds["q1"] == pytest.approx(6.0)

    def test_total_equals_rate(self):
        model = WeightedFairSharing()
        speeds = model.speeds(jobs(1, 2, 5, 0.5), rate=3.0)
        assert sum(speeds.values()) == pytest.approx(3.0)

    def test_empty(self):
        assert WeightedFairSharing().speeds([], 1.0) == {}

    def test_single_job_gets_everything(self):
        speeds = WeightedFairSharing().speeds(jobs(7), rate=2.5)
        assert speeds["q0"] == pytest.approx(2.5)


class TestNoisyFairSharing:
    def test_factors_stable_across_calls(self):
        model = NoisyFairSharing(noise=0.3, seed=1)
        a = model.speeds(jobs(1, 1), rate=1.0)
        b = model.speeds(jobs(1, 1), rate=1.0)
        assert a == b

    def test_noise_violates_assumption_one(self):
        model = NoisyFairSharing(noise=0.4, seed=2)
        speeds = model.speeds(jobs(1, 1, 1), rate=3.0)
        assert sum(speeds.values()) != pytest.approx(3.0, abs=1e-6)

    def test_factors_bounded(self):
        model = NoisyFairSharing(noise=0.2, seed=3)
        model.speeds(jobs(1, 1, 1, 1, 1), rate=1.0)
        for f in model.factors().values():
            assert 0.8 <= f <= 1.2

    def test_validation(self):
        with pytest.raises(ValueError):
            NoisyFairSharing(noise=1.0)
        with pytest.raises(ValueError):
            NoisyFairSharing(noise=-0.1)

    def test_empty(self):
        assert NoisyFairSharing().speeds([], 1.0) == {}


class TestThrashingModel:
    def test_full_rate_below_knee(self):
        assert THRASH_KNEE == 4
        speeds = ThrashingModel().speeds(jobs(1, 1, 1, 1), rate=2.0)
        assert sum(speeds.values()) == pytest.approx(2.0)

    def test_degrades_beyond_knee(self):
        assert THRASH_DEGRADATION == 0.05
        speeds = ThrashingModel().speeds(jobs(*[1] * 6), rate=1.0)
        assert sum(speeds.values()) == pytest.approx(0.9)  # 2 over the knee

    def test_floor(self):
        assert THRASH_MIN_FRACTION == 0.25
        assert ThrashingModel().effective_rate(100, 1.0) == pytest.approx(0.25)

    def test_weights_still_respected(self):
        speeds = ThrashingModel().speeds(jobs(1, 3, 1, 1, 1, 1), rate=1.0)
        assert speeds["q1"] == pytest.approx(3 * speeds["q0"])

    def test_empty(self):
        assert ThrashingModel().speeds([], 1.0) == {}
