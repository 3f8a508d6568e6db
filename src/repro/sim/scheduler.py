"""Speed models: how the simulated RDBMS divides capacity among queries.

The default :class:`WeightedFairSharing` realises the paper's Assumptions
1 and 3 exactly: a constant total rate ``C`` (U/s) split among running
queries proportionally to their priority weights.

The other models deliberately break the assumptions, for the Section 4
"relaxing the assumptions" experiments:

* :class:`NoisyFairSharing` gives each query a private efficiency factor
  (some queries turn granted capacity into useful work less effectively --
  think CPU-bound vs. I/O-bound mixes), without renormalising, so the
  total useful rate is no longer constant (violates Assumption 1) and
  speeds are no longer exactly weight-proportional (violates Assumption 3).
* :class:`ThrashingModel` reduces total throughput as concurrency grows
  (buffer-pool contention), another Assumption 1 violation.

:class:`ScaledSpeedModel` is the resilience hook: a mutable overlay over any
base model that a cluster node uses to realise node brownouts (a
total-capacity factor), scripted in virtual time.
"""

from __future__ import annotations

import abc
import math
import random
from typing import Mapping, Sequence

from repro.sim.jobs import Job

#: ThrashingModel: full rate up to this many concurrent queries ...
THRASH_KNEE = 4
#: ... each query beyond it costs this fraction of the total rate ...
THRASH_DEGRADATION = 0.05
#: ... down to this floor fraction of the total rate.
THRASH_MIN_FRACTION = 0.25


class SpeedModel(abc.ABC):
    """Maps the set of running jobs to per-job execution speeds."""

    @abc.abstractmethod
    def speeds(self, jobs: Sequence[Job], rate: float) -> dict[str, float]:
        """Per-job speed in U/s given total nominal *rate* ``C``."""


class WeightedFairSharing(SpeedModel):
    """Assumptions 1+3: ``s_i = C * w_i / W`` with ``W`` the weight sum."""

    def speeds(self, jobs: Sequence[Job], rate: float) -> dict[str, float]:
        if not jobs:
            return {}
        total = sum(j.weight for j in jobs)
        return {j.query_id: rate * j.weight / total for j in jobs}


class NoisyFairSharing(SpeedModel):
    """Fair sharing with per-query efficiency noise.

    Parameters
    ----------
    noise:
        Half-width of the uniform efficiency distribution: each query draws
        a factor in ``[1 - noise, 1 + noise]`` the first time it is seen.
        Speeds are not rescaled, so the total useful rate fluctuates too.
    seed:
        RNG seed; per-query factors are stable across calls.
    """

    def __init__(self, noise: float = 0.2, seed: int = 0):
        if not 0.0 <= noise < 1.0:
            raise ValueError("noise must be in [0, 1)")
        self._noise = noise
        self._rng = random.Random(seed)
        self._factors: dict[str, float] = {}

    def _factor(self, query_id: str) -> float:
        if query_id not in self._factors:
            self._factors[query_id] = 1.0 + self._rng.uniform(-self._noise, self._noise)
        return self._factors[query_id]

    def factors(self) -> Mapping[str, float]:
        """The per-query efficiency factors drawn so far."""
        return dict(self._factors)

    def speeds(self, jobs: Sequence[Job], rate: float) -> dict[str, float]:
        if not jobs:
            return {}
        total = sum(j.weight for j in jobs)
        return {
            j.query_id: rate * j.weight / total * self._factor(j.query_id) for j in jobs
        }


class ScaledSpeedModel(SpeedModel):
    """Mutable capacity overlay over any base speed model.

    A cluster node (:class:`~repro.dist.node.ShardNode`) wraps its RDBMS's
    speed model in this once; ``rate_factor`` then scales the total
    processing rate handed to the base model -- a node *brownout*
    (``0.0`` is a full outage, ``1.0`` nominal).

    The factor must be finite and >= 0.  The base model still sees the
    scaled rate, so its own behaviour (fair sharing, thrashing, noise)
    composes with the injected degradation.
    """

    def __init__(self, base: SpeedModel) -> None:
        self._base = base
        self._rate_factor = 1.0

    @property
    def base(self) -> SpeedModel:
        """The wrapped speed model."""
        return self._base

    @property
    def rate_factor(self) -> float:
        """Current capacity factor (1.0 = nominal)."""
        return self._rate_factor

    def set_rate_factor(self, factor: float) -> None:
        """Scale the total processing rate by *factor* (brownout control)."""
        if not math.isfinite(factor) or factor < 0:
            raise ValueError(f"factor must be finite and >= 0, got {factor}")
        self._rate_factor = float(factor)

    def speeds(self, jobs: Sequence[Job], rate: float) -> dict[str, float]:
        """Base-model speeds under the scaled rate."""
        return self._base.speeds(jobs, rate * self._rate_factor)


class ThrashingModel(SpeedModel):
    """Total throughput degrades as concurrency exceeds a knee.

    Up to :data:`THRASH_KNEE` concurrent queries the system delivers the
    full rate ``C``; beyond that every extra query costs
    :data:`THRASH_DEGRADATION` of the total (floored at
    ``THRASH_MIN_FRACTION * C``).  Speeds within the budget remain
    weight-proportional.
    """

    def effective_rate(self, n_jobs: int, rate: float) -> float:
        """Total useful rate with *n_jobs* concurrent queries."""
        over = max(n_jobs - THRASH_KNEE, 0)
        fraction = max(1.0 - THRASH_DEGRADATION * over, THRASH_MIN_FRACTION)
        return rate * fraction

    def speeds(self, jobs: Sequence[Job], rate: float) -> dict[str, float]:
        if not jobs:
            return {}
        effective = self.effective_rate(len(jobs), rate)
        total = sum(j.weight for j in jobs)
        return {j.query_id: effective * j.weight / total for j in jobs}
