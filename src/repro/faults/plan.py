"""Declarative fault plans: which node goes wrong, when, and how.

A :class:`FaultPlan` is a validated, immutable script of faults expressed in
virtual time, decoupled from the machinery that applies them (the
:class:`~repro.dist.chaos.ClusterFaultInjector`).  Plans are plain data so
they can be generated (see :func:`random_fault_plan`), printed, stored in
test fixtures and replayed deterministically.

Three shapes target a whole simulated node of a sharded cluster (see
:mod:`repro.dist`):

* :class:`NodeCrash` -- a node dies, killing every in-flight sub-query on
  it (the router fails them over to replicas); with ``down_for`` it
  rejoins later.
* :class:`NetworkPartition` -- a node keeps executing but is unreachable:
  the router can neither read its progress nor gather its results until
  the partition heals, so its shards' global-PI contributions go stale.
* :class:`NodeBrownout` -- one node's processing rate degrades for an
  interval.

The paper's own robustness axes -- speed noise and cost misestimation
(Section 4) -- are modelled by
:class:`~repro.sim.scheduler.NoisyFairSharing` and
:class:`~repro.sim.jobs.CostNoiseJob`, not by faults.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence, Union


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class NodeCrash:
    """Kill one simulated node at virtual time ``at``.

    Every in-flight sub-query on the node fails (the cluster router fails
    them over to replica nodes, resuming from their last checkpoint).
    With ``down_for`` set, the node recovers that many seconds later and
    rejoins the cluster as a replica; otherwise it stays down.
    """

    node_id: str
    at: float
    down_for: float | None = None
    reason: str = "node crash"

    def __post_init__(self) -> None:
        _require(bool(self.node_id), "node_id must not be empty")
        _require(
            math.isfinite(self.at) and self.at >= 0,
            f"at must be finite and >= 0, got {self.at}",
        )
        if self.down_for is not None:
            _require(
                math.isfinite(self.down_for) and self.down_for > 0,
                f"down_for must be finite and > 0, got {self.down_for}",
            )


@dataclass(frozen=True)
class NetworkPartition:
    """Make one node unreachable for ``duration`` seconds from ``at``.

    The node keeps executing its sub-queries (it is partitioned, not
    dead), but the router cannot observe progress or gather results until
    the partition heals -- the global PI must carry the shard's last
    finite estimate forward, flagged stale, instead of going silent.
    """

    node_id: str
    at: float
    duration: float

    def __post_init__(self) -> None:
        _require(bool(self.node_id), "node_id must not be empty")
        _require(
            math.isfinite(self.at) and self.at >= 0,
            f"at must be finite and >= 0, got {self.at}",
        )
        _require(
            math.isfinite(self.duration) and self.duration > 0,
            f"duration must be finite and > 0, got {self.duration}",
        )


@dataclass(frozen=True)
class NodeBrownout:
    """Scale one node's processing rate by ``factor`` for an interval.

    ``factor=0`` freezes the node entirely (it still holds its work, the
    shape of a node-local thrash or I/O storm); capacity is restored when
    the window closes.  Overlapping brownouts on a node compose
    multiplicatively.
    """

    node_id: str
    at: float
    duration: float
    factor: float = 0.5

    def __post_init__(self) -> None:
        _require(bool(self.node_id), "node_id must not be empty")
        _require(
            math.isfinite(self.at) and self.at >= 0,
            f"at must be finite and >= 0, got {self.at}",
        )
        _require(
            math.isfinite(self.duration) and self.duration > 0,
            f"duration must be finite and > 0, got {self.duration}",
        )
        _require(
            math.isfinite(self.factor) and 0.0 <= self.factor <= 1.0,
            f"factor must be in [0, 1], got {self.factor}",
        )


#: The fault shapes a plan may hold; each targets one simulated node.
NodeFault = Union[NodeCrash, NetworkPartition, NodeBrownout]


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, validated collection of scripted faults."""

    faults: tuple[NodeFault, ...] = ()

    @classmethod
    def of(cls, *faults: NodeFault) -> "FaultPlan":
        """Build a plan from individual faults (convenience constructor)."""
        return cls(faults=tuple(faults))

    def __post_init__(self) -> None:
        for f in self.faults:
            _require(
                isinstance(f, (NodeCrash, NetworkPartition, NodeBrownout)),
                f"not a fault: {f!r}",
            )

    def __len__(self) -> int:
        return len(self.faults)

    def for_node(self, node_id: str) -> tuple[NodeFault, ...]:
        """All faults targeting *node_id*."""
        return tuple(f for f in self.faults if f.node_id == node_id)

    def describe(self) -> str:
        """A human-readable, one-fault-per-line description of the plan."""
        if not self.faults:
            return "(empty fault plan)"
        lines = []
        for f in self.faults:
            if isinstance(f, NodeCrash):
                rejoin = (
                    f", back after {f.down_for:g}s" if f.down_for is not None
                    else ", permanent"
                )
                lines.append(f"node-crash {f.node_id} at t={f.at:g}s{rejoin}")
            elif isinstance(f, NetworkPartition):
                lines.append(
                    f"partition  {f.node_id} at t={f.at:g}s for {f.duration:g}s"
                )
            else:
                lines.append(
                    f"node-brownout {f.node_id} x{f.factor:g} "
                    f"at t={f.at:g}s for {f.duration:g}s"
                )
        return "\n".join(lines)


def random_fault_plan(
    seed: int,
    node_ids: Sequence[str],
    horizon: float,
    n_faults: int = 4,
) -> FaultPlan:
    """Generate a seeded random node-fault plan for chaos testing.

    Draws *n_faults* faults uniformly over the three shapes (crash,
    partition, brownout), each targeting a random node from *node_ids*,
    with times/durations inside ``[0, horizon]``.  The same seed always
    produces the same plan, which is what makes chaos-test failures
    reproducible.
    """
    _require(bool(node_ids), "node_ids must not be empty")
    _require(
        math.isfinite(horizon) and horizon > 0,
        f"horizon must be finite and > 0, got {horizon}",
    )
    _require(n_faults >= 0, f"n_faults must be >= 0, got {n_faults}")
    rng = random.Random(seed)
    faults: list[NodeFault] = []
    for _ in range(n_faults):
        shape = rng.randrange(3)
        nid = rng.choice(list(node_ids))
        if shape == 0:
            down_for = (
                rng.uniform(horizon * 0.1, horizon * 0.5)
                if rng.random() < 0.5 else None
            )
            faults.append(
                NodeCrash(nid, at=rng.uniform(0.0, horizon * 0.8),
                          down_for=down_for)
            )
        elif shape == 1:
            faults.append(
                NetworkPartition(
                    nid,
                    at=rng.uniform(0.0, horizon * 0.8),
                    duration=rng.uniform(horizon * 0.05, horizon * 0.3),
                )
            )
        else:
            faults.append(
                NodeBrownout(
                    nid,
                    at=rng.uniform(0.0, horizon * 0.8),
                    duration=rng.uniform(horizon * 0.05, horizon * 0.3),
                    factor=rng.choice([0.0, 0.25, 0.5, 0.75]),
                )
            )
    return FaultPlan(faults=tuple(faults))
