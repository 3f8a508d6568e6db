"""Declarative fault plans: what goes wrong, when, to whom.

A :class:`FaultPlan` is a validated, immutable script of faults expressed in
virtual time, decoupled from the machinery that applies them (the
:class:`~repro.faults.injector.FaultInjector`).  Plans are plain data so
they can be generated (see :func:`random_fault_plan`), printed, stored in
test fixtures and replayed deterministically.

Four fault shapes cover the failure modes the robustness literature calls
out for progress estimation:

* :class:`QueryCrash` -- a query dies with a runtime error, either at an
  absolute virtual time or when its progress first reaches a fraction.
* :class:`QueryStall` -- a query makes no progress for an interval
  (lock wait, lost I/O) while still holding its slot.
* :class:`Brownout` -- the whole system's processing rate degrades for an
  interval (``factor=0`` is a full outage).
* :class:`StatsCorruption` -- the remaining-cost estimates PIs read turn
  bad for an interval: scaled by a factor, ``NaN`` or ``inf``.
* :class:`ArrivalBurst` -- load *as* the fault: a thundering herd of
  ``n`` extra arrivals at one instant (or jittered over a spread), the
  shape overload-protection layers defend against.

Three *node-scoped* shapes extend the vocabulary to sharded multi-node
clusters (see :mod:`repro.dist`); they target a whole simulated node
rather than one query:

* :class:`NodeCrash` -- a node dies, killing every in-flight sub-query on
  it (the router fails them over to replicas); with ``down_for`` it
  rejoins later.
* :class:`NetworkPartition` -- a node keeps executing but is unreachable:
  the router can neither read its progress nor gather its results until
  the partition heals, so its shards' global-PI contributions go stale.
* :class:`NodeBrownout` -- one node's processing rate degrades for an
  interval (the whole-system counterpart is :class:`Brownout`).
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
class QueryCrash:
    """Kill one query with a runtime error.

    Exactly one trigger must be given: ``at_time`` (absolute virtual
    seconds) or ``at_fraction`` (progress fraction in ``(0, 1]``; fires
    the first time the query's completed work reaches that share of its
    estimated total, to injector-resolution accuracy).
    """

    query_id: str
    at_time: float | None = None
    at_fraction: float | None = None
    reason: str = "injected crash"

    def __post_init__(self) -> None:
        _require(
            (self.at_time is None) != (self.at_fraction is None),
            "QueryCrash needs exactly one of at_time / at_fraction",
        )
        if self.at_time is not None:
            _require(
                math.isfinite(self.at_time) and self.at_time >= 0,
                f"at_time must be finite and >= 0, got {self.at_time}",
            )
        if self.at_fraction is not None:
            _require(
                0.0 < self.at_fraction <= 1.0,
                f"at_fraction must be in (0, 1], got {self.at_fraction}",
            )


@dataclass(frozen=True)
class QueryStall:
    """Freeze one query's progress for ``duration`` seconds from ``at``.

    The query keeps its execution slot (it still counts against the
    multiprogramming limit) but its speed is pinned to zero -- the shape of
    a lock wait or a lost I/O.
    """

    query_id: str
    at: float
    duration: float

    def __post_init__(self) -> None:
        _require(
            math.isfinite(self.at) and self.at >= 0,
            f"at must be finite and >= 0, got {self.at}",
        )
        _require(
            math.isfinite(self.duration) and self.duration > 0,
            f"duration must be finite and > 0, got {self.duration}",
        )


@dataclass(frozen=True)
class Brownout:
    """Scale the whole system's processing rate by ``factor`` for an interval.

    Overlapping brownouts compose multiplicatively.  ``factor=0`` is a full
    outage; the system resumes at nominal capacity when the window closes.
    """

    start: float
    duration: float
    factor: float = 0.5

    def __post_init__(self) -> None:
        _require(
            math.isfinite(self.start) and self.start >= 0,
            f"start must be finite and >= 0, got {self.start}",
        )
        _require(
            math.isfinite(self.duration) and self.duration > 0,
            f"duration must be finite and > 0, got {self.duration}",
        )
        _require(
            math.isfinite(self.factor) and 0.0 <= self.factor <= 1.0,
            f"factor must be in [0, 1], got {self.factor}",
        )


@dataclass(frozen=True)
class StatsCorruption:
    """Corrupt the remaining-cost estimates PIs observe, for an interval.

    ``factor`` multiplies every affected remaining cost as seen through
    system snapshots; it may be ``NaN`` or ``inf`` to model completely
    destroyed statistics (finite factors model multiplicative noise).
    ``query_id=None`` corrupts every query.  ``duration=None`` never
    clears.
    """

    start: float
    duration: float | None
    factor: float
    query_id: str | None = None

    def __post_init__(self) -> None:
        _require(
            math.isfinite(self.start) and self.start >= 0,
            f"start must be finite and >= 0, got {self.start}",
        )
        if self.duration is not None:
            _require(
                math.isfinite(self.duration) and self.duration > 0,
                f"duration must be finite and > 0, got {self.duration}",
            )
        # NaN/inf are deliberately allowed; negative costs are not expressible.
        _require(
            not self.factor < 0,
            f"factor must not be negative, got {self.factor}",
        )


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


@dataclass(frozen=True)
class ArrivalBurst:
    """Submit ``n`` extra queries at virtual time ``at`` -- load as a fault.

    The overload-storm shape: a thundering herd of arrivals that exceeds
    capacity.  With ``spread == 0`` all ``n`` queries land at the same
    instant; a positive spread jitters them (deterministically, per
    ``seed``) over ``[at, at + spread]``.

    Against a single :class:`~repro.sim.rdbms.SimulatedRDBMS`
    (:class:`~repro.faults.injector.FaultInjector`) the burst submits
    synthetic jobs of ``cost`` U's each, ids ``{prefix}0..{n-1}``, at
    ``priority`` (and optional relative ``deadline``).  Against a
    :class:`~repro.dist.ShardedCluster`
    (:class:`~repro.dist.chaos.ClusterFaultInjector`) set ``sql``: the
    burst submits that distributed query ``n`` times instead.
    """

    at: float
    n: int
    cost: float = 50.0
    spread: float = 0.0
    priority: int = 0
    deadline: float | None = None
    prefix: str = "burst"
    seed: int = 0
    sql: str | None = None

    def __post_init__(self) -> None:
        _require(
            math.isfinite(self.at) and self.at >= 0,
            f"at must be finite and >= 0, got {self.at}",
        )
        _require(self.n >= 1, f"n must be >= 1, got {self.n}")
        _require(
            math.isfinite(self.cost) and self.cost > 0,
            f"cost must be finite and > 0, got {self.cost}",
        )
        _require(
            math.isfinite(self.spread) and self.spread >= 0,
            f"spread must be finite and >= 0, got {self.spread}",
        )
        if self.deadline is not None:
            _require(
                math.isfinite(self.deadline) and self.deadline > 0,
                f"deadline must be finite and > 0, got {self.deadline}",
            )
        _require(bool(self.prefix), "prefix must not be empty")


Fault = Union[QueryCrash, QueryStall, Brownout, StatsCorruption, ArrivalBurst]

#: Faults that target a simulated node rather than a query or the whole
#: system; they only make sense against a :class:`repro.dist.ShardedCluster`.
NodeFault = Union[NodeCrash, NetworkPartition, NodeBrownout]

_FAULT_TYPES = (
    QueryCrash, QueryStall, Brownout, StatsCorruption, ArrivalBurst,
    NodeCrash, NetworkPartition, NodeBrownout,
)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, validated collection of scripted faults."""

    faults: tuple[Fault, ...] = ()

    @classmethod
    def of(cls, *faults: Fault) -> "FaultPlan":
        """Build a plan from individual faults (convenience constructor)."""
        return cls(faults=tuple(faults))

    def __post_init__(self) -> None:
        for f in self.faults:
            _require(
                isinstance(f, _FAULT_TYPES),
                f"not a fault: {f!r}",
            )

    def __len__(self) -> int:
        return len(self.faults)

    def for_query(self, query_id: str) -> tuple[Fault, ...]:
        """All faults targeting *query_id* (system-wide faults excluded)."""
        return tuple(
            f for f in self.faults if getattr(f, "query_id", None) == query_id
        )

    def for_node(self, node_id: str) -> tuple["NodeFault", ...]:
        """All node-scoped faults targeting *node_id*."""
        return tuple(
            f for f in self.faults if getattr(f, "node_id", None) == node_id
        )

    def node_faults(self) -> tuple["NodeFault", ...]:
        """The node-scoped faults in plan order."""
        return tuple(
            f for f in self.faults
            if isinstance(f, (NodeCrash, NetworkPartition, NodeBrownout))
        )

    def describe(self) -> str:
        """A human-readable, one-fault-per-line description of the plan."""
        if not self.faults:
            return "(empty fault plan)"
        lines = []
        for f in self.faults:
            if isinstance(f, QueryCrash):
                trigger = (
                    f"t={f.at_time:g}s" if f.at_time is not None
                    else f"{f.at_fraction:.0%} progress"
                )
                lines.append(f"crash    {f.query_id} at {trigger}")
            elif isinstance(f, QueryStall):
                lines.append(
                    f"stall    {f.query_id} at t={f.at:g}s for {f.duration:g}s"
                )
            elif isinstance(f, Brownout):
                lines.append(
                    f"brownout x{f.factor:g} at t={f.start:g}s for {f.duration:g}s"
                )
            elif isinstance(f, ArrivalBurst):
                window = (
                    f" over {f.spread:g}s" if f.spread > 0 else ""
                )
                what = f.sql if f.sql is not None else f"{f.cost:g} U"
                lines.append(
                    f"burst    {f.n} x {what} at t={f.at:g}s{window} "
                    f"({f.prefix}*)"
                )
            elif isinstance(f, NodeCrash):
                rejoin = (
                    f", back after {f.down_for:g}s" if f.down_for is not None
                    else ", permanent"
                )
                lines.append(f"node-crash {f.node_id} at t={f.at:g}s{rejoin}")
            elif isinstance(f, NetworkPartition):
                lines.append(
                    f"partition  {f.node_id} at t={f.at:g}s for {f.duration:g}s"
                )
            elif isinstance(f, NodeBrownout):
                lines.append(
                    f"node-brownout {f.node_id} x{f.factor:g} "
                    f"at t={f.at:g}s for {f.duration:g}s"
                )
            else:
                who = f.query_id if f.query_id is not None else "all queries"
                until = (
                    f"for {f.duration:g}s" if f.duration is not None else "permanently"
                )
                lines.append(
                    f"corrupt  {who} estimates x{f.factor:g} at t={f.start:g}s {until}"
                )
        return "\n".join(lines)


def random_fault_plan(
    seed: int,
    query_ids: Sequence[str],
    horizon: float,
    n_faults: int = 4,
    node_ids: Sequence[str] | None = None,
) -> FaultPlan:
    """Generate a seeded random fault plan for chaos testing.

    Draws *n_faults* faults uniformly over the four query/system shapes,
    targeting random queries from *query_ids*, with times/durations inside
    ``[0, horizon]``.  The same seed always produces the same plan, which
    is what makes chaos-test failures reproducible.

    With ``node_ids`` given, the draw widens to the three node-scoped
    shapes as well (crash, partition, brownout, targeting random nodes).
    The flag is deliberately opt-in: when ``node_ids`` is ``None`` the
    generator's draw sequence is byte-for-byte what it always was, so
    existing seeded plans stay stable.
    """
    _require(bool(query_ids), "query_ids must not be empty")
    _require(
        math.isfinite(horizon) and horizon > 0,
        f"horizon must be finite and > 0, got {horizon}",
    )
    _require(n_faults >= 0, f"n_faults must be >= 0, got {n_faults}")
    if node_ids is not None:
        _require(bool(node_ids), "node_ids must not be empty when given")
    rng = random.Random(seed)
    n_shapes = 4 if node_ids is None else 7
    faults: list[Fault | NodeFault] = []
    for _ in range(n_faults):
        shape = rng.randrange(n_shapes)
        if shape == 0:
            qid = rng.choice(list(query_ids))
            if rng.random() < 0.5:
                faults.append(
                    QueryCrash(qid, at_time=rng.uniform(0.0, horizon))
                )
            else:
                faults.append(
                    QueryCrash(qid, at_fraction=rng.uniform(0.1, 0.9))
                )
        elif shape == 1:
            qid = rng.choice(list(query_ids))
            faults.append(
                QueryStall(
                    qid,
                    at=rng.uniform(0.0, horizon * 0.8),
                    duration=rng.uniform(horizon * 0.05, horizon * 0.3),
                )
            )
        elif shape == 2:
            faults.append(
                Brownout(
                    start=rng.uniform(0.0, horizon * 0.8),
                    duration=rng.uniform(horizon * 0.05, horizon * 0.3),
                    factor=rng.choice([0.0, 0.25, 0.5, 0.75]),
                )
            )
        elif shape == 3:
            factor = rng.choice(
                [float("nan"), float("inf"), 0.0, 0.1, 10.0, 100.0]
            )
            qid = rng.choice([None] + list(query_ids))
            faults.append(
                StatsCorruption(
                    start=rng.uniform(0.0, horizon * 0.8),
                    duration=rng.uniform(horizon * 0.05, horizon * 0.3),
                    factor=factor,
                    query_id=qid,
                )
            )
        elif shape == 4:
            assert node_ids is not None
            nid = rng.choice(list(node_ids))
            down_for = (
                rng.uniform(horizon * 0.1, horizon * 0.5)
                if rng.random() < 0.5 else None
            )
            faults.append(
                NodeCrash(nid, at=rng.uniform(0.0, horizon * 0.8),
                          down_for=down_for)
            )
        elif shape == 5:
            assert node_ids is not None
            nid = rng.choice(list(node_ids))
            faults.append(
                NetworkPartition(
                    nid,
                    at=rng.uniform(0.0, horizon * 0.8),
                    duration=rng.uniform(horizon * 0.05, horizon * 0.3),
                )
            )
        else:
            assert node_ids is not None
            nid = rng.choice(list(node_ids))
            faults.append(
                NodeBrownout(
                    nid,
                    at=rng.uniform(0.0, horizon * 0.8),
                    duration=rng.uniform(horizon * 0.05, horizon * 0.3),
                    factor=rng.choice([0.0, 0.25, 0.5, 0.75]),
                )
            )
    return FaultPlan(faults=tuple(faults))
