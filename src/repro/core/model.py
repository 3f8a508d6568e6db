"""Data model shared by the progress-indicator algorithms.

The paper measures query work in abstract units called *U*'s, where one U is
"the amount of work required to process one page of bytes" (Section 2).  All
costs and speeds in this package are expressed in U's and U's per second.

The model encodes the paper's three simplifying assumptions (Section 2.1):

1. the RDBMS processes work at a constant total rate ``C`` (U/s),
2. the remaining cost ``c_i`` of each running query is known,
3. each query runs at speed ``s_i = C * w_i / W`` where ``w_i`` is the weight
   of its priority and ``W`` is the sum of the weights of all running queries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

#: Default priority-to-weight mapping.  Priorities are small integers; the
#: weight doubles per priority level so that a priority-``p+1`` query runs
#: twice as fast as a priority-``p`` query sharing the system with it.
DEFAULT_PRIORITY_WEIGHTS: Mapping[int, float] = {p: float(2**p) for p in range(0, 10)}


def weight_for_priority(priority: int, weights: Mapping[int, float] | None = None) -> float:
    """Return the scheduling weight associated with *priority*.

    Unknown priorities fall back to ``2 ** priority`` so that the default map
    extends naturally.
    """
    table = DEFAULT_PRIORITY_WEIGHTS if weights is None else weights
    if priority in table:
        return table[priority]
    return float(2**priority)


#: The priority class a demoted query drops to -- the ladder's rung 2
#: and a degraded admission both use it.  Its weight, ``2 ** -2``, lets
#: a demoted query barely perturb the rest.
DEMOTED_PRIORITY = -2


@dataclass(frozen=True, init=False)
class QuerySnapshot:
    """Point-in-time view of one query, as seen by a progress indicator.

    Attributes
    ----------
    query_id:
        Stable identifier of the query.
    remaining_cost:
        Estimated remaining work ``c_i`` in U's.
    completed_work:
        Work ``e_i`` already completed, in U's (used by the scheduled
        maintenance problem, Section 3.3).
    weight:
        Scheduling weight ``w_i`` of the query's priority (Assumption 3).
    priority:
        Raw priority level (informational; the algorithms use ``weight``).

    A simulator builds one snapshot per running job per refresh, so the
    constructor is written by hand: the frozen dataclass's generated
    ``__init__`` pays one ``object.__setattr__`` call per field, this one
    five stores into the instance ``__dict__``, in field order so the
    dict keeps sharing its keys with every other snapshot (one
    ``__dict__.update`` would give each snapshot its own key table, at
    +60 % of the bytes).  Everything else -- eq, hash, repr,
    ``dataclasses.replace`` (which re-validates), immutability -- is the
    dataclass's own.  NaN and inf pass the checks here; finiteness is
    :func:`repro.core.validation.validate_snapshots`' job.
    """

    query_id: str
    remaining_cost: float
    completed_work: float = 0.0
    weight: float = 1.0
    priority: int = 0

    def __init__(
        self,
        query_id: str,
        remaining_cost: float,
        completed_work: float = 0.0,
        weight: float = 1.0,
        priority: int = 0,
    ) -> None:
        if remaining_cost < 0:
            raise ValueError(f"remaining_cost must be >= 0, got {remaining_cost}")
        if completed_work < 0:
            raise ValueError(f"completed_work must be >= 0, got {completed_work}")
        if weight <= 0:
            raise ValueError(f"weight must be > 0, got {weight}")
        fields = self.__dict__
        fields["query_id"] = query_id
        fields["remaining_cost"] = remaining_cost
        fields["completed_work"] = completed_work
        fields["weight"] = weight
        fields["priority"] = priority

    @property
    def total_cost(self) -> float:
        """Total cost of the query: completed plus remaining work."""
        return self.completed_work + self.remaining_cost

    def with_remaining(self, remaining_cost: float) -> "QuerySnapshot":
        """Return a copy with a new remaining cost (completed work follows)."""
        done = self.total_cost - remaining_cost
        return replace(self, remaining_cost=remaining_cost, completed_work=max(done, 0.0))


@dataclass(frozen=True)
class SystemSnapshot:
    """Point-in-time view of the whole RDBMS, input to the multi-query PI.

    Attributes
    ----------
    running:
        Queries currently executing, in arbitrary order.
    queued:
        Queries waiting in the admission queue, *in FIFO admission order*
        (Section 2.3).  They consume no capacity until admitted.
    processing_rate:
        The constant total work rate ``C`` in U/s (Assumption 1).
    multiprogramming_limit:
        Maximum number of concurrently running queries; ``None`` means
        unlimited.  When a running query finishes, the head of ``queued`` is
        admitted.
    time:
        The wall-clock (or virtual) time the snapshot was taken at, in
        seconds.  Estimates produced from the snapshot are relative to it.
    """

    running: tuple[QuerySnapshot, ...]
    queued: tuple[QuerySnapshot, ...] = ()
    processing_rate: float = 1.0
    multiprogramming_limit: int | None = None
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.processing_rate <= 0:
            raise ValueError(f"processing_rate must be > 0, got {self.processing_rate}")
        if self.multiprogramming_limit is not None and self.multiprogramming_limit < 1:
            raise ValueError("multiprogramming_limit must be >= 1 or None")
        ids = [q.query_id for q in self.running] + [q.query_id for q in self.queued]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate query_id in snapshot")

    @classmethod
    def of(
        cls,
        running: Sequence[QuerySnapshot],
        queued: Sequence[QuerySnapshot] = (),
        processing_rate: float = 1.0,
        multiprogramming_limit: int | None = None,
        time: float = 0.0,
    ) -> "SystemSnapshot":
        """Build a snapshot from any sequences (convenience constructor)."""
        return cls(
            running=tuple(running),
            queued=tuple(queued),
            processing_rate=processing_rate,
            multiprogramming_limit=multiprogramming_limit,
            time=time,
        )

    @property
    def total_weight(self) -> float:
        """Sum ``W`` of the weights of all running queries."""
        return sum(q.weight for q in self.running)

    @property
    def total_remaining_cost(self) -> float:
        """Total outstanding work of running plus queued queries, in U's."""
        return sum(q.remaining_cost for q in self.running) + sum(
            q.remaining_cost for q in self.queued
        )

    def speed_of(self, query_id: str) -> float:
        """Current execution speed ``s_i = C * w_i / W`` of a running query."""
        w = self.total_weight
        for q in self.running:
            if q.query_id == query_id:
                return self.processing_rate * q.weight / w
        raise KeyError(f"query {query_id!r} is not running")

    def find(self, query_id: str) -> QuerySnapshot:
        """Return the snapshot of *query_id*, whether running or queued."""
        for q in self.running:
            if q.query_id == query_id:
                return q
        for q in self.queued:
            if q.query_id == query_id:
                return q
        raise KeyError(f"query {query_id!r} not in snapshot")

    def without(self, query_id: str) -> "SystemSnapshot":
        """Return a snapshot with *query_id* removed (used by what-if tools)."""
        self.find(query_id)  # raise KeyError for unknown ids
        return replace(
            self,
            running=tuple(q for q in self.running if q.query_id != query_id),
            queued=tuple(q for q in self.queued if q.query_id != query_id),
        )


