"""Fault-tolerant global progress aggregation for distributed queries.

A distributed query runs one sub-query per shard; each shard's node
produces an ordinary single-node remaining-time estimate.  The global
indicator rolls them up:

* **global remaining = the slowest shard's remaining** -- a scatter-gather
  query finishes when its last sub-query does, so the max (not the sum)
  of per-shard remaining times is the honest global figure;
* **per-shard contributions stay visible** so operators can see *which*
  shard is the straggler, not just that one exists.

The robustness contract (the reason this module exists) is that the
global estimate is *always finite*:

* Every sub-query registers with a finite initial estimate before its
  first report, so there is never a gap with nothing to show.
* A report is accepted only if it is finite and >= 0; anything else
  (NaN, inf, a crashed node's garbage) leaves the last accepted value in
  place and marks the shard **degraded**.
* When a shard's node is down or unreachable, no fresh reports arrive;
  the aggregator *carries back* the last finite estimate, flags the
  shard degraded, and exposes its ``staleness`` -- how long ago the
  carried value was actually measured -- so consumers can see exactly
  how much to trust it.  The estimate degrades; it never turns NaN.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple


class ShardEstimate(NamedTuple):
    """One shard's contribution to a global query estimate."""

    shard: int
    #: Last accepted (finite) remaining-time estimate, seconds.
    remaining_seconds: float
    #: Virtual time at which that value was measured.
    refreshed_at: float
    #: True when the value is carried back (node down/unreachable, or the
    #: last report was non-finite) rather than freshly measured.
    degraded: bool
    #: Seconds since the value was measured (0.0 when fresh).
    staleness: float


class GlobalQueryEstimate(NamedTuple):
    """The rolled-up progress of one distributed query."""

    query_id: str
    #: Max over the shards' remaining estimates (finish = last shard).
    remaining_seconds: float
    #: Per-shard contributions, keyed by shard index, ascending.
    shards: dict[int, ShardEstimate]
    #: Virtual time of the rollup.
    as_of: float

    @property
    def degraded(self) -> bool:
        """True when any shard's contribution is carried back."""
        return any(s.degraded for s in self.shards.values())

    @property
    def staleness(self) -> float:
        """Worst-case staleness across shards, seconds."""
        return max((s.staleness for s in self.shards.values()), default=0.0)

    @property
    def slowest_shard(self) -> int | None:
        """The shard currently bounding the global remaining time."""
        shards = self.shards
        if not shards:
            return None
        return max(shards, key=lambda s: (shards[s].remaining_seconds, -s))


def _roll_up(
    queries: Iterable[tuple[str, dict[int, ShardEstimate]]], now: float
) -> dict[str, GlobalQueryEstimate]:
    """The one roll-up sweep: stored contributions -> global estimates.

    Per query: copy the stored dict, take the max, and re-stamp
    ``staleness`` on degraded contributions only.  Everything a refresh
    of all queries runs per query is in this loop body -- no call, no
    ``try`` -- because the body runs once per query per epoch.
    """
    out = {}
    for query_id, stored in queries:
        contributions = stored.copy()
        remaining = 0.0
        for c in contributions.values():
            if c.remaining_seconds > remaining:
                remaining = c.remaining_seconds
            if c.degraded:
                # Replacing the value of an existing key is safe mid-sweep.
                contributions[c.shard] = ShardEstimate(
                    c.shard, c.remaining_seconds, c.refreshed_at, True,
                    max(now - c.refreshed_at, 0.0),
                )
        out[query_id] = GlobalQueryEstimate(
            query_id, remaining, contributions, now
        )
    return out


class GlobalProgressAggregator:
    """Rolls per-shard estimates into always-finite global query PIs.

    The aggregator stores, per (query, shard), the immutable
    :class:`ShardEstimate` it hands out: every mutator replaces the stored
    contribution (staleness 0.0), and a roll-up copies the per-query dict
    and re-stamps ``staleness`` only on degraded contributions -- a query
    with no degraded shard costs one dict copy and one max sweep.
    """

    def __init__(self) -> None:
        #: query -> {shard: contribution}, shards in ascending order.
        self._queries: dict[str, dict[int, ShardEstimate]] = {}
        #: query -> shards whose sub-queries have all completed.
        self._done: dict[str, set[int]] = {}

    def register(
        self, query_id: str, shard: int, initial_remaining: float, now: float
    ) -> None:
        """Register one sub-query with its finite initial estimate.

        Must precede any report for the (query, shard) pair; the initial
        value is what carry-back falls to if the node dies before its
        first real report.
        """
        if not math.isfinite(initial_remaining) or initial_remaining < 0:
            raise ValueError(
                f"initial estimate must be finite and >= 0, "
                f"got {initial_remaining}"
            )
        shards = self._queries.setdefault(query_id, {})
        if shard in shards:
            raise ValueError(f"shard {shard} of {query_id!r} already registered")
        self._done.setdefault(query_id, set())
        out_of_order = bool(shards) and next(reversed(shards)) > shard
        shards[shard] = ShardEstimate(
            shard, float(initial_remaining), now, False, 0.0
        )
        if out_of_order:
            # Keep ascending shard order here so no roll-up has to sort.
            ordered = sorted(shards.items())
            shards.clear()
            shards.update(ordered)

    def report(
        self, query_id: str, shard: int, remaining: float, now: float
    ) -> bool:
        """Accept a fresh per-shard estimate; reject non-finite garbage.

        Returns True when the value was accepted.  A rejected report
        (NaN, inf, negative) leaves the previous finite value carried
        back and marks the shard degraded -- the global PI survives a
        shard whose estimator has gone insane.
        """
        shards, current = self._lookup(query_id, shard)
        if shard in self._done[query_id]:
            return False
        if not math.isfinite(remaining) or remaining < 0:
            shards[shard] = current._replace(degraded=True)
            return False
        shards[shard] = ShardEstimate(shard, float(remaining), now, False, 0.0)
        return True

    def mark_degraded(self, query_id: str, shard: int) -> None:
        """Flag a shard's estimate as carried-back (its node is gone)."""
        shards, current = self._lookup(query_id, shard)
        if shard not in self._done[query_id]:
            shards[shard] = current._replace(degraded=True)

    def mark_done(self, query_id: str, shard: int, now: float) -> None:
        """Record a sub-query's completion: zero remaining, fresh, final."""
        shards, _ = self._lookup(query_id, shard)
        shards[shard] = ShardEstimate(shard, 0.0, now, False, 0.0)
        self._done[query_id].add(shard)

    def move_shard(
        self, query_id: str, shard: int, remaining: float, now: float
    ) -> None:
        """Re-anchor a shard after failover to a replica.

        The replica resumes from the last checkpoint, so the shard's
        remaining estimate changes discontinuously; the new value must be
        finite (the router computes it from the restored execution).
        The shard stays *degraded* until the replica's first real report
        confirms the estimate with a live measurement.
        """
        if not math.isfinite(remaining) or remaining < 0:
            raise ValueError(
                f"failover estimate must be finite and >= 0, got {remaining}"
            )
        shards, _ = self._lookup(query_id, shard)
        shards[shard] = ShardEstimate(shard, float(remaining), now, True, 0.0)

    def estimate(self, query_id: str, now: float) -> GlobalQueryEstimate:
        """The query's global estimate at virtual time *now*.

        Always finite: every contribution is either a fresh measurement
        or a carried-back finite value with its staleness exposed.
        """
        return _roll_up(((query_id, self._shards(query_id)),), now)[query_id]

    def estimates(self, now: float) -> dict[str, GlobalQueryEstimate]:
        """Global estimates for every registered query."""
        return _roll_up(self._queries.items(), now)

    def degraded_count(self) -> int:
        """Number of live (query, shard) contributions carried back.

        The obs gauge ``dist.pi.degraded_shards`` publishes this every
        refresh, so overload- or outage-induced carry-back is visible in
        metrics without walking per-query snapshots.
        """
        return sum(1 for _ in self._live_degraded())

    def max_staleness(self, now: float) -> float:
        """Age of the stalest carried-back contribution, seconds.

        0.0 when nothing is degraded -- fresh values are by definition
        current.  Published as the obs gauge ``dist.pi.staleness_max``.
        """
        return max(
            (max(now - c.refreshed_at, 0.0) for c in self._live_degraded()),
            default=0.0,
        )

    def query_ids(self) -> tuple[str, ...]:
        """Registered distributed query ids, registration order."""
        return tuple(self._queries)

    def forget(self, query_id: str) -> None:
        """Drop a query's state entirely (after its results are consumed)."""
        self._queries.pop(query_id, None)
        self._done.pop(query_id, None)

    def _live_degraded(self):
        """Degraded contributions of shards that are not done."""
        for query_id, shards in self._queries.items():
            done = self._done[query_id]
            for c in shards.values():
                if c.degraded and c.shard not in done:
                    yield c

    def _shards(self, query_id: str) -> dict[int, ShardEstimate]:
        try:
            return self._queries[query_id]
        except KeyError:
            raise KeyError(f"unknown distributed query {query_id!r}") from None

    def _lookup(
        self, query_id: str, shard: int
    ) -> tuple[dict[int, ShardEstimate], ShardEstimate]:
        """The query's contributions and the stored one of *shard*."""
        shards = self._shards(query_id)
        try:
            return shards, shards[shard]
        except KeyError:
            raise KeyError(
                f"shard {shard} of {query_id!r} was never registered"
            ) from None
