"""The "standard case" stage algorithm of paper Section 2.2.

Given ``n`` queries running concurrently under weighted fair sharing, with no
new arrivals, the execution divides into ``n`` stages: at the end of stage
``i`` exactly one query (the one with the ``i``-th smallest ``c/w`` ratio)
finishes.  The paper derives the closed form

    ``c_i^(k) = c_i - c_k * w_i / w_k``        (remaining cost after stage k)

which collapses to a per-stage duration of

    ``t_k = (c_k / w_k - c_{k-1} / w_{k-1}) * W_k / C``

where ``W_k`` is the total weight of the queries still running during stage
``k`` and queries are indexed in ascending ``c/w`` order (``c_0/w_0 = 0`` by
convention).  The remaining execution time of query ``i`` is
``r_i = t_1 + ... + t_i``.

The algorithm is ``O(n log n)`` time and ``O(n)`` space, matching the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import truediv
from typing import Sequence

from repro.core.model import QuerySnapshot
from repro.core.validation import validate_finite, validate_snapshots


@dataclass(frozen=True)
class Stage:
    """One stage of the standard-case execution.

    Attributes
    ----------
    index:
        1-based stage number.
    duration:
        Stage duration ``t_k`` in seconds.
    start, end:
        Stage boundaries, relative to the snapshot time.
    finishing_query:
        Id of the query that completes at the end of this stage.
    running_query_ids:
        Ids of the queries executing during the stage (ascending ``c/w``).
    speeds:
        Per-query execution speed during the stage, U/s, keyed by query id.
    """

    index: int
    duration: float
    start: float
    end: float
    finishing_query: str
    running_query_ids: tuple[str, ...]
    speeds: dict[str, float]

    def work_done(self, query_id: str) -> float:
        """Work completed by *query_id* during this stage, in U's."""
        return self.speeds.get(query_id, 0.0) * self.duration


@dataclass(frozen=True)
class StandardCaseResult:
    """Output of :func:`standard_case`.

    ``remaining_times`` maps each query id to its remaining execution time
    ``r_i`` in seconds; ``finish_order`` lists query ids in completion
    order; ``stages`` carries the full schedule (useful for rendering paper
    Figure 1) and is empty when the algorithm ran with
    ``include_stages=False``.
    """

    remaining_times: dict[str, float]
    finish_order: tuple[str, ...]
    stages: tuple[Stage, ...]
    quiescent_time: float = 0.0


def solve_stages(
    ids: Sequence[str],
    costs: Sequence[float],
    weights: Sequence[float],
    processing_rate: float,
    start: float = 0.0,
) -> tuple[list[str], list[float]]:
    """The flat Section 2.2 solve: one sort, one suffix-weight sweep.

    This is the kernel under every one-shot solve -- the body of
    :func:`standard_case` without stages, the tail of a
    :func:`~repro.core.projection.project` call, the simulator's per-refresh
    recompute.  It takes parallel sequences that the caller has already
    validated (finite, ``cost >= 0``, ``weight > 0``) and does no checking
    of its own, so a public entry point validates once and solves once.

    Returns ``(finish_order, finish_times)``: the ids in ascending
    ``(c/w, query_id)`` order and, parallel to them, ``start`` plus each
    query's remaining time.  The weight of the queries still running in
    stage ``k`` is summed right to left exactly as the staged loop of
    :func:`standard_case` sums it, so the two agree bit for bit.
    """
    # Positions sorted by ratio alone (a float-keyed C sort, no key tuple
    # per query) unless two ratios tie: then by id first and stably by
    # ratio, which orders ties by (id, position) as the staged path's
    # stable sort does.
    ratios = list(map(truediv, costs, weights))
    positions = range(len(ratios))
    if len(set(ratios)) == len(ratios):
        order = sorted(positions, key=ratios.__getitem__)
    else:
        order = sorted(positions, key=ids.__getitem__)
        order.sort(key=ratios.__getitem__)
    live_weight = list(
        accumulate(map(weights.__getitem__, reversed(order)), initial=0.0)
    )
    finish_times: list[float] = []
    clock = start
    prev_ratio = 0.0
    for i in order:
        ratio = ratios[i]
        clock += (ratio - prev_ratio) * live_weight.pop() / processing_rate
        finish_times.append(clock)
        prev_ratio = ratio
    return list(map(ids.__getitem__, order)), finish_times


def standard_case(
    queries: Sequence[QuerySnapshot],
    processing_rate: float,
    include_stages: bool = True,
) -> StandardCaseResult:
    """Run the Section 2.2 stage algorithm.

    Parameters
    ----------
    queries:
        The running queries (any order; zero-remaining-cost queries are
        allowed and simply finish at time 0).
    processing_rate:
        The constant total processing rate ``C`` in U/s (Assumption 1).
    include_stages:
        Whether to materialise the full per-stage schedule (speeds and
        running sets).  With stages the output is ``Theta(n^2)`` in size;
        without them the algorithm is the paper's ``O(n log n)`` time /
        ``O(n)`` space and only remaining times are produced.

    Returns
    -------
    StandardCaseResult
        Per-query remaining times, the completion order, and (optionally)
        the stage schedule.

    Raises
    ------
    ValueError
        If ``processing_rate`` is not a positive finite number, or any
        query carries a NaN / infinite / negative cost or weight.
    """
    validate_finite(processing_rate, "processing_rate", minimum=0.0, exclusive=True)
    validate_snapshots(queries)
    n = len(queries)
    if n == 0:
        return StandardCaseResult(
            remaining_times={}, finish_order=(), stages=(), quiescent_time=0.0
        )
    if not include_stages:
        finish_order, finish_times = solve_stages(
            [q.query_id for q in queries],
            [q.remaining_cost for q in queries],
            [q.weight for q in queries],
            processing_rate,
        )
        return StandardCaseResult(
            remaining_times=dict(zip(finish_order, finish_times)),
            finish_order=tuple(finish_order),
            stages=(),
            quiescent_time=finish_times[-1],
        )

    # Sort ascending by the c/w ratio; ties broken by query id for determinism.
    order = sorted(queries, key=lambda q: (q.remaining_cost / q.weight, q.query_id))

    # Suffix weight sums: weight_after[k] = sum of weights of order[k:].
    weight_after = [0.0] * (n + 1)
    for k in range(n - 1, -1, -1):
        weight_after[k] = weight_after[k + 1] + order[k].weight

    stages: list[Stage] = []
    remaining_times: dict[str, float] = {}
    prev_ratio = 0.0
    clock = 0.0
    for k, q in enumerate(order):
        ratio = q.remaining_cost / q.weight
        w_k = weight_after[k]
        duration = (ratio - prev_ratio) * w_k / processing_rate
        running = order[k:]
        speeds = {
            other.query_id: processing_rate * other.weight / w_k
            for other in running
        }
        stages.append(
            Stage(
                index=k + 1,
                duration=duration,
                start=clock,
                end=clock + duration,
                finishing_query=q.query_id,
                running_query_ids=tuple(o.query_id for o in running),
                speeds=speeds,
            )
        )
        clock += duration
        remaining_times[q.query_id] = clock
        prev_ratio = ratio

    return StandardCaseResult(
        remaining_times=remaining_times,
        finish_order=tuple(q.query_id for q in order),
        stages=tuple(stages),
        quiescent_time=clock,
    )


def remaining_time_of(
    queries: Sequence[QuerySnapshot],
    processing_rate: float,
    query_id: str,
) -> float:
    """Convenience wrapper: remaining time of one query in the standard case."""
    result = standard_case(queries, processing_rate)
    try:
        return result.remaining_times[query_id]
    except KeyError:
        raise KeyError(f"query {query_id!r} not among the running queries") from None
