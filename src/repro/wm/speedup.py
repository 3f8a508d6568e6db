"""The single-query speed-up problem (paper Section 3.1).

To speed up a target query ``Q_i``, block ``h >= 1`` victim queries.  The
paper derives, for queries sorted ascending by ``c/w`` (so ``Q_i`` finishes
``i``-th in the standard case), the *benefit* of blocking ``Q_m`` -- the
amount by which the target's remaining time shrinks:

* for a victim that would finish **before** the target (``m < i``):
  ``T_m = c_m / C`` -- blocking it saves exactly its remaining work;
* for a victim that would finish **after** the target (``m > i``):
  ``T_m = w_m * sum_{j=1..i} t_j / W_j`` where ``t_j`` is the stage-``j``
  duration and ``W_j`` the weight of the queries running in stage ``j``.
  Since ``t_j = (r_j - r_{j-1}) * W_j / C`` with ``r = c/w``, the sum
  telescopes to the fair-share clock ``r_i / C``, so ``T_m = w_m * r_i / C``
  -- maximised by the victim with the largest weight.

The optimal single victim is the better of the two set-wise candidates.
No benefit depends on which other victims are blocked, so the greedy pass
over ``h`` rounds is the top ``h`` benefits.  The equal-priority special
case admits an ``O(n)`` shortcut (any later-finishing query; else the
largest remaining cost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.model import QuerySnapshot
from repro.core.standard_case import standard_case


@dataclass(frozen=True)
class SpeedupChoice:
    """Result of victim selection for the single-query speed-up problem."""

    target: str
    victims: tuple[str, ...]
    #: Predicted reduction of the target's remaining time, seconds.
    benefit: float
    #: Target's remaining time in the standard case (no blocking), seconds.
    baseline_remaining: float
    #: Predicted remaining time after blocking the victims, seconds.
    predicted_remaining: float


def choose_victim(
    queries: Sequence[QuerySnapshot],
    target_id: str,
    processing_rate: float,
) -> SpeedupChoice:
    """Pick the single optimal victim to block for *target_id*.

    Implements the three-step algorithm of Section 3.1 (O(n log n)).

    Raises
    ------
    ValueError
        If the target is unknown, or there is no other query to block.
    """
    return choose_victims(queries, target_id, processing_rate, h=1)


def choose_victims(
    queries: Sequence[QuerySnapshot],
    target_id: str,
    processing_rate: float,
    h: int = 1,
) -> SpeedupChoice:
    """Pick the optimal *h* victims to block for *target_id*.

    With ``r = c/w`` the stage durations telescope, ``sum_{j<=i} t_j / W_j
    = r_i / C``, so every benefit is a closed form that does not depend on
    which other victims are blocked: ``c_m / C`` for a victim ordered
    before the target, ``w_m * r_i / C`` for one that outlives it.  The
    paper's ``h`` greedy rounds therefore take the top ``h`` benefits.
    Ties follow the three steps: an outliving victim (Step 1) beats an
    earlier finisher (Step 2) of equal benefit, then the larger weight
    (Step 1) or cost (Step 2), then the larger id.
    """
    if processing_rate <= 0:
        raise ValueError("processing_rate must be > 0")
    if h < 1:
        raise ValueError("h must be >= 1")
    target = next((q for q in queries if q.query_id == target_id), None)
    if target is None:
        raise ValueError(f"target {target_id!r} not among the queries")
    if len(queries) - 1 < h:
        raise ValueError(f"cannot block h={h} victims out of {len(queries) - 1} others")

    target_key = (target.remaining_cost / target.weight, target_id)
    clock = target_key[0] / processing_rate

    def rank(q: QuerySnapshot) -> tuple[float, bool, float, str]:
        if (q.remaining_cost / q.weight, q.query_id) < target_key:
            return (q.remaining_cost / processing_rate, False,
                    q.remaining_cost, q.query_id)
        return (q.weight * clock, True, q.weight, q.query_id)

    ranked = sorted(
        (rank(q) for q in queries if q.query_id != target_id), reverse=True
    )[:h]
    victims = tuple(key[3] for key in ranked)
    baseline = standard_case(
        queries, processing_rate, include_stages=False
    ).remaining_times[target_id]
    survivors = [q for q in queries if q.query_id not in victims]
    predicted = standard_case(
        survivors, processing_rate, include_stages=False
    ).remaining_times[target_id]
    return SpeedupChoice(
        target=target_id,
        victims=victims,
        benefit=sum(key[0] for key in ranked),
        baseline_remaining=baseline,
        predicted_remaining=predicted,
    )


def choose_victim_equal_priority(
    queries: Sequence[QuerySnapshot],
    target_id: str,
    processing_rate: float,
) -> SpeedupChoice:
    """The O(n) special case: all queries share one priority.

    Paper Section 3.1: scan once; any query with remaining cost at least the
    target's is optimal, otherwise the largest remaining cost wins.

    Raises
    ------
    ValueError
        If the queries do not in fact share a single weight.
    """
    if processing_rate <= 0:
        raise ValueError("processing_rate must be > 0")
    weights = {q.weight for q in queries}
    if len(weights) > 1:
        raise ValueError("queries do not all share one priority/weight")
    target = next((q for q in queries if q.query_id == target_id), None)
    if target is None:
        raise ValueError(f"target {target_id!r} not among the queries")
    others = [q for q in queries if q.query_id != target_id]
    if not others:
        raise ValueError("no candidate victim exists")

    victim: QuerySnapshot | None = None
    largest: QuerySnapshot = others[0]
    for q in others:
        if q.remaining_cost > largest.remaining_cost or (
            q.remaining_cost == largest.remaining_cost
            and q.query_id < largest.query_id
        ):
            largest = q
        if q.remaining_cost >= target.remaining_cost:
            victim = q if victim is None else victim
    if victim is None:
        victim = largest

    baseline = standard_case(
        queries, processing_rate, include_stages=False
    ).remaining_times[target_id]
    survivors = [q for q in queries if q.query_id != victim.query_id]
    predicted = standard_case(
        survivors, processing_rate, include_stages=False
    ).remaining_times[target_id]
    return SpeedupChoice(
        target=target_id,
        victims=(victim.query_id,),
        benefit=baseline - predicted,
        baseline_remaining=baseline,
        predicted_remaining=predicted,
    )
