"""The multiple-query speed-up problem (paper Section 3.2).

Block a single victim ``Q_m`` to minimise the *total response time* of all
other queries.  With queries sorted ascending by ``c/w`` and ``t_j`` / ``W_j``
the standard-case stage durations / suffix weights, blocking ``Q_m``
shortens stage ``j <= m`` by ``dt_j = t_j * w_m / W_j`` and each shortened
stage benefits the ``n - j`` queries still running, so the aggregate
response-time improvement is

    ``R_m = sum_{j=1..m} (n - j) * t_j * w_m / W_j``

and the optimal victim maximises ``R_m``.  Since ``t_j / W_j = (r_j -
r_{j-1}) / C`` with ``r = c/w``, no stage table is needed:

    ``R_m = (w_m / C) * sum_{j=1..m} (n - j) * (r_j - r_{j-1})``

is one pass over the sorted ratios (O(n log n) for the sort).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.model import QuerySnapshot


@dataclass(frozen=True)
class MultiSpeedupChoice:
    """Result of victim selection for the multiple-query speed-up problem."""

    victim: str
    #: Predicted total response-time improvement across all other queries.
    improvement: float
    #: Per-candidate improvements ``R_m`` (query id -> seconds), for audits.
    all_improvements: dict[str, float]


def choose_victim_for_all(
    queries: Sequence[QuerySnapshot],
    processing_rate: float,
) -> MultiSpeedupChoice:
    """Pick the victim whose blocking most improves everyone else.

    Raises
    ------
    ValueError
        With fewer than two queries (there must be someone left to benefit).
    """
    if processing_rate <= 0:
        raise ValueError("processing_rate must be > 0")
    n = len(queries)
    if n < 2:
        raise ValueError("need at least two queries")

    ordered = sorted(queries, key=lambda q: (q.remaining_cost / q.weight, q.query_id))
    # R_m = (w_m / C) * sum_{j<=m} (n - 1 - j) * (r_j - r_{j-1}), 0-based.
    improvements: dict[str, float] = {}
    acc = prev = 0.0
    for j, q in enumerate(ordered):
        ratio = q.remaining_cost / q.weight
        acc += (n - 1 - j) * (ratio - prev)
        prev = ratio
        improvements[q.query_id] = q.weight * acc / processing_rate
    victim = max(
        improvements, key=lambda qid: (improvements[qid], qid)
    )
    return MultiSpeedupChoice(
        victim=victim,
        improvement=improvements[victim],
        all_improvements=improvements,
    )
