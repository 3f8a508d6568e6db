"""Shared input-validation guards for the progress-indicator estimators.

The estimators consume numbers that, in a real system, come from noisy and
occasionally corrupted sources: optimizer cost estimates, executor counters,
workload statistics.  A NaN or infinite remaining cost silently propagates
through arithmetic (``nan < 0`` is ``False``, so naive range checks pass)
and turns every downstream estimate into garbage without any error being
raised.  The related robust-progress-estimation literature is explicit that
estimators must *fail loudly or degrade gracefully* on such inputs.

This module is the single place that policy lives:

* :func:`validate_finite` -- one scalar must be finite (and optionally
  bounded below).
* :func:`validate_snapshots` -- every cost/weight in a batch of
  :class:`~repro.core.model.QuerySnapshot` objects must be sane.
* :func:`finite_snapshots` / :func:`carry_back` -- the graceful-degradation
  side: drop insane snapshots, or patch a non-finite remaining cost with
  the query's last finite one.

The :class:`~repro.core.model.QuerySnapshot` data carrier itself stays
permissive about NaN/inf (a snapshot may legitimately *record* a corrupted
runtime signal, such as an engine estimate gone non-finite); the guards
fire at estimator entry, where acting on garbage would begin.  Callers
that want graceful degradation instead of an exception (e.g. the
adaptive maintenance manager, :mod:`repro.wm.manager`) sanitize their
snapshots with :func:`carry_back` / :func:`finite_snapshots` first.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Iterable, Sequence

from repro.core.model import QuerySnapshot


def validate_finite(
    value: float,
    name: str,
    minimum: float | None = None,
    exclusive: bool = False,
) -> float:
    """Require *value* to be a finite number, optionally bounded below.

    Parameters
    ----------
    value:
        The number to check.
    name:
        How to refer to the value in the error message
        (e.g. ``"processing_rate"`` or ``"remaining_cost of query 'Q1'"``).
    minimum:
        Optional lower bound.
    exclusive:
        If ``True`` the bound is strict (``value > minimum``); otherwise
        ``value >= minimum``.

    Returns
    -------
    float
        The validated value, for convenient inline use.

    Raises
    ------
    ValueError
        If the value is NaN, infinite, or violates the bound.
    """
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if minimum is not None:
        if exclusive and not value > minimum:
            raise ValueError(f"{name} must be > {minimum}, got {value}")
        if not exclusive and not value >= minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def validate_snapshots(
    queries: Iterable[QuerySnapshot] | Sequence[QuerySnapshot],
    where: str = "queries",
) -> None:
    """Require every cost and weight in *queries* to be finite and in range.

    Checks, per query: ``remaining_cost`` finite and >= 0,
    ``completed_work`` finite and >= 0, ``weight`` finite and > 0.

    Raises
    ------
    ValueError
        Naming the offending query and field, e.g.
        ``remaining_cost of query 'Q3' (in running) must be finite, got nan``.
    """
    isfinite = math.isfinite
    for q in queries:
        cost, done, weight = q.remaining_cost, q.completed_work, q.weight
        if (
            isfinite(cost) and cost >= 0.0
            and isfinite(done) and done >= 0.0
            and isfinite(weight) and weight > 0.0
        ):
            continue
        # Labels (three f-strings and a repr per query) are only built
        # here, once a check is known to fail.
        validate_finite(
            cost,
            f"remaining_cost of query {q.query_id!r} (in {where})",
            minimum=0.0,
        )
        validate_finite(
            done,
            f"completed_work of query {q.query_id!r} (in {where})",
            minimum=0.0,
        )
        validate_finite(
            weight,
            f"weight of query {q.query_id!r} (in {where})",
            minimum=0.0,
            exclusive=True,
        )


def finite_snapshots(
    queries: Sequence[QuerySnapshot],
) -> tuple[QuerySnapshot, ...]:
    """Drop snapshots whose remaining cost or weight is not finite/sane.

    The graceful-degradation counterpart of :func:`validate_snapshots`:
    workload managers that must keep operating under corrupted statistics
    filter their inputs with this instead of raising, and handle the
    filtered-out queries by cruder means (observed work, deadline aborts).
    """
    return tuple(
        q
        for q in queries
        if math.isfinite(q.remaining_cost)
        and q.remaining_cost >= 0
        and math.isfinite(q.completed_work)
        and q.completed_work >= 0
        and math.isfinite(q.weight)
        and q.weight > 0
    )


def carry_back(
    snapshots: Sequence[QuerySnapshot],
    last_finite: dict[str, float],
) -> tuple[tuple[QuerySnapshot, ...], tuple[str, ...]]:
    """Carry each query's last finite remaining cost over a corrupt one.

    *last_finite* is the caller's per-query memory and is updated in
    place: a finite remaining cost is recorded, and ids absent from
    *snapshots* (departed queries) are forgotten.  A snapshot whose
    remaining cost is not finite is replaced by a copy carrying the last
    finite cost of its id; one whose id never reported a finite cost is
    dropped.  Returns ``(kept, carried_ids)``, both in input order, so the
    caller can flag decisions made from stale estimates.
    """
    previous = dict(last_finite)
    last_finite.clear()
    kept: list[QuerySnapshot] = []
    carried: list[str] = []
    for snap in snapshots:
        qid, cost = snap.query_id, snap.remaining_cost
        if math.isfinite(cost):
            last_finite[qid] = cost
            kept.append(snap)
        elif qid in previous:
            last_finite[qid] = previous[qid]
            kept.append(replace(snap, remaining_cost=previous[qid]))
            carried.append(qid)
    return tuple(kept), tuple(carried)
