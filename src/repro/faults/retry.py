"""Retry backoff for sub-query failover.

The cluster router (:mod:`repro.dist.router`) resubmits a failed
sub-query on a replica; this module fixes how often and how late:

* at most :data:`MAX_ATTEMPTS` execution attempts per sub-query;
* exponential backoff in virtual time, :data:`BASE_DELAY` before the
  second attempt and x :data:`BACKOFF_MULTIPLIER` per further attempt;
* *deterministic* jitter of :data:`JITTER` (hashed from the query id and
  attempt number, so runs are reproducible without a shared RNG).
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a hard dep
    from repro.qos.breaker import CircuitBreaker

#: Total execution attempts allowed per sub-query, including the first.
MAX_ATTEMPTS = 6
#: Backoff before the second attempt, in virtual seconds.
BASE_DELAY = 0.5
#: Exponential growth factor of the backoff per further attempt.
BACKOFF_MULTIPLIER = 2.0
#: Symmetric jitter fraction: each delay is scaled by a deterministic
#: factor in ``[1 - JITTER, 1 + JITTER]`` derived from the query id and
#: attempt number.  Zero jitter would resubmit every query that one node
#: crash killed at the same virtual instant -- a retry storm.
JITTER = 0.1


def _unit_hash(query_id: str, attempt: int) -> float:
    """Deterministic pseudo-random number in [0, 1) from (query_id, attempt).

    Uses CRC32 rather than :func:`hash` because the latter is salted per
    process for strings -- backoff schedules must be stable across runs.
    """
    return zlib.crc32(f"{query_id}#{attempt}".encode()) / 2**32


def retry_delay(
    failed_attempts: int,
    query_id: str = "",
    breaker: "CircuitBreaker | None" = None,
    now: float = 0.0,
) -> float:
    """Backoff delay after *failed_attempts* attempts have failed.

    ``failed_attempts`` is 1 after the first failure.  The delay grows
    as ``BASE_DELAY * BACKOFF_MULTIPLIER ** (failed_attempts - 1)``,
    then is jittered deterministically per ``(query_id,
    failed_attempts)``.

    When the target node's circuit *breaker* is open at virtual time
    *now*, the breaker's remaining cooldown replaces the backoff: a
    retry before the breaker would even let the request through is a
    futile attempt, so the schedule waits for the half-open probe
    window instead of burning backoff steps.  A closed (or half-open)
    breaker leaves the backoff sequence byte-identical to the
    breaker-less path.
    """
    if failed_attempts < 1:
        raise ValueError(f"failed_attempts must be >= 1, got {failed_attempts}")
    if breaker is not None:
        hold = breaker.retry_after(now)
        if hold > 0:
            return hold
    d = BASE_DELAY * BACKOFF_MULTIPLIER ** (failed_attempts - 1)
    return d * (
        1.0 + JITTER * (2.0 * _unit_hash(query_id, failed_attempts) - 1.0)
    )
