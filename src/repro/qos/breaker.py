"""Per-node circuit breaker: stop hammering a node that keeps failing.

The sharded router's failover loop (PR 6) retries a dead node's work on
its replicas -- but nothing stops it from *routing back* to a node that
is nominally serving yet failing every request, or from burning backoff
attempts against a target everyone already knows is down.  The classic
remedy is a circuit breaker per node:

* **closed** (normal): requests flow; consecutive failures are counted.
* **open** (tripped): after :data:`FAILURE_THRESHOLD` consecutive
  failures, requests are refused for a virtual-time :data:`COOLDOWN`.
* **half-open** (probing): once the cooldown elapses, exactly one probe
  request is let through.  Success closes the breaker; failure re-opens
  it for another full cooldown.

Everything is driven by an explicit virtual ``now`` argument -- the
breaker never reads a wall clock, so simulations stay deterministic and
the state machine is trivially property-testable with scripted
failure/success/clock sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Consecutive failures (with no intervening success) that trip a closed
#: breaker open.
FAILURE_THRESHOLD = 3
#: Virtual seconds an open breaker refuses requests before it allows a
#: half-open probe.
COOLDOWN = 5.0


@dataclass(frozen=True)
class BreakerTransition:
    """One state change, for audit logs and tests."""

    time: float
    from_state: str
    to_state: str
    reason: str


class CircuitBreaker:
    """A closed / open / half-open breaker in virtual time.

    All methods take the current virtual time explicitly; the breaker
    holds no reference to a clock.  The contract the property tests pin:

    * :meth:`allow` never returns True while open before
      ``opened_at + COOLDOWN`` (no early probes);
    * after the cooldown, :meth:`allow` grants exactly one probe; a
      success while half-open closes the breaker (a healthy node can
      always escape the open state -- no wedging);
    * a failure while half-open re-opens for a fresh cooldown.
    """

    def __init__(self) -> None:
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_outstanding = False
        #: Chronological log of state changes.
        self.transitions: list[BreakerTransition] = []

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"``."""
        return self._state

    @property
    def consecutive_failures(self) -> int:
        """Failures since the last success (meaningful while closed)."""
        return self._consecutive_failures

    def _transition(self, now: float, to_state: str, reason: str) -> None:
        self.transitions.append(
            BreakerTransition(now, self._state, to_state, reason)
        )
        self._state = to_state

    def _open(self, now: float, reason: str) -> None:
        self._transition(now, "open", reason)
        self._opened_at = now
        self._probe_outstanding = False

    # ------------------------------------------------------------------
    # Gating
    # ------------------------------------------------------------------

    def allow(self, now: float) -> bool:
        """Whether a request may be sent at virtual time *now*.

        While open, returns False until the cooldown elapses, then moves
        to half-open and grants a single probe; further calls return
        False until the probe resolves via :meth:`record_success` or
        :meth:`record_failure`.
        """
        if self._state == "closed":
            return True
        if self._state == "open":
            if now < self._opened_at + COOLDOWN:
                return False
            self._transition(now, "half_open", "cooldown elapsed")
            self._probe_outstanding = True
            return True
        # half_open: one probe at a time.
        if self._probe_outstanding:
            return False
        self._probe_outstanding = True
        return True

    def retry_after(self, now: float) -> float:
        """Seconds until a request could next be allowed (0 when it can now).

        Pure -- never changes state.  While open this is the remaining
        cooldown; the breaker-aware
        :func:`~repro.faults.retry.retry_delay` uses it instead of
        burning exponential-backoff attempts against a tripped node.
        """
        if self._state != "open":
            return 0.0
        return max(self._opened_at + COOLDOWN - now, 0.0)

    # ------------------------------------------------------------------
    # Outcome reporting
    # ------------------------------------------------------------------

    def record_success(self, now: float) -> None:
        """Report a successful request (resets the failure streak)."""
        self._consecutive_failures = 0
        if self._state == "half_open":
            self._probe_outstanding = False
            self._transition(now, "closed", "probe succeeded")
        # A late success while open (a straggler from before the trip)
        # does not close the breaker: the probe protocol decides.

    def record_failure(self, now: float, reason: str = "request failed") -> None:
        """Report a failed request; may trip or re-open the breaker."""
        if self._state == "half_open":
            self._probe_outstanding = False
            self._open(now, f"probe failed: {reason}")
            return
        if self._state == "open":
            return  # already tripped; stragglers don't extend the cooldown
        self._consecutive_failures += 1
        if self._consecutive_failures >= FAILURE_THRESHOLD:
            self._open(
                now,
                f"{self._consecutive_failures} consecutive failures: {reason}",
            )


@dataclass
class BreakerBoard:
    """A breaker per node, lazily created."""

    breakers: dict[str, CircuitBreaker] = field(default_factory=dict)

    def for_node(self, node_id: str) -> CircuitBreaker:
        """The node's breaker, created closed on first access."""
        breaker = self.breakers.get(node_id)
        if breaker is None:
            breaker = CircuitBreaker()
            self.breakers[node_id] = breaker
        return breaker

    def open_nodes(self) -> tuple[str, ...]:
        """Ids of nodes whose breakers are currently open, sorted."""
        return tuple(
            sorted(n for n, b in self.breakers.items() if b.state == "open")
        )
