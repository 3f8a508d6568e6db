"""PI-driven overload protection: admission, breakers and degradation.

The quality-of-service layer closes the loop the paper's Section 3
opens: progress estimates do not just *report* load, they *gate* it.

* :mod:`repro.qos.admission` -- typed admit/degrade/defer/reject
  decisions in front of the simulator, with the shared incremental
  schedule as the feasibility oracle;
* :mod:`repro.qos.breaker` -- per-node circuit breakers so the sharded
  router stops hammering nodes that keep failing;
* :mod:`repro.qos.ladder` -- a graceful-degradation ladder that
  coalesces PI refreshes, demotes/parks low-priority queries, and
  finally sheds load instead of letting goodput fall off a cliff.

Each module's thresholds are fixed constants (DESIGN.md, "Fixed
settings"); the settable values are the admission budgets
(:class:`AdmissionPolicy`) and the ladder's low-priority ceiling
(:class:`LadderConfig`).
"""

from repro.qos.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.qos.breaker import (
    BreakerBoard,
    BreakerTransition,
    CircuitBreaker,
)
from repro.qos.ladder import (
    RUNGS,
    DegradationLadder,
    LadderConfig,
    LadderEvent,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "BreakerBoard",
    "BreakerTransition",
    "CircuitBreaker",
    "DegradationLadder",
    "LadderConfig",
    "LadderEvent",
    "RUNGS",
]
