"""Future-work extension bench: maintenance with non-negligible abort cost.

The paper assumes abort overhead is negligible and flags the general case
as future work (Section 3.3).  This bench sweeps a rollback overhead
proportional to each aborted query's completed work and compares:

* the overhead-aware greedy (``plan_maintenance`` with ``overhead=``),
* the paper's overhead-blind greedy, which pays rollback costs it did not
  plan for, and
* the exact overhead-aware optimum.

Shape claims: (i) at zero overhead all three coincide with Section 3.3;
(ii) as overhead grows, the blind planner increasingly misses deadlines it
believes it meets, while the aware planner stays feasible whenever the
blind one is; (iii) the aware plan's lost work stays close to the optimum.
"""

import random

from repro.core.metrics import mean
from repro.experiments.maintenance import (
    MaintenanceConfig,
    sample_running_queries,
    t_finish_of,
)
from repro.experiments.reporting import format_table
from repro.wm.maintenance import plan_maintenance
from repro.wm.overhead import (
    exact_plan_with_overhead,
    plan_ignoring_overhead,
    proportional_overhead,
)

OVERHEAD_FRACTIONS = (0.0, 0.25, 0.5, 1.0)
DEADLINE_FRACTION = 0.5
RUNS = 10


def test_abort_overhead_ablation(once):
    config = MaintenanceConfig(seed=31)

    def run_all():
        rows = []
        for frac in OVERHEAD_FRACTIONS:
            overhead = proportional_overhead(frac)
            aware_uw, blind_uw, exact_uw = [], [], []
            blind_missed = 0
            for r in range(RUNS):
                rng = random.Random(config.seed + r)
                queries = sample_running_queries(config, rng)
                deadline = DEADLINE_FRACTION * t_finish_of(queries, 1.0)
                aware = plan_maintenance(queries, deadline, 1.0, overhead=overhead)
                blind = plan_ignoring_overhead(queries, deadline, 1.0, overhead)
                exact = exact_plan_with_overhead(queries, deadline, 1.0, overhead)
                aware_uw.append(aware.unfinished_fraction)
                blind_uw.append(blind.unfinished_fraction)
                exact_uw.append(exact.unfinished_fraction)
                if not blind.meets_deadline:
                    blind_missed += 1
                # Invariant: aware is feasible whenever blind is.
                assert aware.meets_deadline or not blind.meets_deadline
            rows.append(
                (
                    frac,
                    mean(aware_uw),
                    mean(blind_uw),
                    mean(exact_uw),
                    f"{blind_missed}/{RUNS}",
                )
            )
        return rows

    rows = once(run_all)
    print()
    print(
        "Abort-overhead ablation (deadline = 0.5 t_finish; overhead = "
        "fraction x completed work):"
    )
    print(
        format_table(
            [
                "overhead frac",
                "aware UW/TW",
                "blind UW/TW",
                "exact UW/TW",
                "blind missed deadline",
            ],
            rows,
        )
    )

    by_frac = {r[0]: r for r in rows}
    # Zero overhead: aware == blind == the Section 3.3 greedy.
    assert by_frac[0.0][1] == by_frac[0.0][2]
    assert by_frac[0.0][4] == f"0/{RUNS}"
    # High overhead: the blind planner misses deadlines.
    assert by_frac[1.0][4] != f"0/{RUNS}"
    # The aware plan tracks the exact optimum.
    for frac in OVERHEAD_FRACTIONS:
        assert by_frac[frac][1] <= by_frac[frac][3] + 0.15
