"""Paper Section 4.3: algorithmic complexity of the PI/WM algorithms.

The paper claims ``O(n log n)`` time for the standard-case estimation and
victim-selection algorithms, arguing the cost is negligible because "the
effective n ... is likely to be small".  This bench measures runtime across
``n`` spanning three orders of magnitude and asserts near-linearithmic
scaling: time(n=8000)/time(n=1000) stays far below the quadratic ratio.

The ``incremental`` column is the shared-schedule counterpoint: one
*maintained* :class:`~repro.core.incremental.IncrementalSchedule` answers a
refresh (an :meth:`advance` plus a fixed batch of per-query reads) in
``O(log n)`` per operation, so its per-refresh cost must grow *sub-linearly*
in ``n`` while the full-recompute baseline grows linearithmically.  The
measured rows are persisted to ``BENCH_scale.json`` (the ``"complexity"``
section) alongside the concurrency sweep's ``"scale"`` section.
"""

import random
import time
from pathlib import Path

from repro.core.incremental import IncrementalSchedule
from repro.core.model import QuerySnapshot
from repro.core.standard_case import standard_case
from repro.experiments.reporting import format_table
from repro.sim.scale import merge_bench_json
from repro.wm.multi_speedup import choose_victim_for_all
from repro.wm.speedup import choose_victim

SIZES = (250, 1000, 4000, 8000)

#: Per-query reads per timed incremental refresh (kept fixed across n so
#: the column isolates how one refresh scales, not how many PIs exist).
READS = 64

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_scale.json"


def _workload(n, seed=0):
    rng = random.Random(seed)
    return [
        QuerySnapshot(
            f"q{i}", rng.uniform(1, 1000), weight=rng.choice([1.0, 2.0, 4.0])
        )
        for i in range(n)
    ]


def _time(fn, *args, repeats: int = 3) -> float:
    """Best-of-N wall time: robust against GC pauses and scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _incremental_refresh(schedule, query_ids):
    schedule.advance(1e-9)
    for qid in query_ids:
        schedule.remaining_time_of(qid)


def test_algorithm_scaling(once):
    def run_all():
        rows = []
        for n in SIZES:
            queries = _workload(n)
            t_std = _time(standard_case, queries, 1.0, False)
            t_victim = _time(choose_victim, queries, "q0", 1.0)
            t_multi = _time(choose_victim_for_all, queries, 1.0)
            schedule = IncrementalSchedule(1.0, queries)
            reads = random.Random(1).sample(
                [q.query_id for q in queries], min(READS, n)
            )
            t_inc = _time(_incremental_refresh, schedule, reads, repeats=5)
            rows.append(
                (n, t_std * 1e3, t_victim * 1e3, t_multi * 1e3, t_inc * 1e3)
            )
        return rows

    rows = once(run_all)
    print()
    print("Section 4.3 -- algorithm runtime (milliseconds):")
    print(
        format_table(
            ["n", "standard_case", "choose_victim", "victim_for_all",
             f"incremental ({READS} reads)"],
            rows,
        )
    )
    merge_bench_json(
        BENCH_JSON,
        "complexity",
        {
            "sizes": list(SIZES),
            "reads_per_refresh": READS,
            "columns": [
                "n", "standard_case_ms", "choose_victim_ms",
                "victim_for_all_ms", "incremental_refresh_ms",
            ],
            "rows": [list(r) for r in rows],
        },
    )

    by_n = {r[0]: r for r in rows}
    growth = 8000 / 1000  # 8x input
    quadratic = growth**2  # 64x
    for col in (1, 2, 3):
        base = max(by_n[1000][col], 1e-3)
        ratio = by_n[8000][col] / base
        # Allow generous constant-factor noise; must stay far below n^2.
        assert ratio < quadratic / 2, (
            f"column {col} scaled {ratio:.1f}x for 8x input"
        )

    # The incremental refresh does O(log n) work per operation: its cost
    # must grow sub-linearly in n (a logarithmic factor, ~1.3x here),
    # where the full-recompute baseline grows at least linearly.
    inc_base = max(by_n[1000][4], 1e-3)
    inc_ratio = by_n[8000][4] / inc_base
    assert inc_ratio < growth / 2, (
        f"incremental refresh scaled {inc_ratio:.1f}x for 8x input; "
        "expected sub-linear growth"
    )
    std_ratio = by_n[8000][1] / max(by_n[1000][1], 1e-3)
    assert inc_ratio < max(std_ratio, 2.0), (
        f"incremental ({inc_ratio:.1f}x) should scale better than "
        f"full recompute ({std_ratio:.1f}x)"
    )
