"""Differential test: Section 3 decisions against the paper's stage sums.

``repro.wm`` evaluates the Section 3.1 and 3.2 benefits in closed form
from the fair-share clock ``r = c/w``.  This file restates the paper's own
formulas over the standard-case stage table -- suffix weights ``W_j``,
stage durations ``t_j`` and the round-by-round greedy of Section 3.1 --
and checks that both give the same numbers and the same victims.  The
populations are tie-prone on purpose (repeated costs and weights, zero
costs), so any tie-break drift shows.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import QuerySnapshot
from repro.wm.maintenance import LostWorkCase, plan_maintenance
from repro.wm.multi_speedup import choose_victim_for_all
from repro.wm.speedup import choose_victims

REL = 1e-12
TIE = 1e-9


def stage_table(queries, rate):
    """The standard case of Section 2.2: order, ``W_j`` and ``t_j``."""
    ordered = sorted(queries, key=lambda q: (q.remaining_cost / q.weight, q.query_id))
    suffix = [sum(q.weight for q in ordered[j:]) for j in range(len(ordered))]
    durations = []
    prev = 0.0
    for j, q in enumerate(ordered):
        ratio = q.remaining_cost / q.weight
        durations.append((ratio - prev) * suffix[j] / rate)
        prev = ratio
    return ordered, suffix, durations


def reference_round(queries, target_id, rate):
    """One Section 3.1 round: Step 1, Step 2, Step 3 over the stage table.

    Returns ``(victim, benefit, runner_up_benefit)``.
    """
    ordered, suffix, durations = stage_table(queries, rate)
    i = next(k for k, q in enumerate(ordered) if q.query_id == target_id)
    clock = sum(durations[j] / suffix[j] for j in range(i + 1))
    benefits = {}
    for m, q in enumerate(ordered):
        if m < i:
            benefits[q.query_id] = q.remaining_cost / rate
        elif m > i:
            benefits[q.query_id] = q.weight * clock
    candidates = []
    later = ordered[i + 1:]
    if later:  # Step 1: the heaviest query that outlives the target
        best = max(later, key=lambda q: (q.weight, q.query_id))
        candidates.append(best.query_id)
    earlier = ordered[:i]
    if earlier:  # Step 2: the costliest query that finishes first
        best = max(earlier, key=lambda q: (q.remaining_cost, q.query_id))
        if not candidates or benefits[best.query_id] > benefits[candidates[0]]:
            candidates.insert(0, best.query_id)
    victim = candidates[0]  # Step 3
    others = sorted((b for qid, b in benefits.items() if qid != victim), reverse=True)
    return victim, benefits[victim], (others[0] if others else -math.inf)


def reference_victims(queries, target_id, rate, h):
    """The paper's greedy: ``h`` rounds, each on the reduced query set."""
    rest = list(queries)
    rounds = []
    for _ in range(h):
        victim, benefit, runner_up = reference_round(rest, target_id, rate)
        rounds.append((victim, benefit, runner_up))
        rest = [q for q in rest if q.query_id != victim]
    return rounds


def reference_improvements(queries, rate):
    """Section 3.2: ``R_m = sum_{j<=m} (n - j) * t_j * w_m / W_j``."""
    ordered, suffix, durations = stage_table(queries, rate)
    n = len(ordered)
    return {
        q.query_id: sum(
            (n - 1 - j) * durations[j] * q.weight / suffix[j]
            for j in range(m + 1)
        )
        for m, q in enumerate(ordered)
    }


def close(a, b, rel=REL):
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-15)


def near_tie(a, b):
    return abs(a - b) <= TIE * max(1.0, abs(a), abs(b))


@st.composite
def populations(draw, min_n=2, max_n=9):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    cost = st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, 3.0, 6.0, 12.0]),
        st.floats(min_value=0.0, max_value=500.0),
    )
    weight = st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0])
    costs = draw(st.lists(cost, min_size=n, max_size=n))
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    done = draw(st.lists(st.sampled_from([0.0, 1.0, 5.0, 40.0]), min_size=n, max_size=n))
    return [
        QuerySnapshot(f"q{k}", c, weight=w, completed_work=d)
        for k, (c, w, d) in enumerate(zip(costs, weights, done))
    ]


RATES = st.sampled_from([0.3, 1.0, 2.0, 10.0])


class TestSingleQuerySpeedup:
    @given(queries=populations(), rate=RATES, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_stage_sum_greedy(self, queries, rate, data):
        target = data.draw(st.sampled_from([q.query_id for q in queries]))
        h = data.draw(st.integers(min_value=1, max_value=len(queries) - 1))
        choice = choose_victims(queries, target, rate, h=h)
        rounds = reference_victims(queries, target, rate, h)
        expected = tuple(victim for victim, _, _ in rounds)
        total = sum(benefit for _, benefit, _ in rounds)
        if choice.victims == expected:
            assert close(choice.benefit, total)
        else:
            # Only an ulp-level tie between the top benefits may flip a pick.
            assert any(near_tie(b, runner) for _, b, runner in rounds)
            assert close(choice.benefit, total, rel=TIE)

    @given(queries=populations(), rate=RATES, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_each_single_victim_benefit_matches(self, queries, rate, data):
        target = data.draw(st.sampled_from([q.query_id for q in queries]))
        choice = choose_victims(queries, target, rate, h=1)
        victim, benefit, runner_up = reference_round(queries, target, rate)
        if choice.victims != (victim,):
            assert near_tie(benefit, runner_up)
        ordered, suffix, durations = stage_table(queries, rate)
        i = next(k for k, q in enumerate(ordered) if q.query_id == target)
        m = next(k for k, q in enumerate(ordered) if q.query_id == choice.victims[0])
        if m < i:
            expected = ordered[m].remaining_cost / rate
        else:
            expected = ordered[m].weight * sum(
                durations[j] / suffix[j] for j in range(i + 1)
            )
        assert close(choice.benefit, expected)

    def test_exact_tie_goes_to_step_one(self):
        # a finishes before t and saves c_a / C = 2; b outlives t and saves
        # w_b * r_t / C = 2 as well.  Step 2 must be strictly better to win.
        queries = [
            QuerySnapshot("t", 2.0),
            QuerySnapshot("a", 2.0, weight=2.0),
            QuerySnapshot("b", 10.0),
        ]
        assert reference_round(queries, "t", 1.0)[:2] == ("b", 2.0)
        choice = choose_victims(queries, "t", 1.0, h=2)
        assert choice.victims == ("b", "a")
        assert choice.benefit == 4.0


class TestMultipleQuerySpeedup:
    @given(queries=populations(), rate=RATES)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_stage_sums(self, queries, rate):
        choice = choose_victim_for_all(queries, rate)
        expected = reference_improvements(queries, rate)
        assert choice.all_improvements.keys() == expected.keys()
        for qid, value in expected.items():
            assert close(choice.all_improvements[qid], value)
        ranked = sorted(expected.items(), key=lambda kv: (kv[1], kv[0]), reverse=True)
        if choice.victim != ranked[0][0]:
            assert near_tie(ranked[0][1], ranked[1][1])


class TestOneMaintenanceGreedy:
    @given(
        queries=populations(min_n=0),
        rate=RATES,
        frac=st.floats(min_value=0.0, max_value=1.2),
        case=st.sampled_from(list(LostWorkCase)),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_overhead_is_zero_overhead(self, queries, rate, frac, case):
        deadline = frac * sum(q.remaining_cost for q in queries) / rate
        free = plan_maintenance(queries, deadline, rate, case)
        zero = plan_maintenance(queries, deadline, rate, case, overhead=lambda q: 0.0)
        assert free == zero
        assert free.rollback_work == 0.0
