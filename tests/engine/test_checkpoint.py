"""Tests for work-preserving operator checkpoint/resume.

The core contract: a checkpoint taken between root pulls captures a
consistent cut of the whole plan, and a *fresh* execution of the same SQL
restored from it produces exactly the rows the original would have -- at
the cost of only the work done since the checkpoint.
"""

import copy
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database, ExecutionCheckpoint
from repro.engine.errors import ExecutionError
from repro.obs.runtime import observed

#: Vector widths every checkpoint property must hold at.
WIDTHS = (1, 7, 1024)


@pytest.fixture(scope="module")
def db():
    d = Database(page_capacity=10)
    rng = random.Random(3)
    d.execute("CREATE TABLE big (k INT, v FLOAT)")
    d.insert_rows("big", [(i, rng.random()) for i in range(400)])
    d.execute("CREATE TABLE lookup (k INT, w FLOAT)")
    d.insert_rows("lookup", [(i % 80, rng.random()) for i in range(800)])
    d.execute("CREATE INDEX lookup_k ON lookup (k)")
    d.analyze()
    return d


#: One query per checkpointable plan shape.
SHAPES = {
    "seq_scan": "SELECT * FROM big",
    "filter_project": "SELECT k, v * 2 FROM big WHERE v > 0.5",
    "sort": "SELECT k, v FROM big ORDER BY v DESC, k",
    "limit": "SELECT k FROM big WHERE v > 0.3 LIMIT 17",
    "distinct": "SELECT DISTINCT k % 7 FROM big",
    "hash_join": (
        "SELECT b.k, l.w FROM big b JOIN lookup l ON b.k = l.k "
        "WHERE b.v > 0.6"
    ),
    "left_join": (
        "SELECT b.k, l.w FROM big b LEFT JOIN lookup l ON b.k = l.k"
    ),
    "hash_agg": (
        "SELECT k % 5 grp, sum(v), count(*) FROM big GROUP BY k % 5"
    ),
    "global_agg": "SELECT sum(v), min(k), max(k) FROM big",
    "union": (
        "SELECT k FROM big WHERE k < 30 UNION ALL "
        "SELECT k FROM big WHERE k >= 370"
    ),
    "paper_style": (
        "SELECT k FROM big b WHERE b.v > "
        "(SELECT sum(l.w) / count(*) FROM lookup l WHERE l.k = b.k % 80)"
    ),
}


def _operator_phase(plan_state):
    """Phase of the one phase-bearing operator in a recursive plan state.

    Operator states nest as plain dicts; Sort, HashAggregate and HashJoin
    tag theirs with ``"phase"``.
    """
    stack = [plan_state]
    while stack:
        state = stack.pop()
        if isinstance(state, dict):
            if "phase" in state:
                return state["phase"]
            stack.extend(state.values())
    return None


def run_until(ex, target_work, budget=1.0):
    """Step the execution until at least *target_work* U's are done."""
    while not ex.finished and ex.work_done < target_work:
        ex.step(budget)


def checkpoint_near(ex, target_work, budget=1.0):
    """Step towards *target_work*, returning the last live checkpoint.

    Pulls are coarse (a trailing exhaust pull can charge many pages at
    once), so the execution may *finish* before reaching the target; in
    that case the snapshot from just before the final pull is the latest
    one a cadence-driven checkpointer could have taken.
    """
    ckpt = None
    while not ex.finished and ex.work_done < target_work:
        ex.step(budget)
        ckpt = ex.checkpoint() or ckpt
    return ckpt


class TestResumeEquivalence:
    """Restore-from-checkpoint must be invisible in results and work."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.9])
    def test_resume_matches_uninterrupted_run(self, db, shape, fraction):
        sql = SHAPES[shape]
        reference = db.prepare(sql)
        reference.run_to_completion()
        assert reference.rows, f"degenerate test query for {shape}"

        ex = db.prepare(sql)
        ckpt = checkpoint_near(ex, fraction * reference.work_done)
        assert ckpt is not None, f"{shape} should be checkpointable"

        resumed = db.prepare(sql)
        resumed.restore(ckpt)
        resumed.run_to_completion()

        assert resumed.rows == reference.rows
        # Work conservation: the credited checkpoint work plus the work
        # done after restore equals the uninterrupted run's total.
        assert resumed.work_done == pytest.approx(reference.work_done)
        assert resumed.restored_from is ckpt

    @pytest.mark.parametrize("shape", ["sort", "hash_join", "hash_agg"])
    def test_same_checkpoint_restores_twice(self, db, shape):
        """Restoring must not let the resumed run mutate the snapshot."""
        sql = SHAPES[shape]
        reference = db.prepare(sql)
        reference.run_to_completion()

        ex = db.prepare(sql)
        ckpt = checkpoint_near(ex, 0.4 * reference.work_done)
        assert ckpt is not None

        for _ in range(2):
            resumed = db.prepare(sql)
            resumed.restore(ckpt)
            resumed.run_to_completion()
            assert resumed.rows == reference.rows

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("shape, phases", [
        ("sort", ("idle", "emit")),
        ("hash_agg", ("idle", "emit")),
        ("hash_join", ("idle", "probe")),
    ])
    def test_frozen_operator_state_is_shared_safely(
        self, db, shape, phases, width
    ):
        """Per operator and phase: checkpoint, let the original finish,
        then restore the same checkpoint twice.  (A blocking build runs
        inside one root pull, so between pulls an operator is either
        untouched or past its phase flip.)

        Post-flip checkpoints share the operator's frozen structure
        (sorted output, result rows, build table) instead of copying it,
        so the original running on -- and a first restored run -- must
        leave the snapshot exactly as taken.
        """
        sql = SHAPES[shape]
        reference = db.prepare(sql, batch_size=width)
        reference.run_to_completion()

        ex = db.prepare(sql, batch_size=width)
        by_phase = {}
        while not ex.finished:
            ckpt = ex.checkpoint()
            assert ckpt is not None
            phase = _operator_phase(ckpt.plan_state)
            by_phase.setdefault(phase, ckpt)
            ex.step(0.5)
        assert ex.rows == reference.rows
        assert set(phases) <= set(by_phase), sorted(by_phase, key=str)

        for phase in phases:
            for _ in range(2):
                resumed = db.prepare(sql, batch_size=width)
                resumed.restore(by_phase[phase])
                resumed.run_to_completion()
                assert resumed.rows == reference.rows, phase
                assert resumed.work_done == pytest.approx(reference.work_done)

    def test_checkpoint_carries_emitted_rows(self, db):
        sql = SHAPES["seq_scan"]
        ex = db.prepare(sql)
        run_until(ex, 10.0)
        ckpt = ex.checkpoint()
        assert ckpt.rows_emitted == len(ex.rows)
        assert list(ckpt.rows) == ex.rows
        assert ckpt.work_done == ex.work_done




def row_references_held(checkpoints):
    """Row references the checkpoints keep alive, each container once."""
    containers = {}
    for ckpt in checkpoints:
        for value in vars(ckpt).values():
            if isinstance(value, (list, tuple)):
                containers[id(value)] = len(value)
    return sum(containers.values())


class TestRowLog:
    """Checkpoints share the execution's append-only row log.

    A checkpoint is a length into the log, so it must stay exactly the
    prefix it was taken at whatever happens afterwards: the original
    running on, the caller reordering or clearing ``ex.rows``, a restored
    successor running beside a still-appending predecessor.
    """

    @given(
        shape=st.sampled_from(sorted(SHAPES)),
        width=st.sampled_from(WIDTHS),
        interval=st.sampled_from([None, 0.5, 2.0, 7.0]),
        steps=st.lists(
            st.tuples(
                st.floats(min_value=0.05, max_value=6.0),
                st.booleans(),  # explicit checkpoint() after the step
                st.sampled_from([None, None, None, "sort", "clear", "append"]),
            ),
            min_size=1, max_size=25,
        ),
        pick=st.integers(min_value=0),
        hop_budget=st.floats(min_value=0.05, max_value=20.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_checkpoints_stay_their_prefix(
        self, db, shape, width, interval, steps, pick, hop_budget
    ):
        sql = SHAPES[shape]

        def prepare(checkpoint_interval=None):
            return db.prepare(
                sql, checkpoint_interval=checkpoint_interval, batch_size=width,
            )

        reference = prepare()
        reference_rows = list(reference.run_to_completion())

        with observed() as obs:
            ex = prepare(interval)
        retained = []
        for budget, explicit, mutation in steps:
            if ex.finished:
                break
            ex.step(budget)
            last = ex.last_checkpoint
            if last is not None and not (retained and retained[-1] is last):
                retained.append(last)
            if explicit:
                ckpt = ex.checkpoint()
                if ckpt is not None:
                    retained.append(ckpt)
            # The caller owns ex.rows; nothing it does there may reach
            # the log -- not for retained checkpoints, not for later ones.
            if mutation == "sort":
                ex.rows.sort(key=repr, reverse=True)
            elif mutation == "clear":
                ex.rows.clear()
            elif mutation == "append":
                ex.rows.append(("not", "a", "row"))
        if not retained:
            return

        # Hop 1 starts while the original is still alive and appending.
        first = retained[pick % len(retained)]
        hop1 = prepare(interval)
        hop1.restore(first)
        ex.run_to_completion()
        ex.rows.clear()

        def assert_prefix(ckpt):
            assert ckpt.rows == tuple(reference_rows[: ckpt.rows_emitted])

        for ckpt in retained:
            assert_prefix(ckpt)

        # Count gates: the checkpoints of one execution hold each emitted
        # row reference at most once, and report exactly that.
        assert row_references_held(retained) <= len(reference_rows)
        copied = obs.metrics.counter_value("executor.checkpoint.rows_copied")
        assert copied == ex.last_checkpoint.rows_emitted <= len(reference_rows)

        # Two-hop chain: restore -> run -> checkpoint -> restore -> finish.
        hop1.step(hop_budget)
        second = hop1.checkpoint()
        if second is None:
            assert hop1.finished
            final = hop1
        else:
            final = prepare()
            final.restore(second)
            hop1.run_to_completion()  # the dead attempt keeps appending
            assert_prefix(second)
            final.run_to_completion()
        assert_prefix(first)
        assert final.rows == reference_rows
        assert final.work_done == pytest.approx(reference.work_done)

    def test_checkpoint_is_flat_plain_data(self):
        """Thousands of cadence checkpoints add no depth: the last one
        compares, prints, deep-copies and pickles like the first."""
        big = Database(page_capacity=4)
        big.execute("CREATE TABLE t (k INT)")
        big.insert_rows("t", [(i,) for i in range(12_000)])
        ex = big.prepare("SELECT k FROM t", checkpoint_interval=1.0)
        ex.step(50.0)
        early = ex.last_checkpoint
        while ex.checkpoints_taken < 2_500:
            ex.step(50.0)
        ckpt = ex.last_checkpoint
        rows_then = ckpt.rows
        ex.run_to_completion()

        assert len(repr(ckpt)) < 200
        for clone in (copy.deepcopy(ckpt), pickle.loads(pickle.dumps(ckpt))):
            assert clone == ckpt
            assert clone.rows == rows_then == ckpt.rows
        assert early != ckpt and early.rows == ckpt.rows[: early.rows_emitted]
        resumed = big.prepare("SELECT k FROM t")
        resumed.restore(pickle.loads(pickle.dumps(ckpt)))
        assert resumed.run_to_completion() == ex.rows

    def test_checkpoint_events_report_the_delta(self, db, tmp_path):
        """``rows_new`` sums to the counter and to the rows covered -- across
        a restore too -- and the trace passes the schema check."""
        from repro.obs.tracer import validate_trace_file

        path = tmp_path / "trace.jsonl"
        with observed(trace_path=path) as obs:
            ex = db.prepare(SHAPES["seq_scan"], checkpoint_interval=2.0)
            run_until(ex, 15.0)
            resumed = db.prepare(SHAPES["seq_scan"], checkpoint_interval=2.0)
            resumed.restore(ex.last_checkpoint)
            resumed.run_to_completion()
        assert validate_trace_file(path) > 0
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        taken = [e for e in events if e["event"] == "executor.checkpoint"]
        assert len(taken) == ex.checkpoints_taken + resumed.checkpoints_taken
        assert all(0 <= e["rows_new"] <= e["rows"] for e in taken)
        # The two attempts cover every row up to the last checkpoint once.
        assert (
            sum(e["rows_new"] for e in taken)
            == obs.metrics.counter_value("executor.checkpoint.rows_copied")
            == resumed.last_checkpoint.rows_emitted
        )

    def test_log_is_not_reachable_through_public_names(self, db):
        ex = db.prepare(SHAPES["seq_scan"], checkpoint_interval=2.0)
        run_until(ex, 10.0)
        ckpt = ex.last_checkpoint
        public = [
            getattr(obj, name)
            for obj in (ex, ckpt)
            for name in dir(obj)
            if not name.startswith("_")
        ]
        assert not any(value is ckpt._log for value in public)
        assert isinstance(ckpt.rows, tuple)  # a fresh, immutable prefix


def plan_operators(op):
    """Every operator of a plan tree, root first."""
    yield op
    for child in op.children():
        yield from plan_operators(child)


def plan_phases(plan_state):
    """Every ``"phase"`` recorded anywhere in a recursive plan state."""
    phases, stack = set(), [plan_state]
    while stack:
        state = stack.pop()
        if isinstance(state, dict):
            if "phase" in state:
                phases.add(state["phase"])
            stack.extend(state.values())
    return phases


class TestNoBuildPhaseBetweenSteps:
    """A blocking build runs inside one root pull, so between two steps a
    ``Sort``, ``HashAggregate`` or ``HashJoin`` is never mid-build: every
    checkpoint -- explicit or on the cadence -- holds an operator that is
    untouched or past its phase flip."""

    @given(
        shape=st.sampled_from(sorted(SHAPES)),
        width=st.sampled_from(WIDTHS),
        interval=st.sampled_from([None, 0.5, 3.0]),
        budgets=st.lists(
            st.floats(min_value=0.05, max_value=30.0), min_size=1, max_size=40
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_no_checkpoint_holds_a_build_phase(
        self, db, shape, width, interval, budgets
    ):
        ex = db.prepare(
            SHAPES[shape], checkpoint_interval=interval, batch_size=width
        )
        taken = []
        for budget in budgets:
            if ex.finished:
                break
            ex.step(budget)
            assert all(
                getattr(op, "_phase", None) != "build"
                for op in plan_operators(ex.root)
            )
            taken.extend(c for c in (ex.last_checkpoint, ex.checkpoint()) if c)
        for ckpt in taken:
            assert plan_phases(ckpt.plan_state) <= {"idle", "emit", "probe"}

    @pytest.mark.parametrize("shape", ["sort", "hash_agg", "hash_join"])
    @pytest.mark.parametrize("width", WIDTHS)
    def test_a_build_cut_short_has_no_checkpoint(self, db, shape, width):
        """Only a pull that raised leaves a build half done; a checkpoint
        then has no consistent cut to offer and declines."""
        from repro.engine import CancellationToken, QueryCancelled

        class FiresOnFifthCharge(CancellationToken):
            """Fires a few pages into the first pull, i.e. mid-build."""

            __slots__ = ("checks",)

            def __init__(self):
                super().__init__()
                self.checks = 0

            def raise_if_cancelled(self):
                self.checks += 1
                if self.checks == 5:
                    self.cancel("mid-build")
                super().raise_if_cancelled()

        ex = db.prepare(
            SHAPES[shape], cancel_token=FiresOnFifthCharge(), batch_size=width
        )
        with pytest.raises(QueryCancelled):
            ex.step(1.0)
        assert any(
            getattr(op, "_phase", None) == "build"
            for op in plan_operators(ex.root)
        )
        assert ex.checkpoint() is None


class TestCadence:
    """Automatic checkpointing on a work-interval cadence."""

    def test_interval_takes_checkpoints(self, db):
        dense = db.prepare(SHAPES["paper_style"], checkpoint_interval=5.0)
        dense.run_to_completion()
        sparse = db.prepare(SHAPES["paper_style"], checkpoint_interval=500.0)
        sparse.run_to_completion()
        assert dense.checkpoints_taken > sparse.checkpoints_taken >= 1
        assert isinstance(dense.last_checkpoint, ExecutionCheckpoint)
        assert 0 < dense.last_checkpoint.work_done <= dense.work_done

    def test_no_interval_takes_none(self, db):
        ex = db.prepare(SHAPES["seq_scan"])
        ex.run_to_completion()
        assert ex.checkpoints_taken == 0
        assert ex.last_checkpoint is None

    def test_invalid_interval_rejected(self, db):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ExecutionError):
                db.prepare(SHAPES["seq_scan"], checkpoint_interval=bad)

    def test_last_checkpoint_resumes(self, db):
        sql = SHAPES["hash_agg"]
        reference = db.prepare(sql)
        reference.run_to_completion()

        ex = db.prepare(sql, checkpoint_interval=3.0)
        run_until(ex, 0.6 * reference.work_done)
        assert ex.last_checkpoint is not None
        resumed = db.prepare(sql)
        resumed.restore(ex.last_checkpoint)
        resumed.run_to_completion()
        assert resumed.rows == reference.rows


class TestRestoreGuards:
    def test_restore_requires_fresh_execution(self, db):
        sql = SHAPES["seq_scan"]
        ex = db.prepare(sql)
        run_until(ex, 5.0)
        ckpt = ex.checkpoint()
        used = db.prepare(sql)
        used.step(1.0)
        with pytest.raises(ExecutionError):
            used.restore(ckpt)

    def test_restore_rejects_other_sql(self, db):
        ex = db.prepare(SHAPES["seq_scan"])
        run_until(ex, 5.0)
        ckpt = ex.checkpoint()
        other = db.prepare(SHAPES["sort"])
        with pytest.raises(ExecutionError):
            other.restore(ckpt)

    def test_finished_execution_stops_checkpointing(self, db):
        ex = db.prepare(SHAPES["seq_scan"])
        ex.run_to_completion()
        assert ex.checkpoint() is None


class TestNonCheckpointable:
    """Plans without cheap state decline; their subtree restarts instead."""

    def test_index_probe_plan_returns_none(self, db):
        ex = db.prepare("SELECT * FROM lookup WHERE k = 5")
        run_until(ex, 1.0, budget=0.25)
        if ex.finished:  # tiny probe may finish in one pull
            assert ex.checkpoint() is None
        else:
            assert ex.checkpoint() is None

    def test_cadence_on_non_checkpointable_plan_is_harmless(self, db):
        reference = db.query("SELECT * FROM lookup WHERE k BETWEEN 2 AND 9")
        ex = db.prepare(
            "SELECT * FROM lookup WHERE k BETWEEN 2 AND 9",
            checkpoint_interval=0.5,
        )
        ex.run_to_completion()
        assert ex.rows == reference
        assert ex.last_checkpoint is None
