"""Tests for the core data model."""

import dataclasses
import math
import pickle

import pytest

from repro.core.model import (
    DEFAULT_PRIORITY_WEIGHTS,
    QuerySnapshot,
    SystemSnapshot,
    weight_for_priority,
)


class TestWeights:
    def test_default_weights_double_per_level(self):
        assert weight_for_priority(0) == 1.0
        assert weight_for_priority(1) == 2.0
        assert weight_for_priority(3) == 8.0

    def test_unknown_priority_extends_naturally(self):
        assert weight_for_priority(12) == 4096.0

    def test_custom_table(self):
        assert weight_for_priority(1, {1: 5.0}) == 5.0

    def test_default_table_contents(self):
        assert DEFAULT_PRIORITY_WEIGHTS[2] == 4.0


class TestQuerySnapshot:
    def test_total_cost(self):
        q = QuerySnapshot("a", remaining_cost=30, completed_work=10)
        assert q.total_cost == 40

    def test_with_remaining(self):
        q = QuerySnapshot("a", remaining_cost=30, completed_work=10)
        q2 = q.with_remaining(5)
        assert q2.remaining_cost == 5
        assert q2.completed_work == 35
        assert q2.total_cost == q.total_cost

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            QuerySnapshot("a", remaining_cost=-1)

    def test_negative_done_rejected(self):
        with pytest.raises(ValueError):
            QuerySnapshot("a", remaining_cost=1, completed_work=-1)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            QuerySnapshot("a", remaining_cost=1, weight=0)

    def test_frozen(self):
        q = QuerySnapshot("a", remaining_cost=1)
        with pytest.raises(AttributeError):
            q.remaining_cost = 5  # type: ignore[misc]


@dataclasses.dataclass(frozen=True)
class FieldWise:
    """What ``@dataclass(frozen=True)`` generates for QuerySnapshot's fields."""

    query_id: str
    remaining_cost: float
    completed_work: float = 0.0
    weight: float = 1.0
    priority: int = 0


class TestQuerySnapshotContract:
    """The hand-written constructor keeps the frozen dataclass's contract."""

    FIELDS = ("Q7", 12.5, 3.25, 4.0, 2)

    def test_assigning_a_field_raises(self):
        q = QuerySnapshot(*self.FIELDS)
        for name in ("query_id", "remaining_cost", "priority"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(q, name, getattr(q, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.extra = 1  # type: ignore[attr-defined]

    def test_replace_revalidates(self):
        q = QuerySnapshot(*self.FIELDS)
        assert dataclasses.replace(q, remaining_cost=1.0).remaining_cost == 1.0
        with pytest.raises(ValueError, match="remaining_cost must be >= 0"):
            dataclasses.replace(q, remaining_cost=-1.0)
        with pytest.raises(ValueError, match="weight must be > 0"):
            dataclasses.replace(q, weight=0.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"remaining_cost": -1.5}, "remaining_cost must be >= 0, got -1.5"),
        ({"remaining_cost": 1.0, "completed_work": -2.0},
         "completed_work must be >= 0, got -2.0"),
        ({"remaining_cost": 1.0, "weight": 0.0}, "weight must be > 0, got 0.0"),
        ({"remaining_cost": 1.0, "weight": -3}, "weight must be > 0, got -3"),
    ])
    def test_error_messages(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            QuerySnapshot("a", **kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_and_inf_are_accepted(self, bad):
        # validate_snapshots is the finiteness guard; the watchdog and the
        # maintenance manager build non-finite snapshots and carry them back.
        q = QuerySnapshot("a", bad, completed_work=bad, weight=bad)
        assert q.remaining_cost is bad and q.completed_work is bad
        assert q.weight is bad

    def test_eq_hash_repr_match_a_field_wise_build(self):
        q = QuerySnapshot(*self.FIELDS)
        ref = FieldWise(*self.FIELDS)
        assert [f.name for f in dataclasses.fields(q)] == [
            f.name for f in dataclasses.fields(ref)
        ]
        assert dataclasses.astuple(q) == dataclasses.astuple(ref) == self.FIELDS
        assert q == QuerySnapshot(**dataclasses.asdict(ref))
        assert q != QuerySnapshot(*self.FIELDS[:-1], 0)
        assert hash(q) == hash(ref) == hash(self.FIELDS)
        assert repr(q) == repr(ref).replace("FieldWise", "QuerySnapshot")
        assert QuerySnapshot("a", 1.0) == QuerySnapshot(
            query_id="a", remaining_cost=1.0, completed_work=0.0, weight=1.0,
            priority=0,
        )

    def test_pickle_round_trip(self):
        q = QuerySnapshot(*self.FIELDS)
        back = pickle.loads(pickle.dumps(q))
        assert back == q and hash(back) == hash(q)
        with pytest.raises(dataclasses.FrozenInstanceError):
            back.weight = 1.0  # type: ignore[misc]


class TestSystemSnapshot:
    def _snap(self):
        return SystemSnapshot.of(
            running=[QuerySnapshot("a", 10, weight=1), QuerySnapshot("b", 20, weight=3)],
            queued=[QuerySnapshot("c", 5)],
            processing_rate=4.0,
            multiprogramming_limit=2,
            time=7.0,
        )

    def test_total_weight(self):
        assert self._snap().total_weight == 4.0

    def test_total_remaining_cost_includes_queue(self):
        assert self._snap().total_remaining_cost == 35.0

    def test_speed_of(self):
        snap = self._snap()
        assert snap.speed_of("a") == pytest.approx(1.0)
        assert snap.speed_of("b") == pytest.approx(3.0)

    def test_speed_of_queued_raises(self):
        with pytest.raises(KeyError):
            self._snap().speed_of("c")

    def test_find(self):
        snap = self._snap()
        assert snap.find("c").remaining_cost == 5
        with pytest.raises(KeyError):
            snap.find("zzz")

    def test_without(self):
        snap = self._snap().without("b")
        assert [q.query_id for q in snap.running] == ["a"]
        with pytest.raises(KeyError):
            self._snap().without("zzz")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            SystemSnapshot.of(
                running=[QuerySnapshot("a", 1)],
                queued=[QuerySnapshot("a", 2)],
            )

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            SystemSnapshot.of(running=[], processing_rate=0.0)

    def test_bad_mpl_rejected(self):
        with pytest.raises(ValueError):
            SystemSnapshot.of(running=[], multiprogramming_limit=0)
