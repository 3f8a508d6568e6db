"""Shared test helpers for driving operators and databases directly."""

from typing import Iterator

from repro.engine import Database
from repro.engine.operators.agg import HashAggregate
from repro.engine.operators.base import Operator, configure_batch_size
from repro.engine.vector import take_values


def rows_of(op: Operator, width: int = 1, outer_env=None) -> Iterator[tuple]:
    """Pull *op*'s output as row tuples, through batches of *width* rows.

    The default width of one keeps scans row-granular, so a test can stop
    after any row and inspect the counters the operator has moved so far.
    """
    configure_batch_size(op, width)
    for batch in op.batches(outer_env):
        yield from batch


def per_row(fn):
    """A bound-expression closure from a function of one row tuple."""
    return lambda rows, outer_env: [fn(row) for row in rows]


def undecorrelated(db: Database) -> Database:
    """A ``Database(decorrelate=False)`` over *db*'s tables (shared, not
    copied): correlated subqueries keep their per-outer-row subplans."""
    other = Database(decorrelate=False)
    other.catalog = other.planner.catalog = db.catalog
    return other


class BucketingAggregate(HashAggregate):
    """The grouped batch fold before run folding: bucket every row by its
    key tuple, then fold each group's gathered rows in one call."""

    def _fold_grouped(self, batch, arg_columns, outer_env):
        key_columns = [g(batch, outer_env) for g in self.group_exprs]
        if len(key_columns) == 1:
            keys = [(v,) for v in key_columns[0]]
        else:
            keys = list(zip(*key_columns))
        buckets = {}
        for i, key in enumerate(keys):
            idxs = buckets.get(key)
            if idxs is None:
                buckets[key] = [i]
            else:
                idxs.append(i)
        for key, idxs in buckets.items():
            states = self._groups.get(key)
            if states is None:
                states = self._new_group(key)
            for state, column in zip(states, arg_columns):
                if column is None:
                    state.update_count_star(len(idxs))
                elif len(idxs) == len(keys):
                    state.update_batch(column)
                else:
                    state.update_batch(take_values(column, idxs))
