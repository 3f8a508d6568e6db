"""The query planner: SELECT AST -> annotated operator tree.

A rule-based planner with cost annotations:

* WHERE clauses are split into conjuncts; single-table, subquery-free
  conjuncts are pushed down to their table's access path.
* Access paths: an equality conjunct ``col = <expr with no local columns>``
  on an indexed column becomes an :class:`IndexScan` (the probe expression
  may reference *outer* scopes -- that is exactly how the paper's correlated
  subquery plans to an index scan on ``lineitem``); everything else is a
  :class:`SeqScan` plus filters.
* Joins are built left-deep in FROM order; an equality conjunct linking the
  two sides becomes a :class:`HashJoin` (smaller side builds), otherwise a
  nested loop over a materialized inner.
* Aggregates are extracted from the select list / HAVING / ORDER BY and
  computed by a :class:`HashAggregate`; outer expressions are rewritten to
  reference the aggregate's output slots.
* Scalar/EXISTS/IN subqueries are compiled recursively with the enclosing
  scope as their outer binding context; their estimated cost is folded into
  the enclosing filter's cost (cardinality x per-probe cost -- the dominant
  term for the paper's workload).

Every operator is annotated with ``est_cost`` / ``est_rows``; the root's
``est_cost`` is the optimizer estimate a progress indicator starts from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.engine import cost as costmodel
from repro.engine.catalog import Catalog, Table
from repro.engine.decorrelate import decorrelate_select
from repro.engine.errors import PlanError
from repro.engine.expr import (
    BindContext,
    BoundExpr,
    ColumnSlot,
    Env,
    Layout,
    bind_expr,
    slot_expr,
)
from repro.engine.operators.agg import AggSpec, HashAggregate
from repro.engine.operators.base import Operator, WorkAccount, drain
from repro.engine.operators.joins import HashJoin, NestedLoopJoin
from repro.engine.operators.scans import IndexScan, SeqScan
from repro.engine.operators.sort import Sort
from repro.engine.operators.transforms import (
    Distinct,
    Filter,
    Limit,
    Materialize,
    Project,
    SingleRow,
)
from repro.engine.sql import ast
from repro.engine.stats import (
    DEFAULT_RANGE_SELECTIVITY,
    Selectivity,
    analyze_table,
)

#: Qualifier used for synthesized aggregate/group output slots; cannot be
#: produced by user SQL, so it never collides with real bindings.
AGG_QUALIFIER = "#agg"


@dataclass
class _SubqueryRecord:
    """A subquery compiled while binding one expression."""

    root: Operator
    #: Correlated subqueries cost their plan per outer row; uncorrelated
    #: ones (init-plans) run once regardless of outer cardinality.
    correlated: bool = True


class Planner:
    """Plans SELECT statements against a catalog."""

    def __init__(self, catalog: Catalog, decorrelate: bool = True) -> None:
        self.catalog = catalog
        #: Whether top-level plans run the subquery-decorrelation rewrite.
        self.decorrelate = decorrelate

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def plan_select(
        self,
        select: ast.Select,
        account: WorkAccount,
        outer_ctx: Optional[BindContext] = None,
    ) -> Operator:
        """Compile *select* into an operator tree charging *account*.

        Raises
        ------
        PlanError
            On unknown tables/columns, misplaced aggregates, etc.
        """
        # Top-level plans (and the subquery-free SELECTs the rewrite
        # emits) run the decorrelation pass first; correlated subquery
        # bodies arrive with an enclosing context and are planned as-is.
        if outer_ctx is None and self.decorrelate:
            select, _ = decorrelate_select(select, self.catalog)

        subqueries: list[_SubqueryRecord] = []

        def compile_subquery(
            sub, enclosing: BindContext
        ) -> Callable[[Env], list]:
            # An *uncorrelated* subquery (one that plans successfully with
            # no enclosing scope) is an init-plan: run it once, cache the
            # rows, and never recharge its work -- like PostgreSQL's
            # InitPlan.  Correlated subqueries re-execute per outer row.
            try:
                root = self.plan_select(sub, account)
                correlated = False
            except PlanError:
                root = self.plan_select(sub, account, outer_ctx=enclosing)
                correlated = True

            if correlated:
                def runner(env: Env) -> list:
                    return drain(root, env)
            else:
                cache: list | None = None

                def runner(env: Env) -> list:
                    nonlocal cache
                    if cache is None:
                        cache = drain(root, None)
                    return cache

            # The uncorrelated IN membership probe in expr.py keys off
            # this tag.
            runner.correlated = correlated
            subqueries.append(_SubqueryRecord(root=root, correlated=correlated))
            return runner

        # ---- FROM --------------------------------------------------------
        where_conjuncts = ast.split_conjuncts(select.where)
        plan, from_ctx, consumed = self._plan_from(
            select.from_items, where_conjuncts, account, outer_ctx,
            compile_subquery,
        )
        remaining = [c for i, c in enumerate(where_conjuncts) if i not in consumed]

        # ---- residual WHERE ---------------------------------------------
        for conjunct in remaining:
            plan = self._apply_filter(
                plan, conjunct, from_ctx, subqueries, label="where"
            )

        # ---- aggregation --------------------------------------------------
        select_items = _expand_stars(select.items, from_ctx.layout)
        needs_agg = bool(select.group_by) or any(
            ast.contains_aggregate(item.expr) for item in select_items
        )
        if select.having is not None and not needs_agg:
            needs_agg = True

        if needs_agg:
            plan, post_ctx = self._plan_aggregate(
                plan, select, select_items, from_ctx, subqueries
            )
            # Aggregate calls and computed group keys become output refs.
            rewrite = self._agg_rewrites.get
            select_items = tuple(
                ast.SelectItem(
                    expr=ast.transform_expr(item.expr, rewrite),
                    alias=item.alias,
                )
                for item in select_items
            )
            having = (
                ast.transform_expr(select.having, rewrite)
                if select.having is not None
                else None
            )
            if having is not None:
                plan = self._apply_filter(
                    plan, having, post_ctx, subqueries, label="having"
                )
            current_ctx = post_ctx
        else:
            current_ctx = from_ctx

        # ---- projection (+ hidden ORDER BY columns) -----------------------
        output_names = _output_names(select_items)
        order_items = select.order_by
        if needs_agg:
            order_items = tuple(
                ast.OrderItem(
                    expr=ast.transform_expr(o.expr, self._agg_rewrites.get),
                    descending=o.descending,
                )
                for o in order_items
            )

        proj_exprs: list[ast.Expr] = [item.expr for item in select_items]
        sort_slots: list[tuple[int, bool]] = []
        hidden = 0
        for item in order_items:
            slot = _match_order_target(item.expr, select_items, output_names)
            if slot is None:
                proj_exprs.append(item.expr)
                slot = len(proj_exprs) - 1
                hidden += 1
            sort_slots.append((slot, item.descending))

        if select.distinct and hidden:
            raise PlanError(
                "ORDER BY expressions must appear in the select list "
                "when DISTINCT is used"
            )

        bound = [bind_expr(e, current_ctx) for e in proj_exprs]
        slots = [
            ColumnSlot(None, output_names[i])
            if i < len(output_names)
            else ColumnSlot(AGG_QUALIFIER, f"__ord{i}")
            for i in range(len(proj_exprs))
        ]
        per_row_cost, one_time_cost = self._drain_subquery_cost(subqueries)
        child_est = costmodel.Estimate(plan.est_cost, plan.est_rows)
        plan = Project(plan, bound, Layout(slots))
        plan.est_cost = (
            child_est.cost + child_est.rows * per_row_cost + one_time_cost
        )
        plan.est_rows = child_est.rows

        # ---- distinct / sort / limit --------------------------------------
        if select.distinct:
            child = plan
            plan = Distinct(child)
            plan.est_cost = child.est_cost
            plan.est_rows = max(child.est_rows * 0.5, min(child.est_rows, 1.0))

        if sort_slots:
            keys = [(slot_expr(i), desc) for i, desc in sort_slots]
            child = plan
            plan = Sort(child, keys, rows_per_page=self.catalog.page_capacity)
            est = costmodel.sort(
                costmodel.Estimate(child.est_cost, child.est_rows),
                self.catalog.page_capacity,
            )
            plan.est_cost, plan.est_rows = est.cost, est.rows

        if hidden:
            visible = len(output_names)
            child = plan
            keep = list(range(visible))
            plan = Project(
                child,
                [slot_expr(i) for i in keep],
                Layout(child.layout.slots[:visible]),
            )
            plan.est_cost, plan.est_rows = child.est_cost, child.est_rows

        if select.limit is not None or select.offset is not None:
            child = plan
            plan = Limit(child, select.limit, select.offset or 0)
            est = costmodel.limit(
                costmodel.Estimate(child.est_cost, child.est_rows),
                select.limit,
                select.offset or 0,
            )
            plan.est_cost, plan.est_rows = est.cost, est.rows

        return plan

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------

    def _plan_from(
        self,
        from_items: Sequence[object],
        conjuncts: list[ast.Expr],
        account: WorkAccount,
        outer_ctx: Optional[BindContext],
        compile_subquery,
    ) -> tuple[Operator, BindContext, set[int]]:
        """Build the join tree; returns (plan, context, consumed conjuncts)."""
        if not from_items:
            plan = SingleRow(account)
            plan.est_cost, plan.est_rows = 0.0, 1.0
            ctx = BindContext(
                Layout([]), outer=outer_ctx, subquery_compiler=compile_subquery
            )
            return plan, ctx, set()

        # Flatten explicit joins into a left-deep list with their conditions.
        flat: list[tuple[ast.TableRef, Optional[ast.Expr], str]] = []
        for item in from_items:
            flat.extend(_flatten_from_item(item))

        consumed: set[int] = set()
        plan: Optional[Operator] = None
        layout: Optional[Layout] = None

        for table_ref, join_cond, join_kind in flat:
            if isinstance(table_ref, ast.DerivedTable):
                scan = self._plan_derived_table(
                    table_ref, account, outer_ctx
                )
                scan_layout = scan.layout
                scan_consumed: set[int] = set()
            else:
                table = self.catalog.table(table_ref.name)
                self._ensure_stats(table)
                binding = table_ref.binding

                # WHERE conjuncts must not be pushed into the nullable side
                # of a LEFT JOIN (it would turn it into an inner join).
                pushdown = conjuncts if join_kind != "LEFT" else []
                scan, scan_layout, scan_consumed = self._plan_table_access(
                    table, binding, pushdown, outer_ctx, account,
                    compile_subquery,
                )
            consumed |= scan_consumed

            if plan is None:
                plan, layout = scan, scan_layout
            else:
                plan, layout = self._plan_join(
                    plan, layout, scan, scan_layout,
                    join_cond, join_kind, conjuncts, consumed,
                    outer_ctx, compile_subquery,
                )

        ctx = BindContext(
            layout, outer=outer_ctx, subquery_compiler=compile_subquery
        )
        return plan, ctx, consumed

    def _ensure_stats(self, table: Table) -> None:
        if table.stats is None:
            analyze_table(table)

    def _plan_derived_table(
        self,
        derived: ast.DerivedTable,
        account: WorkAccount,
        outer_ctx: Optional[BindContext],
    ) -> Operator:
        """Plan ``FROM (SELECT ...) alias``: the subplan's output columns
        become the columns of a table named *alias*."""
        plan = self.plan_select(derived.select, account, outer_ctx=outer_ctx)
        plan.layout = Layout(
            [ColumnSlot(derived.alias, s.name) for s in plan.layout.slots]
        )
        return plan

    def _plan_table_access(
        self,
        table: Table,
        binding: str,
        conjuncts: list[ast.Expr],
        outer_ctx: Optional[BindContext],
        account: WorkAccount,
        compile_subquery,
    ) -> tuple[Operator, Layout, set[int]]:
        """Choose seq scan vs index scan for one base table."""
        layout = Layout.for_table(binding, table.schema.column_names)
        sel = Selectivity(table.stats)
        local_ctx = BindContext(
            layout, outer=outer_ctx, subquery_compiler=compile_subquery
        )

        # Find pushable conjuncts: subquery-free, local columns only.
        pushable: list[tuple[int, ast.Expr]] = []
        for i, conj in enumerate(conjuncts):
            if ast.contains_subquery(conj):
                continue
            refs = ast.collect_column_refs(conj)
            local = [r for r in refs if layout.try_resolve(r.name, r.qualifier) is not None]
            if not local:
                continue
            foreign_local = [
                r
                for r in refs
                if layout.try_resolve(r.name, r.qualifier) is None
                and not _resolves_in_outer(r, outer_ctx)
            ]
            if foreign_local:
                continue  # references another FROM table: a join predicate
            pushable.append((i, conj))

        # Try an index probe among the pushable equality conjuncts.
        probe_choice = None
        for i, conj in enumerate(conjuncts):
            if (i, conj) not in pushable:
                continue
            probe = self._match_index_probe(conj, table, layout, outer_ctx)
            if probe is not None:
                probe_choice = (i, conj, *probe)
                break

        consumed: set[int] = set()
        if probe_choice is not None:
            i, conj, index, column, probe_ast = probe_choice
            probe_ctx = outer_ctx or BindContext(Layout([]))
            probe_bound = bind_expr(probe_ast, probe_ctx)
            scan: Operator = IndexScan(
                table,
                binding,
                index,
                probe_bound,
                account,
                probe_description=str(probe_ast),
            )
            col_stats = table.stats.column(column) if table.stats else None
            est = costmodel.index_probe(
                index,
                float(table.heap.row_count),
                sel.equality(column),
                page_count=table.heap.page_count,
                rows_per_page=self.catalog.page_capacity,
                correlation=col_stats.correlation if col_stats else 0.0,
            )
            scan.est_cost, scan.est_rows = est.cost, est.rows
            consumed.add(i)
        else:
            range_choice = self._match_index_range(
                pushable, table, binding, layout, sel, account
            )
            if range_choice is not None:
                scan, used = range_choice
                consumed |= used
            else:
                scan = SeqScan(table, binding, account)
                est = costmodel.seq_scan(
                    table.heap.page_count, table.heap.row_count
                )
                scan.est_cost, scan.est_rows = est.cost, est.rows

        # Apply the remaining pushable conjuncts as filters.
        for i, conj in pushable:
            if i in consumed:
                continue
            predicate = bind_expr(conj, local_ctx)
            child = scan
            scan = Filter(child, predicate, label=_expr_label(conj))
            selectivity = self._conjunct_selectivity(conj, table, layout)
            est = costmodel.filter_rows(
                costmodel.Estimate(child.est_cost, child.est_rows), selectivity
            )
            scan.est_cost, scan.est_rows = est.cost, est.rows
            consumed.add(i)

        return scan, layout, consumed

    def _match_index_probe(
        self,
        conjunct: ast.Expr,
        table: Table,
        layout: Layout,
        outer_ctx: Optional[BindContext],
    ) -> Optional[tuple]:
        """If *conjunct* is ``indexed_col = non-local expr``, return the probe."""
        if not isinstance(conjunct, ast.BinaryOp) or conjunct.op != "=":
            return None
        for col_side, other in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if not isinstance(col_side, ast.ColumnRef):
                continue
            if layout.try_resolve(col_side.name, col_side.qualifier) is None:
                continue
            index = table.index_on(col_side.name)
            if index is None:
                continue
            other_refs = ast.collect_column_refs(other)
            if any(
                layout.try_resolve(r.name, r.qualifier) is not None
                for r in other_refs
            ):
                continue  # probe value depends on the scanned table itself
            return (index, col_side.name, other)
        return None

    def _match_index_range(
        self,
        pushable: list[tuple[int, ast.Expr]],
        table: Table,
        binding: str,
        layout: Layout,
        sel: Selectivity,
        account: WorkAccount,
    ):
        """Build a range index scan from literal range conjuncts, if cheaper.

        Collects ``col < / <= / > / >= literal`` and non-negated
        ``col BETWEEN lit AND lit`` conjuncts over an indexed column,
        combines them into bounds, and returns ``(scan, consumed indices)``
        when the estimated cost beats a sequential scan -- otherwise None.
        """
        from repro.engine.operators.scans import RangeIndexScan

        # column -> [(index of conjunct, low, high, low_inc, high_inc)]
        bounds: dict[str, list[tuple[int, object, object, bool, bool]]] = {}
        for i, conj in pushable:
            entry = None
            if isinstance(conj, ast.BinaryOp) and conj.op in ("<", "<=", ">", ">="):
                for col_side, other, flip in (
                    (conj.left, conj.right, False),
                    (conj.right, conj.left, True),
                ):
                    if (
                        isinstance(col_side, ast.ColumnRef)
                        and isinstance(other, ast.Literal)
                        and other.value is not None
                        and layout.try_resolve(col_side.name, col_side.qualifier)
                        is not None
                    ):
                        op = conj.op
                        if flip:
                            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
                        if op in (">", ">="):
                            entry = (
                                i, col_side.name, other.value, None, op == ">=", True
                            )
                        else:
                            entry = (
                                i, col_side.name, None, other.value, True, op == "<="
                            )
                        break
            elif (
                isinstance(conj, ast.Between)
                and not conj.negated
                and isinstance(conj.operand, ast.ColumnRef)
                and isinstance(conj.low, ast.Literal)
                and isinstance(conj.high, ast.Literal)
                and conj.low.value is not None
                and conj.high.value is not None
                and layout.try_resolve(conj.operand.name, conj.operand.qualifier)
                is not None
            ):
                entry = (
                    i, conj.operand.name, conj.low.value, conj.high.value,
                    True, True,
                )
            if entry is None:
                continue
            i_, col, low, high, low_inc, high_inc = entry
            if table.index_on(col) is None:
                continue
            bounds.setdefault(col.lower(), []).append(
                (i_, low, high, low_inc, high_inc)
            )

        best = None
        for col, entries in bounds.items():
            index = table.index_on(col)
            assert index is not None
            low = high = None
            low_inc = high_inc = True
            used = set()
            from repro.engine.types import sort_key

            for i, lo, hi, li, hi_inc in entries:
                used.add(i)
                if lo is not None and (
                    low is None or sort_key(lo) > sort_key(low)
                ):
                    low, low_inc = lo, li
                if hi is not None and (
                    high is None or sort_key(hi) < sort_key(high)
                ):
                    high, high_inc = hi, hi_inc
            selectivity = sel.range_fraction(col, low, high)
            col_stats = table.stats.column(col) if table.stats else None
            est = costmodel.index_range(
                index,
                float(table.heap.row_count),
                selectivity,
                page_count=table.heap.page_count,
                rows_per_page=self.catalog.page_capacity,
                correlation=col_stats.correlation if col_stats else 0.0,
            )
            if best is None or est.cost < best[0].cost:
                best = (est, index, col, low, high, low_inc, high_inc, used)

        if best is None:
            return None
        est, index, col, low, high, low_inc, high_inc, used = best
        seq_cost = float(table.heap.page_count)
        if est.cost >= seq_cost:
            return None  # a sequential scan is cheaper

        desc_parts = []
        if low is not None:
            desc_parts.append(f"{low!r} {'<=' if low_inc else '<'} {col}")
        if high is not None:
            desc_parts.append(f"{col} {'<=' if high_inc else '<'} {high!r}")
        scan = RangeIndexScan(
            table,
            binding,
            index,
            account,
            low=low,
            high=high,
            low_inclusive=low_inc,
            high_inclusive=high_inc,
            bounds_description=" and ".join(desc_parts),
        )
        scan.est_cost, scan.est_rows = est.cost, est.rows
        return scan, used

    def _conjunct_selectivity(
        self, conjunct: ast.Expr, table: Table, layout: Layout
    ) -> float:
        """Selectivity estimate for a single-table conjunct."""
        sel = Selectivity(table.stats)
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op in (
            "=", "<", "<=", ">", ">=", "<>",
        ):
            for col_side, other in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if isinstance(col_side, ast.ColumnRef) and isinstance(
                    other, ast.Literal
                ):
                    if layout.try_resolve(col_side.name, col_side.qualifier) is None:
                        continue
                    if conjunct.op == "=":
                        return sel.equality(col_side.name)
                    if conjunct.op == "<>":
                        return 1.0 - sel.equality(col_side.name)
                    op = conjunct.op
                    if col_side is conjunct.right:
                        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
                    return sel.inequality(col_side.name, op, other.value)
            if conjunct.op == "=":
                return 0.1
        if isinstance(conjunct, ast.Between) and isinstance(
            conjunct.operand, ast.ColumnRef
        ):
            if (
                isinstance(conjunct.low, ast.Literal)
                and isinstance(conjunct.high, ast.Literal)
                and layout.try_resolve(
                    conjunct.operand.name, conjunct.operand.qualifier
                )
                is not None
            ):
                frac = sel.range_fraction(
                    conjunct.operand.name, conjunct.low.value, conjunct.high.value
                )
                return 1.0 - frac if conjunct.negated else frac
        if isinstance(conjunct, ast.IsNull):
            return 0.05 if not conjunct.negated else 0.95
        return DEFAULT_RANGE_SELECTIVITY

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------

    def _plan_join(
        self,
        left: Operator,
        left_layout: Layout,
        right: Operator,
        right_layout: Layout,
        join_cond: Optional[ast.Expr],
        join_kind: str,
        conjuncts: list[ast.Expr],
        consumed: set[int],
        outer_ctx: Optional[BindContext],
        compile_subquery,
    ) -> tuple[Operator, Layout]:
        merged = left_layout.merge(right_layout)
        merged_ctx = BindContext(
            merged, outer=outer_ctx, subquery_compiler=compile_subquery
        )

        # Candidate equi-join conditions: the explicit ON plus (for inner
        # joins only) any WHERE conjunct bridging the two sides.
        candidates: list[ast.Expr] = []
        residual: list[ast.Expr] = []
        if join_cond is not None:
            for part in ast.split_conjuncts(join_cond):
                candidates.append(part)
        if join_kind != "LEFT":
            for i, conj in enumerate(conjuncts):
                if i in consumed or ast.contains_subquery(conj):
                    continue
                refs = ast.collect_column_refs(conj)
                if not refs:
                    continue
                sides = {
                    "left" if left_layout.try_resolve(r.name, r.qualifier) is not None
                    else "right" if right_layout.try_resolve(r.name, r.qualifier) is not None
                    else "other"
                    for r in refs
                }
                if sides == {"left", "right"}:
                    candidates.append(conj)
                    consumed.add(i)

        hash_keys = None
        for cand in list(candidates):
            keys = _match_equi_join(cand, left_layout, right_layout)
            if keys is not None and hash_keys is None:
                hash_keys = keys
                candidates.remove(cand)
            # others stay as residual filters
        residual = candidates

        left_est = costmodel.Estimate(left.est_cost, left.est_rows)
        right_est = costmodel.Estimate(right.est_cost, right.est_rows)

        left_outer = join_kind == "LEFT"
        if hash_keys is not None and join_kind != "CROSS":
            left_key_ast, right_key_ast = hash_keys
            left_ctx = BindContext(
                left_layout, outer=outer_ctx, subquery_compiler=compile_subquery
            )
            right_ctx = BindContext(
                right_layout, outer=outer_ctx, subquery_compiler=compile_subquery
            )
            probe_key = bind_expr(left_key_ast, left_ctx)
            build_key = bind_expr(right_key_ast, right_ctx)
            residual_bound = None
            if left_outer and residual:
                # ON-clause residuals decide matching *inside* an outer join.
                residual_bound = bind_expr(ast.conjoin(residual), merged_ctx)
                residual = []
            plan: Operator = HashJoin(
                left,
                right,
                probe_key,
                build_key,
                rows_per_page=self.catalog.page_capacity,
                label=_expr_label(
                    ast.BinaryOp("=", left_key_ast, right_key_ast)
                ),
                left_outer=left_outer,
                residual=residual_bound,
            )
            sel = 1.0 / max(left_est.rows, right_est.rows, 1.0)
            est = costmodel.hash_join(
                left_est, right_est, sel, self.catalog.page_capacity
            )
            rows = max(est.rows, left_est.rows) if left_outer else est.rows
            plan.est_cost, plan.est_rows = est.cost, rows
        else:
            inner = Materialize(right, rows_per_page=self.catalog.page_capacity)
            mat_est = costmodel.materialize(right_est, self.catalog.page_capacity)
            inner.est_cost, inner.est_rows = mat_est.cost, mat_est.rows
            condition = None
            if residual:
                condition = bind_expr(ast.conjoin(residual), merged_ctx)
            plan = NestedLoopJoin(
                left,
                inner,
                condition,
                label="" if condition is None else "on residual",
                left_outer=left_outer,
            )
            sel = DEFAULT_RANGE_SELECTIVITY if condition is not None else 1.0
            est = costmodel.nested_loop_join(left_est, mat_est, sel)
            rows = max(est.rows, left_est.rows) if left_outer else est.rows
            plan.est_cost, plan.est_rows = est.cost, rows
            residual = []

        for cond in residual:
            predicate = bind_expr(cond, merged_ctx)
            child = plan
            plan = Filter(child, predicate, label=_expr_label(cond))
            est = costmodel.filter_rows(
                costmodel.Estimate(child.est_cost, child.est_rows),
                DEFAULT_RANGE_SELECTIVITY,
            )
            plan.est_cost, plan.est_rows = est.cost, est.rows

        return plan, merged

    # ------------------------------------------------------------------
    # Filters with subquery-aware costing
    # ------------------------------------------------------------------

    def _drain_subquery_cost(
        self, subqueries: list[_SubqueryRecord]
    ) -> tuple[float, float]:
        """Clear pending subquery records; return (per-row, one-time) cost.

        Correlated subqueries charge their estimated cost once per outer
        row; uncorrelated init-plans charge once per query.
        """
        per_row = sum(r.root.est_cost for r in subqueries if r.correlated)
        one_time = sum(r.root.est_cost for r in subqueries if not r.correlated)
        subqueries.clear()
        return per_row, one_time

    def _apply_filter(
        self,
        plan: Operator,
        conjunct: ast.Expr,
        ctx: BindContext,
        subqueries: list[_SubqueryRecord],
        label: str,
    ) -> Operator:
        subqueries.clear()
        predicate = bind_expr(conjunct, ctx)
        per_row_cost, one_time_cost = self._drain_subquery_cost(subqueries)
        child = plan
        plan = Filter(child, predicate, label=f"{label}: {_expr_label(conjunct)}")
        child_est = costmodel.Estimate(child.est_cost, child.est_rows)
        if per_row_cost > 0:
            est = costmodel.subquery_filter(
                child_est, per_row_cost, DEFAULT_RANGE_SELECTIVITY
            )
        else:
            est = costmodel.filter_rows(child_est, DEFAULT_RANGE_SELECTIVITY)
        plan.est_cost, plan.est_rows = est.cost + one_time_cost, est.rows
        return plan

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def _plan_aggregate(
        self,
        plan: Operator,
        select: ast.Select,
        select_items: tuple[ast.SelectItem, ...],
        from_ctx: BindContext,
        subqueries: list[_SubqueryRecord],
    ) -> tuple[Operator, BindContext]:
        """Build the HashAggregate; sets ``self._agg_rewrites``."""
        agg_calls: list[ast.FunctionCall] = []
        for item in select_items:
            ast.collect_aggregates(item.expr, agg_calls)
        if select.having is not None:
            ast.collect_aggregates(select.having, agg_calls)
        for o in select.order_by:
            ast.collect_aggregates(o.expr, agg_calls)

        group_exprs = list(select.group_by)
        rewrites: dict[ast.Expr, ast.ColumnRef] = {}
        slots: list[ColumnSlot] = []
        bound_groups: list[BoundExpr] = []
        for i, g in enumerate(group_exprs):
            if isinstance(g, ast.ColumnRef):
                slot = ColumnSlot(g.qualifier, g.name)
            else:
                slot = ColumnSlot(AGG_QUALIFIER, f"__grp{i}")
                rewrites[g] = ast.ColumnRef(name=f"__grp{i}", qualifier=AGG_QUALIFIER)
            slots.append(slot)
            bound_groups.append(bind_expr(g, from_ctx))

        specs: list[AggSpec] = []
        for i, call in enumerate(agg_calls):
            name = f"__agg{i}"
            rewrites[call] = ast.ColumnRef(name=name, qualifier=AGG_QUALIFIER)
            slots.append(ColumnSlot(AGG_QUALIFIER, name))
            if call.star:
                specs.append(AggSpec(func=call.name, arg=None))
            else:
                if len(call.args) != 1:
                    raise PlanError(
                        f"{call.name} takes exactly one argument"
                    )
                if ast.contains_aggregate(call.args[0]):
                    raise PlanError("aggregates cannot be nested")
                specs.append(
                    AggSpec(
                        func=call.name,
                        arg=bind_expr(call.args[0], from_ctx),
                        distinct=call.distinct,
                    )
                )

        per_row_cost, one_time_cost = self._drain_subquery_cost(subqueries)
        child = plan
        layout = Layout(slots)
        plan = HashAggregate(child, bound_groups, specs, layout)
        group_count = self._estimate_groups(group_exprs, from_ctx)
        est = costmodel.aggregate(
            costmodel.Estimate(
                child.est_cost + child.est_rows * per_row_cost + one_time_cost,
                child.est_rows,
            ),
            group_count if group_exprs else None,
        )
        plan.est_cost, plan.est_rows = est.cost, est.rows

        self._agg_rewrites = rewrites
        post_ctx = BindContext(
            layout,
            outer=from_ctx.outer,
            subquery_compiler=from_ctx.subquery_compiler,
        )
        return plan, post_ctx

    def _estimate_groups(
        self, group_exprs: list[ast.Expr], ctx: BindContext
    ) -> float:
        """Crude distinct-group estimate (product of column distincts)."""
        if not group_exprs:
            return 1.0
        total = 1.0
        for g in group_exprs:
            if isinstance(g, ast.ColumnRef):
                distinct = self._column_distinct(g, ctx)
                total *= distinct if distinct else 10.0
            else:
                total *= 10.0
        return total

    def _column_distinct(
        self, ref: ast.ColumnRef, ctx: BindContext
    ) -> Optional[float]:
        for table in self.catalog.tables():
            if table.stats and table.schema.has_column(ref.name):
                cs = table.stats.column(ref.name)
                if cs:
                    return float(cs.distinct_count)
        return None


# ---------------------------------------------------------------------------
# AST utilities
# ---------------------------------------------------------------------------


def _flatten_from_item(item) -> list[tuple[object, Optional[ast.Expr], str]]:
    """Left-deep flattening of a FROM item into (table, on-cond, kind)."""
    if isinstance(item, (ast.TableRef, ast.DerivedTable)):
        return [(item, None, "INNER")]
    if isinstance(item, ast.Join):
        left = _flatten_from_item(item.left)
        return left + [(item.right, item.condition, item.kind)]
    raise PlanError(f"unsupported FROM item {item!r}")


def _resolves_in_outer(
    ref: ast.ColumnRef, outer_ctx: Optional[BindContext]
) -> bool:
    ctx = outer_ctx
    while ctx is not None:
        if ctx.layout.try_resolve(ref.name, ref.qualifier) is not None:
            return True
        ctx = ctx.outer
    return False


def _match_equi_join(
    cond: ast.Expr, left: Layout, right: Layout
) -> Optional[tuple[ast.Expr, ast.Expr]]:
    """If *cond* is ``left_col = right_col``, return (left expr, right expr)."""
    if not isinstance(cond, ast.BinaryOp) or cond.op != "=":
        return None
    a, b = cond.left, cond.right
    refs_a = ast.collect_column_refs(a)
    refs_b = ast.collect_column_refs(b)
    if not refs_a or not refs_b:
        return None

    def side_of(refs: list[ast.ColumnRef]) -> Optional[str]:
        sides = set()
        for r in refs:
            if left.try_resolve(r.name, r.qualifier) is not None:
                sides.add("left")
            elif right.try_resolve(r.name, r.qualifier) is not None:
                sides.add("right")
            else:
                sides.add("other")
        return sides.pop() if len(sides) == 1 else None

    side_a, side_b = side_of(refs_a), side_of(refs_b)
    if side_a == "left" and side_b == "right":
        return (a, b)
    if side_a == "right" and side_b == "left":
        return (b, a)
    return None


def _expand_stars(
    items: tuple[ast.SelectItem, ...], layout: Layout
) -> tuple[ast.SelectItem, ...]:
    """Expand ``*`` / ``alias.*`` into explicit column references."""
    out: list[ast.SelectItem] = []
    for item in items:
        if isinstance(item.expr, ast.Star):
            qualifier = item.expr.qualifier
            matched = False
            for slot in layout.slots:
                if qualifier is None or (
                    (slot.qualifier or "").lower() == qualifier.lower()
                ):
                    out.append(
                        ast.SelectItem(
                            expr=ast.ColumnRef(
                                name=slot.name, qualifier=slot.qualifier
                            )
                        )
                    )
                    matched = True
            if not matched:
                raise PlanError(
                    f"no columns match {qualifier + '.' if qualifier else ''}*"
                )
        else:
            out.append(item)
    return tuple(out)


def _output_names(items: tuple[ast.SelectItem, ...]) -> list[str]:
    """Output column names: alias, column name, or a synthesized name."""
    names: list[str] = []
    used: set[str] = set()
    for i, item in enumerate(items):
        if item.alias:
            name = item.alias
        elif isinstance(item.expr, ast.ColumnRef):
            name = item.expr.name
        elif isinstance(item.expr, ast.FunctionCall):
            name = item.expr.name.lower()
        else:
            name = f"col{i + 1}"
        base = name
        k = 1
        while name.lower() in used:
            k += 1
            name = f"{base}_{k}"
        used.add(name.lower())
        names.append(name)
    return names


def _match_order_target(
    expr: ast.Expr,
    items: tuple[ast.SelectItem, ...],
    output_names: list[str],
) -> Optional[int]:
    """Match an ORDER BY expr to a select-list slot.

    Accepts an output-column alias, a syntactically identical expression,
    or a 1-based ordinal position (``ORDER BY 2``).
    """
    if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
        position = expr.value
        if not 1 <= position <= len(items):
            raise PlanError(
                f"ORDER BY position {position} is out of range "
                f"(select list has {len(items)} columns)"
            )
        return position - 1
    if isinstance(expr, ast.ColumnRef) and expr.qualifier is None:
        for i, name in enumerate(output_names):
            if name.lower() == expr.name.lower():
                return i
    for i, item in enumerate(items):
        if item.expr == expr:
            return i
    return None


def _expr_label(expr: ast.Expr) -> str:
    """Terse human-readable rendering for EXPLAIN output."""
    if isinstance(expr, ast.ColumnRef):
        return str(expr)
    if isinstance(expr, ast.Literal):
        return repr(expr.value)
    if isinstance(expr, ast.BinaryOp):
        return f"{_expr_label(expr.left)} {expr.op} {_expr_label(expr.right)}"
    if isinstance(expr, ast.UnaryOp):
        return f"{expr.op} {_expr_label(expr.operand)}"
    if isinstance(expr, (ast.ScalarSubquery, ast.InSubquery, ast.ExistsSubquery)):
        return "(subquery)"
    return type(expr).__name__
