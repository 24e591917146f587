"""Plan execution over (gradually cleaned) table states.

The executor follows the cleaning-aware plan produced by the planner:
per-table filters run with possible-worlds semantics, ``cleanσ`` nodes invoke
:func:`repro.core.operators.clean_sigma` (mutating the table state), join
nodes materialize lineage-tracked joins, ``clean⋈`` nodes invoke
:func:`repro.core.operators.clean_join`, and group-by/projection finish the
query.  Repaired cells always keep their original value among the
candidates, so cleaning can only *add* qualifying tuples — the executor
re-evaluates filters over the repaired scope to pick them up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.operators import CleanReport, clean_join, clean_sigma
from repro.core.state import TableState
from repro.errors import PlanError, QueryError
from repro.metrics.timing import clock
from repro.probabilistic.lineage import join_with_lineage
from repro.probabilistic.value import cell_compare
from repro.query.ast import Condition, Connector, Query
from repro.query.logical import (
    CleanJoinNode,
    CleanSigmaNode,
    PlanNode,
    collect_nodes,
)
from repro.query.planner import PlannerCatalog, ResolvedQuery, build_plan, resolve_query
from repro.relation.relation import Relation, Row


@dataclass
class QueryResult:
    """The output of one query execution."""

    relation: Relation
    report: CleanReport = field(default_factory=CleanReport)
    plan: PlanNode | None = None
    elapsed_seconds: float = 0.0
    result_tids: dict[str, set[int]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.relation)

    def rows(self) -> list[tuple[Any, ...]]:
        return [row.values for row in self.relation.rows]

    def plain_rows(self) -> list[tuple[Any, ...]]:
        return self.relation.to_plain_rows()


class Executor:
    """Executes queries against a set of table states.

    ``cleaning_enabled=False`` turns the executor into a plain dirty-data
    engine (used for measuring raw query cost and by the offline baseline
    after its upfront cleaning pass).
    """

    def __init__(
        self,
        states: dict[str, TableState],
        catalog: PlannerCatalog,
        cleaning_enabled: bool = True,
        dc_error_threshold: float = 0.2,
    ):
        self.states = states
        self.catalog = catalog
        self.cleaning_enabled = cleaning_enabled
        self.dc_error_threshold = dc_error_threshold

    # -- filter evaluation ----------------------------------------------------------

    @staticmethod
    def _row_satisfies(
        row: Row,
        relation: Relation,
        conditions: list[Condition],
        connector: Connector,
        qualified: bool,
    ) -> bool:
        if not conditions:
            return True
        checks = []
        for cond in conditions:
            attr = cond.column.qualified() if qualified else cond.column.name
            idx = relation.schema.index_of(attr)
            checks.append(cell_compare(row.values[idx], cond.op, cond.value))
        if connector is Connector.OR:
            return any(checks)
        return all(checks)

    @staticmethod
    def _bound_filter(
        relation: Relation,
        conditions: list[Condition],
        connector: Connector,
        qualified: bool,
    ) -> Callable[[Row], bool]:
        """:meth:`_row_satisfies` as a row predicate with every condition's
        column index resolved once (per query) instead of once per row."""
        bound = [
            (
                relation.schema.index_of(
                    cond.column.qualified() if qualified else cond.column.name
                ),
                cond.op,
                cond.value,
            )
            for cond in conditions
        ]
        if not bound:
            return lambda row: True
        combine = any if connector is Connector.OR else all

        def satisfies(row: Row) -> bool:
            values = row.values
            return combine(cell_compare(values[i], op, v) for i, op, v in bound)

        return satisfies

    def _filter_tids(
        self,
        state: TableState,
        conditions: list[Condition],
        connector: Connector,
    ) -> set[int]:
        """Tids of ``state`` satisfying ``conditions`` under ``connector``."""
        counter = state.counter
        relation = state.relation
        view = state.column_view()
        if view is not None:
            if not conditions:
                return set(view.tids)
            # Columnar selection: per-condition tid sets served from the
            # view's sorted/hash indexes, combined by the connector —
            # identical semantics to the per-row possible-worlds scan.
            sets = [
                view.filter_tids(
                    cond.column.name, cond.op, cond.value, counter=counter
                )
                for cond in conditions
            ]
            if connector is Connector.OR:
                out: set[int] = set()
                for s in sets:
                    out |= s
                return out
            sets.sort(key=len)
            out = sets[0]
            for s in sets[1:]:
                out &= s
            return out
        out = set()
        for row in relation.rows:
            counter.charge_scan()
            if self._row_satisfies(row, relation, conditions, connector, False):
                out.add(row.tid)
        return out

    # -- execution ----------------------------------------------------------------------

    def execute(self, query: Query | str) -> QueryResult:
        """Execute a query (AST or SQL string), cleaning along the way."""
        if isinstance(query, str):
            from repro.query.sql import parse_sql

            query = parse_sql(query)
        resolved = resolve_query(query, self.catalog)
        plan = build_plan(query, self.catalog, resolved=resolved)
        return self.execute_resolved(query, resolved, plan)

    def execute_resolved(
        self, query: Query, resolved: ResolvedQuery, plan: PlanNode
    ) -> QueryResult:
        """Execute an already-resolved, already-planned query.

        The prepared-query path (:meth:`repro.api.Session.prepare`) resolves
        and plans once, then calls this per execution with freshly bound
        condition values; the plan is reused because cleaning-operator
        placement depends only on the accessed attributes, never on the
        constants.
        """
        if query.is_join_query() and query.connector is Connector.OR:
            raise QueryError("OR-connected conditions are not supported in joins")
        unbound = query.parameters()
        if unbound:
            raise QueryError(
                f"query has {len(unbound)} unbound parameter(s); "
                "use Session.prepare(...).execute(params) to bind them"
            )

        started = clock()
        clean_tables = {
            node.table: node for node in collect_nodes(plan, CleanSigmaNode)
        }  # type: ignore[union-attr]
        clean_joins = collect_nodes(plan, CleanJoinNode)
        report = CleanReport()

        # Per-table: filter, clean, re-filter over the repaired scope.
        table_tids: dict[str, set[int]] = {}
        for table in query.tables:
            state = self._state(table)
            conditions = resolved.conditions_of(table)
            tids = self._filter_tids(state, conditions, query.connector)
            node = clean_tables.get(table)
            if node is not None and self.cleaning_enabled:
                sub = clean_sigma(
                    state,
                    tids,
                    where_attrs=node.where_attrs,
                    projection=node.projection_attrs,
                    dc_error_threshold=self.dc_error_threshold,
                )
                report.merge(sub)
                # Newly qualifying tuples can only come from the repaired scope.
                recheck = (sub.scope_tids | sub.changed_tids) - tids
                if recheck and conditions:
                    rel = state.relation
                    view = state.column_view()
                    if view is not None:
                        pos_map = view.pos_of_tid
                        cond_cols = [
                            (view.columns[c.column.name], c.op, c.value)
                            for c in conditions
                        ]
                        any_ok = query.connector is Connector.OR
                        for tid in recheck:
                            pos = pos_map.get(tid)
                            if pos is None:
                                continue
                            state.counter.charge_scan()
                            checks = (
                                cell_compare(col[pos], op, value)
                                for col, op, value in cond_cols
                            )
                            if any(checks) if any_ok else all(checks):
                                tids.add(tid)
                    else:
                        tid_rows = rel.tid_index()
                        for tid in recheck:
                            row = tid_rows.get(tid)
                            if row is None:
                                continue
                            state.counter.charge_scan()
                            if self._row_satisfies(
                                row, rel, conditions, query.connector, False
                            ):
                                tids.add(tid)
            table_tids[table] = tids

        if not query.is_join_query():
            result = self._finish_single_table(query, resolved, table_tids)
        else:
            result = self._execute_joins(
                query, resolved, table_tids, clean_joins, report
            )

        elapsed = clock() - started
        return QueryResult(
            relation=result,
            report=report,
            plan=plan,
            elapsed_seconds=elapsed,
            result_tids=table_tids,
        )

    def _state(self, table: str) -> TableState:
        try:
            return self.states[table]
        except KeyError:
            raise PlanError(f"table {table!r} is not registered") from None

    # -- single table -----------------------------------------------------------------

    def _finish_single_table(
        self,
        query: Query,
        resolved: ResolvedQuery,
        table_tids: dict[str, set[int]],
    ) -> Relation:
        table = query.tables[0]
        state = self._state(table)
        if query.aggregates:
            keys = [g.name for g in resolved.group_by]
            aggs = [
                (a.func, a.column.name if a.column.name != "*" else "*", a.alias)
                for a in query.aggregates
            ]
            view = state.column_view()
            if view is not None and len(view) == len(state.relation):
                # Columnar group-by: grouping keys served from the view's
                # hash/group indexes instead of walking Row objects.
                result = state.relation.group_by(
                    keys, aggs, view=view, tids=table_tids[table]
                )
            else:
                result = state.relation.restrict_tids(table_tids[table]).group_by(
                    keys, aggs
                )
            if query.select_star or not resolved.projection:
                return result
            extra = [p.name for p in resolved.projection if p.name not in keys]
            return result.project(keys + extra + [a.alias for a in query.aggregates])
        result = state.relation.restrict_tids(table_tids[table])
        if query.select_star or not resolved.projection:
            return result
        return result.project([p.name for p in resolved.projection])

    # -- joins ---------------------------------------------------------------------------

    def _execute_joins(
        self,
        query: Query,
        resolved: ResolvedQuery,
        table_tids: dict[str, set[int]],
        clean_joins: list,
        report: CleanReport,
    ) -> Relation:
        # Left-deep join over the (filtered) table parts, in plan order.
        joined = {query.tables[0]}
        remaining = list(resolved.join_conditions)
        first_state = self._state(query.tables[0])
        acc = first_state.relation.restrict_tids(table_tids[query.tables[0]])
        acc = acc.prefixed(query.tables[0])
        acc_is_prefixed = True
        first_join = True
        join_cleaned = bool(clean_joins) and self.cleaning_enabled

        while remaining:
            pick = None
            for jc in remaining:
                if (jc.left.table in joined) != (jc.right.table in joined):
                    pick = jc
                    break
            if pick is None:
                raise PlanError("disconnected join graph at execution time")
            remaining.remove(pick)
            if pick.left.table in joined:
                left_ref, right_ref = pick.left, pick.right
            else:
                left_ref, right_ref = pick.right, pick.left
            right_table = right_ref.table
            assert right_table is not None
            right_state = self._state(right_table)
            right_rel = right_state.relation.restrict_tids(table_tids[right_table])

            if first_join and join_cleaned:
                # Rebuild unprefixed left for the lineage join.
                left_table = left_ref.table or query.tables[0]
                left_state = self._state(left_table)
                left_rel = left_state.relation.restrict_tids(table_tids[left_table])
                join_result = join_with_lineage(
                    left_rel,
                    right_rel,
                    left_ref.name,
                    right_ref.name,
                    left_prefix=left_table,
                    right_prefix=right_table,
                )
                left_conditions = resolved.conditions_of(left_table)
                right_conditions = resolved.conditions_of(right_table)
                join_result, sub = clean_join(
                    left_state,
                    right_state,
                    join_result,
                    left_where_attrs=resolved.where_attrs_of(left_table),
                    right_where_attrs=resolved.where_attrs_of(right_table),
                    dc_error_threshold=self.dc_error_threshold,
                    left_filter=self._bound_filter(
                        left_state.relation, left_conditions, query.connector, False
                    ),
                    right_filter=self._bound_filter(
                        right_state.relation, right_conditions, query.connector, False
                    ),
                )
                report.merge(sub)
                acc = self._reapply_side_filters(
                    join_result.relation, query, resolved, (left_table, right_table)
                )
            else:
                left_attr = (
                    f"{left_ref.table}.{left_ref.name}" if acc_is_prefixed else left_ref.name
                )
                acc = acc.equi_join(
                    right_rel.prefixed(right_table),
                    left_attr,
                    f"{right_table}.{right_ref.name}",
                )
            joined.add(right_table)
            first_join = False

        return self._finish_join(query, resolved, acc)

    def _reapply_side_filters(
        self,
        relation: Relation,
        query: Query,
        resolved: ResolvedQuery,
        tables: tuple[str, str],
    ) -> Relation:
        """After clean⋈, re-check each side's filter on the join output.

        The incremental join may add pairs from relaxed tuples that do not
        satisfy a side filter; possible-worlds re-evaluation on the prefixed
        output columns removes them.
        """
        conditions = [
            c for c in resolved.conditions if c.column.table in tables
        ]
        if not conditions:
            return relation
        return relation.filter(
            self._bound_filter(relation, conditions, query.connector, qualified=True)
        )

    def _finish_join(
        self, query: Query, resolved: ResolvedQuery, acc: Relation
    ) -> Relation:
        if query.aggregates:
            keys = [g.qualified() for g in resolved.group_by]
            aggs = [
                (
                    a.func,
                    a.column.qualified() if a.column.name != "*" else "*",
                    a.alias,
                )
                for a in query.aggregates
            ]
            acc = acc.group_by(keys, aggs)
            if query.select_star or not resolved.projection:
                return acc
            extra = [
                p.qualified() for p in resolved.projection if p.qualified() not in keys
            ]
            return acc.project(keys + extra + [a.alias for a in query.aggregates])
        if query.select_star or not resolved.projection:
            return acc
        return acc.project([p.qualified() for p in resolved.projection])
