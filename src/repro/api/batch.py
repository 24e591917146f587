"""Batched workload execution with rule-sharing detection passes.

``session.execute_batch(queries)`` closes the "Batched workload API" gap:
instead of running each query's relaxation/detection/repair in isolation,
the batch is analysed up front and queries whose cleaning-aware plans touch
the *same rules under the same filter attributes* are grouped.  Each rule
group then runs **one** shared cleaning pass over the union of its member
answers — one relaxation closure, one detection sweep over the ColumnView
(DC groups merge their ``ViolationPair`` sets in a single partial
theta-join check), one merged repair delta, one in-place dataset update —
after which the member queries are answered by routing their scopes against
the already-cleaned state with plain (cleaning-disabled) execution.

Semantics: a batch behaves as if every rule group's shared cleaning ran
before the first member query.  For workloads whose queries touch disjoint
parts of a rule's correlated clusters (the non-overlapping range workloads
of Figs. 5-7, the per-state air-quality workload), this is byte-identical
to sequential execution while charging far fewer work units — the parity
tests pin that down on the hospital and air-quality fixtures.  Queries the
grouping cannot cover (joins, rule-free queries) fall back to the normal
sequential path inside the batch, preserving order.

Queries inside a batch never feed the Section 5.2.3 cost model: the
batch's cleaning strategy is the batch's own.  A caller who wants every
query cleaned incrementally on its own loops over ``session.execute``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.constraints.dc import as_fd
from repro.core.operators import CleanReport, clean_sigma, fd_scope_needs_cleaning
from repro.core.state import TableState, rule_key
from repro.errors import QueryError
from repro.metrics.timing import clock
from repro.query.ast import Query
from repro.query.logical import CleanJoinNode, CleanSigmaNode, collect_nodes

from repro.api.prepared import PreparedQuery
from repro.api.reporting import WorkloadReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.session import Session
    from repro.constraints.dc import Rule
    from repro.query.executor import QueryResult

#: What ``execute_batch`` accepts per entry.
BatchQuery = str | Query | PreparedQuery


@dataclass
class RuleGroupReport:
    """One rule group: which rules, which queries, and its shared pass
    (scope, work, seconds, and the pass's :class:`CleanReport`)."""

    table: str
    rule_keys: tuple[str, ...]
    where_attrs: frozenset[str]
    query_indices: list[int]
    scope_size: int = 0
    work_units: int = 0
    seconds: float = 0.0
    report: CleanReport = field(default_factory=CleanReport)


@dataclass
class BatchResult:
    """Output of :meth:`repro.api.Session.execute_batch`.

    ``results[i]`` is the :class:`~repro.query.executor.QueryResult` of
    ``queries[i]`` (original order); ``report`` is the same
    :class:`~repro.api.reporting.WorkloadReport` shape sequential workloads
    produce; ``groups`` describes the shared rule-group passes.
    """

    results: list["QueryResult"]
    report: WorkloadReport
    groups: list[RuleGroupReport]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> "Iterator[QueryResult]":
        return iter(self.results)

    def __getitem__(self, index: int) -> "QueryResult":
        return self.results[index]


class _Group:
    """Mutable accumulator for one rule group during batch analysis."""

    __slots__ = ("node", "members", "projection")

    def __init__(self, node: CleanSigmaNode) -> None:
        self.node = node
        self.members: list[int] = []
        self.projection: set[str] = set()


def _prepare_all(
    session: "Session", queries: Sequence[BatchQuery]
) -> list[PreparedQuery]:
    prepared = []
    for query in queries:
        if isinstance(query, PreparedQuery):
            query.refresh_if_stale()
            handle = query
        else:
            handle = session.prepare(query)
        # Validate *every* entry (strings and ASTs included) before the
        # shared passes run: an unbound placeholder must fail the batch
        # up front, not after cleaning has already mutated the tables.
        if handle.param_count:
            raise QueryError(
                "queries in a batch must have no unbound parameters "
                f"(got {handle.param_count} in {handle.sql!r}); bind them "
                "via Session.prepare(...).execute first"
            )
        prepared.append(handle)
    return prepared


def _member_needs_cleaning(
    state: TableState,
    tids: set[int],
    rules: "Sequence[Rule]",
) -> bool:
    """Does a member query's answer require any of the group's rules to run?

    FDs are pruned with the shared Fig. 9 statistics test; general DCs have
    no cheap pruning and always require the pass.
    """
    if not tids:
        return False
    for rule in rules:
        if state.is_fully_cleaned(rule):
            continue
        fd = as_fd(rule)
        if fd is None or fd_scope_needs_cleaning(state, tids, fd):
            return True
    return False


def run_batch(session: "Session", queries: Sequence[BatchQuery]) -> BatchResult:
    """Execute ``queries`` as one batch (see module docstring)."""
    prepared = _prepare_all(session, queries)
    started = clock()
    work_before = session.total_work()

    # -- analysis: group single-table cleaning plans by (table, rules, filter attrs)
    covered: set[int] = set()
    groups: dict[tuple[Any, ...], _Group] = {}
    for i, prep in enumerate(prepared):
        if prep.query.is_join_query():
            continue
        if collect_nodes(prep.plan, CleanJoinNode):
            continue
        nodes = collect_nodes(prep.plan, CleanSigmaNode)
        if not nodes:
            continue
        node: CleanSigmaNode = nodes[0]  # single-table plans have one
        key = (
            node.table,
            frozenset(rule_key(r) for r in node.rules),
            frozenset(node.where_attrs),
        )
        group = groups.get(key)
        if group is None:
            group = groups[key] = _Group(node)
        group.members.append(i)
        group.projection |= node.projection_attrs
        covered.add(i)

    # -- shared passes: one relaxed detection/repair sweep per rule group
    group_reports: list[RuleGroupReport] = []
    for group in groups.values():
        node = group.node
        state = session.states[node.table]
        pass_before = state.counter.total()
        pass_started = clock()
        union: set[int] = set()
        for i in group.members:
            prep = prepared[i]
            tids = session._executor._filter_tids(
                state,
                prep.resolved.conditions_of(node.table),
                prep.query.connector,
            )
            # Statistics pruning per member (Fig. 9), exactly as the
            # sequential path applies it: members whose answers overlap no
            # dirty group contribute nothing to the shared pass.
            if _member_needs_cleaning(state, tids, node.rules):
                union |= tids
        report = CleanReport()
        if union:
            # One clean_sigma whose scope is the whole rule group's answer union.
            report = clean_sigma(
                state,
                union,
                where_attrs=node.where_attrs,
                projection=group.projection,
                dc_error_threshold=session.config.dc_error_threshold,
                force_rules=list(node.rules),
            )
        group_reports.append(
            RuleGroupReport(
                table=node.table,
                rule_keys=tuple(sorted(rule_key(r) for r in node.rules)),
                where_attrs=frozenset(node.where_attrs),
                query_indices=list(group.members),
                scope_size=len(report.scope_tids),
                work_units=state.counter.total() - pass_before,
                seconds=clock() - pass_started,
                report=report,
            )
        )

    # -- routing: answer every query in original order
    results: list["QueryResult"] = []
    workload = WorkloadReport()
    for i, prep in enumerate(prepared):
        if i in covered:
            # Covered by a shared pass: the filter re-runs over the cleaned
            # state (repaired cells match with possible-worlds semantics),
            # so plain execution suffices — no per-query cleaning operator.
            result = session._route_prepared(prep)
        else:
            result = session._execute_prepared(prep, (), observe=False)
        entry = session.query_log[-1]
        workload.entries.append(entry)
        if entry.switched_to_full and workload.switch_query_index is None:
            workload.switch_query_index = i
        results.append(result)

    # Attribute each group's shared-pass cost to its first member's entry
    # (the query that would have paid most of that pass sequentially), so
    # sum(entry work/seconds) stays consistent with the batch totals and
    # cumulative curves remain comparable against sequential runs.
    for group_report in group_reports:
        first = workload.entries[group_report.query_indices[0]]
        first.work_units += group_report.work_units
        first.elapsed_seconds += group_report.seconds
        first.errors_fixed += group_report.report.errors_fixed
        first.extra_tuples += group_report.report.extra_tuples

    workload.total_seconds = clock() - started
    workload.total_work_units = session.total_work() - work_before
    return BatchResult(results=results, report=workload, groups=group_reports)
