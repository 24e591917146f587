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

``DaisyConfig(batch_strategy=...)`` arbitrates per rule group between that
shared pass and "incremental per query" (the ROADMAP's batch-aware cost
model): ``"shared"`` (default) always runs the shared pass, ``"sequential"``
always cleans per query, and ``"auto"`` lets the session's
:class:`~repro.core.AdaptivePlanner` price the two from the members' scope
estimates plus calibrated observed work — multi-member groups with
overlapping scopes share, single-member groups go sequential (identical
work without the pass overhead).  Queries inside a batch never feed the
Section 5.2.3 cost model, whichever strategy runs them: the batch's
cleaning strategy is the batch's own.  Whatever is chosen, query
results and repaired relations are byte-identical across strategies; the
recorded :class:`~repro.core.costmodel.PassDecision` (on
:class:`RuleGroupReport.decision` and ``report.decisions``) shows both
prices and the observed work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.constraints.dc import as_fd
from repro.core.costmodel import PassDecision
from repro.core.operators import CleanReport, clean_sigma, fd_scope_needs_cleaning
from repro.core.state import TableState, rule_key
from repro.engine.stats import WorkCounter
from repro.errors import QueryError
from repro.metrics.timing import clock
from repro.query.ast import Query
from repro.query.logical import CleanJoinNode, CleanSigmaNode, collect_nodes

from repro.api.config import BATCH_AUTO, BATCH_SEQUENTIAL, BATCH_SHARED
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
    """One rule group: which rules, which queries, how it was executed.

    ``strategy`` is how the group's cleaning ran: ``"shared"`` (one shared
    pass over the member union — scope/work/report describe that pass) or
    ``"sequential"`` (every member cleaned incrementally on its own; the
    pass fields stay zero and the members' costs live on their query-log
    entries).  ``decision`` is the planner's arbitration record under
    ``batch_strategy="auto"`` (``None`` when the strategy was forced).
    """

    table: str
    rule_keys: tuple[str, ...]
    where_attrs: frozenset[str]
    query_indices: list[int]
    scope_size: int = 0
    work_units: int = 0
    seconds: float = 0.0
    strategy: str = BATCH_SHARED
    decision: PassDecision | None = None
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

    __slots__ = ("node", "members", "projection", "report", "strategy", "decision")

    def __init__(self, node: CleanSigmaNode) -> None:
        self.node = node
        self.members: list[int] = []
        self.projection: set[str] = set()
        self.report: RuleGroupReport | None = None
        self.strategy: str = BATCH_SHARED
        self.decision: PassDecision | None = None


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
    counter: WorkCounter | None = None,
) -> bool:
    """Does a member query's answer require any of the group's rules to run?

    FDs are pruned with the shared Fig. 9 statistics test; general DCs have
    no cheap pruning and always require the pass.  ``counter`` overrides the
    charged counter (the arbitration phase prices with a throwaway one).
    """
    if not tids:
        return False
    for rule in rules:
        if state.is_fully_cleaned(rule):
            continue
        fd = as_fd(rule)
        if fd is None or fd_scope_needs_cleaning(state, tids, fd, counter=counter):
            return True
    return False


def _arbitrate_groups(
    session: "Session",
    prepared: list[PreparedQuery],
    groups: dict[tuple[Any, ...], _Group],
    share: list["_Group | None"],
) -> None:
    """``batch_strategy="auto"``: price each rule group's "one shared pass"
    against "incremental per member" and demote losing groups to sequential.

    The decision phase filters member answers and runs the Fig. 9 pruning
    test with a **throwaway counter**: pricing is model overhead, not
    cleaning work, so an auto run charges exactly the work units of the
    forced configuration its choices correspond to (shared groups re-filter
    with real charging inside the shared pass, exactly like a forced-shared
    run).  The double evaluation is deliberate: reusing the arbitration's
    tid sets inside the pass would skip the real-counter charges — and,
    when an earlier group's pass repaired cells this group's filters read,
    serve *pre-cleaning* answers — breaking byte-parity with the forced
    oracle; the re-filter is index-served and bounded by the answer sizes.

    Estimates (see :meth:`AdaptivePlanner.choose_batch_strategy`): shared ≈
    the union scope plus each member's routing re-filter; sequential ≈ the
    sum of member scopes — overlapping members share, disjoint members go
    sequential, single-member groups always go sequential.
    """
    scratch = WorkCounter()
    for group in groups.values():
        node = group.node
        state = session.states[node.table]
        union: set[int] = set()
        member_sizes: list[int] = []
        filter_units = 0
        for i in group.members:
            prep = prepared[i]
            tids = session._executor._filter_tids(
                state,
                prep.resolved.conditions_of(node.table),
                prep.query.connector,
                counter=scratch,
            )
            filter_units += len(tids)
            if _member_needs_cleaning(state, tids, node.rules, counter=scratch):
                union |= tids
                member_sizes.append(len(tids))
        decision = session.planner.choose_batch_strategy(
            node.table,
            members=len(group.members),
            cleaning_members=len(member_sizes),
            shared_units=float(len(union)),
            sequential_units=float(sum(member_sizes)),
            routing_units=float(filter_units),
        )
        group.decision = decision
        group.strategy = decision.choice
        if decision.choice == BATCH_SEQUENTIAL:
            for i in group.members:
                share[i] = None


def run_batch(session: "Session", queries: Sequence[BatchQuery]) -> BatchResult:
    """Execute ``queries`` as one batch (see module docstring)."""
    prepared = _prepare_all(session, queries)
    started = clock()
    work_before = session.total_work()
    decision_mark = session.planner.mark()

    strategy = session.config.batch_strategy

    # -- analysis: group single-table cleaning plans by (table, rules, filter attrs)
    share: list[_Group | None] = [None] * len(prepared)
    groups: dict[tuple[Any, ...], _Group] = {}
    if strategy != BATCH_SEQUENTIAL:
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
            share[i] = group

    # -- arbitration (auto): shared pass now vs incremental per query
    if strategy == BATCH_AUTO and groups:
        _arbitrate_groups(session, prepared, groups, share)

    # -- shared passes: one relaxed detection/repair sweep per rule group
    group_reports: list[RuleGroupReport] = []
    for group in groups.values():
        if group.strategy == BATCH_SEQUENTIAL:
            group.report = RuleGroupReport(
                table=group.node.table,
                rule_keys=tuple(sorted(rule_key(r) for r in group.node.rules)),
                where_attrs=frozenset(group.node.where_attrs),
                query_indices=list(group.members),
                strategy=BATCH_SEQUENTIAL,
                decision=group.decision,
            )
            group_reports.append(group.report)
            continue
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
            # The shared pass is the showcase entry point for sharded
            # execution: one clean_sigma whose scope is the whole rule
            # group's answer union, shard-partitioned and fanned out over
            # the session pool when the session runs with parallelism > 1.
            report = clean_sigma(
                state,
                union,
                where_attrs=node.where_attrs,
                projection=group.projection,
                dc_error_threshold=session.config.dc_error_threshold,
                force_rules=list(node.rules),
                parallel=session.parallel,
            )
        group.report = RuleGroupReport(
            table=node.table,
            rule_keys=tuple(sorted(rule_key(r) for r in node.rules)),
            where_attrs=frozenset(node.where_attrs),
            query_indices=list(group.members),
            scope_size=len(report.scope_tids),
            work_units=state.counter.total() - pass_before,
            seconds=clock() - pass_started,
            strategy=BATCH_SHARED,
            decision=group.decision,
            report=report,
        )
        group_reports.append(group.report)

    # -- routing: answer every query in original order
    results: list["QueryResult"] = []
    workload = WorkloadReport()
    for i, prep in enumerate(prepared):
        if share[i] is not None:
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
    # Sequential-decided groups carry no pass cost — their members paid
    # their own way on their query-log entries.
    for group_report in group_reports:
        if group_report.strategy == BATCH_SEQUENTIAL:
            continue
        first = workload.entries[group_report.query_indices[0]]
        first.work_units += group_report.work_units
        first.elapsed_seconds += group_report.seconds
        first.errors_fixed += group_report.report.errors_fixed
        first.extra_tuples += group_report.report.extra_tuples

    # Close the loop: feed each arbitrated group's observed work — the pass
    # (if any) plus its members' per-query work — back into the planner.
    for group_report in group_reports:
        if group_report.decision is None:
            continue
        # Shared groups: the pass cost is already folded into the first
        # member's entry, so the member sum covers both strategies.
        member_work = sum(
            workload.entries[i].work_units for i in group_report.query_indices
        )
        session.planner.observe(group_report.decision, member_work)

    workload.total_seconds = clock() - started
    workload.total_work_units = session.total_work() - work_before
    workload.decisions = session.planner.decisions_since(decision_mark)
    return BatchResult(results=results, report=workload, groups=group_reports)
