"""Sessions: per-workload execution state over a shared engine.

A :class:`Session` owns everything that is scoped to *one workload* — the
query log, the per-table cost models (and their observations), the
executors — while the engine (:class:`repro.Daisy`) keeps what is scoped to
the *data*: registered tables, rules, provenance, theta-join matrices, work
counters.  Splitting the two means several sessions with different configs
(cost model on/off, different thresholds) can run against the same tables
without resetting each other's strategy state, and the engine object stops
being a god-object that conflates both lifetimes.

Create sessions with :meth:`repro.Daisy.connect`::

    daisy = Daisy()
    daisy.register_table("cities", relation)
    daisy.add_rule("cities", "zip -> city")
    with daisy.connect() as session:
        prepared = session.prepare("SELECT zip FROM cities WHERE city = ?")
        result = prepared.execute("Los Angeles")
        batch = session.execute_batch(queries)
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.constraints.dc import Rule
from repro.core.costmodel import (
    AdaptivePlanner,
    CostModel,
    CostModelConfig,
    QueryObservation,
)
from repro.core.operators import CleanReport, clean_full_table
from repro._ownership import session_owned
from repro.core.state import TableState
from repro.engine.stats import WorkCounter
from repro.errors import PlanError, SessionError
from repro.metrics.timing import clock
from repro.query.ast import Parameter, Query, sql_for_log
from repro.query.executor import Executor, QueryResult
from repro.query.logical import CleanJoinNode, CleanSigmaNode, PlanNode, plan_contains
from repro.query.planner import build_plan, explain as explain_plan, resolve_query
from repro.query.sql import parse_sql
from repro.relation.relation import Relation

from repro.api.batch import BatchQuery, BatchResult, run_batch
from repro.api.config import DaisyConfig
from repro.api.prepared import PreparedQuery
from repro.api.reporting import QueryLogEntry, WorkloadReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.state import UpdateReport
    from repro.daisy import Daisy
    from repro.relation.relation import Row
    from repro.repair.provenance import ProvenanceStore
    from repro.service.snapshot import EpochLease, EpochSnapshot

#: LRU bound of the session's cross-query plan cache.
_PLAN_CACHE_LIMIT = 256


def _plan_structure_key(query: Query) -> tuple[Any, ...]:
    """A query's plan-relevant structure, constants erased.

    Cleaning-operator placement depends only on the tables and attributes a
    query accesses (the Section 4.1 overlap test), never on the constants it
    compares against — the same property that lets prepared queries share
    one plan across ``?`` bindings.  Two queries with equal structure keys
    therefore share one logical plan.

    Constants are erased as an opaque ``None`` marker — never as the value
    itself, so constants that hash/compare equal across types (``1`` vs
    ``1.0`` vs ``True``) cannot perturb the key, and two queries differing
    only in constants intentionally alias (their plans are identical).
    Parameters keep their index: queries with different placeholder
    wiring — e.g. one ``?`` bound twice vs two distinct ``?``s — are
    structurally different and must not share a cache slot.
    """
    return (
        tuple(query.tables),
        query.connector.value,
        tuple(
            (
                c.column.qualified(),
                c.op,
                ("?", c.value.index) if isinstance(c.value, Parameter) else None,
            )
            for c in query.conditions
        ),
        tuple(
            (jc.left.qualified(), jc.right.qualified())
            for jc in query.join_conditions
        ),
        tuple(p.qualified() for p in query.projection),
        tuple((a.func, a.column.qualified(), a.alias) for a in query.aggregates),
        tuple(g.qualified() for g in query.group_by),
        query.select_star,
    )


@session_owned
class Session:
    """One workload's execution context over a shared engine.

    Usable as a context manager; :meth:`close` marks the session closed
    (the engine and its table states outlive every session).

    The session also owns two workload-scoped accelerators:

    * the **adaptive planner** (:attr:`planner`, a
      :class:`~repro.core.AdaptivePlanner`): it prices the Section 5.2.3
      strategy switch from table statistics plus observed work, and every
      verdict is recorded and surfaced on workload reports;
    * the **cross-query plan cache**: ad-hoc :meth:`execute` calls reuse
      the logical plan of any earlier same-structure query (constants
      erased), giving them :meth:`prepare`'s skip-replanning benefit;
      entries are invalidated by rule/table registration.
    """

    def __init__(self, engine: "Daisy", config: DaisyConfig | None = None) -> None:
        self._engine = engine
        self.config = config if config is not None else engine.config
        self.states: dict[str, TableState] = engine.states
        self.catalog = engine.catalog
        self.query_log: list[QueryLogEntry] = []
        self.cost_models: dict[str, CostModel | None] = {}
        #: (registration version, data version) each cost model was built at.
        self._cost_model_versions: dict[str, tuple[int, int]] = {}
        #: Prices the strategy switch and records every verdict.
        self.planner = AdaptivePlanner()
        self._executor = Executor(
            self.states,
            self.catalog,
            dc_error_threshold=self.config.dc_error_threshold,
        )
        self._plain_executor = Executor(
            self.states,
            self.catalog,
            cleaning_enabled=False,
            dc_error_threshold=self.config.dc_error_threshold,
        )
        self._plan_cache: OrderedDict[tuple[Any, ...], PlanNode] = OrderedDict()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self._closed = False

    # -- lifecycle -------------------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Mark the session closed.

        The session holds no OS handles (stripe reads are transient), and
        ``Daisy.close()`` deletes the spill files.  Further execution raises
        SessionError; closing twice is a no-op.
        """
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def engine(self) -> "Daisy":
        return self._engine

    def _check_open(self) -> None:
        if self._closed:
            raise SessionError("session is closed; connect() a new one")

    def _state(self, table: str) -> TableState:
        try:
            return self.states[table]
        except KeyError:
            raise PlanError(f"table {table!r} is not registered") from None

    # -- prepared queries -------------------------------------------------------------

    def prepare(self, query: Query | str) -> PreparedQuery:
        """Parse, resolve, and plan a query once; bind/execute it many times.

        ``?`` placeholders in the WHERE clause become positional parameters
        of :meth:`PreparedQuery.execute`.
        """
        self._check_open()
        if isinstance(query, str):
            parsed = parse_sql(query)
            sql_text: str | None = query
        else:
            parsed = query
            sql_text = None
        resolved = resolve_query(parsed, self.catalog)
        plan = build_plan(parsed, self.catalog, resolved=resolved)
        return PreparedQuery(self, parsed, resolved, plan, sql_text)

    # -- execution --------------------------------------------------------------------

    def execute(self, query: Query | str) -> QueryResult:
        """Execute one query with inline cleaning (and maybe switch strategy).

        Planning goes through the session's cross-query plan cache: queries
        sharing the structure (tables, attributes, operators — constants
        erased) of an earlier query reuse its logical plan, the same
        skip-replanning benefit :meth:`prepare` gives.  The cache is keyed
        on the engine's registration version, so adding a rule or table
        invalidates every cached plan at once.
        """
        self._check_open()
        if isinstance(query, str):
            parsed = parse_sql(query)
            sql_text = query
        else:
            parsed = query
            sql_text = sql_for_log(parsed)
        resolved = resolve_query(parsed, self.catalog)
        plan = self._cached_plan(parsed)
        if plan is None:
            plan = build_plan(parsed, self.catalog, resolved=resolved)
            self._store_plan(parsed, plan)
        return self._run(
            parsed,
            sql_text,
            lambda: self._executor.execute_resolved(parsed, resolved, plan),
        )

    def _plan_cache_key(self, query: Query) -> tuple[Any, ...]:
        return (self._engine.registration_version, _plan_structure_key(query))

    def _cached_plan(self, query: Query) -> PlanNode | None:
        key = self._plan_cache_key(query)
        plan = self._plan_cache.get(key)
        if plan is None:
            self.plan_cache_misses += 1
            return None
        self._plan_cache.move_to_end(key)
        self.plan_cache_hits += 1
        return plan

    def _store_plan(self, query: Query, plan: PlanNode) -> None:
        self._plan_cache[self._plan_cache_key(query)] = plan
        while len(self._plan_cache) > _PLAN_CACHE_LIMIT:
            self._plan_cache.popitem(last=False)

    def execute_workload(self, queries: Sequence[Query | str]) -> WorkloadReport:
        """Execute a query sequence one at a time (cumulative timing/work).

        This is the sequential baseline; use :meth:`execute_batch` to share
        cleaning passes between queries that touch the same rules.
        """
        self._check_open()
        report = WorkloadReport()
        started = clock()
        decision_mark = self.planner.mark()
        for i, query in enumerate(queries):
            self.execute(query)
            entry = self.query_log[-1]
            report.entries.append(entry)
            if entry.switched_to_full and report.switch_query_index is None:
                report.switch_query_index = i
        report.total_seconds = clock() - started
        report.total_work_units = sum(e.work_units for e in report.entries)
        report.decisions = self.planner.decisions_since(decision_mark)
        return report

    def execute_batch(self, queries: Sequence[BatchQuery]) -> BatchResult:
        """Execute a batch, sharing one cleaning pass per rule group.

        Accepts SQL strings, ASTs, and fully-bound prepared queries.  See
        :mod:`repro.api.batch` for grouping and equivalence semantics.
        """
        self._check_open()
        return run_batch(self, queries)

    def _execute_prepared(
        self,
        prepared: PreparedQuery,
        params: Sequence[Any],
        observe: bool = True,
    ) -> QueryResult:
        self._check_open()
        prepared.refresh_if_stale()
        bound_query, bound_resolved = prepared.bind(*params)
        sql_text = sql_for_log(bound_query) if params else prepared.sql
        return self._run(
            bound_query,
            sql_text,
            lambda: self._executor.execute_resolved(
                bound_query, bound_resolved, prepared.plan
            ),
            observe=observe,
        )

    def _route_prepared(self, prepared: PreparedQuery) -> QueryResult:
        """Answer a rule-group member over the already-cleaned state.

        Plain (cleaning-disabled) execution: the batch's shared pass did the
        relaxation/detection/repair, so the member only filters, joins, and
        aggregates — repaired cells match its conditions with
        possible-worlds semantics.
        """
        self._check_open()
        return self._run(
            prepared.query,
            prepared.sql,
            lambda: self._plain_executor.execute_resolved(
                prepared.query, prepared.resolved, prepared.plan
            ),
            observe=False,
        )

    def _run(
        self,
        parsed: Query,
        sql_text: str,
        runner: Callable[[], QueryResult],
        observe: bool = True,
    ) -> QueryResult:
        """Shared accounting around one query execution.

        Snapshots per-table work, runs the query, lets the cost model
        observe it (and possibly switch to full cleaning), and appends the
        query-log entry.
        """
        work_before = {t: self._state(t).counter.total() for t in parsed.tables}
        result = runner()
        switched = False

        # The cost model only reasons about queries that needed cleaning:
        # a query not touching any rule neither observes nor switches.
        query_cleaned = result.plan is not None and (
            plan_contains(result.plan, CleanSigmaNode)
            or plan_contains(result.plan, CleanJoinNode)
        )
        if observe and self.config.use_cost_model and query_cleaned:
            for table in parsed.tables:
                state = self.states[table]
                model = self._cost_model(table)
                if model is None or not state.rules:
                    continue
                model.observe(
                    QueryObservation(
                        result_size=len(result.result_tids.get(table, ())),
                        extra_tuples=result.report.extra_tuples,
                        errors=result.report.errors_fixed,
                        detection_cost=result.report.detection_cost,
                    )
                )
                pending = [
                    r for r in state.rules if not state.is_fully_cleaned(r)
                ]
                if pending:
                    # The planner evaluates the Section 5.2.3 inequality and
                    # records the verdict (both projected costs included) on
                    # the decision log the workload report slices.
                    decision = self.planner.strategy_switch(table, model)
                    if decision is not None and decision.choice == "full_clean_now":
                        started = clock()
                        clean_before = state.counter.total()
                        clean_full_table(state, pending)
                        self.planner.observe(
                            decision, state.counter.total() - clean_before
                        )
                        result.elapsed_seconds += clock() - started
                        switched = True

        work_after = {t: self.states[t].counter.total() for t in parsed.tables}
        entry = QueryLogEntry(
            sql=sql_text,
            result_size=len(result),
            elapsed_seconds=result.elapsed_seconds,
            errors_fixed=result.report.errors_fixed,
            extra_tuples=result.report.extra_tuples,
            switched_to_full=switched,
            work_units=sum(work_after[t] - work_before[t] for t in parsed.tables),
        )
        self.query_log.append(entry)
        return result

    # -- cost models ------------------------------------------------------------------

    def _cost_model(self, table: str) -> CostModel | None:
        """The session's cost model for one table (built lazily).

        Rebuilt from the engine's precomputed statistics whenever *this
        table's* registration changed (a new rule resets the projection,
        matching the old per-``add_rule`` refresh) **or its data epoch
        moved** (an external update rebuilt the statistics the model
        projects from); registrations and updates on other tables leave the
        model — and its accumulated observations — alone.
        """
        state = self._state(table)
        version = (
            self._engine.table_versions.get(table, 0),
            state.data_epoch,
        )
        if (
            table in self.cost_models
            and self._cost_model_versions.get(table) == version
        ):
            return self.cost_models[table]
        model: CostModel | None = None
        if state.rules:
            eps = state.statistics.total_erroneous()
            p = state.statistics.max_candidate_estimate()
            model = CostModel(
                dataset_size=len(state.relation),
                estimated_errors=eps,
                candidates_per_error=max(1.0, p),
                is_dc=bool(state.dc_rules()),
                config=CostModelConfig(expected_queries=self.config.expected_queries),
            )
        self.cost_models[table] = model
        self._cost_model_versions[table] = version
        return model

    # -- direct cleaning ---------------------------------------------------------------

    def clean_table(
        self, table: str, rules: Iterable[Rule] | None = None
    ) -> CleanReport:
        """Clean a whole table now (bypass the query-driven path)."""
        self._check_open()
        return clean_full_table(self._state(table), rules)

    # -- snapshot-pinned reads (service tier) -------------------------------------------

    def snapshot(self, *tables: str) -> "EpochSnapshot":
        """Pin the named tables at their current data epochs.

        Returns an :class:`~repro.service.snapshot.EpochSnapshot` whose
        ``verify()`` raises
        :class:`~repro.service.snapshot.SnapshotViolation` if any pinned
        table's epoch moved (or an update was mid-flight) while the read
        ran.  The pin tolerates the read's *own* cleaning — repairs
        replace the relation and advance storage generations without
        moving the data epoch, which is exactly what makes the epoch the
        unit of isolation.
        """
        from repro.service.snapshot import EpochSnapshot, SnapshotHandle

        self._check_open()
        handles = {}
        for table in sorted(tables):
            state = self._state(table)
            storage = self._engine.storage_manager.get(table)
            handles[table] = SnapshotHandle(table, state, storage)
        return EpochSnapshot(handles)

    def execute_pinned(
        self, query: Query | str
    ) -> "tuple[QueryResult, EpochSnapshot]":
        """Execute one query pinned to a data-epoch snapshot.

        Pins every table the query touches, executes through the normal
        cleaning path, then verifies the pin — raising
        :class:`~repro.service.snapshot.SnapshotViolation` if a concurrent
        external update tore the read.  Returns the result together with
        the (verified) snapshot, whose ``epochs()`` says exactly which
        epochs the answer reflects.
        """
        self._check_open()
        parsed = parse_sql(query) if isinstance(query, str) else query
        snap = self.snapshot(*parsed.tables)
        result = self.execute(query)
        snap.verify()
        return result, snap

    def epoch_lease(self, table: str) -> "EpochLease":
        """Acquire an epoch compare-and-swap lease for one table's write."""
        from repro.service.snapshot import EpochLease

        self._check_open()
        return EpochLease(table, self._state(table))

    # -- external data updates ----------------------------------------------------------

    def update_table(
        self,
        table: str,
        updates: dict[tuple[int, str], Any],
        lease: "EpochLease | None" = None,
    ) -> "UpdateReport":
        """Apply external cell updates through the engine (see
        :meth:`repro.Daisy.update_table`).  The session's cached plans stay
        valid — plan structure never depends on cell values — while its
        cost models refresh from the rebuilt statistics on next use.

        With ``lease`` (from :meth:`epoch_lease`), the update runs as an
        epoch compare-and-swap: the lease is checked immediately before
        the update applies and committed against the resulting report, so
        an interleaved writer surfaces as
        :class:`~repro.service.snapshot.EpochCasError` instead of silent
        lost updates."""
        self._check_open()
        if lease is not None:
            lease.check()
        report = self._engine.update_table(table, updates)
        if lease is not None:
            lease.commit(report)
        return report

    def update_rows(
        self,
        table: str,
        rows: Iterable["Row"],
        lease: "EpochLease | None" = None,
    ) -> "UpdateReport":
        """Apply external row replacements (see :meth:`repro.Daisy.update_rows`);
        ``lease`` adds the same epoch-CAS discipline as :meth:`update_table`."""
        self._check_open()
        if lease is not None:
            lease.check()
        report = self._engine.update_rows(table, rows)
        if lease is not None:
            lease.commit(report)
        return report

    # -- introspection -----------------------------------------------------------------

    def table(self, name: str) -> Relation:
        """The current (gradually cleaned) relation of a table."""
        return self._state(name).relation

    def work_counter(self, table: str) -> WorkCounter:
        return self._state(table).counter

    def total_work(self) -> int:
        return sum(s.counter.total() for s in self.states.values())

    def probabilistic_cells(self, table: str) -> int:
        return self._state(table).probabilistic_cells()

    def provenance(self, table: str) -> "ProvenanceStore":
        return self._state(table).provenance

    def explain(self, query: Query | str) -> str:
        """The cleaning-aware logical plan for a query, as text."""
        parsed = parse_sql(query) if isinstance(query, str) else query
        return explain_plan(parsed, self.catalog)
