"""Daisy — the query-driven cleaning engine (Section 6).

The engine object owns the *data-scoped* state: registered tables (with
their rules, provenance, statistics, and theta-join matrices) and the
planner catalog.  Everything *workload-scoped* — the query log, cost-model
observations, prepared queries, batching — lives on a
:class:`repro.api.Session` obtained via :meth:`Daisy.connect`:

    daisy = Daisy()
    daisy.register_table("cities", relation)
    daisy.add_rule("cities", "zip -> city")
    with daisy.connect() as session:
        result = session.execute("SELECT zip FROM cities WHERE city = 'Los Angeles'")
        batch = session.execute_batch(queries)   # rule-sharing batched execution

``Daisy(use_cost_model=False)`` gives the always-incremental variant the
paper calls "Daisy w/o cost".
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.api.config import DaisyConfig
from repro.api.reporting import QueryLogEntry, WorkloadReport  # noqa: F401 - re-export
from repro.api.session import Session
from repro.constraints.dc import Rule
from repro.constraints.parser import parse_rule
from repro._ownership import shared_engine_state
from repro.core.operators import CleanReport
from repro.core.state import TableState, UpdateReport
from repro.engine.stats import WorkCounter
from repro.errors import PlanError
from repro.query.ast import Query
from repro.query.planner import PlannerCatalog
from repro.query.sql import parse_sql
from repro.relation.relation import Relation, Row
from repro.storage import StorageManager

__all__ = ["Daisy", "QueryLogEntry", "WorkloadReport"]

#: Config fields baked into the engine or its tables — ``backend``,
#: ``column_backend``, ``storage`` and ``memory_budget_mb`` into every
#: :class:`TableState` at ``register_table``, ``diagnostics`` into the
#: witness activated by ``Daisy.__init__`` — which a session therefore
#: cannot override.
ENGINE_SCOPED_FIELDS = (
    "backend",
    "column_backend",
    "storage",
    "memory_budget_mb",
    "diagnostics",
)


@shared_engine_state
class Daisy:
    """Query-driven incremental cleaning engine.

    ``Daisy(config)`` takes a ready :class:`repro.api.DaisyConfig`;
    ``Daisy(**overrides)`` builds one from keyword overrides of its fields
    (documented there).
    """

    #: The engine is the root of all shared state: every connected session
    #: reaches the same table states through it.  Registration-time writes
    #: are the only post-construction mutations.
    MUTATED_UNDER = {
        "states": ("Daisy.register_table",),
        "registration_version": ("Daisy.register_table", "Daisy.add_rule"),
        "table_versions": ("Daisy.register_table", "Daisy.add_rule"),
        "_witness_active": ("Daisy.close",),
    }

    def __init__(self, config: DaisyConfig | None = None, **overrides: Any):
        if config is None:
            config = DaisyConfig(**overrides)
        elif overrides:
            raise TypeError(
                "pass either config= or keyword overrides, not both; use "
                "config.replace(...) to change fields of a ready config"
            )
        self.config = config
        self._witness_active = False
        #: All spilled state (stripe files) of this engine; :meth:`close`
        #: deletes it.
        self.storage_manager = StorageManager()
        self.states: dict[str, TableState] = {}
        self.catalog = PlannerCatalog()
        #: Bumped on every registration; prepared queries use it to refresh
        #: stale plans.
        self.registration_version = 0
        #: Per-table registration versions; sessions rebuild only the
        #: affected table's cost model (matching the old per-add_rule
        #: refresh, without discarding other tables' observations).
        self.table_versions: dict[str, int] = {}
        if config.diagnostics == "witness":
            # Activated last: the witness wraps every annotated class's
            # methods, and this engine's own construction writes must land
            # before instrumentation begins.
            from repro.diagnostics import global_witness

            global_witness().activate()
            self._witness_active = True

    # -- sessions ------------------------------------------------------------------------

    def connect(self, config: DaisyConfig | None = None) -> Session:
        """Open a new :class:`~repro.api.Session` over this engine's tables.

        ``config`` overrides the engine's default config for this session
        only (e.g. ``daisy.connect(daisy.config.replace(use_cost_model=False))``).
        The :data:`ENGINE_SCOPED_FIELDS` are fixed when the engine is built
        or a table is registered, so a session config that differs in one
        of them is rejected rather than silently ignored.
        """
        if config is not None:
            for name in ENGINE_SCOPED_FIELDS:
                wanted, fixed = getattr(config, name), getattr(self.config, name)
                if wanted != fixed:
                    raise ValueError(
                        f"session {name} {wanted!r} differs from the engine "
                        f"{name} {fixed!r}; {name} is fixed at engine "
                        "construction / table registration — construct a "
                        "separate Daisy for it"
                    )
        return Session(self, config)

    # -- registration ------------------------------------------------------------------

    def register_table(self, name: str, relation: Relation) -> TableState:
        """Register a (dirty) table.  Returns its mutable state."""
        relation.name = relation.name or name
        manager = self.storage_manager
        budget = self.config.memory_budget_mb
        state = TableState(
            relation=relation,
            backend=self.config.backend,
            column_backend=self.config.column_backend,
            storage=self.config.storage,
            memory_budget_mb=budget,
            storage_factory=lambda: manager.table_storage(name, budget),
        )
        self.states[name] = state
        self.catalog.add_table(name, relation.schema)
        self.registration_version += 1
        self.table_versions[name] = self.registration_version
        return state

    def add_rule(self, table: str, rule: Rule | str, name: str = "") -> list[Rule]:
        """Register a rule (object or textual notation) on a table.

        Precomputes the rule's statistics (FDs) or theta-join matrix (DCs).
        Returns the registered rules (textual FDs with multi-attribute rhs
        decompose into several).
        """
        state = self._state(table)
        rules: list[Rule]
        if isinstance(rule, str):
            rules = parse_rule(rule, name=name)
        else:
            rules = [rule]
        for r in rules:
            state.add_rule(r)
            self.catalog.add_rule(table, r)
        self.registration_version += 1
        self.table_versions[table] = self.registration_version
        return rules

    def _state(self, table: str) -> TableState:
        try:
            return self.states[table]
        except KeyError:
            raise PlanError(f"table {table!r} is not registered") from None

    # -- external data updates -----------------------------------------------------------

    def update_table(
        self, table: str, updates: dict[tuple[int, str], Any]
    ) -> UpdateReport:
        """Apply external cell updates (``(tid, attr) -> value``) to a table.

        The ground truth evolved: the relation (and its columnar view) is
        patched in place, FD statistics and per-rule progress covering the
        touched attributes are invalidated, and each DC's theta-join matrix
        is brought up to date lazily — on its next use — by replaying the
        update off the ColumnView patch stream, re-sorting only touched
        stripes and invalidating only affected cells (see
        :mod:`repro.detection.maintenance`, whose cost hook picks
        patch-vs-rebuild per sync).  Bumps the table's data
        epoch (``TableState.data_epoch`` — the data analogue of the
        plan-cache registration epoch); cached plans survive (plans never
        depend on cell values), session cost models refresh.
        """
        return self._state(table).apply_updates(updates)

    def update_rows(self, table: str, rows: Iterable[Row]) -> UpdateReport:
        """Apply external row replacements (rows carry their tids).

        Reduced to the cell diff the replacement amounts to, then handled
        exactly like :meth:`update_table`.
        """
        return self._state(table).apply_row_updates(
            {row.tid: row for row in rows}
        )

    # -- direct cleaning ----------------------------------------------------------------

    def clean_table(self, table: str, rules: Iterable[Rule] | None = None) -> CleanReport:
        """Clean a whole table now (bypass the query-driven path)."""
        from repro.core.operators import clean_full_table

        return clean_full_table(self._state(table), rules)

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Release every storage handle and delete all spilled state.

        Tables stay registered and usable afterwards: a spill-mode table
        re-spills from its (RAM-resident) relation on next access.  Call
        this when discarding the engine to leave no temp files behind.
        """
        for state in self.states.values():
            provider = state.storage_provider
            if provider is not None:
                provider.detach(state.relation._colview)
            state.storage_provider = None
        self.storage_manager.close()
        if self._witness_active:
            from repro.diagnostics import global_witness

            global_witness().deactivate()
            self._witness_active = False

    # -- introspection ------------------------------------------------------------------

    def table(self, name: str) -> Relation:
        """The current (gradually cleaned) relation of a table."""
        return self._state(name).relation

    def work_counter(self, table: str) -> WorkCounter:
        return self._state(table).counter

    def total_work(self) -> int:
        return sum(s.counter.total() for s in self.states.values())

    def probabilistic_cells(self, table: str) -> int:
        return self._state(table).probabilistic_cells()

    def provenance(self, table: str):
        return self._state(table).provenance

    def explain(self, query: Query | str) -> str:
        """The cleaning-aware logical plan for a query, as text."""
        from repro.query.planner import explain as explain_plan

        parsed = parse_sql(query) if isinstance(query, str) else query
        return explain_plan(parsed, self.catalog)
