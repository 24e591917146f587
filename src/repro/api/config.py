"""Engine configuration for the layered session API.

:class:`DaisyConfig` is the single frozen bundle of knobs the engine used to
take as loose ``Daisy(...)`` keyword arguments, plus the batching knobs of
:meth:`repro.api.Session.execute_batch`.  Freezing the config keeps a
session's behaviour stable for its whole lifetime: two sessions connected
with different configs can run side by side over the same registered tables
without trampling each other's strategy state.

Four knobs accept ``"auto"``.  ``parallelism`` and ``batch_strategy`` hand
the choice to the session's :class:`repro.core.AdaptivePlanner`, which
prices the alternatives per pass from table statistics plus calibrated
observed work; ``column_backend`` and ``storage`` resolve once per table by
a static rule on its size (see ``docs/cost-model.md``).  Every ``auto``
choice is byte-identical to the corresponding forced configuration in
violations, repairs, and merged work units; only wall-clock cost depends on
it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.detection.maintenance import MAINTENANCE_AUTO, validate_maintenance_mode
from repro.parallel.pool import POOL_THREAD, validate_pool_kind
from repro.relation.columnview import BACKEND_COLUMNAR, validate_backend
from repro.relation.kernels import COLUMN_AUTO, validate_column_backend
from repro.storage.modes import STORAGE_MEMORY, validate_storage_mode

#: ``parallelism="auto"``: the planner picks pool kind / workers / shards per pass.
PARALLELISM_AUTO = "auto"

#: ``batch_strategy`` values for :meth:`repro.api.Session.execute_batch`.
BATCH_SHARED = "shared"
BATCH_SEQUENTIAL = "sequential"
BATCH_AUTO = "auto"
BATCH_STRATEGIES = (BATCH_SHARED, BATCH_SEQUENTIAL, BATCH_AUTO)


def validate_batch_strategy(name: str) -> str:
    if name not in BATCH_STRATEGIES:
        raise ValueError(
            f"unknown batch strategy {name!r}; expected one of {BATCH_STRATEGIES}"
        )
    return name


#: ``diagnostics`` values: runtime validators attached to the engine.
DIAGNOSTICS_NONE = "none"
DIAGNOSTICS_WITNESS = "witness"
DIAGNOSTICS_MODES = (DIAGNOSTICS_NONE, DIAGNOSTICS_WITNESS)


def validate_diagnostics(name: str) -> str:
    if name not in DIAGNOSTICS_MODES:
        raise ValueError(
            f"unknown diagnostics mode {name!r}; expected one of {DIAGNOSTICS_MODES}"
        )
    return name


@dataclass(frozen=True)
class DaisyConfig:
    """Immutable configuration for a :class:`repro.api.Session`.

    Parameters
    ----------
    use_cost_model:
        Enable the Section 5.2.3 strategy switch.  Disabled, the session
        always cleans incrementally ("Daisy w/o cost" in Fig. 7).
    expected_queries:
        The workload-length hint the cost model projects over.
    dc_error_threshold:
        Algorithm 2 threshold for escalating a DC query to full cleaning.
    backend:
        Execution backend for the detection/cleaning hot path:
        ``"columnar"`` (default) or ``"rowstore"`` (the per-Row semantics
        oracle — both return identical results).
    batch_strategy:
        Per-rule-group arbitration inside ``execute_batch``: ``"shared"``
        (default — every rule group runs one shared pass, the pre-adaptive
        behaviour), ``"sequential"`` (every query cleans incrementally on
        its own, order preserved), or ``"auto"`` (the session's
        :class:`~repro.core.AdaptivePlanner` prices "shared pass now"
        against "incremental per query" per rule group from the members'
        scope estimates plus calibrated observed work).  All three are
        byte-identical in query results and repairs and differ only in
        work units; none of them feeds batch queries to the Section 5.2.3
        cost model — the batch's cleaning strategy is the batch's own, and
        rule-group members report zero residual errors, which would only
        skew the model's per-query averages.
    parallelism:
        Worker count for the session's executor pool, or ``"auto"``.  ``1``
        (default) keeps every path on the serial oracle; ``> 1`` fans
        theta-join matrix cells and shard-routed FD relaxation closures out
        over the pool.  ``"auto"`` hands the choice to the adaptive
        planner, which picks serial / thread / process and a worker count
        *per pass* from the pass's estimated work: tiny scopes stay serial,
        full-matrix-scale DC checks escalate to the process pool.  Every
        choice is byte-identical to serial in answers and work-unit totals.
    num_shards:
        Row-range shard count for the per-table shard routers; ``0``
        (default) means "same as the worker count" (fixed mode) or "let the
        planner follow its chosen worker count" (auto mode).
    pool:
        Pool kind for fixed ``parallelism > 1``: ``"thread"`` (default;
        shares engine state directly), ``"process"`` (fork-based workers —
        real CPU scaling for the cell checks, requires a fork-capable
        platform), or ``"serial"``.  Ignored under ``parallelism="auto"``,
        where the planner picks the kind per pass.
    auto_max_workers:
        Worker-count ceiling for ``parallelism="auto"``; ``0`` (default)
        means the host CPU count.  Benchmarks and tests pin it to make
        auto-mode decisions host-independent.
    column_backend:
        Kernel backend for the columnar substrate's index construction,
        grouping, and linear scans: ``"numpy"`` (typed ndarray kernels —
        argsort sorted-index construction, searchsorted join windows,
        boundary-detection grouping, boolean-mask filters), ``"python"``
        (the pure-list semantics oracle, dependency-free), or ``"auto"``
        (default — NumPy from :data:`~repro.relation.kernels.AUTO_MIN_ROWS`
        rows up, resolved once per table; NumPy absent forces
        ``"python"``).  Like ``backend`` this is data-scoped: it is
        baked into each table at registration and a connecting session
        must agree with it.  All choices are byte-identical in violations,
        repairs, relations, sort orders, and work units (see
        ``docs/kernels.md``); only wall-clock cost differs.
    matrix_maintenance:
        How theta-join detection matrices follow external data updates
        (``Daisy.update_table`` / ``update_rows``): ``"auto"`` (default)
        lets the per-batch cost hook pick patch-vs-rebuild, ``"patch"``
        forces positional stripe patching (falling back to a rebuild only
        when the striped-row set itself changes), ``"rebuild"`` re-derives
        every stripe wholesale on each sync — the maintenance oracle.  The
        strategies are byte-identical in structure, checked-cell
        invalidation, violations, repairs, and work units; they differ only
        in maintenance cost.
    storage:
        Where a table's columns live between passes: ``"memory"`` (default
        — fully RAM-resident, the historical behaviour and the parity
        oracle), ``"mmap"`` (columns spill to typed on-disk stripe chunks
        and are memory-mapped back on demand under the
        ``memory_budget_mb`` LRU residency budget), ``"sqlite"`` (stripe
        spill *plus* a SQLite mirror that serves selection filters,
        order-by, and inequality-join candidate windows as indexed range
        scans, returning only candidate position sets), or ``"auto"``
        (resolved once per table: memory while it fits
        ``memory_budget_mb``, else ``"sqlite"`` if it carries a general DC
        and ``"mmap"`` otherwise — see ``docs/cost-model.md``).  Like
        ``backend`` this is data-scoped: baked into each table at
        registration, and a connecting session must agree with it.  All
        modes are byte-identical in violations, repairs, relations, sort
        orders, and work units; only where the bytes live differs.
    memory_budget_mb:
        Resident-column budget (in MiB) for the spill-to-disk modes.  ``0``
        (default) means unlimited; a positive budget makes the stripe
        store's LRU tracker evict least-recently-used loaded columns once
        their estimated bytes exceed it, so relations larger than RAM can
        register, detect, and repair.  Data-scoped alongside ``storage``.
    diagnostics:
        Runtime validators attached while the engine lives: ``"none"``
        (default) or ``"witness"`` — the race witness of
        :mod:`repro.diagnostics.witness`, which instruments every
        ownership-annotated class and records any write that contradicts
        its declared seams.  Diagnostics never change engine results;
        they only observe (the parity suites run byte-identical with the
        witness attached).
    """

    use_cost_model: bool = True
    expected_queries: int = 50
    dc_error_threshold: float = 0.2
    backend: str = BACKEND_COLUMNAR
    batch_strategy: str = BATCH_SHARED
    parallelism: int | str = 1
    num_shards: int = 0
    pool: str = POOL_THREAD
    auto_max_workers: int = 0
    column_backend: str = COLUMN_AUTO
    matrix_maintenance: str = MAINTENANCE_AUTO
    storage: str = STORAGE_MEMORY
    memory_budget_mb: int = 0
    diagnostics: str = DIAGNOSTICS_NONE

    def __post_init__(self) -> None:
        validate_backend(self.backend)
        validate_diagnostics(self.diagnostics)
        validate_column_backend(self.column_backend)
        validate_pool_kind(self.pool)
        validate_maintenance_mode(self.matrix_maintenance)
        validate_batch_strategy(self.batch_strategy)
        validate_storage_mode(self.storage)
        if self.memory_budget_mb < 0:
            raise ValueError("memory_budget_mb must be >= 0")
        if self.expected_queries < 1:
            raise ValueError("expected_queries must be >= 1")
        if not 0.0 <= self.dc_error_threshold <= 1.0:
            raise ValueError("dc_error_threshold must be within [0, 1]")
        if isinstance(self.parallelism, str):
            if self.parallelism != PARALLELISM_AUTO:
                raise ValueError(
                    f"parallelism must be an int >= 1 or {PARALLELISM_AUTO!r}, "
                    f"got {self.parallelism!r}"
                )
        elif self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.num_shards < 0:
            raise ValueError("num_shards must be >= 0")
        if self.auto_max_workers < 0:
            raise ValueError("auto_max_workers must be >= 0")

    @property
    def adaptive_parallelism(self) -> bool:
        """True when the planner picks the execution shape per pass."""
        return self.parallelism == PARALLELISM_AUTO

    def replace(self, **changes: Any) -> "DaisyConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)
