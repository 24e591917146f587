"""Mutable per-table cleaning state shared by the cleaning operators.

A :class:`TableState` bundles everything Daisy keeps per registered table:

* the current relation (gradually becoming probabilistic),
* the registered rules,
* the provenance store (original values + per-rule progress),
* precomputed statistics (dirty groups, ε/p estimates),
* one incremental theta-join matrix per general DC,
* the work counter that accumulates this table's cleaning cost.

The theta-join matrices are built once over the original data and keep their
checked-cell bookkeeping across queries; violation detection always reasons
about original values (via provenance), so the matrices stay valid as cells
turn probabilistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.constraints.analysis import rule_attributes
from repro.constraints.dc import DenialConstraint, FunctionalDependency, Rule, as_dc, as_fd
from repro._ownership import session_owned, shared_engine_state
from repro.core.statistics import FdStatistics, TableStatistics, build_fd_statistics
from repro.detection.maintenance import (
    MaintenancePolicy,
    MaintenanceReport,
    sync_matrix,
)
from repro.detection.thetajoin import ThetaJoinMatrix
from repro.engine.stats import WorkCounter
from repro.relation.columnview import (
    BACKEND_COLUMNAR,
    PATCH_DATA,
    ColumnView,
    validate_backend,
)
from repro.relation.kernels import (
    COLUMN_AUTO,
    resolve_column_backend,
    validate_column_backend,
)
from repro.relation.relation import Relation, Row
from repro.repair.provenance import ProvenanceStore
from repro.storage.modes import (
    STORAGE_AUTO,
    STORAGE_MEMORY,
    resolve_storage_mode,
    validate_storage_mode,
)
from repro.storage.provider import TableStorage


#: Pending patch batches tolerated before lagging matrices are force-synced
#: (bounds the patch log on long-running evolving-data engines).
_PATCH_LOG_SOFT_LIMIT = 64

#: Maintenance reports retained for introspection.
_MAINTENANCE_LOG_LIMIT = 256


def rule_key(rule: Rule) -> str:
    """A stable identifier for a rule (its name, else its string form)."""
    return rule.name or str(rule)


@session_owned
@dataclass
class UpdateReport:
    """What one external update (:meth:`TableState.apply_updates`) did."""

    epoch: int = 0
    cells_requested: int = 0
    cells_applied: int = 0
    attrs_touched: set[str] = field(default_factory=set)
    rules_invalidated: list[str] = field(default_factory=list)
    stats_rebuilt: list[str] = field(default_factory=list)
    provenance_forgotten: int = 0


@shared_engine_state
@dataclass
class TableState:
    """All cleaning state for one registered table.

    One TableState serves every session connected to the engine, so every
    mutable attribute declares its synchronization seam below — the only
    functions allowed to write it post-construction.  The service tier
    serializes entry into these seams (single writer per table); daisylint
    DL101 enforces the seams statically and the race witness
    (``diagnostics="witness"``) validates them at runtime.
    """

    MUTATED_UNDER = {
        "relation": ("TableState.replace_relation",),
        "matrices": ("TableState.add_rule", "TableState.matrix_for"),
        "matrix_epochs": (
            "TableState.add_rule",
            "TableState.matrix_for",
            "TableState._sync_matrix",
        ),
        "maintenance_log": ("TableState._sync_matrix",),
        "patch_log": ("TableState.apply_updates", "TableState._trim_patch_log"),
        "data_epoch": ("TableState.apply_updates",),
        "write_in_progress": ("TableState.apply_updates",),
        # ``seen_for`` hands out the live set (a declared mutating
        # accessor), so its callers are part of the seam.
        "seen_tids": (
            "TableState.mark_seen",
            "_clean_sigma_fd",
        ),
        "fully_cleaned_rules": (
            "TableState.mark_fully_cleaned",
            "TableState.apply_updates",
        ),
        "column_backend": ("TableState.resolved_column_backend",),
        "storage": ("TableState.resolved_storage",),
        "storage_provider": ("TableState._ensure_storage", "Daisy.close"),
        "rules": ("TableState.add_rule",),
        "statistics": ("TableState.add_rule",),
        "provenance": ("TableState.apply_updates",),
    }
    #: ``seen_for`` hands back the live per-rule seen-tid set; callers
    #: mutate ``seen_tids`` through that alias.
    MUTATING_ACCESSORS = {"seen_for": "seen_tids"}

    relation: Relation
    rules: list[Rule] = field(default_factory=list)
    provenance: ProvenanceStore = field(default_factory=ProvenanceStore)
    statistics: TableStatistics = field(default_factory=TableStatistics)
    counter: WorkCounter = field(default_factory=WorkCounter)
    matrices: dict[str, ThetaJoinMatrix] = field(default_factory=dict)
    fully_cleaned_rules: set[str] = field(default_factory=set)
    sqrt_partitions: int = 8
    #: Per-rule tuples already processed (answers + relaxation extras) —
    #: the incremental-cost memory of Section 5.2.2 (n − Σ q_j).
    seen_tids: dict[str, set[int]] = field(default_factory=dict)
    #: Execution backend for the detection/cleaning hot path ("columnar"
    #: by default; "rowstore" is the per-Row semantics oracle).
    backend: str = BACKEND_COLUMNAR
    #: Kernel backend for columnar index construction / grouping / scans:
    #: "numpy", "python", or "auto" (replaced by a concrete choice on first
    #: use, see :meth:`resolved_column_backend`).  Data-scoped like
    #: :attr:`backend`; every choice is byte-identical in results.
    column_backend: str = COLUMN_AUTO
    #: Patch-vs-rebuild policy for incremental matrix maintenance.
    maintenance: MaintenancePolicy = field(default_factory=MaintenancePolicy)
    #: Storage mode for this table's columns: "memory" (default), "mmap",
    #: or "auto" (replaced by a concrete mode on first use, see
    #: :meth:`resolved_storage`).  Data-scoped like :attr:`backend`; every
    #: mode is byte-identical in results.
    storage: str = STORAGE_MEMORY
    #: Resident-column budget (MiB) for the spill modes; 0 = unlimited.
    memory_budget_mb: int = 0
    #: Factory for this table's :class:`~repro.storage.provider.TableStorage`
    #: (wired by the engine at registration; None = in-memory only).
    storage_factory: "Any | None" = None
    #: The attached per-table storage facade (created lazily on the first
    #: columnar view built under a spill mode).
    storage_provider: "TableStorage | None" = None
    #: Data epoch: bumped by every external update batch that changed a
    #: cell.  Mirrors the session plan cache's registration epoch, but for
    #: *data* — plans survive data updates, matrices and statistics do not.
    data_epoch: int = 0
    #: The table's pending patch stream: (epoch, applied updates) batches,
    #: trimmed once every matrix has synced past them.
    patch_log: list[tuple[int, dict[tuple[int, str], Any]]] = field(
        default_factory=list
    )
    #: Per-matrix synced data epoch (key: rule key).
    matrix_epochs: dict[str, int] = field(default_factory=dict)
    #: Maintenance actions taken so far (patch/rebuild decisions + stats).
    maintenance_log: list[MaintenanceReport] = field(default_factory=list)
    #: True while :meth:`apply_updates` is mid-flight: the relation / epoch /
    #: patch-log writes of one update batch are not yet all visible.  The
    #: service tier's snapshot pins (:mod:`repro.service.snapshot`) refuse to
    #: pin — and fail verification — while this is set, turning a torn read
    #: (a reader racing into the middle of an update) into a hard
    #: ``SnapshotViolation`` instead of silently inconsistent answers.
    write_in_progress: bool = False

    def __post_init__(self) -> None:
        validate_backend(self.backend)
        validate_column_backend(self.column_backend)
        validate_storage_mode(self.storage)

    def resolved_column_backend(self) -> str:
        """The concrete kernel backend ("numpy" or "python") for this table.

        ``auto`` resolves on the row count at first use and the table keeps
        that answer — an index must not change substrate because the row
        count crosses the threshold later.  ``numpy`` degrades to
        ``python`` when NumPy is absent.
        """
        if self.column_backend == COLUMN_AUTO:
            self.column_backend = resolve_column_backend(
                COLUMN_AUTO, len(self.relation.rows)
            )
        return resolve_column_backend(self.column_backend)

    def resolved_storage(self) -> str:
        """The concrete storage mode for this table.

        ``auto`` resolves on the table's size and budget at first use and
        the table keeps that answer — a spilled table must not move back to
        memory because its row count changes later.
        """
        if self.storage == STORAGE_AUTO:
            self.storage = resolve_storage_mode(
                STORAGE_AUTO,
                len(self.relation.rows),
                len(self.relation.schema.names),
                self.memory_budget_mb,
            )
        return self.storage

    def column_view(self) -> ColumnView | None:
        """The relation's columnar view, or None on the row-store backend."""
        if self.backend != BACKEND_COLUMNAR:
            return None
        view = self.relation.column_view()
        view.column_backend = self.resolved_column_backend()
        self._ensure_storage(view)
        return view

    def _ensure_storage(self, view: ColumnView) -> None:
        """Attach the stripe spill storage to a view (spill modes only).

        Lazy and idempotent: the facade is created on the first columnar
        view built under a spill mode, re-attaches after a cold rebuild
        (row churn produces a plain-dict view), and leaves patched
        descendants — which already carry storage-backed columns — alone.
        """
        if self.resolved_storage() == STORAGE_MEMORY or self.storage_factory is None:
            return
        if self.storage_provider is None:
            self.storage_provider = self.storage_factory()
        self.storage_provider.ensure_attached(view)

    # -- rule management -----------------------------------------------------------

    def add_rule(self, rule: Rule, precompute: bool = True) -> None:
        """Register a rule; optionally precompute its statistics/matrix."""
        self.rules.append(rule)
        if not precompute:
            return
        fd = as_fd(rule)
        if fd is not None:
            stats = build_fd_statistics(self.relation, fd, counter=self.counter)
            self.statistics.add(rule_key(rule), stats)
        else:
            dc = as_dc(rule)
            self.column_view()  # build (and spill) the view at registration
            self.matrices[rule_key(rule)] = ThetaJoinMatrix(
                self.relation, dc, sqrt_p=self.sqrt_partitions,
                counter=self.counter, backend=self.backend,
                column_backend=self.resolved_column_backend(),
            )
            self.matrix_epochs[rule_key(rule)] = self.data_epoch

    def fd_rules(self) -> list[FunctionalDependency]:
        return [fd for rule in self.rules if (fd := as_fd(rule)) is not None]

    def dc_rules(self) -> list[DenialConstraint]:
        return [as_dc(rule) for rule in self.rules if as_fd(rule) is None]

    def fd_stats(self, rule: Rule) -> FdStatistics | None:
        return self.statistics.get(rule_key(rule))

    def matrix_for(self, dc: DenialConstraint) -> ThetaJoinMatrix:
        """The (lazily built, lazily synced) matrix of one DC.

        A matrix built before external updates is brought up to date here by
        replaying the coalesced pending patch batches through
        :func:`repro.detection.maintenance.sync_matrix` — the patch-vs-
        rebuild decision and its outcome land in :attr:`maintenance_log`.
        """
        key = rule_key(dc)
        matrix = self.matrices.get(key)
        if matrix is None:
            self.column_view()  # the matrix's table keeps a built, attached view
            matrix = ThetaJoinMatrix(
                self.relation, dc, sqrt_p=self.sqrt_partitions,
                counter=self.counter, backend=self.backend,
                column_backend=self.resolved_column_backend(),
            )
            self.matrices[key] = matrix
            self.matrix_epochs[key] = self.data_epoch
            return matrix
        self._sync_matrix(key, matrix)
        return matrix

    def _sync_matrix(self, key: str, matrix: ThetaJoinMatrix) -> None:
        synced = self.matrix_epochs.get(key, 0)
        if synced >= self.data_epoch:
            return
        merged: dict[tuple[int, str], Any] = {}
        for epoch, updates in self.patch_log:
            if epoch > synced:
                merged.update(updates)
        report = sync_matrix(matrix, merged, policy=self.maintenance)
        report.rule = key
        report.epoch = self.data_epoch
        self.matrix_epochs[key] = self.data_epoch
        self.maintenance_log.append(report)
        if len(self.maintenance_log) > _MAINTENANCE_LOG_LIMIT:
            del self.maintenance_log[:-_MAINTENANCE_LOG_LIMIT]
        self._trim_patch_log()

    def _trim_patch_log(self) -> None:
        """Drop patch batches every existing matrix has synced past."""
        if not self.patch_log:
            return
        if not self.matrices:
            self.patch_log.clear()
            return
        floor = min(self.matrix_epochs.get(k, 0) for k in self.matrices)
        self.patch_log = [e for e in self.patch_log if e[0] > floor]

    def seen_for(self, rule: Rule) -> set[int]:
        """Tuples already processed by ``rule`` in earlier queries."""
        return self.seen_tids.setdefault(rule_key(rule), set())

    def mark_seen(self, rule: Rule, tids: set[int]) -> None:
        self.seen_tids.setdefault(rule_key(rule), set()).update(tids)

    def is_fully_cleaned(self, rule: Rule) -> bool:
        return rule_key(rule) in self.fully_cleaned_rules

    def mark_fully_cleaned(self, rule: Rule) -> None:
        self.fully_cleaned_rules.add(rule_key(rule))

    # -- updates ---------------------------------------------------------------------

    def replace_relation(self, relation: Relation) -> None:
        """Install an updated relation (after applying a repair delta)."""
        self.relation = relation

    def apply_updates(
        self, updates: dict[tuple[int, str], Any]
    ) -> UpdateReport:
        """Apply an *external* cell-update batch (the data itself evolved).

        Unlike the repair path — whose rewrites keep the matrices valid via
        provenance — an external update changes ground truth, so every
        cache derived from the old values must be patched or invalidated:

        * the relation (and its columnar view, patched positionally) is
          replaced; the applied batch is emitted on the view's patch stream
          (:meth:`ColumnView.subscribe` observers see an origin-tagged
          :class:`PatchBatch`) and appended to :attr:`patch_log` under a
          fresh :attr:`data_epoch`;
        * theta-join matrices sync lazily on next :meth:`matrix_for` —
          re-sorting only touched stripes and invalidating only affected
          cells (or rebuilding, per the maintenance policy);
        * FD statistics of rules mentioning a touched attribute are rebuilt
          and those rules lose their fully-cleaned flag, their checked-group
          marks, and the touched tids from their seen sets;
        * provenance originals of the updated cells are forgotten (the new
          cell is the new ground truth).

        Updates addressing absent tids are ignored, mirroring
        ``Relation.update_cells``.
        """
        report = UpdateReport(
            epoch=self.data_epoch, cells_requested=len(updates)
        )
        if not updates:
            return report

        # Drop updates that do not change the cell (same-value re-sends are
        # common in idempotent upsert streams) and updates addressing absent
        # tids — mirroring Relation.cell_diff, so the cell form and the row
        # form (:meth:`apply_row_updates`) invalidate identically.  One
        # exception: an update to a *repaired* cell always applies, even
        # when it re-sends the current value — the external source is
        # confirming the repair as ground truth, which must still forget
        # the (now obsolete) provenance original and advance the matrices'
        # source snapshots.
        applied = self.relation.changed_cells(updates)
        present = (
            self.relation._colview.pos_of_tid
            if self.relation._colview is not None
            else self.relation.tid_index()
        )
        for (tid, attr), value in updates.items():
            key = (tid, attr)
            if key not in applied and tid in present and (
                self.provenance.is_repaired(tid, attr)
            ):
                applied[key] = value
        if not applied:
            return report

        # The mutating tail below replaces the relation, bumps the epoch,
        # appends to the patch log and invalidates derived state — several
        # writes a concurrent reader must see all-or-nothing.  The marker
        # lets snapshot pins detect (and refuse) a torn read of the middle.
        self.write_in_progress = True
        try:
            # Columnar backend: make sure the view exists *before* the update
            # so update_cells patches it positionally (preserving shared
            # indexes) and the patch batch is emitted for stream subscribers.
            self.column_view()
            updated = self.relation.update_cells(applied, origin=PATCH_DATA)
            self.replace_relation(updated)
            report.cells_applied = len(applied)

            self.data_epoch += 1
            report.epoch = self.data_epoch
            self.patch_log.append((self.data_epoch, applied))
            if len(self.patch_log) > _PATCH_LOG_SOFT_LIMIT:
                # A matrix nobody queries anymore would pin the log forever;
                # sync every matrix now so the log trims back to empty.
                for key, matrix in self.matrices.items():
                    self._sync_matrix(key, matrix)
            report.attrs_touched = {attr for (_tid, attr) in applied}

            for tid, attr in applied:
                if self.provenance.is_repaired(tid, attr):
                    self.provenance.forget_cell(tid, attr)
                    report.provenance_forgotten += 1

            for rule in self.rules:
                attrs = rule_attributes(rule)
                if not (attrs & report.attrs_touched):
                    continue
                key = rule_key(rule)
                report.rules_invalidated.append(key)
                touched_tids = {
                    tid for (tid, attr) in applied if attr in attrs
                }
                seen = self.seen_tids.get(key)
                if seen:
                    seen -= touched_tids
                self.fully_cleaned_rules.discard(key)
                # Conservative: checked-group marks may cover groups the
                # update rewired; forget them all rather than track keys.
                self.provenance.reset_rule(key)
                fd = as_fd(rule)
                if fd is not None:
                    self.statistics.add(
                        key,
                        build_fd_statistics(updated, fd, counter=self.counter),
                    )
                    report.stats_rebuilt.append(key)
            self._trim_patch_log()
        finally:
            self.write_in_progress = False
        return report

    def apply_row_updates(self, delta: dict[int, Row]) -> UpdateReport:
        """Apply an external row-replacement batch (``tid -> new Row``).

        Reduced to the cell diff the delta amounts to, then handled exactly
        like :meth:`apply_updates` — the patch stream always carries
        ``(tid, attr) -> value`` batches.  A replacement row asserts *every*
        cell as ground truth, so repaired cells it merely confirms are kept
        in the batch even though their value matches — the cell form and
        the row form must invalidate identically (apply_updates has the
        same repaired-cell exception for the cell form).
        """
        updates = self.relation.cell_diff(delta)
        names = self.relation.schema.names
        for tid, row in delta.items():
            if len(row.values) != len(names):
                continue  # absent tid with malformed row: cell_diff skipped it
            for attr, value in zip(names, row.values):
                key = (tid, attr)
                if key not in updates and self.provenance.is_repaired(tid, attr):
                    updates[key] = value
        return self.apply_updates(updates)

    def probabilistic_cells(self) -> int:
        return self.relation.probabilistic_cell_count()
