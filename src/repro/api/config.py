"""Engine configuration for the layered session API.

:class:`DaisyConfig` is the single frozen bundle of knobs the engine used to
take as loose ``Daisy(...)`` keyword arguments.  Freezing the config keeps a
session's behaviour stable for its whole lifetime: two sessions connected
with different configs can run side by side over the same registered tables
without trampling each other's strategy state.

Two knobs accept ``"auto"``: ``column_backend`` and ``storage`` resolve
once per table by a static rule on its size (see ``docs/cost-model.md``).
Every ``auto`` choice is byte-identical to the corresponding forced
configuration in violations, repairs, and work units; only wall-clock cost
depends on it.
Every query runs on one serial execution path.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.relation.columnview import BACKEND_COLUMNAR, validate_backend
from repro.relation.kernels import COLUMN_AUTO, validate_column_backend
from repro.storage.modes import STORAGE_MEMORY, validate_storage_mode

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
    storage:
        Where a table's columns live between passes: ``"memory"`` (default
        — fully RAM-resident, the historical behaviour and the parity
        oracle), ``"mmap"`` (columns spill to typed on-disk stripe chunks
        and are memory-mapped back on demand under the
        ``memory_budget_mb`` LRU residency budget), or ``"auto"``
        (resolved once per table: memory while it fits
        ``memory_budget_mb``, else ``"mmap"`` — see
        ``docs/cost-model.md``).  Like
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
    column_backend: str = COLUMN_AUTO
    storage: str = STORAGE_MEMORY
    memory_budget_mb: int = 0
    diagnostics: str = DIAGNOSTICS_NONE

    def __post_init__(self) -> None:
        validate_backend(self.backend)
        validate_diagnostics(self.diagnostics)
        validate_column_backend(self.column_backend)
        validate_storage_mode(self.storage)
        if self.memory_budget_mb < 0:
            raise ValueError("memory_budget_mb must be >= 0")
        if self.expected_queries < 1:
            raise ValueError("expected_queries must be >= 1")
        if not 0.0 <= self.dc_error_threshold <= 1.0:
            raise ValueError("dc_error_threshold must be within [0, 1]")

    def replace(self, **changes: Any) -> "DaisyConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)
