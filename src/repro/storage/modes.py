"""Storage-mode constants shared by the storage layer and the engine API.

Kept in a leaf module (no engine imports) so ``repro.api.config`` and the
storage backends can both import the vocabulary without cycles — the same
layering as ``repro.relation.kernels``' column-backend constants.
"""

from __future__ import annotations

#: Everything stays RAM-resident (the historical behaviour; the oracle).
STORAGE_MEMORY = "memory"
#: Columns spill to on-disk stripe chunks, memory-mapped back on demand
#: under an LRU resident budget.
STORAGE_MMAP = "mmap"
#: Resolve to one of the concrete modes, once per table
#: (:func:`resolve_storage_mode`).
STORAGE_AUTO = "auto"

#: The concrete modes.
STORAGE_MODES = (STORAGE_MEMORY, STORAGE_MMAP)


def validate_storage_mode(name: str) -> str:
    """Validate a ``DaisyConfig.storage`` value (``auto`` allowed)."""
    if name not in STORAGE_MODES and name != STORAGE_AUTO:
        raise ValueError(
            f"unknown storage mode {name!r}; expected one of "
            f"{STORAGE_MODES + (STORAGE_AUTO,)}"
        )
    return name


#: Modeled resident cost of one cell kept in a Python list (list slot +
#: the small-object overhead the LRU budget is protecting against).
CELL_BYTES = 56


def storage_fits_budget(n_rows: int, n_cols: int, memory_budget_mb: int) -> bool:
    """Whether a fully resident table fits the configured budget."""
    if memory_budget_mb <= 0:
        return True
    return n_rows * n_cols * CELL_BYTES <= memory_budget_mb * 1024 * 1024


def resolve_storage_mode(
    mode: str,
    n_rows: int,
    n_cols: int,
    memory_budget_mb: int,
) -> str:
    """Statically resolve ``auto`` to a concrete mode.

    The only resolver of ``storage="auto"``: a table that fits the budget
    stays in memory; one that does not spills to mmap stripes.  Every mode
    is byte-identical in results.
    """
    validate_storage_mode(mode)
    if mode != STORAGE_AUTO:
        return mode
    if storage_fits_budget(n_rows, n_cols, memory_budget_mb):
        return STORAGE_MEMORY
    return STORAGE_MMAP
