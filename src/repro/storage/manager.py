"""Engine-owned registry of per-table storage, with handle accounting.

One :class:`StorageManager` lives on the :class:`~repro.daisy.Daisy`
engine.  It lazily creates a temp spill root on first use, hands out one
:class:`~repro.storage.provider.TableStorage` per registered table (with
a deterministic ``t<slot>`` directory name — never the raw table name,
never ``hash()``), and is the single place the leak-check fixture goes
to count OS handles.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from repro._ownership import shared_engine_state
from repro.storage.provider import TableStorage
from repro.storage.stripefile import STRIPE_ROWS


@shared_engine_state
class StorageManager:
    """All spilled state of one engine: spill root + per-table storage.

    One per :class:`~repro.daisy.Daisy`; the spill root materializes
    lazily on first use, per-table facades are created under the engine's
    registration/storage seams, and :meth:`close` tears everything down.
    """

    MUTATED_UNDER = {
        "_root": ("StorageManager.root", "StorageManager.close"),
        "_closed": ("StorageManager.root", "StorageManager.close"),
        "_tables": ("StorageManager.table_storage", "StorageManager.close"),
    }

    def __init__(self, chunk_rows: int = STRIPE_ROWS) -> None:
        self._root: Path | None = None
        self._tables: dict[str, TableStorage] = {}
        self._chunk_rows = chunk_rows
        self._closed = False

    @property
    def root(self) -> Path:
        if self._root is None:
            self._root = Path(tempfile.mkdtemp(prefix="daisy-storage-"))
            self._closed = False
        return self._root

    def table_storage(self, table: str, memory_budget_mb: int = 0) -> TableStorage:
        """The (created-on-demand) storage facade for one table."""
        existing = self._tables.get(table)
        if existing is not None:
            return existing
        slot = len(self._tables)
        storage = TableStorage(
            table,
            self.root / f"t{slot}",
            memory_budget_mb=memory_budget_mb,
            chunk_rows=self._chunk_rows,
        )
        self._tables[table] = storage
        return storage

    def get(self, table: str) -> "TableStorage | None":
        return self._tables.get(table)

    def tables(self) -> "list[TableStorage]":
        return list(self._tables.values())

    # -- handle accounting ---------------------------------------------------------

    def open_handle_count(self) -> int:
        """Open fds across all tables (stripe reads are transient, so 0
        between operations)."""
        return sum(s.open_handle_count() for s in self._tables.values())

    def spill_root_exists(self) -> bool:
        return self._root is not None and self._root.exists()

    def close(self) -> None:
        """Release all handles and delete the whole spill root."""
        for storage in self._tables.values():
            storage.close()
        self._tables.clear()
        if self._root is not None:
            shutil.rmtree(self._root, ignore_errors=True)
            self._root = None
        self._closed = True
