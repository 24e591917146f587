"""Storage-backed column provider: a lazy columns dict behind ``ColumnView``.

:class:`StorageColumns` is the seam between the columnar engine and the
storage layer: a ``dict`` subclass that looks exactly like the plain
``{attr: [cells]}`` mapping a :class:`~repro.relation.columnview.ColumnView`
carries, but materializes columns **on first access** from the table's
:class:`~repro.storage.stripestore.StripeStore` and registers them with the
store's LRU residency tracker, which may later evict them (delete the key)
so the next access reloads from disk.  Iteration order is pinned to the
schema order regardless of materialization order, preserving the engine's
dict-insertion-order parity discipline.

:class:`TableStorage` is the per-table facade: it owns the stripe store,
attaches itself to a view by swapping the columns dict and subscribing to
the patch stream, and on every patch — data, repair, *and* resolve
origins alike — rewrites only the touched stripe chunks, bumping the
column generation so stale snapshots are refused rather than served new
bytes.  That keeps spilled state consistent with PR 4's epoch-stamped
patch stream without ever rewriting a whole column.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro._ownership import shared_engine_state
from repro.storage.stripefile import STRIPE_ROWS
from repro.storage.stripestore import StripeStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.relation.columnview import ColumnView, PatchBatch


@shared_engine_state
class StorageColumns(dict):  # type: ignore[type-arg]
    """Lazy ``{attr: [cells]}`` mapping over a :class:`TableStorage`.

    Keys listed in ``order`` exist whether or not they are currently
    materialized; ``__missing__`` loads them from the stripe store pinned
    to the generation recorded at view-creation time, so an evict + reload
    can never time-travel a snapshot across a patch.

    The dict payload itself (materialize / evict) mutates via the dict
    protocol under the serialized storage passes; the two bookkeeping
    attributes below move only when a patched view adopts the mapping.
    """

    MUTATED_UNDER = {
        "order": ("StorageColumns.adopt", "StorageColumns.__setitem__"),
        "generations": ("StorageColumns.adopt",),
    }

    def __init__(
        self,
        provider: "TableStorage",
        order: "tuple[str, ...]",
        generations: dict[str, int],
        seed: "dict[str, list[Any]] | None" = None,
    ) -> None:
        super().__init__()
        self.provider = provider
        self.order = tuple(order)
        self.generations = dict(generations)
        if seed:
            for attr, values in seed.items():
                dict.__setitem__(self, attr, values)

    # -- lazy materialization ------------------------------------------------------

    def __missing__(self, attr: str) -> list[Any]:
        if attr not in self.generations:
            raise KeyError(attr)
        values = self.provider.load_column(attr, self.generations[attr])
        dict.__setitem__(self, attr, values)
        self.provider.note_resident(self, attr, values)
        return values

    def __getitem__(self, attr: str) -> list[Any]:
        if dict.__contains__(self, attr):
            self.provider.touch_resident(self, attr)
            return dict.__getitem__(self, attr)  # type: ignore[no-any-return]
        return self.__missing__(attr)

    def __setitem__(self, attr: str, values: list[Any]) -> None:
        # A direct assignment (a patched column) supersedes whatever the
        # tracker accounted for; the new object is pinned resident until
        # the patch listener re-registers it at its new generation.
        self.provider.forget_resident(self, attr)
        dict.__setitem__(self, attr, values)
        if attr not in self.order:
            self.order = self.order + (attr,)
            self.generations.setdefault(attr, -1)

    def adopt(self, attr: str, values: list[Any], generation: int) -> None:
        """Install a column as the store's current ``generation`` snapshot
        (evictable: the tracker may drop it and ``__missing__`` reload it).
        """
        self.provider.forget_resident(self, attr)
        dict.__setitem__(self, attr, values)
        self.generations[attr] = generation
        self.provider.note_resident(self, attr, values)

    # -- full-mapping façade over the lazy keys ------------------------------------
    # All loadable attrs are "present" whether or not materialized, and
    # iteration follows schema order — the engine's dict-insertion-order
    # parity contract.  (Deliberate LSP bends: views become lists.)

    def __contains__(self, attr: object) -> bool:
        return attr in self.generations

    def __iter__(self) -> Iterator[str]:
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)

    def keys(self) -> "tuple[str, ...]":  # type: ignore[override]
        return self.order

    def values(self) -> "list[list[Any]]":  # type: ignore[override]
        return [self[attr] for attr in self.order]

    def items(self) -> "list[tuple[str, list[Any]]]":  # type: ignore[override]
        return [(attr, self[attr]) for attr in self.order]

    def get(self, attr: str, default: Any = None) -> Any:  # type: ignore[override]
        return self[attr] if attr in self.generations else default

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StorageColumns):
            other = other.materialized()
        if isinstance(other, dict):
            return self.materialized() == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def materialized(self) -> dict[str, list[Any]]:
        """The fully loaded plain-dict twin (schema order)."""
        return {attr: self[attr] for attr in self.order}

    def storage_copy(self) -> "StorageColumns":
        """The storage-aware analogue of ``dict(self.columns)`` for
        :meth:`ColumnView.patched`: shares materialized column objects and
        the provider; unmaterialized attrs stay lazy in the copy.
        """
        seed = {
            attr: dict.__getitem__(self, attr)
            for attr in self.order
            if dict.__contains__(self, attr)
        }
        clone = StorageColumns(self.provider, self.order, self.generations, seed)
        for attr, values in seed.items():
            self.provider.note_resident(clone, attr, values)
        return clone

    def copy(self) -> "StorageColumns":
        return self.storage_copy()

    def __reduce__(self) -> "tuple[Any, ...]":
        # Pickling materializes to a plain dict: the copy gets byte-identical
        # columns without a provider and never touches this table's handles.
        return (dict, (self.materialized(),))


@shared_engine_state
class TableStorage:
    """One table's storage facade over its stripe store.

    Attach/detach swap a view's columns dict and the patch subscription;
    both run inside the serialized per-table passes that build or close
    views.
    """

    MUTATED_UNDER = {
        "attached": (
            "TableStorage.ensure_attached",
            "TableStorage.detach",
            "TableStorage.close",
        ),
        "_unsubscribe": ("TableStorage.ensure_attached", "TableStorage.detach"),
    }

    def __init__(
        self,
        table: str,
        root: Path,
        memory_budget_mb: int = 0,
        chunk_rows: int = STRIPE_ROWS,
    ) -> None:
        self.table = table
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.store = StripeStore(
            self.root / "stripes",
            memory_budget_mb=memory_budget_mb,
            chunk_rows=chunk_rows,
        )
        self.attached = False
        self._unsubscribe: "Any | None" = None

    # -- view attachment -----------------------------------------------------------

    def ensure_attached(self, view: "ColumnView") -> None:
        """Swap ``view.columns`` for a storage-backed dict (idempotent).

        A cold-rebuilt view (row churn) arrives with a plain dict and is
        re-spilled from scratch; a patched descendant already carries a
        :class:`StorageColumns` (via ``storage_copy``) and is left alone.
        """
        if isinstance(view.columns, StorageColumns):
            return
        plain = view.columns
        order = tuple(plain)
        for attr in order:
            self.store.put_column(attr, plain[attr])
        generations = {attr: self.store.generation(attr) for attr in order}
        columns = StorageColumns(self, order, generations)
        for attr in order:
            columns.adopt(attr, plain[attr], generations[attr])
        view.columns = columns
        self._unsubscribe = view.subscribe(self._on_patch)
        self.attached = True

    def _on_patch(self, view: "ColumnView", batch: "PatchBatch") -> None:
        # Every origin — data, repair, resolve — rewrites the touched
        # chunks: a repair that stayed only in RAM would be silently
        # undone by a later evict-then-reload.
        columns = view.columns
        for attr, positions in batch.touched.items():
            column = columns[attr]
            self.store.rewrite_positions(attr, column, list(positions))
            generation = self.store.generation(attr)
            if isinstance(columns, StorageColumns):
                columns.adopt(attr, column, generation)

    def generation_snapshot(self) -> dict[str, int]:
        """Per-attribute stripe generations at this instant, sorted by attr.

        The service tier pins this on snapshot creation: generations only
        ever advance (every rewrite bumps them), so a verify that sees a
        generation *decrease* has caught time-travel — a reader resolving
        against stripes older than its pin.
        """
        return {attr: self.store.generation(attr) for attr in sorted(self.store.attrs())}

    # -- provider protocol (StorageColumns callbacks) ------------------------------

    def load_column(self, attr: str, generation: "int | None") -> list[Any]:
        return self.store.load_column(attr, generation)

    def note_resident(
        self, owner: StorageColumns, attr: str, values: list[Any]
    ) -> None:
        self.store.tracker.note(owner, attr, values, self.store.column_bytes(attr))

    def touch_resident(self, owner: StorageColumns, attr: str) -> None:
        self.store.tracker.touch(owner, attr)

    def forget_resident(self, owner: StorageColumns, attr: str) -> None:
        self.store.tracker.forget(owner, attr)

    # -- lifecycle -----------------------------------------------------------------

    def detach(self, view: "ColumnView | None") -> None:
        """Undo the attachment before the spill files go away.

        Materializes the view's columns back into a plain RAM dict (so
        the table keeps working without the store) and unsubscribes the
        patch listener (so future patches stop writing to disk).
        """
        if view is not None and isinstance(view.columns, StorageColumns):
            if view.columns.provider is self:
                view.columns = view.columns.materialized()
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        self.attached = False

    def open_handle_count(self) -> int:
        return self.store.open_fd_count()

    def close(self) -> None:
        """Release handles and delete every spill file for this table."""
        self.store.close()
        shutil.rmtree(self.root, ignore_errors=True)
        self.attached = False
