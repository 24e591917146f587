"""Columnar execution substrate: typed per-attribute arrays over a relation.

The row-store :class:`~repro.relation.relation.Relation` is the semantics
oracle of the system, but its per-``Row`` hot loops dominate every
detection/cleaning benchmark.  A :class:`ColumnView` materializes one
relation as:

* one raw cell array per attribute (``columns[attr][pos]``),
* a parallel tid array (``tids[pos]``) with a lazy tid -> position map,
* a *PValue sidecar* per attribute — the set of positions currently holding
  a probabilistic cell, so the fast paths can run plain comparisons over
  concrete cells and fall back to possible-worlds ``cell_compare`` only for
  the (few) probabilistic positions,
* lazily built, per-attribute **sorted** and **hash** indexes that turn
  range/equality selections into binary searches and dict lookups,
* a small *derived cache* where higher layers (relaxation, detection) park
  per-attribute-set structures that must die when those attributes change.

Views are immutable by convention and cached on the relation
(:meth:`Relation.column_view`).  When Daisy applies in-place fixes
(``Relation.update_cells`` / ``apply_delta``) the new relation receives a
**patched** view: untouched column arrays and indexes are shared with the
old view, touched columns are copied and re-stamped, and derived caches
mentioning a touched attribute are dropped.  This keeps the columnar
substrate incremental across the gradual-cleaning lifecycle instead of
rebuilding O(n·m) state after every repaired cell.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Collection, Iterable, Sequence

from repro._ownership import immutable_after_init, shared_engine_state
from repro.engine.stats import WorkCounter
from repro.probabilistic.value import PValue, ValueRange, cell_compare, plain
from repro.relation import kernels
from repro.relation.kernels import COLUMN_NUMPY, COLUMN_PYTHON, TypedColumn

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.relation.relation import Relation
    from repro.relation.schema import Schema

logger = logging.getLogger(__name__)

#: Origin tags for the patch stream (see :class:`PatchBatch`).
PATCH_DATA = "data"        # an external update: the ground truth changed
PATCH_REPAIR = "repair"    # a cleaning repair: originals live in provenance
PATCH_RESOLVE = "resolve"  # PValue resolution: probabilistic cells collapsed

#: Supported execution backends for the detection/cleaning hot path.
BACKEND_COLUMNAR = "columnar"
BACKEND_ROWSTORE = "rowstore"
BACKENDS = (BACKEND_COLUMNAR, BACKEND_ROWSTORE)

#: Sentinel marking a column as unsortable (mixed incomparable types).
_UNSORTABLE = object()
#: Sentinel marking a column as unhashable.
_UNHASHABLE = object()
#: Sentinel marking a typed-column cache miss (None is a valid cache value:
#: "this column does not vectorize").
_TYPED_MISSING = object()

_EMPTY_SET: frozenset[int] = frozenset()


def validate_backend(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; expected one of {BACKENDS}")
    return name


class SortedColumn:
    """Concrete non-null values of one column in sorted order.

    ``values[i]`` is the i-th smallest concrete value and ``positions[i]``
    its row position.  Probabilistic and ``None`` cells are excluded — they
    are handled by the caller through the PValue sidecar / null semantics.

    ``exact`` optionally carries the numpy backend's pre-validated
    int64/float64 ndarray of ``values`` (same order), so batch probes via
    ``kernels.search_cuts`` skip values-side re-validation.  It is pure
    cache: semantics are defined by ``values``/``positions`` alone.
    """

    __slots__ = ("values", "positions", "exact")

    def __init__(
        self, values: list[Any], positions: list[int], exact: Any = None
    ) -> None:
        self.values = values
        self.positions = positions
        self.exact = exact

    def range_positions(self, op: str, value: Any) -> list[int]:
        """Positions whose value satisfies ``cell <op> value``.

        Raises ``TypeError`` when ``value`` is not comparable with the
        column (callers treat that as "no concrete match", mirroring
        ``_concrete_satisfies``).  A NaN probe orders against nothing, so
        it matches no position instead of bisecting to an arbitrary cut.
        """
        if value != value:
            return []
        if op == "<":
            return self.positions[: bisect_left(self.values, value)]
        if op == "<=":
            return self.positions[: bisect_right(self.values, value)]
        if op == ">":
            return self.positions[bisect_right(self.values, value):]
        if op == ">=":
            return self.positions[bisect_left(self.values, value):]
        if op == "=":
            lo = bisect_left(self.values, value)
            hi = bisect_right(self.values, value)
            return self.positions[lo:hi]
        raise ValueError(f"unsupported sorted-column operator {op!r}")

    def replaced(
        self, removed: Iterable[tuple[Any, int]], added: Iterable[tuple[Any, int]]
    ) -> "SortedColumn":
        """A copy without the ``removed`` (value, position) pairs and with the
        ``added`` ones slotted in — equal to re-sorting the edited pairs.

        Raises ``TypeError`` when an added value does not order against the
        column.  ``exact`` is not carried over.
        """
        values, positions = list(self.values), list(self.positions)

        def slot(value: Any, pos: int) -> int:
            lo = bisect_left(values, value)
            return bisect_left(positions, pos, lo, bisect_right(values, value, lo))

        for value, pos in removed:
            at = slot(value, pos)
            del values[at], positions[at]
        for value, pos in added:
            at = slot(value, pos)
            values.insert(at, value)
            positions.insert(at, pos)
        return SortedColumn(values, positions)


def _pvalue_bound(cell: PValue) -> tuple[Any, Any] | None:
    """(min, max) candidate points of a probabilistic cell, or None.

    A range candidate contributes its low/high end (±inf when unbounded);
    any-candidate inequality semantics then reduce to one comparison
    against the min (for ``<``/``<=``) or max (for ``>``/``>=``) point.
    ``None`` means the candidates are not mutually comparable, or one of
    their points is NaN (a leading NaN would stay the bound, since nothing
    compares below or above it), and the caller must fall back to the full
    possible-worlds evaluation.
    """
    lo: Any = None
    hi: Any = None
    try:
        for cand in cell.candidates:
            value = cand.value
            if isinstance(value, ValueRange):
                c_lo = -math.inf if value.low is None else value.low
                c_hi = math.inf if value.high is None else value.high
                if c_lo != c_lo or c_hi != c_hi:
                    return None
            elif value is None:
                continue  # a None candidate satisfies no comparison
            elif value != value:
                return None
            else:
                c_lo = c_hi = value
            lo = c_lo if lo is None else min(lo, c_lo)
            hi = c_hi if hi is None else max(hi, c_hi)
    except TypeError:
        return None
    if lo is None:
        return None
    return (lo, hi)


#: A patch touching at most 1/N of a sidecar's cells is slotted into the
#: sorted orders; a larger one re-sorts them.
_BOUNDS_RESORT_FRACTION = 8


@immutable_after_init
class PValueBoundsSidecar:
    """(min, max) candidate points of one attribute's PValues, sorted.

    ``exists candidate: candidate <op> value`` over every probabilistic cell
    of the attribute is one bisection and one slice: ``orders[0]`` holds the
    bounded cells by (min point, position) and serves ``<``/``<=``,
    ``orders[1]`` holds them by (max point, position) and serves ``>``/``>=``.
    Exact or declined: cells with no bound are ``loose`` (the caller runs
    ``cell_compare`` on them), and when the bounds do not sort against each
    other, or the probe is NaN, not an int/float/str, or does not order
    against the bounds, every cell is loose.  Patched positionally when
    cells change (see :meth:`ColumnView.patched`); never written after
    construction.
    """

    __slots__ = ("attr", "bounds", "orders", "loose")

    def __init__(
        self,
        attr: str,
        bounds: dict[int, tuple[Any, Any] | None],
        orders: tuple[SortedColumn, SortedColumn] | None,
        loose: frozenset[int],
    ) -> None:
        self.attr = attr
        self.bounds = bounds
        #: ``(by_lo, by_hi)``; None when the bounds are mutually incomparable.
        self.orders = orders
        self.loose = loose

    @classmethod
    def of_bounds(
        cls, attr: str, bounds: dict[int, tuple[Any, Any] | None]
    ) -> "PValueBoundsSidecar":
        """The sidecar of a position -> bound map, sorting both orders.

        Each order is a stable key sort over ascending positions — the
        (point, position) order without building a tuple per cell.
        """
        loose = frozenset(pos for pos, bound in bounds.items() if bound is None)
        positions = sorted(bounds.keys() - loose)
        orders = []
        for end in (0, 1):
            points = [bounds[pos][end] for pos in positions]  # type: ignore[index]
            try:
                ranks = sorted(range(len(points)), key=points.__getitem__)
            except TypeError:
                return cls(attr, bounds, None, loose)
            orders.append(
                SortedColumn([points[i] for i in ranks], [positions[i] for i in ranks])
            )
        return cls(attr, bounds, (orders[0], orders[1]), loose)

    @classmethod
    def of_view(cls, view: "ColumnView", attr: str) -> "PValueBoundsSidecar":
        column = view.columns[attr]
        return cls.of_bounds(
            attr,
            {pos: _pvalue_bound(column[pos]) for pos in view.pvalue_positions(attr)},
        )

    def select(self, op: str, value: Any) -> tuple[Sequence[int], Collection[int]]:
        """``(hits, loose)`` for ``cell <op> value`` with ``op`` an inequality:
        positions that satisfy it for certain, and positions the caller must
        still evaluate with ``cell_compare``."""
        orders = self.orders
        if orders is None or value != value or not isinstance(value, (int, float, str)):
            return (), self.bounds  # declined: every position is loose
        order = orders[0] if op in ("<", "<=") else orders[1]
        try:
            return order.range_positions(op, value), self.loose
        except TypeError:
            return (), self.bounds

    def patched_for_view(
        self, view: "ColumnView", touched: dict[str, list[int]]
    ) -> "PValueBoundsSidecar":
        """The sidecar after the cells at ``touched[attr]`` (distinct
        positions) changed: small patches slot into the sorted orders,
        large ones — and any patch of a declined sidecar — re-sort."""
        bounds = dict(self.bounds)
        pvals = view.pvalue_positions(self.attr)
        column = view.columns[self.attr]
        positions = touched.get(self.attr, ())
        orders = self.orders
        if (
            orders is None
            or len(positions) * _BOUNDS_RESORT_FRACTION > len(self.bounds)
        ):
            for pos in positions:
                if pos in pvals:
                    bounds[pos] = _pvalue_bound(column[pos])
                else:
                    bounds.pop(pos, None)
            return self.of_bounds(self.attr, bounds)
        loose = set(self.loose)
        removed: list[tuple[int, tuple[Any, Any]]] = []
        added: list[tuple[int, tuple[Any, Any]]] = []
        for pos in positions:
            old = bounds.pop(pos, None)
            if old is not None:
                removed.append((pos, old))
            loose.discard(pos)
            if pos in pvals:
                bounds[pos] = new = _pvalue_bound(column[pos])
                if new is not None:
                    added.append((pos, new))
                else:
                    loose.add(pos)
        try:
            by_lo, by_hi = (
                order.replaced(
                    [(bound[end], pos) for pos, bound in removed],
                    [(bound[end], pos) for pos, bound in added],
                )
                for end, order in enumerate(orders)
            )
        except TypeError:
            # A new bound does not order against the rest: the re-sort declines.
            return self.of_bounds(self.attr, bounds)
        return PValueBoundsSidecar(self.attr, bounds, (by_lo, by_hi), frozenset(loose))


@dataclass(frozen=True)
class PatchBatch:
    """One step of a view's patch stream: what changed between two versions.

    ``updates`` is the exact ``(tid, attr) -> new cell`` map the patch
    applied (absent tids already dropped), ``touched`` the per-attribute row
    positions it rewrote, and ``origin`` one of :data:`PATCH_DATA` /
    :data:`PATCH_REPAIR` / :data:`PATCH_RESOLVE` — consumers that maintain
    derived state over the *ground* data (e.g. incremental theta-join matrix
    maintenance) react to ``data`` batches and ignore repair/resolve
    batches, whose originals the provenance store already tracks.
    """

    base_version: int
    version: int
    origin: str
    updates: dict[tuple[int, str], Any]
    touched: dict[str, tuple[int, ...]]


#: A patch-stream subscriber: called with (new_view, batch) after each patch.
PatchListener = Callable[["ColumnView", PatchBatch], None]


@shared_engine_state
class ColumnView:
    """Columnar snapshot of one relation (see module docstring).

    A view is logically immutable — updates produce a *new* view via
    :meth:`patched` — but it memoizes derived structures (typed columns,
    sort orders, hash indexes, group indexes) on first use and carries the
    patch-subscription list forward.  Those caches and the storage
    attach/detach hooks are the only post-construction writes; all run
    inside serialized per-table passes.
    """

    MUTATED_UNDER = {
        "_typed": ("ColumnView.typed_column", "ColumnView.patched"),
        "_sorted": ("ColumnView.sorted_column", "ColumnView.patched"),
        "_hash": ("ColumnView.hash_column", "ColumnView.patched"),
        "_derived": ("ColumnView.derived", "ColumnView.patched"),
        "_pos_of_tid": ("ColumnView.pos_of_tid", "ColumnView.patched"),
        "_patch_listeners": ("ColumnView.subscribe", "ColumnView.patched"),
        "column_backend": ("ColumnView.patched", "TableState.column_view"),
        "derived_evictions": ("ColumnView.patched",),
        "last_patch": ("ColumnView.patched",),
        # Spill modes move column payloads between memory and disk.
        "columns": ("TableStorage.detach", "TableStorage.ensure_attached"),
    }

    __slots__ = (
        "schema",
        "tids",
        "columns",
        "version",
        "last_patch",
        "derived_evictions",
        "column_backend",
        "_pvalue_positions",
        "_pos_of_tid",
        "_sorted",
        "_hash",
        "_typed",
        "_derived",
        "_patch_listeners",
    )

    def __init__(
        self,
        schema: Schema,
        tids: list[int],
        columns: dict[str, list[Any]],
        pvalue_positions: dict[str, set[int]],
        version: int = 0,
    ) -> None:
        self.schema = schema
        self.tids = tids
        self.columns = columns
        self.version = version
        #: The :class:`PatchBatch` that produced this view from its parent
        #: (None for a cold-built view) — the walkable patch stream.
        self.last_patch: PatchBatch | None = None
        #: Cumulative count of derived payloads evicted (rather than
        #: patched) along this view's patch chain.
        self.derived_evictions: int = 0
        #: Resolved kernel backend for this view's index construction and
        #: linear scans: :data:`~repro.relation.kernels.COLUMN_PYTHON`
        #: (the oracle, default) or
        #: :data:`~repro.relation.kernels.COLUMN_NUMPY` — stamped by the
        #: owning :class:`~repro.core.state.TableState`.  Both produce
        #: byte-identical indexes and selections.
        self.column_backend: str = COLUMN_PYTHON
        self._pvalue_positions = pvalue_positions
        self._pos_of_tid: dict[int, int] | None = None
        self._sorted: dict[str, Any] = {}
        self._hash: dict[str, Any] = {}
        self._typed: dict[str, TypedColumn | None] = {}
        self._derived: dict[Any, tuple[frozenset[str], Any]] = {}
        #: Patch-stream listeners; the *list object* is shared with every
        #: patched descendant, so one subscription observes the whole stream.
        self._patch_listeners: list[PatchListener] = []

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_relation(cls, relation: "Relation") -> "ColumnView":
        names = relation.schema.names
        columns: dict[str, list[Any]] = {name: [] for name in names}
        pvalue_positions: dict[str, set[int]] = {}
        tids: list[int] = []
        col_lists = [columns[name] for name in names]
        for pos, row in enumerate(relation.rows):
            tids.append(row.tid)
            for name, col, cell in zip(names, col_lists, row.values):
                col.append(cell)
                if isinstance(cell, PValue):
                    pvalue_positions.setdefault(name, set()).add(pos)
        return cls(relation.schema, tids, columns, pvalue_positions)

    def __len__(self) -> int:
        return len(self.tids)

    # -- positional accessors -----------------------------------------------------

    @property
    def pos_of_tid(self) -> dict[int, int]:
        if self._pos_of_tid is None:
            self._pos_of_tid = {tid: pos for pos, tid in enumerate(self.tids)}
        return self._pos_of_tid

    def positions_of(self, tids: Iterable[int]) -> list[int]:
        """Sorted row positions of the given tids (absent tids are skipped)."""
        pos_map = self.pos_of_tid
        return sorted(pos_map[t] for t in tids if t in pos_map)

    def pvalue_positions(self, attr: str) -> frozenset[int] | set[int]:
        return self._pvalue_positions.get(attr, _EMPTY_SET)

    def cell(self, attr: str, pos: int) -> Any:
        return self.columns[attr][pos]

    # -- lazy per-attribute indexes -----------------------------------------------

    def typed_column(self, attr: str) -> TypedColumn | None:
        """The ndarray mirror of ``attr`` under the numpy backend.

        ``None`` whenever the column does not vectorize exactly (see
        :func:`repro.relation.kernels.build_typed_column`) or the view
        runs the pure-Python backend — callers then use the oracle path.
        Cached per attribute; patches drop the touched entries.
        """
        if self.column_backend != COLUMN_NUMPY or not kernels.HAVE_NUMPY:
            return None
        cached = self._typed.get(attr, _TYPED_MISSING)
        if cached is not _TYPED_MISSING:
            return cached
        typed = kernels.build_typed_column(
            self.columns[attr], self.pvalue_positions(attr)
        )
        self._typed[attr] = typed
        return typed

    def sorted_column(self, attr: str) -> SortedColumn | None:
        """The sorted concrete values of ``attr`` (None if incomparable)."""
        cached = self._sorted.get(attr)
        if cached is not None:
            return None if cached is _UNSORTABLE else cached
        typed = self.typed_column(attr)
        if typed is not None:
            values, positions, exact = kernels.sorted_pairs(
                typed, self.columns[attr]
            )
            col = SortedColumn(values, positions, exact)
            self._sorted[attr] = col
            return col
        pvals = self.pvalue_positions(attr)
        # ``v == v`` drops NaN cells with the NULLs: they satisfy no ordering
        # comparison and would leave the pair sort without a total order.
        pairs = [
            (v, pos)
            for pos, v in enumerate(self.columns[attr])
            if v is not None and v == v and pos not in pvals
        ]
        try:
            pairs.sort()
        except TypeError:
            self._sorted[attr] = _UNSORTABLE
            return None
        col = SortedColumn([v for v, _ in pairs], [p for _, p in pairs])
        self._sorted[attr] = col
        return col

    def hash_column(self, attr: str) -> dict[Any, list[int]] | None:
        """value -> positions over concrete cells (None if unhashable)."""
        cached = self._hash.get(attr)
        if cached is not None:
            return None if cached is _UNHASHABLE else cached
        typed = self.typed_column(attr)
        if typed is not None:
            table = kernels.hash_groups(typed, self.columns[attr])
            self._hash[attr] = table
            return table
        pvals = self.pvalue_positions(attr)
        table: dict[Any, list[int]] = {}
        try:
            for pos, v in enumerate(self.columns[attr]):
                if v is None or pos in pvals:
                    continue
                table.setdefault(v, []).append(pos)
        except TypeError:
            self._hash[attr] = _UNHASHABLE
            return None
        self._hash[attr] = table
        return table

    def group_index(
        self, keys: tuple[str, ...]
    ) -> tuple[list[tuple[Any, ...]], dict[tuple[Any, ...], list[int]]]:
        """``(order, groups)`` — the grouping index for a key-attribute tuple.

        ``groups`` maps each key tuple (probabilistic cells collapsed to
        their most-probable candidate) to its row positions in ascending
        order; ``order`` lists the keys by first occurrence.  Cached via the
        derived-structure store, so repeated GROUP BY queries over the same
        keys reuse it; a repair touching a key attribute evicts it.  For a
        single concrete key column the index is seeded from the existing
        hash index instead of a fresh scan.
        """
        return self.derived(
            ("group_index", keys), set(keys), lambda: self._build_group_index(keys)
        )

    def _build_group_index(
        self, keys: tuple[str, ...]
    ) -> tuple[list[tuple[Any, ...]], dict[tuple[Any, ...], list[int]]]:
        if not keys:
            # An aggregate without GROUP BY: one group holding every row
            # (none over an empty table, as the row scan below would find).
            everything = list(range(len(self)))
            return ([()], {(): everything}) if everything else ([], {})
        if len(keys) == 1:
            attr = keys[0]
            if not self.pvalue_positions(attr):
                hashed = self.hash_column(attr)
                if hashed is not None and sum(
                    len(p) for p in hashed.values()
                ) == len(self):
                    # No probabilistic and no NULL cells: the hash index is
                    # already the grouping (positions are in scan order).
                    groups = {
                        (value,): positions for value, positions in hashed.items()
                    }
                    order = sorted(groups, key=lambda key: groups[key][0])
                    return order, groups
        typed_cols = [self.typed_column(k) for k in keys]
        if all(t is not None and t.all_valid for t in typed_cols):
            # Fully concrete, exactly-typed key columns: lexsort grouping
            # reproduces the scan's dict-insertion order (groups by first
            # occurrence, positions ascending); key tuples are fetched
            # from the raw columns at each group's first position — the
            # same objects the scan's first-inserted key tuple holds.
            grouped = kernels.grouped_positions(
                [t.values for t in typed_cols],  # type: ignore[union-attr]
                kernels.arange(len(self)),
            )
            if grouped is not None:
                raw_cols = [self.columns[k] for k in keys]
                groups_np: dict[tuple[Any, ...], list[int]] = {}
                order_np: list[tuple[Any, ...]] = []
                for members in grouped:
                    first = members[0]
                    key = tuple(col[first] for col in raw_cols)
                    groups_np[key] = members
                    order_np.append(key)
                return order_np, groups_np
        cols = [self.columns[k] for k in keys]
        groups: dict[tuple[Any, ...], list[int]] = {}
        order: list[tuple[Any, ...]] = []
        for pos in range(len(self)):
            key = tuple(plain(col[pos]) for col in cols)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = bucket = []
                order.append(key)
            bucket.append(pos)
        return order, groups

    # -- filtering ------------------------------------------------------------------

    def filter_positions(
        self, attr: str, op: str, value: Any, counter: WorkCounter | None = None
    ) -> set[int]:
        """Positions whose cell satisfies ``cell <op> value``.

        Exactly equivalent to evaluating
        :func:`repro.probabilistic.value.cell_compare` per cell, but served
        from the sorted/hash indexes for concrete cells; only probabilistic
        positions pay the possible-worlds evaluation.
        """
        out: set[int] = set()
        column = self.columns[attr]
        pvals = self.pvalue_positions(attr)
        served = False

        if value is not None:
            if op in ("<", "<=", ">", ">="):
                sorted_col = self.sorted_column(attr)
                if sorted_col is not None:
                    try:
                        matches = sorted_col.range_positions(op, value)
                    except TypeError:
                        matches = []  # incomparable constant: no concrete match
                    out.update(matches)
                    served = True
            elif op == "=":
                hash_col = self.hash_column(attr)
                if hash_col is not None:
                    try:
                        matches = hash_col.get(value, ())
                    except TypeError:
                        matches = ()
                    out.update(matches)
                    served = True

        if not served:
            # Linear fallback over concrete cells ('!=', unsortable columns…).
            # The numpy backend serves it as one boolean-mask pass when the
            # column and probe vectorize exactly; either way the scan is
            # charged at full column length.
            masked: list[int] | None = None
            typed = self.typed_column(attr)
            if typed is not None:
                masked = kernels.mask_filter_positions(typed, op, value)
            if masked is not None:
                out.update(masked)
            else:
                for pos, cell in enumerate(column):
                    if pos in pvals:
                        continue
                    if cell_compare(cell, op, value):
                        out.add(pos)
            if counter is not None:
                counter.charge_scan(len(column))
        elif counter is not None:
            counter.charge_scan(len(out) + len(pvals))

        if not pvals:
            return out
        loose: Collection[int] = pvals
        if op in ("<", "<=", ">", ">=") and value is not None:
            # One bisection over the sorted bounds sidecar; only the cells it
            # cannot decide exactly pay the possible-worlds evaluation.
            sidecar: PValueBoundsSidecar = self.derived(
                ("pv_bounds", attr), (attr,),
                lambda: PValueBoundsSidecar.of_view(self, attr),
            )
            hits, loose = sidecar.select(op, value)
            out.update(hits)
        for pos in loose:
            if cell_compare(column[pos], op, value):
                out.add(pos)
        return out

    def filter_tids(
        self, attr: str, op: str, value: Any, counter: WorkCounter | None = None
    ) -> set[int]:
        return set(
            map(self.tids.__getitem__, self.filter_positions(attr, op, value, counter))
        )

    # -- derived caches ---------------------------------------------------------------

    def derived(
        self, key: Any, attrs: Iterable[str], build: Callable[[], Any]
    ) -> Any:
        """A cached derived structure keyed by ``key`` over ``attrs``.

        The structure is built once and survives patches that do not touch
        any of ``attrs``.  A patch touching one of them either *patches* the
        payload positionally — when the payload exposes
        ``patched_for_view(new_view, {attr: positions})`` returning a new
        payload — or evicts the entry.
        """
        entry = self._derived.get(key)
        if entry is not None:
            return entry[1]
        payload = build()
        self._derived[key] = (frozenset(attrs), payload)
        return payload

    # -- incremental patching ---------------------------------------------------------

    def subscribe(self, listener: PatchListener) -> Callable[[], None]:
        """Subscribe to this view's patch stream; returns an unsubscriber.

        The listener is called with ``(new_view, batch)`` after every
        subsequent :meth:`patched` call — on this view *or any view patched
        from it* (the listener list is carried across patches), so one
        subscription observes a table's whole update stream.  Listeners must
        not mutate the views they receive.
        """
        self._patch_listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._patch_listeners.remove(listener)
            except ValueError:
                pass

        return unsubscribe

    def patched(
        self, updates: dict[tuple[int, str], Any], origin: str = PATCH_DATA
    ) -> "ColumnView":
        """A new view reflecting cell replacements, sharing untouched state.

        ``updates`` maps (tid, attr) -> new cell — the exact shape of
        ``Relation.update_cells``.  Tids absent from the view are ignored
        (mirroring the row-store behaviour).  Only the touched columns are
        copied; sorted/hash indexes and derived caches survive for columns
        the patch does not mention.  Derived payloads over a touched
        attribute are either patched positionally (when they expose
        ``patched_for_view``) or **explicitly evicted** — counted in
        :attr:`derived_evictions` and logged — never silently dropped.

        ``origin`` tags the emitted :class:`PatchBatch` (see module
        constants); the new view records it as :attr:`last_patch` and every
        subscribed listener is notified.
        """
        by_attr: dict[str, list[tuple[int, Any]]] = {}
        applied: dict[tuple[int, str], Any] = {}
        pos_map = self.pos_of_tid
        for (tid, attr), cell in updates.items():
            pos = pos_map.get(tid)
            if pos is None:
                continue
            by_attr.setdefault(attr, []).append((pos, cell))
            applied[(tid, attr)] = cell
        if not by_attr:
            return self

        # A storage-backed columns dict clones lazily (untouched spilled
        # attrs stay on disk); a plain dict copies as before.
        copier = getattr(self.columns, "storage_copy", None)
        columns = copier() if copier is not None else dict(self.columns)
        pvalue_positions = dict(self._pvalue_positions)
        for attr, cells in by_attr.items():
            col = list(columns[attr])
            pvals = set(pvalue_positions.get(attr, ()))
            for pos, cell in cells:
                col[pos] = cell
                if isinstance(cell, PValue):
                    pvals.add(pos)
                else:
                    pvals.discard(pos)
            columns[attr] = col
            if pvals:
                pvalue_positions[attr] = pvals
            else:
                pvalue_positions.pop(attr, None)

        view = ColumnView(
            self.schema, self.tids, columns, pvalue_positions,
            version=self.version + 1,
        )
        view._pos_of_tid = self._pos_of_tid
        view.derived_evictions = self.derived_evictions
        view.column_backend = self.column_backend
        touched = set(by_attr)
        view._sorted = {
            a: idx for a, idx in self._sorted.items() if a not in touched
        }
        view._hash = {a: idx for a, idx in self._hash.items() if a not in touched}
        view._typed = {a: t for a, t in self._typed.items() if a not in touched}
        touched_positions = {
            attr: [pos for pos, _cell in cells] for attr, cells in by_attr.items()
        }
        for key, (attrs, payload) in self._derived.items():
            if not (attrs & touched):
                view._derived[key] = (attrs, payload)
                continue
            patcher = getattr(payload, "patched_for_view", None)
            if patcher is None:
                # Evict: the payload cannot be patched incrementally.  The
                # next access rebuilds it from the patched view; make the
                # cache miss visible instead of silent.
                view.derived_evictions += 1
                logger.debug(
                    "ColumnView v%d: evicted derived payload %r (attrs %s "
                    "touched by patch)", view.version, key, sorted(attrs & touched),
                )
                continue
            view._derived[key] = (attrs, patcher(view, touched_positions))

        view.last_patch = PatchBatch(
            base_version=self.version,
            version=view.version,
            origin=origin,
            updates=applied,
            touched={
                attr: tuple(positions)
                for attr, positions in touched_positions.items()
            },
        )
        view._patch_listeners = self._patch_listeners
        for listener in list(self._patch_listeners):
            listener(view, view.last_patch)
        return view

    def __repr__(self) -> str:
        return (
            f"ColumnView({len(self.tids)} rows × {len(self.columns)} cols, "
            f"v{self.version})"
        )
