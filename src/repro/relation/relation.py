"""The row-store :class:`Relation` with stable tuple identifiers.

A relation is an ordered multiset of rows over a :class:`~repro.relation.schema.Schema`.
Every row carries a stable tuple id (*tid*) that survives selection,
projection and cleaning — tids are the backbone of the lineage/provenance
machinery (Sections 4 and 4.4 of the paper) and of the in-place update that
Daisy applies after each query.

Cells may hold concrete Python values or probabilistic
:class:`~repro.probabilistic.value.PValue` cells; all comparison helpers in
this module use possible-worlds semantics (a predicate holds iff at least one
candidate satisfies it).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro._ownership import shared_engine_state
from repro.errors import SchemaError
from repro.probabilistic.value import PValue, cell_compare, cells_may_equal, plain
from repro.relation.columnview import ColumnView
from repro.relation.schema import Column, ColumnType, Schema


class Row:
    """One tuple of a relation: a tid plus cell values.

    Rows are immutable; updates produce new Row objects (relations replace
    rows wholesale, which keeps update semantics explicit).
    """

    __slots__ = ("tid", "values")

    def __init__(self, tid: int, values: tuple[Any, ...]) -> None:
        self.tid = tid
        self.values = values

    def __getitem__(self, idx: int) -> Any:
        return self.values[idx]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self.tid == other.tid and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.tid, self.values))

    def __repr__(self) -> str:
        return f"Row(tid={self.tid}, {self.values!r})"

    def replace(self, index: int, value: Any) -> "Row":
        """Return a copy of the row with cell ``index`` replaced."""
        vals = list(self.values)
        vals[index] = value
        return Row(self.tid, tuple(vals))


def _aggregate_numeric(func: str, values: Iterable[Any]) -> Any:
    """One aggregate over plain cell values (non-numeric values are skipped,
    mirroring the possible-worlds collapse the paper's aggregation applies)."""
    nums = [
        v for v in values
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    ]
    if not nums:
        return None
    if func == "sum":
        return float(sum(nums))
    if func == "avg":
        return float(sum(nums)) / len(nums)
    if func == "min":
        return float(min(nums))
    if func == "max":
        return float(max(nums))
    raise SchemaError(f"unknown aggregate function {func!r}")


@shared_engine_state
class Relation:
    """An ordered multiset of :class:`Row` objects over a :class:`Schema`.

    Shared via :class:`~repro.core.state.TableState`; cell updates and the
    cached columnar view are rewritten only inside the serialized cleaning
    and update seams, and the engine stamps ``name`` at registration.
    """

    MUTATED_UNDER = {
        "_colview": (
            "Relation.column_view",
            "Relation.apply_delta",
            "Relation.update_cells",
        ),
        "name": ("Daisy.register_table",),
    }

    def __init__(
        self,
        schema: Schema,
        rows: Iterable[Row] | None = None,
        name: str = "",
        validate: bool = False,
    ) -> None:
        self.schema = schema
        self.name = name
        self._rows: list[Row] = list(rows) if rows is not None else []
        #: Cached columnar view (built on demand, patched across updates).
        self._colview: ColumnView | None = None
        if validate:
            for row in self._rows:
                schema.validate_row(row.values)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: Schema | Sequence[Column | tuple[str, ColumnType] | str],
        raw_rows: Iterable[Sequence[Any]],
        name: str = "",
        validate: bool = True,
    ) -> "Relation":
        """Build a relation from raw value sequences, assigning fresh tids."""
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        rows = [Row(tid, tuple(vals)) for tid, vals in enumerate(raw_rows)]
        return cls(schema, rows, name=name, validate=validate)

    def empty_like(self) -> "Relation":
        """An empty relation with the same schema."""
        return Relation(self.schema, [], name=self.name)

    # -- basic accessors ---------------------------------------------------------

    @property
    def rows(self) -> list[Row]:
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __repr__(self) -> str:
        return f"Relation({self.name or '<anon>'}, {len(self)} rows, {self.schema!r})"

    def column_index(self, attr: str) -> int:
        return self.schema.index_of(attr)

    def column_values(self, attr: str) -> list[Any]:
        """All values of one column, in row order (may contain PValues)."""
        idx = self.schema.index_of(attr)
        return [row.values[idx] for row in self._rows]

    def tids(self) -> set[int]:
        return {row.tid for row in self._rows}

    def row_by_tid(self, tid: int) -> Row:
        """Linear-scan tid lookup (use :meth:`tid_index` for bulk access)."""
        for row in self._rows:
            if row.tid == tid:
                return row
        raise KeyError(f"tid {tid} not present in relation {self.name!r}")

    def tid_index(self) -> dict[int, Row]:
        """A tid -> row dictionary (rows are unique per tid)."""
        return {row.tid: row for row in self._rows}

    def column_view(self) -> ColumnView:
        """The (cached) columnar view of this relation.

        Built lazily on first use; :meth:`update_cells` / :meth:`apply_delta`
        carry the cache forward by incremental patching, so the gradual
        cleaning loop never pays a full rebuild.  The view must be treated
        as immutable — mutating ``_rows`` directly invalidates it silently.
        """
        if self._colview is None:
            self._colview = ColumnView.from_relation(self)
        return self._colview

    # -- relational operators ------------------------------------------------------

    def filter(self, predicate: Callable[[Row], bool]) -> "Relation":
        """Select rows satisfying an arbitrary row predicate."""
        return Relation(
            self.schema, [r for r in self._rows if predicate(r)], name=self.name
        )

    def where(self, attr: str, op: str, value: Any) -> "Relation":
        """Select rows where ``attr <op> value`` under possible-worlds semantics."""
        idx = self.schema.index_of(attr)
        return self.filter(lambda row: cell_compare(row.values[idx], op, value))

    def project(self, attrs: Sequence[str]) -> "Relation":
        """Project to ``attrs`` (tids preserved)."""
        indices = [self.schema.index_of(a) for a in attrs]
        schema = self.schema.project(attrs)
        if indices == list(range(len(self.schema))):
            # The identity projection: rows are immutable, so share them.
            return Relation(schema, list(self._rows), name=self.name)
        if len(indices) > 1:
            pick = itemgetter(*indices)
            rows = [Row(r.tid, pick(r.values)) for r in self._rows]
        elif indices:  # itemgetter of one index returns the bare cell
            only = indices[0]
            rows = [Row(r.tid, (r.values[only],)) for r in self._rows]
        else:
            rows = [Row(r.tid, ()) for r in self._rows]
        return Relation(schema, rows, name=self.name)

    def rename(self, mapping: dict[str, str]) -> "Relation":
        return Relation(self.schema.rename(mapping), list(self._rows), name=self.name)

    def prefixed(self, prefix: str) -> "Relation":
        return Relation(self.schema.prefixed(prefix), list(self._rows), name=prefix)

    def union(self, other: "Relation") -> "Relation":
        """Bag union; schemas must match."""
        if self.schema.names != other.schema.names:
            raise SchemaError(
                f"union schema mismatch: {self.schema.names} vs {other.schema.names}"
            )
        return Relation(self.schema, self._rows + other._rows, name=self.name)

    def minus_tids(self, tids: set[int]) -> "Relation":
        """Rows whose tid is not in ``tids``."""
        return Relation(
            self.schema, [r for r in self._rows if r.tid not in tids], name=self.name
        )

    def restrict_tids(self, tids: set[int]) -> "Relation":
        """Rows whose tid is in ``tids``, in this relation's row order.

        An answer under half the table is fetched through the cached view's
        tid -> position map (sorted positions are row order) instead of
        scanning every row; a relation without a view, or whose tids repeat,
        scans.
        """
        view = self._colview
        rows = self._rows
        if (
            view is not None
            and 2 * len(tids) < len(rows)
            and len(view.pos_of_tid) == len(rows)
        ):
            picked = [rows[pos] for pos in view.positions_of(tids)]
        else:
            picked = [r for r in rows if r.tid in tids]
        return Relation(self.schema, picked, name=self.name)

    def distinct_values(self, attr: str) -> set[Any]:
        """Distinct concrete values of a column; PValues contribute candidates."""
        idx = self.schema.index_of(attr)
        out: set[Any] = set()
        for row in self._rows:
            cell = row.values[idx]
            if isinstance(cell, PValue):
                out.update(cell.concrete_values())
            else:
                out.add(cell)
        return out

    def equi_join(
        self,
        other: "Relation",
        left_attr: str,
        right_attr: str,
        left_prefix: str = "",
        right_prefix: str = "",
    ) -> "Relation":
        """Hash equi-join with possible-worlds key semantics.

        Probabilistic join keys match iff candidate sets overlap (Section 4).
        Output rows get fresh tids; callers needing lineage should use
        :func:`repro.probabilistic.lineage.join_with_lineage` instead.
        """
        left = self.prefixed(left_prefix) if left_prefix else self
        right = other.prefixed(right_prefix) if right_prefix else other
        l_attr = f"{left_prefix}.{left_attr}" if left_prefix else left_attr
        r_attr = f"{right_prefix}.{right_attr}" if right_prefix else right_attr
        li = left.schema.index_of(l_attr)
        ri = right.schema.index_of(r_attr)

        # Build hash table on the right side; probabilistic keys are indexed
        # under every candidate value.
        table: dict[Any, list[Row]] = {}
        uncertain_right: list[Row] = []
        for row in right._rows:
            key = row.values[ri]
            if isinstance(key, PValue):
                uncertain_right.append(row)
                for v in key.concrete_values():
                    table.setdefault(v, []).append(row)
            else:
                table.setdefault(key, []).append(row)

        out_schema = left.schema.concat(right.schema)
        out_rows: list[Row] = []
        tid = 0
        seen: set[tuple[int, int]] = set()
        for lrow in left._rows:
            key = lrow.values[li]
            probe_values: Iterable[Any]
            if isinstance(key, PValue):
                probe_values = key.concrete_values()
            else:
                probe_values = (key,)
            matches: list[Row] = []
            for v in probe_values:
                matches.extend(table.get(v, ()))
            # Range candidates on either side require a scan over the
            # uncertain rows (rare path: only after DC repairs).
            if isinstance(key, PValue) and any(
                c.is_range() for c in key.candidates
            ):
                matches.extend(
                    r for r in other._rows if cells_may_equal(key, r.values[ri])
                )
            else:
                for urow in uncertain_right:
                    ukey = urow.values[ri]
                    if any(c.is_range() for c in ukey.candidates) and cells_may_equal(
                        key, ukey
                    ):
                        matches.append(urow)
            for rrow in matches:
                pair = (lrow.tid, rrow.tid)
                if pair in seen:
                    continue
                seen.add(pair)
                out_rows.append(Row(tid, lrow.values + rrow.values))
                tid += 1
        return Relation(out_schema, out_rows, name=f"{left.name}_join_{right.name}")

    def group_by(
        self,
        keys: Sequence[str],
        aggregates: Sequence[tuple[str, str, str]],
        *,
        view: ColumnView | None = None,
        tids: set[int] | None = None,
    ) -> "Relation":
        """Group-by with aggregates.

        ``aggregates`` is a sequence of ``(func, attr, out_name)`` where func
        is one of ``count``, ``sum``, ``avg``, ``min``, ``max``.  Probabilistic
        grouping keys are collapsed to their most probable candidate, and
        probabilistic aggregate inputs to their most probable value — the
        paper pushes cleaning below the aggregation precisely so that the
        aggregate sees (mostly) repaired values.

        Passing ``view`` (this relation's own columnar view) serves grouping
        keys and aggregate inputs from the view's per-attribute arrays and
        its cached group index instead of walking Row objects; ``tids``
        optionally restricts the grouped rows (the executor's filtered
        answer).  Both paths return identical relations.
        """
        if view is not None:
            return self._group_by_columnar(view, keys, aggregates, tids)
        if tids is not None:
            return self.restrict_tids(tids).group_by(keys, aggregates)
        key_idx = [self.schema.index_of(k) for k in keys]
        agg_specs = [
            (func, None if attr == "*" else self.schema.index_of(attr), out)
            for func, attr, out in aggregates
        ]
        groups: dict[tuple[Any, ...], list[Row]] = {}
        order: list[tuple[Any, ...]] = []
        for row in self._rows:
            key = tuple(plain(row.values[i]) for i in key_idx)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)

        out_rows: list[Row] = []
        for tid, key in enumerate(order):
            members = groups[key]
            aggs: list[Any] = []
            for func, idx, _out in agg_specs:
                if func == "count":
                    aggs.append(len(members))
                    continue
                values = (plain(r.values[idx]) for r in members)
                aggs.append(_aggregate_numeric(func, values))
            out_rows.append(Row(tid, key + tuple(aggs)))
        return Relation(
            self._group_by_schema(keys, aggregates), out_rows,
            name=f"{self.name}_grouped",
        )

    def _group_by_schema(
        self,
        keys: Sequence[str],
        aggregates: Sequence[tuple[str, str, str]],
    ) -> Schema:
        out_cols: list[Column] = [self.schema.column(k) for k in keys]
        for func, _attr, out in aggregates:
            ctype = ColumnType.INT if func == "count" else ColumnType.FLOAT
            out_cols.append(Column(out, ctype))
        return Schema(out_cols)

    def _group_by_columnar(
        self,
        view: ColumnView,
        keys: Sequence[str],
        aggregates: Sequence[tuple[str, str, str]],
        tids: set[int] | None,
    ) -> "Relation":
        """Columnar group-by over the view's group index (same output as the
        row path: groups in first-occurrence order, rows in position order)."""
        for k in keys:
            self.schema.index_of(k)  # same unknown-attribute errors as rowstore
        agg_specs = []
        for func, attr, out in aggregates:
            if attr == "*":
                agg_specs.append((func, None, out))
            else:
                self.schema.index_of(attr)
                agg_specs.append((func, view.columns[attr], out))
        order, groups = view.group_index(tuple(keys))

        restrict: set[int] | None = None
        if tids is not None:
            pos_map = view.pos_of_tid
            restrict = {pos_map[t] for t in tids if t in pos_map}
            if len(restrict) == len(view):
                restrict = None
        ordered: list[tuple[tuple[Any, ...], Sequence[int]]]
        if restrict is None:
            ordered = [(key, groups[key]) for key in order]
        else:
            picked = []
            for key in order:
                members = [p for p in groups[key] if p in restrict]
                if members:
                    picked.append((key, members))
            picked.sort(key=lambda kv: kv[1][0])
            ordered = picked

        out_rows: list[Row] = []
        for tid, (key, members) in enumerate(ordered):
            aggs: list[Any] = []
            for func, col, _out in agg_specs:
                if func == "count":
                    aggs.append(len(members))
                    continue
                values = (plain(col[pos]) for pos in members)
                aggs.append(_aggregate_numeric(func, values))
            out_rows.append(Row(tid, key + tuple(aggs)))
        return Relation(
            self._group_by_schema(keys, aggregates), out_rows,
            name=f"{self.name}_grouped",
        )

    # -- updates ---------------------------------------------------------------

    @staticmethod
    def _cell_changed(old_cell: Any, new_cell: Any) -> bool:
        """One changed-cell policy for every diff: ``!=`` with an
        incomparable-means-changed fallback."""
        if new_cell is old_cell:
            return False
        try:
            return bool(new_cell != old_cell)
        except Exception:  # daisylint: disable=DL005
            # Deliberate breadth: user-supplied cell values may raise
            # anything from __eq__; "incomparable means changed" is the
            # documented policy and must not depend on the exception type.
            return True

    def cell_diff(self, delta: dict[int, Row]) -> dict[tuple[int, str], Any]:
        """The ``(tid, attr) -> new cell`` patch a row delta amounts to.

        Only cells that actually changed (per :meth:`_cell_changed`) are
        included — the exact shape :meth:`update_cells` and
        :meth:`ColumnView.patched` consume, and the patch stream the
        incremental maintenance layers subscribe to.  A replacement row
        whose arity does not match the schema raises ``SchemaError`` rather
        than silently truncating the comparison.
        """
        names = self.schema.names
        cell_updates: dict[tuple[int, str], Any] = {}
        for old_row in self._rows:
            new_row = delta.get(old_row.tid)
            if new_row is None or new_row is old_row:
                continue
            if len(new_row.values) != len(names):
                raise SchemaError(
                    f"replacement row for tid {old_row.tid} has arity "
                    f"{len(new_row.values)}, schema has {len(names)}"
                )
            for attr, new_cell, old_cell in zip(
                names, new_row.values, old_row.values
            ):
                if self._cell_changed(old_cell, new_cell):
                    cell_updates[(old_row.tid, attr)] = new_cell
        return cell_updates

    def changed_cells(
        self, updates: dict[tuple[int, str], Any]
    ) -> dict[tuple[int, str], Any]:
        """``updates`` restricted to present tids whose cell really changes.

        The cell-form twin of :meth:`cell_diff` (same comparison policy),
        served from the cached columnar view's positional arrays when one
        exists.
        """
        if self._colview is not None:
            view = self._colview
            pos_map = view.pos_of_tid
            out: dict[tuple[int, str], Any] = {}
            for (tid, attr), value in updates.items():
                self.schema.index_of(attr)  # same SchemaError as the row path
                pos = pos_map.get(tid)
                if pos is None:
                    continue
                if self._cell_changed(view.columns[attr][pos], value):
                    out[(tid, attr)] = value
            return out
        tid_rows = self.tid_index()
        out = {}
        for (tid, attr), value in updates.items():
            idx = self.schema.index_of(attr)
            row = tid_rows.get(tid)
            if row is None:
                continue
            if self._cell_changed(row.values[idx], value):
                out[(tid, attr)] = value
        return out

    def apply_delta(self, delta: dict[int, Row], origin: str = "data") -> "Relation":
        """Replace rows by tid (the paper's in-place dataset update).

        ``delta`` maps tid -> replacement Row (same tid).  Rows absent from
        the delta are kept untouched.  This implements "we isolate the changes
        and apply the delta to the original dataset".  ``origin`` tags the
        patch batch emitted on the cached columnar view's patch stream (see
        :mod:`repro.relation.columnview`).
        """
        if not delta:
            return self
        rows = [delta.get(row.tid, row) for row in self._rows]
        updated = Relation(self.schema, rows, name=self.name)
        if self._colview is not None:
            # Patch the cached columnar view with only the cells the delta
            # actually changed — replacing a whole row must not invalidate
            # the untouched columns' indexes and derived caches.
            updated._colview = self._colview.patched(
                self.cell_diff(delta), origin=origin
            )
        return updated

    def update_rows(self, delta: dict[int, Row], origin: str = "data") -> "Relation":
        """Alias of :meth:`apply_delta` for the external-update API surface."""
        return self.apply_delta(delta, origin=origin)

    def update_cells(
        self, updates: dict[tuple[int, str], Any], origin: str = "data"
    ) -> "Relation":
        """Replace individual cells addressed by (tid, attribute).

        ``origin`` tags the patch batch emitted on the cached columnar
        view's patch stream ("data" for external ground-truth updates,
        "repair"/"resolve" for cleaning-internal rewrites).
        """
        if not updates:
            return self
        by_tid: dict[int, dict[int, Any]] = {}
        for (tid, attr), value in updates.items():
            by_tid.setdefault(tid, {})[self.schema.index_of(attr)] = value
        rows: list[Row] = []
        for row in self._rows:
            cell_map = by_tid.get(row.tid)
            if cell_map is None:
                rows.append(row)
            else:
                vals = list(row.values)
                for idx, value in cell_map.items():
                    vals[idx] = value
                rows.append(Row(row.tid, tuple(vals)))
        updated = Relation(self.schema, rows, name=self.name)
        if self._colview is not None:
            updated._colview = self._colview.patched(updates, origin=origin)
        return updated

    # -- introspection -----------------------------------------------------------

    def probabilistic_cell_count(self) -> int:
        """Number of cells currently holding a PValue (gradual-cleaning gauge)."""
        return sum(
            1 for row in self._rows for cell in row.values if isinstance(cell, PValue)
        )

    def to_plain_rows(self) -> list[tuple[Any, ...]]:
        """Rows with probabilistic cells collapsed to most-probable values."""
        return [tuple(plain(v) for v in row.values) for row in self._rows]
