"""SQLite pushdown backend: filters, order-by, and candidate windows in SQL.

The stripe store answers "give me the column back"; this backend answers
the *bounded* questions without materialising the column at all — the
DMR-XPath window-shrinking move, applied to Daisy's seams:

* **selection filters** (``WHERE attr op constant``) become indexed range
  scans returning only the matching row positions,
* **order-by** (sorted-index construction) becomes ``ORDER BY attr, pos``,
  reproducing the engine's stable ``(value, position)`` sort order,
* **inequality-join candidate windows** (the searchsorted bounds of the
  theta-join's driving predicate) become indexed ``BETWEEN`` scans
  returning candidate position sets.

Parity discipline (the PR 6 kernel-oracle contract): the backend only
serves attributes whose columns are **exactly mirrorable** in SQLite —
single-family ``int``/``float``/``str`` columns, no booleans, no
probabilistic cells, no NaN (SQLite binds NaN as NULL), no out-of-range
integers, and integer order-by additionally requires every value within
2^53 so the float-collapsed oracle sort cannot disagree with SQLite's
exact integer order.  Everything else falls back to the in-memory oracle
path.  Where it does serve, results are *membership- and order-identical*
to the oracle: SQLite's BINARY text collation is UTF-8 memcmp, which
equals Python's code-point order, and int/float cross-type comparisons
are exact in both systems.

The connection is opened lazily per table file and tracked so
``Session.close()`` can release every handle; the database file lives in
the table's spill directory and is deleted with it.
"""

from __future__ import annotations

from types import MappingProxyType

import math
import sqlite3
from pathlib import Path
from typing import Any, Iterable

from repro._ownership import shared_engine_state
from repro.storage.stripefile import (
    KIND_FLOAT64,
    KIND_INT64,
    KIND_STR,
    infer_stripe_kind,
)

#: Integer magnitude bound for order-by pushdown: the theta-join oracle
#: sorts by the float-collapsed value, so SQLite's exact integer order is
#: only guaranteed to agree while every value is exactly representable
#: as a float64 (mirrors ``repro.relation.kernels.MAX_EXACT_FLOAT_INT``).
MAX_EXACT_ORDER_INT = 2 ** 53

_SQL_TYPE = MappingProxyType(
    {KIND_INT64: "INTEGER", KIND_FLOAT64: "REAL", KIND_STR: "TEXT"}
)


def _pushable_kind(values: list[Any]) -> "int | None":
    """The SQLite-mirrorable kind of a column, or None if it declines.

    Stricter than the stripe encoder: float columns containing NaN
    decline (SQLite stores NaN as NULL, which would change membership).
    """
    kind = infer_stripe_kind(values)
    if kind not in _SQL_TYPE:
        return None
    if kind == KIND_FLOAT64 and any(
        v is not None and math.isnan(v) for v in values
    ):
        return None
    if kind == KIND_STR:
        # Lone surrogates cannot bind (sqlite3 encodes UTF-8 strictly).
        try:
            for v in values:
                if v is not None:
                    v.encode("utf-8")
        except UnicodeEncodeError:
            return None
    return kind


def probe_matches_kind(kind: int, value: Any) -> bool:
    """Can ``value`` be pushed as a probe against a ``kind`` column?

    Mirrors the oracle's comparison semantics: numeric probes (bool
    included — Python compares it as an int, SQLite binds it as one)
    compare with numeric columns, strings with text columns, and
    anything else (None, NaN, exotic types) falls back to the oracle.
    """
    if value is None:
        return False
    if isinstance(value, bool):
        return kind in (KIND_INT64, KIND_FLOAT64)
    if isinstance(value, int):
        if kind == KIND_INT64:
            # INTEGER vs INTEGER comparison is exact; the probe just has
            # to fit an int64 to bind at all.
            return -(2 ** 63) <= value < 2 ** 63
        return kind == KIND_FLOAT64 and (
            -MAX_EXACT_ORDER_INT <= value <= MAX_EXACT_ORDER_INT
        )
    if isinstance(value, float):
        return kind in (KIND_INT64, KIND_FLOAT64) and not math.isnan(value)
    if isinstance(value, str):
        return kind == KIND_STR
    return False


_OPS = frozenset(("<", "<=", ">", ">=", "="))


@shared_engine_state
class SqliteBackend:
    """One table's pushdown mirror: ``(pos, c0, c1, …)`` plus indexes.

    The mirror is (re)loaded and patched only inside the serialized
    storage passes; the connection handle opens lazily and is dropped by
    ``release_handles`` between sessions.  ``queries_served`` is an
    introspection tally charged by the pushdown query seams.
    """

    MUTATED_UNDER = {
        "_conn": ("SqliteBackend._connection", "SqliteBackend.release_handles"),
        "_attrs": ("SqliteBackend.load_table", "SqliteBackend.update_rows"),
        "_order_exact": ("SqliteBackend.load_table", "SqliteBackend.update_rows"),
        "_generation": ("SqliteBackend.load_table", "SqliteBackend.update_rows"),
        "_loaded": ("SqliteBackend.load_table",),
        "queries_served": (
            "SqliteBackend.filter_positions",
            "SqliteBackend.range_window",
            "SqliteBackend.sorted_pairs",
        ),
    }

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._conn: sqlite3.Connection | None = None
        #: attr -> (column slot, kind); attrs absent here are not pushable.
        self._attrs: dict[str, tuple[int, int]] = {}
        #: attr -> True when every non-null int is within 2^53 (order-by
        #: pushdown additionally requires it; filters do not).
        self._order_exact: dict[str, bool] = {}
        self._generation: dict[str, int] = {}
        self._loaded = False
        #: Monotonic pushdown counters for introspection/benchmarks.
        self.queries_served = 0

    # -- connection lifecycle ------------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            # check_same_thread=False: the service tier's client workers
            # reach one table's mirror from different threads, strictly
            # serialized by the per-table turnstile (and sqlite3 compiled
            # at threadsafety level "serialized" locks internally anyway).
            # The default same-thread guard would reject that hand-off
            # outright even though accesses never overlap.
            self._conn = sqlite3.connect(
                str(self.path), check_same_thread=False
            )
            self._conn.execute("PRAGMA synchronous = OFF")
            self._conn.execute("PRAGMA journal_mode = MEMORY")
        return self._conn

    def release_handles(self) -> None:
        """Close the connection (reopened lazily on next use)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def open_handle_count(self) -> int:
        return 1 if self._conn is not None else 0

    def close(self) -> None:
        self.release_handles()
        self.path.unlink(missing_ok=True)

    def __getstate__(self) -> dict[str, Any]:
        # A copy reopens its own connection lazily; a live
        # sqlite3.Connection is never pickled.
        state = dict(self.__dict__)
        state["_conn"] = None
        return state

    # -- loading -------------------------------------------------------------------

    def load_table(
        self, columns: dict[str, list[Any]], generation: int = 0
    ) -> list[str]:
        """(Re)mirror the pushable columns; returns the attrs mirrored."""
        conn = self._connection()
        conn.execute("DROP TABLE IF EXISTS t")
        self._attrs.clear()
        self._order_exact.clear()
        specs: list[tuple[str, int, int]] = []
        for slot, (attr, values) in enumerate(columns.items()):
            kind = _pushable_kind(values)
            if kind is None:
                continue
            specs.append((attr, slot, kind))
            self._attrs[attr] = (slot, kind)
            self._order_exact[attr] = kind != KIND_INT64 or all(
                v is None or -MAX_EXACT_ORDER_INT <= v <= MAX_EXACT_ORDER_INT
                for v in values
            )
            self._generation[attr] = generation
        cols_sql = ", ".join(
            f"c{slot} {_SQL_TYPE[kind]}" for _attr, slot, kind in specs
        )
        if not cols_sql:
            self._loaded = True
            conn.commit()
            return []
        conn.execute(f"CREATE TABLE t (pos INTEGER PRIMARY KEY, {cols_sql})")
        n_rows = max(len(columns[attr]) for attr, _slot, _kind in specs)
        col_lists = [columns[attr] for attr, _slot, _kind in specs]
        placeholders = ", ".join(["?"] * (1 + len(specs)))
        conn.executemany(
            f"INSERT INTO t VALUES ({placeholders})",
            (
                (pos, *(col[pos] for col in col_lists))
                for pos in range(n_rows)
            ),
        )
        for _attr, slot, _kind in specs:
            conn.execute(f"CREATE INDEX idx_c{slot} ON t (c{slot}, pos)")
        conn.commit()
        self._loaded = True
        return [attr for attr, _slot, _kind in specs]

    def update_rows(
        self, updates: dict[str, list[tuple[int, Any]]], generation: int
    ) -> None:
        """Apply a patch batch: per attr, ``[(pos, new value), …]``.

        An update that makes an attribute un-mirrorable (a probabilistic
        cell, a family change, NaN) *demotes* the attr — it is dropped
        from the pushdown surface and later served by the oracle.
        """
        if not self._loaded:
            return
        conn = self._connection()
        for attr, cells in updates.items():
            spec = self._attrs.get(attr)
            if spec is None:
                continue
            slot, kind = spec
            demote = any(
                v is not None and _pushable_kind([v]) != kind for _pos, v in cells
            )
            if demote:
                self._attrs.pop(attr, None)
                self._order_exact.pop(attr, None)
                continue
            conn.executemany(
                f"UPDATE t SET c{slot} = ? WHERE pos = ?",
                ((v, pos) for pos, v in cells),
            )
            if kind == KIND_INT64 and self._order_exact.get(attr, False):
                self._order_exact[attr] = all(
                    v is None or -MAX_EXACT_ORDER_INT <= v <= MAX_EXACT_ORDER_INT
                    for _pos, v in cells
                )
            self._generation[attr] = generation
        conn.commit()

    # -- pushdown queries ----------------------------------------------------------

    def pushable(self, attr: str) -> bool:
        return self._loaded and attr in self._attrs

    def filter_positions(
        self, attr: str, op: str, value: Any
    ) -> "list[int] | None":
        """Positions of non-null cells satisfying ``cell op value``.

        ``None`` means "not pushable here" — the caller must run the
        oracle path.  Membership is exactly the oracle's: NULLs never
        match, and cross-type int/float comparisons are exact on both
        sides.
        """
        spec = self._attrs.get(attr)
        if spec is None or not self._loaded or op not in _OPS:
            return None
        slot, kind = spec
        if not probe_matches_kind(kind, value):
            if isinstance(value, (bool, int, float)) and kind in (
                KIND_INT64,
                KIND_FLOAT64,
            ):
                # Numeric probe the mirror cannot push *exactly* (NaN, an
                # int beyond the exactness bound): comparable in Python,
                # so the oracle must decide.
                return None
            if value is None:
                return None  # the oracle's linear-fallback path
            # Cross-family probe: the oracle's TypeError branch yields no
            # concrete matches.
            return []
        try:
            cursor = self._connection().execute(
                f"SELECT pos FROM t WHERE c{slot} {op} ? ORDER BY pos", (value,)
            )
        except (sqlite3.Error, ValueError, OverflowError):
            # Unbindable probe (e.g. a lone-surrogate string): the oracle
            # compares it fine, so decline instead of failing.
            return None
        self.queries_served += 1
        return [row[0] for row in cursor]

    def sorted_pairs(self, attr: str) -> "tuple[list[Any], list[int]] | None":
        """``(values, positions)`` of non-null cells, ordered by
        ``(value, position)`` — the engine's stable sorted-index order.

        ``None`` when the attr is not pushable or (for integer columns)
        contains values beyond 2^53, where SQLite's exact integer order
        could diverge from the oracle's float-collapsed ties.
        """
        spec = self._attrs.get(attr)
        if spec is None or not self._loaded:
            return None
        if not self._order_exact.get(attr, False):
            return None
        slot, _kind = spec
        cursor = self._connection().execute(
            f"SELECT c{slot}, pos FROM t WHERE c{slot} IS NOT NULL "
            f"ORDER BY c{slot}, pos"
        )
        self.queries_served += 1
        values: list[Any] = []
        positions: list[int] = []
        for value, pos in cursor:
            values.append(value)
            positions.append(pos)
        return values, positions

    def range_window(
        self,
        attr: str,
        low: float,
        high: float,
        positions: "Iterable[int] | None" = None,
    ) -> "list[int] | None":
        """Candidate positions with ``low <= value <= high`` (inclusive),
        ordered by ``(value, position)`` — the searchsorted window of the
        theta-join driving predicate as one indexed ``BETWEEN`` scan.

        ``positions`` optionally restricts the scan to a stripe's row
        range (the matrix's pushdown-bounded stripes).
        """
        spec = self._attrs.get(attr)
        if spec is None or not self._loaded:
            return None
        if not self._order_exact.get(attr, False):
            return None
        if (isinstance(low, float) and math.isnan(low)) or (
            isinstance(high, float) and math.isnan(high)
        ):
            return None
        slot, _kind = spec
        sql = f"SELECT pos FROM t WHERE c{slot} BETWEEN ? AND ?"
        params: list[Any] = [low, high]
        if positions is not None:
            pos_list = sorted(positions)
            marks = ", ".join(["?"] * len(pos_list))
            sql += f" AND pos IN ({marks})"
            params.extend(pos_list)
        sql += f" ORDER BY c{slot}, pos"
        cursor = self._connection().execute(sql, params)
        self.queries_served += 1
        return [row[0] for row in cursor]
