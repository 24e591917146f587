"""Matrix-partitioned theta-join for general denial constraints.

Section 4.2: detecting DC violations requires a self theta-join.  Following
Okcan & Riedewald, the cartesian product is mapped to a matrix whose axes are
the dataset sorted/partitioned by a numeric attribute; the matrix is split
into p partitions (cells) and only cells whose boundary ranges can produce
violations are checked.  Symmetric cells below the diagonal are pruned.

Daisy's *partial* theta-join adds two refinements:

* **Incremental checking** — the matrix remembers which cells have been
  checked for a rule; a query only checks the cells that involve its result
  rows and the still-unseen part of the dataset.
* **Intra-partition pruning** — within a cell, rows of one side that cannot
  satisfy an inequality against the other side's boundary are skipped
  (Example 4: vertical range (1000,1750) shrinks to (1500,1750) for a ``<``
  check against horizontal range (1500,1750)).

The matrix is keyed by a primary attribute (the attribute of the first
inequality predicate); per-cell bounding boxes are kept for every attribute
the DC mentions so cell-level pruning can reject cells for any predicate.

Two execution backends share the matrix/pruning machinery:

* ``rowstore`` — the original nested loop over ``Row`` pairs (kept as the
  semantics oracle);
* ``columnar`` (default) — per-stripe typed value arrays plus a
  **sort-based inequality join**: one stripe is sorted by the driving
  predicate's attribute and each probe row binary-searches the qualifying
  range instead of scanning the whole stripe.  Probabilistic cells are
  routed through the full possible-worlds evaluation, so both backends
  return identical violation lists.

Cells are independent work units: :meth:`ThetaJoinMatrix._check_cell` is
side-effect-free apart from charging the matrix's work counter, and each
cell's violations come back in canonical (t1, t2) order, so
:meth:`ThetaJoinMatrix.check_cells` returns the cells' lists concatenated
in cell order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro._ownership import shared_engine_state
from repro.constraints.dc import DenialConstraint
from repro.constraints.predicate import Predicate
from repro.engine.stats import GLOBAL_COUNTER, WorkCounter
from repro.errors import ConstraintError
from repro.probabilistic.value import PValue, plain
from repro.relation import kernels
from repro.relation.columnview import (
    BACKEND_COLUMNAR,
    SortedColumn,
    validate_backend,
)
from repro.relation.kernels import COLUMN_NUMPY, COLUMN_PYTHON
from repro.relation.relation import Relation, Row


@dataclass(frozen=True)
class BoundingBox:
    """Per-attribute [min, max] summary of one matrix stripe."""

    bounds: tuple[tuple[str, float, float], ...]

    def range_of(self, attr: str) -> tuple[float, float]:
        for name, lo, hi in self.bounds:
            if name == attr:
                return lo, hi
        raise KeyError(attr)


def _numeric(cell: Any) -> float | None:
    value = plain(cell)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _stripe_bbox(rows: Sequence[Row], attrs: Sequence[str], indexes: dict[str, int]) -> BoundingBox:
    bounds = []
    for attr in attrs:
        values = [v for v in (_numeric(r.values[indexes[attr]]) for r in rows) if v is not None]
        if values:
            bounds.append((attr, min(values), max(values)))
        else:
            bounds.append((attr, math.inf, -math.inf))
    return BoundingBox(tuple(bounds))


def _cell_may_violate(pred: Predicate, box_i: BoundingBox, box_j: BoundingBox) -> bool:
    """Can *some* pair (t1 from stripe i, t2 from stripe j) satisfy ``pred``?

    Only two-tuple predicates prune at cell level; constant/single-tuple
    predicates are handled per row.
    """
    if pred.is_constant() or pred.is_single_tuple():
        return True
    try:
        lo1, hi1 = box_i.range_of(pred.left_attr)
        lo2, hi2 = box_j.range_of(pred.right_attr)  # type: ignore[arg-type]
    except KeyError:
        return True
    if lo1 is math.inf or lo2 is math.inf:
        return False  # empty stripe
    if pred.op == "<":
        return lo1 < hi2
    if pred.op == "<=":
        return lo1 <= hi2
    if pred.op == ">":
        return hi1 > lo2
    if pred.op == ">=":
        return hi1 >= lo2
    if pred.op == "=":
        return not (hi1 < lo2 or hi2 < lo1)
    return True  # '!=' prunes nothing at box level


def _row_may_qualify(
    pred: Predicate, value: float | None, other_box: BoundingBox, left_side: bool
) -> bool:
    """Intra-partition pruning: can this row satisfy ``pred`` against any row
    of the opposite stripe (summarized by its bounding box)?"""
    if value is None:
        return False
    attr = pred.right_attr if left_side else pred.left_attr
    try:
        lo, hi = other_box.range_of(attr)  # type: ignore[arg-type]
    except KeyError:
        return True
    if lo is math.inf:
        return False
    op = pred.op if left_side else _mirror(pred.op)
    if op == "<":
        return value < hi
    if op == "<=":
        return value <= hi
    if op == ">":
        return value > lo
    if op == ">=":
        return value >= lo
    if op == "=":
        return lo <= value <= hi
    return True


def _mirror(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}[op]


@dataclass
class ViolationPair:
    """One DC violation: the ordered (t1, t2) tids satisfying all predicates."""

    t1: int
    t2: int


def _canonical_cell_order(pairs: list[ViolationPair]) -> list[ViolationPair]:
    """One cell's violations in canonical form: stable (t1, t2) sort + dedup.

    Every ordered pair belongs to exactly one cell, so per-cell canonical
    order plus deterministic cell order yields one total violation order —
    serial and fanned-out checks can be compared with plain list equality.
    """
    pairs.sort(key=lambda v: (v.t1, v.t2))
    if len(pairs) < 2:
        return pairs
    out = [pairs[0]]
    for pair in pairs[1:]:
        last = out[-1]
        if pair.t1 != last.t1 or pair.t2 != last.t2:
            out.append(pair)
    return out


@shared_engine_state
class _StripeColumns:
    """Columnar mirror of one matrix stripe.

    Per constraint attribute: the plain-collapsed numeric value of every
    stripe row (``numeric[attr][k]``, same values the bounding boxes and
    intra-partition pruning reason about), the in-stripe positions holding a
    probabilistic cell (``uncertain[attr]``), and a lazily built sort order
    of the concrete rows (``sorted_by(attr)``) that drives the sort-based
    inequality join.
    """

    __slots__ = ("rows", "numeric", "raw", "uncertain", "column_backend",
                 "_sorted", "_numeric_arrays", "_typed")

    #: Lazy caches: filled on first demand, dropped by ``invalidate`` when a
    #: patch rewrites the stripe — both only ever run inside matrix
    #: maintenance/check passes, which the service tier serializes per table.
    MUTATED_UNDER = {
        "_sorted": ("_StripeColumns.sorted_by", "_StripeColumns.invalidate"),
        "_numeric_arrays": (
            "_StripeColumns.numeric_array",
            "_StripeColumns.invalidate",
        ),
        "_typed": ("_StripeColumns.typed_column", "_StripeColumns.invalidate"),
    }

    def __init__(
        self,
        rows: Sequence[Row],
        attrs: Sequence[str],
        indexes: dict[str, int],
        column_backend: str = COLUMN_PYTHON,
    ) -> None:
        self.rows = rows
        self.numeric: dict[str, list[float | None]] = {}
        self.raw: dict[str, list[Any]] = {}
        self.uncertain: dict[str, frozenset[int]] = {}
        self.column_backend = column_backend
        self._sorted: dict[str, SortedColumn] = {}
        #: Lazy float64 mirror of ``numeric`` (None -> NaN) the vectorized
        #: intra-partition pruning scans; invalidated with the sort cache
        #: whenever the maintenance layer patches stripe content.
        self._numeric_arrays: dict[str, Any] = {}
        #: Lazy exact typed mirror of ``raw`` (``None`` = does not
        #: vectorize) the batched residual verification compares.
        self._typed: dict[str, kernels.TypedColumn | None] = {}
        for attr in attrs:
            idx = indexes[attr]
            cells = [row.values[idx] for row in rows]
            self.raw[attr] = cells
            self.numeric[attr] = [_numeric(c) for c in cells]
            self.uncertain[attr] = frozenset(
                k for k, c in enumerate(cells) if isinstance(c, PValue)
            )

    def invalidate(self, attr: str) -> None:
        """Drop the lazy caches of one attribute after an in-place patch."""
        self._sorted.pop(attr, None)
        self._numeric_arrays.pop(attr, None)
        self._typed.pop(attr, None)

    def numeric_array(self, attr: str) -> Any:
        """``numeric[attr]`` as a NaN-padded float64 ndarray (numpy backend)."""
        arr = self._numeric_arrays.get(attr)
        if arr is None:
            arr = kernels.numeric_array(self.numeric[attr])
            self._numeric_arrays[attr] = arr
        return arr

    def typed_column(self, attr: str) -> kernels.TypedColumn | None:
        """``raw[attr]`` as an exact typed ndarray with ``None`` and
        probabilistic cells masked out, or ``None`` when it does not
        vectorize exactly (numpy backend)."""
        if attr not in self._typed:
            self._typed[attr] = kernels.build_typed_column(
                self.raw[attr], self.uncertain[attr]
            )
        return self._typed[attr]

    def sorted_by(self, attr: str) -> SortedColumn:
        """Concrete numeric rows of the stripe in sorted order.

        Sorts the *raw* cell values (ints stay ints), so binary-search
        decisions are exact even where float collapsing would round.
        Under the numpy backend the order comes from a stable argsort —
        byte-identical to the pair sort whenever the raw values are
        exactly representable, and falling back otherwise.
        """
        cached = self._sorted.get(attr)
        if cached is not None:
            return cached
        uncertain = self.uncertain[attr]
        numeric = self.numeric[attr]
        eligible = [
            k for k in range(len(self.rows))
            if k not in uncertain and numeric[k] is not None
        ]
        raw = self.raw[attr]
        positions: list[int] | None = None
        exact = None
        if self.column_backend == COLUMN_NUMPY:
            sorted_pair = kernels.argsort_positions(
                [raw[k] for k in eligible], eligible
            )
            if sorted_pair is not None:
                positions, exact = sorted_pair
        if positions is None:
            pairs = [(raw[k], k) for k in eligible]
            pairs.sort()
            positions = [k for _, k in pairs]
        result = SortedColumn([raw[k] for k in positions], positions, exact)
        self._sorted[attr] = result
        return result


@shared_engine_state
class ThetaJoinMatrix:
    """Incremental matrix-partitioned self theta-join for one binary DC.

    The matrix is (re)built from a relation: rows are sorted by the primary
    attribute and split into ``sqrt_p`` contiguous stripes, giving
    ``sqrt_p × sqrt_p`` cells.  :meth:`check_full` checks every candidate
    cell; :meth:`check_partial` checks only cells involving the given query
    tids and not yet checked, recording progress for incremental reuse.

    The matrix lives on the shared per-table state; its seams are the
    rebuild path plus the incremental-maintenance entry points in
    :mod:`repro.detection.maintenance` (``sync_matrix`` patches stripes and
    bounding boxes in place, ``_rederive_stripe`` recomputes one stripe).
    Check passes only append to ``checked_cells``.
    """

    MUTATED_UNDER = {
        "relation": ("ThetaJoinMatrix.rebuild", "sync_matrix"),
        "stripes": ("ThetaJoinMatrix.rebuild", "_rederive_stripe", "sync_matrix"),
        "_stripe_cols": (
            "ThetaJoinMatrix.rebuild",
            "_rederive_stripe",
            "sync_matrix",
        ),
        "bboxes": ("ThetaJoinMatrix.rebuild", "_rederive_stripe", "sync_matrix"),
        "indexes": ("ThetaJoinMatrix.rebuild",),
        "_relpos": ("ThetaJoinMatrix.rebuild",),
        "_stripe_of_tid": ("ThetaJoinMatrix.rebuild",),
        "checked_cells": ("ThetaJoinMatrix.check_cells", "sync_matrix"),
    }

    def __init__(
        self,
        relation: Relation,
        dc: DenialConstraint,
        sqrt_p: int = 8,
        counter: WorkCounter | None = None,
        backend: str = BACKEND_COLUMNAR,
        column_backend: str = COLUMN_PYTHON,
    ) -> None:
        if dc.arity != 2:
            raise ConstraintError(
                f"theta-join detection supports binary DCs, got arity {dc.arity}"
            )
        self.dc = dc
        self.sqrt_p = max(1, sqrt_p)
        self.counter = counter if counter is not None else GLOBAL_COUNTER
        self.backend = validate_backend(backend)
        #: Resolved kernel backend for stripe sort orders and pruning masks
        #: ("auto" resolves on the relation's row count; numpy degrades to
        #: python when unavailable).  Byte-identical either way.
        self.column_backend = kernels.resolve_column_backend(
            column_backend, len(relation.rows)
        )
        two_tuple_preds = [
            p for p in dc.predicates if not p.is_constant() and not p.is_single_tuple()
        ]
        if not two_tuple_preds:
            raise ConstraintError("DC has no two-tuple predicate to partition on")
        self.two_tuple_preds = two_tuple_preds
        #: Attribute whose sorted order defines the matrix axes.
        self.primary_attr = two_tuple_preds[0].left_attr
        #: Predicate driving the sort-based join (first orderable two-tuple
        #: predicate) and the remaining predicates it leaves to verify.
        self.driving_pred: Predicate | None = next(
            (p for p in two_tuple_preds if p.op != "!="), None
        )
        self.rest_preds = [p for p in dc.predicates if p is not self.driving_pred]
        self.attrs = sorted(dc.attributes())
        self.rebuild(relation)
        #: Cells already checked, as (i, j) with i <= j.
        self.checked_cells: set[tuple[int, int]] = set()

    # -- construction -----------------------------------------------------------

    def rebuild(self, relation: Relation) -> None:
        """(Re)derive stripes and bounding boxes from the relation.

        The stable sort by primary value is order-equivalent to sorting by
        ``(value, relation row position)``; :attr:`_relpos` records each
        tid's row position so the incremental maintenance layer
        (:mod:`repro.detection.maintenance`) can re-insert re-routed tids at
        exactly the position a cold rebuild would give them.
        """
        self.relation = relation
        self.indexes = {a: relation.schema.index_of(a) for a in self.attrs}
        primary_idx = self.indexes[self.primary_attr]
        self._relpos = {row.tid: pos for pos, row in enumerate(relation.rows)}
        keyed = [
            (v, row)
            for row in relation.rows
            if (v := _numeric(row.values[primary_idx])) is not None
        ]
        keyed.sort(key=lambda kv: kv[0])
        n = len(keyed)
        stripes: list[list[Row]] = []
        if n == 0:
            stripes = [[]]
        else:
            per = max(1, math.ceil(n / self.sqrt_p))
            for start in range(0, n, per):
                stripes.append([row for _v, row in keyed[start:start + per]])
        self.stripes = stripes
        self.bboxes = [
            _stripe_bbox(stripe, self.attrs, self.indexes) for stripe in self.stripes
        ]
        self._stripe_of_tid: dict[int, int] = {}
        for i, stripe in enumerate(self.stripes):
            for row in stripe:
                self._stripe_of_tid[row.tid] = i
        if self.backend == BACKEND_COLUMNAR:
            self._stripe_cols = [
                _StripeColumns(
                    stripe, self.attrs, self.indexes,
                    column_backend=self.column_backend,
                )
                for stripe in self.stripes
            ]

    def num_stripes(self) -> int:
        return len(self.stripes)

    def total_cells(self) -> int:
        """Upper-triangle cell count: sqrt_p * (sqrt_p + 1) / 2."""
        s = self.num_stripes()
        return s * (s + 1) // 2

    # -- pair checking ------------------------------------------------------------

    def _pair_violates(self, row_a: Row, row_b: Row, counter: WorkCounter) -> bool:
        counter.charge_comparisons()
        return all(p.evaluate((row_a, row_b), self.indexes) for p in self.dc.predicates)

    def _pair_violates_rest(self, row_a: Row, row_b: Row, counter: WorkCounter) -> bool:
        """All predicates except the driving one (already proven by bisect)."""
        counter.charge_comparisons()
        return all(p.evaluate((row_a, row_b), self.indexes) for p in self.rest_preds)

    def _check_cell(self, i: int, j: int) -> list[ViolationPair]:
        """Check all (ordered) pairs of cell (i, j), with intra-cell pruning.

        For the diagonal (i == j) each unordered pair is checked in both
        orders once; off-diagonal cells check stripe_i × stripe_j in both
        orders (the constraint's tuple variables are ordered).

        Side-effect-free apart from charging the matrix counter.  The
        returned pairs are in canonical per-cell order — stably sorted by
        (t1, t2) and deduplicated — making every caller's concatenated
        violation list deterministic (cells are disjoint in the ordered
        pairs they cover, so cell order + in-cell order is a total order).
        """
        counter = self.counter
        preds = self.dc.predicates
        box_i, box_j = self.bboxes[i], self.bboxes[j]
        # Cell-level pruning: every predicate must be satisfiable in at
        # least one orientation of the pair.
        forward_possible = all(_cell_may_violate(p, box_i, box_j) for p in preds)
        backward_possible = i != j and all(
            _cell_may_violate(p, box_j, box_i) for p in preds
        )
        if i == j:
            backward_possible = forward_possible
        if not forward_possible and not backward_possible:
            counter.charge_partition(pruned=1)
            return []
        counter.charge_partition(checked=1)

        out: list[ViolationPair] = []
        if self.backend == BACKEND_COLUMNAR:
            if forward_possible:
                out.extend(self._scan_columnar(i, j, same=(i == j), counter=counter))
            if i != j and backward_possible:
                out.extend(self._scan_columnar(j, i, same=False, counter=counter))
            return _canonical_cell_order(out)

        stripe_i, stripe_j = self.stripes[i], self.stripes[j]

        def scan(rows_a: Sequence[Row], rows_b: Sequence[Row], box_b: BoundingBox,
                 box_a: BoundingBox, same: bool) -> None:
            # Intra-partition pruning on the "a" side for each predicate.
            filtered_a = []
            for row in rows_a:
                ok = True
                for p in preds:
                    if p.is_constant() or p.is_single_tuple():
                        continue
                    value = _numeric(row.values[self.indexes[p.left_attr]])
                    if not _row_may_qualify(p, value, box_b, left_side=True):
                        ok = False
                        break
                if ok:
                    filtered_a.append(row)
            filtered_b = []
            for row in rows_b:
                ok = True
                for p in preds:
                    if p.is_constant() or p.is_single_tuple():
                        continue
                    value = _numeric(row.values[self.indexes[p.right_attr]])  # type: ignore[index]
                    if not _row_may_qualify(p, value, box_a, left_side=False):
                        ok = False
                        break
                if ok:
                    filtered_b.append(row)
            for a in filtered_a:
                for b in filtered_b:
                    if same and a.tid == b.tid:
                        continue
                    if self._pair_violates(a, b, counter):
                        out.append(ViolationPair(a.tid, b.tid))

        if forward_possible:
            scan(stripe_i, stripe_j, box_j, box_i, same=(i == j))
        if i != j and backward_possible:
            scan(stripe_j, stripe_i, box_i, box_j, same=False)
        return _canonical_cell_order(out)

    # -- columnar sort-based scan ---------------------------------------------------

    def _filtered_positions(
        self, stripe: int, box_other: BoundingBox, left_side: bool
    ) -> list[int]:
        """Intra-partition pruning over the stripe's numeric arrays.

        Makes exactly the row-store pruning decisions (same collapsed
        values, same ``_row_may_qualify`` test), just without touching Row
        objects per predicate.  The numpy backend evaluates each
        predicate as one comparison over the stripe's NaN-padded float
        array — NaN (a ``None`` value) fails every comparison, which is
        the oracle's "``value is None`` → ``False``" first check.
        """
        cols = self._stripe_cols[stripe]
        n = len(cols.rows)
        if self.column_backend == COLUMN_NUMPY and n:
            mask = None
            for p in self.two_tuple_preds:
                attr = p.left_attr if left_side else p.right_attr
                other_attr = p.right_attr if left_side else p.left_attr
                arr = cols.numeric_array(attr)
                op = p.op if left_side else _mirror(p.op)
                try:
                    lo, hi = box_other.range_of(other_attr)  # type: ignore[arg-type]
                except KeyError:
                    # Attr missing from the box: the oracle keeps every
                    # non-null row, so only the validity check applies.
                    pred_mask = kernels.numeric_mask_positions(
                        arr, "!=", 0.0, 0.0, False
                    )
                else:
                    pred_mask = kernels.numeric_mask_positions(
                        arr, op, lo, hi, lo is math.inf
                    )
                mask = pred_mask if mask is None else mask & pred_mask
                if not bool(mask.any()):
                    return []
            if mask is None:
                return list(range(n))
            return kernels.mask_to_positions(mask)
        alive = list(range(n))
        for p in self.two_tuple_preds:
            attr = p.left_attr if left_side else p.right_attr
            numeric = cols.numeric[attr]  # type: ignore[index]
            alive = [
                k for k in alive
                if _row_may_qualify(p, numeric[k], box_other, left_side=left_side)
            ]
            if not alive:
                break
        return alive

    def _scan_columnar(
        self, si: int, sj: int, same: bool, counter: WorkCounter
    ) -> list[ViolationPair]:
        """Ordered pairs (a ∈ stripe si, b ∈ stripe sj) violating the DC.

        The driving predicate restricts, for each concrete probe row, the
        qualifying range of the b-side sort order via binary search; only
        that range (plus the probabilistic rows) is verified against the
        remaining predicates.  Output order matches the row-store scan.
        """
        box_a, box_b = self.bboxes[si], self.bboxes[sj]
        filtered_a = self._filtered_positions(si, box_b, left_side=True)
        if not filtered_a:
            return []
        filtered_b = self._filtered_positions(sj, box_a, left_side=False)
        if not filtered_b:
            return []
        cols_a, cols_b = self._stripe_cols[si], self._stripe_cols[sj]
        rows_a, rows_b = self.stripes[si], self.stripes[sj]
        out: list[ViolationPair] = []

        driving = self.driving_pred
        if driving is None:
            # Only '!=' two-tuple predicates: nothing to sort on.
            for k in filtered_a:
                a = rows_a[k]
                for l in filtered_b:
                    b = rows_b[l]
                    if same and a.tid == b.tid:
                        continue
                    if self._pair_violates(a, b, counter):
                        out.append(ViolationPair(a.tid, b.tid))
            return out

        l_attr = driving.left_attr
        r_attr: str = driving.right_attr  # type: ignore[assignment]
        op = driving.op
        b_uncertain_all = cols_b.uncertain[r_attr]
        sorted_b = cols_b.sorted_by(r_attr)
        if len(filtered_b) != len(rows_b):
            filtered_b_set = set(filtered_b)
            keep = [p in filtered_b_set for p in sorted_b.positions]
            sorted_b = SortedColumn(
                [v for v, k in zip(sorted_b.values, keep) if k],
                [p for p, k in zip(sorted_b.positions, keep) if k],
                kernels.subset_exact(sorted_b.exact, keep),
            )
        uncertain_b = [l for l in filtered_b if l in b_uncertain_all]
        a_uncertain = cols_a.uncertain[l_attr]
        a_raw = cols_a.raw[l_attr]
        # The driving predicate reads "probe op b_value"; the shared
        # sorted-column helper answers "b_value op' bound", so probe with
        # the mirrored operator.
        mirrored_op = _mirror(op)

        # Numpy backend: derive every concrete probe's qualifying window in
        # one searchsorted batch — bit-identical cuts to the per-probe
        # bisect — and verify the remaining predicates over all window
        # pairs in one kernel call.  Either kernel declines unless it is
        # exact; the per-probe loop below then does that part itself.
        verdict = None
        if self.column_backend == COLUMN_NUMPY:
            concrete_a = [k for k in filtered_a if k not in a_uncertain]
            comparisons = (
                self._residual_comparisons(cols_a, cols_b) if concrete_a else None
            )
            if comparisons is not None:
                cuts = kernels.search_cuts(
                    sorted_b.values,
                    [a_raw[k] for k in concrete_a],
                    mirrored_op,
                    values_exact=sorted_b.exact,
                )
                if cuts is not None:
                    verdict = kernels.residual_window_pairs(
                        cuts, mirrored_op, sorted_b.positions, concrete_a,
                        comparisons, exclude_diagonal=same,
                    )
        if verdict is not None:
            verified, hit_a, hit_b, left_a, left_b = verdict
            counter.charge_comparisons(verified)
            out.extend(
                ViolationPair(rows_a[k].tid, rows_b[l].tid)
                for k, l in zip(hit_a, hit_b)
            )
            for k, l in zip(left_a, left_b):
                a, b = rows_a[k], rows_b[l]
                if self._pair_violates_rest(a, b, counter):
                    out.append(ViolationPair(a.tid, b.tid))

        for k in filtered_a:
            a = rows_a[k]
            if k in a_uncertain:
                # Probabilistic probe value: the bisect bound is unsound for
                # it, so verify every predicate against the whole stripe.
                for l in filtered_b:
                    b = rows_b[l]
                    if same and a.tid == b.tid:
                        continue
                    if self._pair_violates(a, b, counter):
                        out.append(ViolationPair(a.tid, b.tid))
                continue
            if verdict is not None:
                candidates = uncertain_b  # the windows are settled above
            else:
                selected = sorted_b.range_positions(mirrored_op, a_raw[k])
                candidates = sorted(selected + uncertain_b)
            for l in candidates:
                b = rows_b[l]
                if same and a.tid == b.tid:
                    continue
                if l in b_uncertain_all:
                    if self._pair_violates(a, b, counter):
                        out.append(ViolationPair(a.tid, b.tid))
                elif self._pair_violates_rest(a, b, counter):
                    out.append(ViolationPair(a.tid, b.tid))
        return out

    def _residual_comparisons(
        self, cols_a: _StripeColumns, cols_b: _StripeColumns
    ) -> list[tuple[Any, str, Any]] | None:
        """``rest_preds`` as ``(a column, op, b column)`` triples reading
        ``a_cell op b_cell`` for :func:`kernels.residual_window_pairs`, or
        ``None`` when one of them is not a two-tuple comparison."""
        out: list[tuple[Any, str, Any]] = []
        for p in self.rest_preds:
            if p.is_single_tuple():
                return None
            if p.left_tuple == 0:
                a_attr, op, b_attr = p.left_attr, p.op, p.right_attr
            else:
                a_attr, op, b_attr = p.right_attr, _mirror(p.op), p.left_attr
            out.append(
                (cols_a.typed_column(a_attr), op, cols_b.typed_column(b_attr))  # type: ignore[arg-type]
            )
        return out

    # -- public API ----------------------------------------------------------------

    def candidate_cells(
        self, query_tids: Iterable[int] | None = None
    ) -> list[tuple[int, int]]:
        """Upper-triangle cells still to check, in deterministic scan order.

        With ``query_tids``, only cells involving a stripe that contains a
        query tuple are candidates (the partial theta-join's relevance
        filter); already-checked cells are always excluded.
        """
        touched: set[int] | None = None
        if query_tids is not None:
            touched = {
                self._stripe_of_tid[tid]
                for tid in query_tids
                if tid in self._stripe_of_tid
            }
            if not touched:
                return []
        out: list[tuple[int, int]] = []
        s = self.num_stripes()
        for i in range(s):
            for j in range(i, s):
                if (i, j) in self.checked_cells:
                    continue
                if touched is not None and i not in touched and j not in touched:
                    continue
                out.append((i, j))
        return out

    def check_cells(self, cells: Sequence[tuple[int, int]]) -> list[ViolationPair]:
        """Check the given cells in order and record them as checked."""
        out: list[ViolationPair] = []
        for i, j in cells:
            out.extend(self._check_cell(i, j))
            self.checked_cells.add((i, j))
        return out

    def check_full(self) -> list[ViolationPair]:
        """Check every not-yet-checked upper-triangle cell (offline mode)."""
        return self.check_cells(self.candidate_cells())

    def check_partial(self, query_tids: Iterable[int]) -> list[ViolationPair]:
        """Check only cells involving the query's stripes (partial theta-join).

        A cell (i, j) is relevant if stripe i or stripe j contains a query
        tuple; previously checked cells are skipped and newly checked cells
        are recorded — the incremental matrix of Fig. 2.
        """
        return self.check_cells(self.candidate_cells(query_tids))

    def support(self) -> float:
        """Fraction of diagonal-inclusive triangle cells checked so far.

        Algorithm 2's *support* statistic: (1+2+…+√p − unchecked)/ (1+2+…+√p).
        """
        total = self.total_cells()
        if total == 0:
            return 1.0
        return len(self.checked_cells) / total

    def unchecked_cells(self) -> int:
        return self.total_cells() - len(self.checked_cells)

    def stripes_overlapping_range(self, low: float, high: float) -> set[int]:
        """Stripes whose primary-attribute range intersects [low, high]."""
        out = set()
        for i, box in enumerate(self.bboxes):
            lo, hi = box.range_of(self.primary_attr)
            if lo is math.inf:
                continue
            if not (hi < low or lo > high):
                out.add(i)
        return out
