"""Incremental theta-join matrix maintenance over the ColumnView patch stream.

Detection matrices (:class:`~repro.detection.thetajoin.ThetaJoinMatrix`) are
built once over a relation snapshot; before this module, any external cell
update forced a full stripe rebuild.  :func:`sync_matrix` instead consumes
the ``(tid, attr) -> value`` patches that ``Relation.update_cells`` /
``update_rows`` emit on the :class:`~repro.relation.columnview.ColumnView`
patch stream and maintains the matrix **positionally**:

* the global sorted order of the primary attribute is kept as parallel
  key/tid arrays; a tid whose partition (primary) attribute changed is
  removed and re-inserted by binary search at exactly the position a cold
  rebuild's stable sort would give it (ties break on relation row position,
  which is what a stable sort by value amounts to);
* only stripes whose membership or cell content changed are re-derived —
  membership changes rebuild the stripe, content-only changes patch the
  per-stripe value arrays in place and drop just the touched attributes'
  cached sort orders (they re-sort lazily, exactly like a cold stripe);
* cells of the checked-cell bookkeeping that involve an affected stripe are
  invalidated; all other checked cells stay checked — that is the whole
  point: unaffected cells cover unchanged data and cannot yield new
  violations.

A per-matrix and per-stripe **cost hook** (:class:`MaintenancePolicy`)
decides patch-vs-rebuild: tiny patches are maintained positionally, patches
touching most of the data re-derive the stripes wholesale via
:meth:`ThetaJoinMatrix.rebuild`.  Crucially, the strategy only governs
*how structures are re-derived*: cell updates never change the striped row
count, so the stripe chunking is stable and the checked-cell invalidation
is computed from the patch diff **identically under both strategies** —
patch and rebuild stay byte-identical in candidate cells, violations,
repairs, and work units.  Only an update that changes the striped-row set
itself (a primary-attribute cell turning numeric or non-numeric) clears
the bookkeeping, because the old cell ids stop meaning anything.

**Value semantics.**  A matrix reflects its *source snapshot*: the relation
it was built from, overlaid with every data-origin patch synced since.
Repair patches (``origin="repair"``) never reach the matrix — repaired
cells keep their pre-repair values in the stripes and the provenance store
owns the mapping, exactly as before this module existed.  Both the patch
path and the rebuild fallback derive from the same source snapshot, so a
patched matrix is byte-identical — stripes, bounding boxes, sort orders,
violations, and work units — to a matrix cold-rebuilt from that snapshot.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.detection.thetajoin import (
    ThetaJoinMatrix,
    _numeric,
    _stripe_bbox,
    _StripeColumns,
)
from repro.probabilistic.value import PValue
from repro.relation.columnview import BACKEND_COLUMNAR
from repro.relation.relation import Relation, Row
from repro._ownership import session_owned

if TYPE_CHECKING:  # state.py imports this module; avoid the cycle at runtime
    from repro.core.state import TableState

logger = logging.getLogger(__name__)

#: Maintenance modes for :attr:`MaintenancePolicy.mode`.
MAINTENANCE_AUTO = "auto"
MAINTENANCE_PATCH = "patch"
MAINTENANCE_REBUILD = "rebuild"
MAINTENANCE_MODES = (MAINTENANCE_AUTO, MAINTENANCE_PATCH, MAINTENANCE_REBUILD)


def validate_maintenance_mode(name: str) -> str:
    if name not in MAINTENANCE_MODES:
        raise ValueError(
            f"unknown matrix maintenance mode {name!r}; "
            f"expected one of {MAINTENANCE_MODES}"
        )
    return name


@dataclass(frozen=True)
class MaintenancePolicy:
    """The patch-vs-rebuild cost hook.

    ``mode`` forces a strategy (``"patch"`` / ``"rebuild"``) or lets the
    cost estimates decide (``"auto"``, the default).  The estimates mirror
    the Section 5.2 style of the engine's cost model: work proportional to
    the tuples a strategy touches.

    * A full rebuild costs ~``n·(log n + a)`` (global sort plus per-stripe
      column/bbox derivation over ``a`` constraint attributes).
    * A patch costs ~``moved·(log n + n_shift)`` for re-routing plus
      ``affected_stripes · stripe_size · a`` for re-deriving touched
      stripes.

    ``rebuild_margin`` scales the rebuild estimate before comparison
    (``> 1`` favours patching).  :meth:`stripe_action` is the per-stripe
    hook: a stripe with most of its rows touched is cheaper to re-derive
    wholesale than to patch position by position.
    """

    mode: str = MAINTENANCE_AUTO
    rebuild_margin: float = 1.0
    #: Fraction of a stripe's rows above which the stripe is re-derived
    #: wholesale instead of patched positionally.
    stripe_rebuild_fraction: float = 0.5

    def __post_init__(self) -> None:
        validate_maintenance_mode(self.mode)
        if self.rebuild_margin <= 0:
            raise ValueError("rebuild_margin must be > 0")
        if not 0.0 < self.stripe_rebuild_fraction <= 1.0:
            raise ValueError("stripe_rebuild_fraction must be in (0, 1]")

    def estimate_costs(
        self, n: int, attrs: int, touched_rows: int, moved_rows: int,
        touched_stripes: int, stripe_size: int,
    ) -> tuple[float, float]:
        """(patch_cost, rebuild_cost) estimates in tuple-work units."""
        log_n = max(1.0, math.log2(n)) if n else 1.0
        rebuild = n * (log_n + attrs)
        affected = touched_stripes + moved_rows  # a move can span stripes
        patch = (
            moved_rows * (log_n + n / 2.0)  # bisect + array shift
            + touched_rows * attrs
            + affected * stripe_size * attrs
        )
        return patch, rebuild

    def decide(
        self, n: int, attrs: int, touched_rows: int, moved_rows: int,
        touched_stripes: int, stripe_size: int,
    ) -> tuple[str, str, float, float]:
        """(action, reason, patch_cost, rebuild_cost) for one sync."""
        patch_cost, rebuild_cost = self.estimate_costs(
            n, attrs, touched_rows, moved_rows, touched_stripes, stripe_size
        )
        if self.mode == MAINTENANCE_PATCH:
            return "patch", "mode=patch", patch_cost, rebuild_cost
        if self.mode == MAINTENANCE_REBUILD:
            return "rebuild", "mode=rebuild", patch_cost, rebuild_cost
        if patch_cost <= self.rebuild_margin * rebuild_cost:
            return "patch", "patch cheaper", patch_cost, rebuild_cost
        return "rebuild", "rebuild cheaper", patch_cost, rebuild_cost

    def stripe_action(self, touched_in_stripe: int, stripe_size: int) -> str:
        """Per-stripe hook: patch positionally or re-derive wholesale."""
        if stripe_size == 0:
            return "rebuild"
        if touched_in_stripe >= self.stripe_rebuild_fraction * stripe_size:
            return "rebuild"
        return "patch"


@session_owned
@dataclass
class MaintenanceReport:
    """What one :func:`sync_matrix` invocation did to one matrix."""

    rule: str = ""
    epoch: int = 0
    action: str = "noop"  # noop | patch | rebuild
    reason: str = ""
    rows_touched: int = 0
    tids_rerouted: int = 0
    stripes_patched: int = 0
    stripes_rebuilt: int = 0
    cells_invalidated: int = 0
    est_patch_cost: float = 0.0
    est_rebuild_cost: float = 0.0
    invalidated: set[tuple[int, int]] = field(default_factory=set)


@dataclass(frozen=True)
class EpochVisibility:
    """What a table's derived structures currently see of its data epoch.

    ``data_epoch`` is the table's current epoch; ``matrix_epochs`` maps each
    theta-join matrix (by rule key, sorted) to the epoch it last synced to —
    a matrix behind the table epoch has pending patch batches it will fold
    in lazily on its next :meth:`~repro.core.state.TableState.matrix_for`.
    The service tier reports this from its status endpoint and the soak
    test asserts ``min_matrix_epoch <= data_epoch`` stays invariant.
    """

    data_epoch: int
    matrix_epochs: tuple[tuple[str, int], ...]
    pending_batches: int

    @property
    def min_matrix_epoch(self) -> int:
        """The most-behind matrix's synced epoch (data epoch if none)."""
        if not self.matrix_epochs:
            return self.data_epoch
        return min(epoch for _key, epoch in self.matrix_epochs)

    @property
    def fully_synced(self) -> bool:
        """True when every matrix has folded in every pending batch."""
        return all(
            epoch == self.data_epoch for _key, epoch in self.matrix_epochs
        )


def visibility_of(state: "TableState") -> EpochVisibility:
    """Snapshot one table's epoch-visibility surface (read-only)."""
    return EpochVisibility(
        data_epoch=state.data_epoch,
        matrix_epochs=tuple(
            (key, state.matrix_epochs.get(key, 0))
            for key in sorted(state.matrices)
        ),
        pending_batches=len(state.patch_log),
    )


def _patched_source(
    source: Relation, by_tid: dict[int, dict[int, Any]], relpos: dict[int, int]
) -> Relation:
    """The matrix's new source snapshot: old source + the relevant updates.

    Built directly (not via ``Relation.update_cells``) so no patch batch is
    emitted — maintenance *consumes* the patch stream and must not feed it.
    One O(n) list copy plus one row rebuild per *touched* tid (addressed
    through the matrix's relation-position map), so a one-cell patch does
    not pay a per-row scan.
    """
    rows: list[Row] = list(source.rows)
    for tid, cell_map in by_tid.items():
        pos = relpos[tid]
        vals = list(rows[pos].values)
        for idx, value in cell_map.items():
            vals[idx] = value
        rows[pos] = Row(tid, tuple(vals))
    return Relation(source.schema, rows, name=source.name)


def sync_matrix(
    matrix: ThetaJoinMatrix,
    updates: dict[tuple[int, str], Any],
    policy: MaintenancePolicy | None = None,
) -> MaintenanceReport:
    """Bring ``matrix`` up to date with one batch of data-origin updates.

    ``updates`` is the coalesced ``(tid, attr) -> value`` map of every
    pending data patch (later batches already folded over earlier ones).
    Updates to attributes the constraint does not mention, or to tids
    absent from the matrix's source, are ignored.  Returns a
    :class:`MaintenanceReport`; ``report.invalidated`` lists the checked
    cells that were un-checked (patch path) — after a rebuild the whole
    bookkeeping is cleared instead.
    """
    policy = policy if policy is not None else MaintenancePolicy()
    report = MaintenanceReport()

    relpos = matrix._relpos
    relevant = {
        (tid, attr): value
        for (tid, attr), value in updates.items()
        if attr in matrix.indexes and tid in relpos
    }
    if not relevant:
        return report

    by_tid: dict[int, dict[int, Any]] = {}
    for (tid, attr), value in relevant.items():
        by_tid.setdefault(tid, {})[matrix.indexes[attr]] = value
    source = matrix.relation
    new_source = _patched_source(source, by_tid, relpos)
    report.rows_touched = len(by_tid)

    stripe_of = matrix._stripe_of_tid
    primary = matrix.primary_attr
    primary_idx = matrix.indexes[primary]

    # Membership changes (a row entering/leaving the striped set) shift the
    # stripe chunking itself: fall back to a rebuild.
    membership_changed = False
    for tid, cell_map in by_tid.items():
        if primary_idx not in cell_map:
            continue
        new_in = _numeric(cell_map[primary_idx]) is not None
        if (tid in stripe_of) != new_in:
            membership_changed = True
            break

    touched_striped = {tid for tid in by_tid if tid in stripe_of}
    if not touched_striped and not membership_changed:
        # Updates only touch rows outside the striped set (non-numeric
        # primary): the stripes are untouched, only the source moves on.
        matrix.relation = new_source
        report.action = "noop"
        report.reason = "no striped row touched"
        return report

    # Moved tids: striped rows whose primary sort key changed.  The stripes
    # mirror the source snapshot, so the old value reads in O(1) through
    # the relation-position map instead of a per-tid stripe scan.
    moved: dict[int, tuple[float, float]] = {}
    if not membership_changed:
        for tid in sorted(touched_striped):
            cell_map = by_tid[tid]
            if primary_idx not in cell_map:
                continue
            old_key = _numeric(source.rows[relpos[tid]].values[primary_idx])
            new_key = _numeric(cell_map[primary_idx])
            if new_key != old_key:
                moved[tid] = (old_key, new_key)

    if membership_changed:
        # The striped-row set itself changed: stripe chunking shifts and the
        # old checked-cell ids stop meaning anything — rebuild and clear.
        matrix.rebuild(new_source)
        matrix.checked_cells.clear()
        report.action = "rebuild"
        report.reason = "striped-set membership changed"
        report.stripes_rebuilt = matrix.num_stripes()
        logger.debug(
            "matrix %s: full rebuild (%s)", matrix.dc.name, report.reason
        )
        return report

    n = sum(len(s) for s in matrix.stripes)
    per = max(1, math.ceil(n / matrix.sqrt_p)) if n else 1
    action, reason, patch_cost, rebuild_cost = policy.decide(
        n=n,
        attrs=len(matrix.attrs),
        touched_rows=len(touched_striped),
        moved_rows=len(moved),
        touched_stripes=len({stripe_of[t] for t in touched_striped}),
        stripe_size=per,
    )
    report.est_patch_cost, report.est_rebuild_cost = patch_cost, rebuild_cost

    # ---- shared diff: which stripes does this batch affect? ----------------------
    # Cell updates never change n, so the stripe chunking is stable and the
    # checked-cell bookkeeping stays meaningful under *both* strategies —
    # the patch-vs-rebuild decision governs how stripe structures are
    # re-derived, never which cells must be re-checked.  That keeps the two
    # strategies byte-identical downstream: same candidate cells, same
    # violations, same repairs, same work units.

    # 1. Maintain the global sorted order as (key, relpos) / tid arrays —
    #    the concatenation of the stripes *is* that order.  Content-only
    #    batches (no primary key changed) cannot move any row, so skip the
    #    O(n) flatten/re-chunk entirely: stripe identities are untouched.
    changed_identity: set[int] = set()
    new_chunks: list[list[int]] = []
    rerouted = 0
    if moved:
        keys: list[tuple[float, int]] = []
        tid_order: list[int] = []
        for stripe in matrix.stripes:
            for row in stripe:
                keys.append((_numeric(row.values[primary_idx]), relpos[row.tid]))
                tid_order.append(row.tid)

        for tid, (old_key, new_key) in moved.items():
            pos = relpos[tid]
            i = bisect_left(keys, (old_key, pos))
            if i >= len(keys) or tid_order[i] != tid:
                raise RuntimeError(
                    f"matrix sort order out of sync for tid {tid} "
                    f"(rule {matrix.dc.name!r}); rebuild the matrix"
                )
            del keys[i]
            del tid_order[i]
            j = bisect_left(keys, (new_key, pos))
            keys.insert(j, (new_key, pos))
            tid_order.insert(j, tid)

        # 2. Diff the new chunking against the current stripes.
        new_chunks = [tid_order[start:start + per] for start in range(0, n, per)]
        if not new_chunks:
            new_chunks = [[]]
        for s, chunk in enumerate(new_chunks):
            old_tids = [row.tid for row in matrix.stripes[s]]
            if old_tids != chunk:
                changed_identity.add(s)

        rerouted = sum(
            1 for tid in moved
            if stripe_of[tid] != _chunk_of(relpos, new_chunks, per, keys, tid, moved)
        )

    # 3. Invalidate checked cells involving an affected stripe — identical
    #    under both strategies (the diff, not the strategy, defines what
    #    must be re-checked).
    affected = changed_identity | {stripe_of[t] for t in touched_striped}
    invalidated = {
        cell for cell in matrix.checked_cells
        if cell[0] in affected or cell[1] in affected
    }
    matrix.checked_cells -= invalidated
    report.tids_rerouted = rerouted
    report.cells_invalidated = len(invalidated)
    report.invalidated = invalidated
    report.reason = reason

    if action == "rebuild":
        matrix.rebuild(new_source)
        report.action = "rebuild"
        report.stripes_rebuilt = matrix.num_stripes()
        logger.debug(
            "matrix %s: wholesale rebuild (%s), %d cells invalidated",
            matrix.dc.name, reason, len(invalidated),
        )
        return report

    # ---- positional patch --------------------------------------------------------

    new_rows = new_source.rows
    patched_stripes: set[int] = set()

    # 4. Re-derive stripes whose membership/order changed.
    for s in sorted(changed_identity):
        rows = [new_rows[relpos[tid]] for tid in new_chunks[s]]
        _rederive_stripe(matrix, s, rows)
        for tid in new_chunks[s]:
            stripe_of[tid] = s

    # 5. Positionally patch stripes whose content (not membership) changed.
    touched_by_stripe: dict[int, list[int]] = {}
    for tid in sorted(touched_striped):
        s = stripe_of[tid]
        if s not in changed_identity:
            touched_by_stripe.setdefault(s, []).append(tid)
    for s, tids in touched_by_stripe.items():
        stripe = matrix.stripes[s]
        if policy.stripe_action(len(tids), len(stripe)) == "rebuild":
            _rederive_stripe(
                matrix, s, [new_rows[relpos[row.tid]] for row in stripe]
            )
            patched_stripes.add(s)
            continue
        columnar = matrix.backend == BACKEND_COLUMNAR
        pos_of = {row.tid: k for k, row in enumerate(stripe)}
        touched_attrs: set[str] = set()
        # Per-attribute uncertain-set edits, applied once per attribute
        # after the tid loop (re-freezing per cell would be O(k·stripe)).
        uncertain_edits: dict[str, tuple[set[int], set[int]]] = {}
        for tid in tids:
            k = pos_of[tid]
            new_row = new_rows[relpos[tid]]
            stripe[k] = new_row  # _StripeColumns.rows is this same list
            for attr, idx in matrix.indexes.items():
                if idx not in by_tid[tid]:
                    continue
                touched_attrs.add(attr)
                if columnar:
                    cols = matrix._stripe_cols[s]
                    cell = new_row.values[idx]
                    cols.raw[attr][k] = cell
                    cols.numeric[attr][k] = _numeric(cell)
                    adds, discards = uncertain_edits.setdefault(
                        attr, (set(), set())
                    )
                    if isinstance(cell, PValue):
                        adds.add(k)
                        discards.discard(k)
                    else:
                        discards.add(k)
                        adds.discard(k)
        if columnar:
            cols = matrix._stripe_cols[s]
            for attr, (adds, discards) in uncertain_edits.items():
                cols.uncertain[attr] = frozenset(
                    (set(cols.uncertain[attr]) - discards) | adds
                )
        # Touched attributes: re-derive bbox, drop cached sort orders (they
        # re-sort lazily — cold-rebuilt stripes start from the same state).
        box = dict(
            zip((name for name, _lo, _hi in matrix.bboxes[s].bounds),
                matrix.bboxes[s].bounds)
        )
        fresh = _stripe_bbox(stripe, sorted(touched_attrs), matrix.indexes)
        for name, lo, hi in fresh.bounds:
            box[name] = (name, lo, hi)
        matrix.bboxes[s] = type(matrix.bboxes[s])(
            tuple(box[a] for a in matrix.attrs)
        )
        if columnar:
            for attr in sorted(touched_attrs):
                # Drops both the cached sort order and the numpy backend's
                # float-array mirror — patched stripes must re-derive the
                # same lazy state a cold rebuild would start from.
                matrix._stripe_cols[s].invalidate(attr)
        patched_stripes.add(s)

    matrix.relation = new_source
    report.action = "patch"
    report.stripes_rebuilt = len(changed_identity)
    report.stripes_patched = len(patched_stripes)
    logger.debug(
        "matrix %s: patched (%d rows, %d rerouted, %d stripes re-derived, "
        "%d patched, %d cells invalidated)",
        matrix.dc.name, report.rows_touched, rerouted,
        report.stripes_rebuilt, report.stripes_patched, len(invalidated),
    )
    return report


def _rederive_stripe(matrix: ThetaJoinMatrix, s: int, rows: list[Row]) -> None:
    """Replace one stripe wholesale: rows, bounding box, columnar mirror.

    The single definition both the changed-identity path and the per-stripe
    wholesale-rebuild hook go through — stripe derivation must never fork
    between strategies, or the byte-identity invariant breaks.
    """
    matrix.stripes[s] = rows
    matrix.bboxes[s] = _stripe_bbox(rows, matrix.attrs, matrix.indexes)
    if matrix.backend == BACKEND_COLUMNAR:
        matrix._stripe_cols[s] = _StripeColumns(
            rows, matrix.attrs, matrix.indexes,
            column_backend=matrix.column_backend,
        )


def _chunk_of(
    relpos: dict[int, int],
    chunks: list[list[int]],
    per: int,
    keys: list[tuple[float, int]],
    tid: int,
    moved: dict[int, tuple[float, float]],
) -> int:
    """The new stripe index of a moved tid (for reroute accounting)."""
    pos = bisect_left(keys, (moved[tid][1], relpos[tid]))
    return min(pos // per, len(chunks) - 1)


def matrix_fingerprint(
    matrix: ThetaJoinMatrix, include_sorted: bool = False
) -> dict[str, Any]:
    """A structural fingerprint for byte-identity comparisons.

    Two matrices with equal fingerprints behave identically on every
    ``check_full`` / ``check_partial`` call (given equal checked-cell
    bookkeeping): same stripes (tids and constraint-attribute values, via
    ``repr`` so probabilistic cells compare exactly), same bounding boxes,
    same tid routing.  ``include_sorted`` additionally forces and compares
    the per-stripe sort orders the columnar backend's inequality join uses.
    """
    stripes = tuple(
        tuple(
            (row.tid, tuple(repr(row.values[matrix.indexes[a]]) for a in matrix.attrs))
            for row in stripe
        )
        for stripe in matrix.stripes
    )
    out: dict[str, Any] = {
        "primary": matrix.primary_attr,
        "stripes": stripes,
        "bboxes": tuple(matrix.bboxes),
        "stripe_of_tid": dict(matrix._stripe_of_tid),
    }
    if include_sorted and matrix.backend == BACKEND_COLUMNAR:
        out["sorted"] = tuple(
            tuple(
                (
                    attr,
                    tuple(repr(v) for v in cols.sorted_by(attr).values),
                    tuple(cols.sorted_by(attr).positions),
                )
                for attr in matrix.attrs
            )
            for cols in matrix._stripe_cols
        )
    return out
