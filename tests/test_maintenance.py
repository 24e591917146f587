"""Incremental theta-join matrix maintenance: unit tests.

The contract: a matrix patched from the ColumnView patch stream is
**byte-identical** — stripes (tids and constraint-attribute values),
bounding boxes, per-stripe sort orders, tid routing — to a matrix
cold-rebuilt from the same source snapshot, and only cells involving an
affected stripe lose their checked mark.
"""

from __future__ import annotations

import pytest

from repro import Daisy, DaisyConfig
from repro.constraints import DenialConstraint, Predicate
from repro.detection.maintenance import (
    MaintenancePolicy,
    matrix_fingerprint,
    sync_matrix,
    validate_maintenance_mode,
)
from repro.detection.thetajoin import ThetaJoinMatrix
from repro.engine.stats import WorkCounter
from repro.probabilistic.value import Candidate, PValue
from repro.relation import ColumnType, Relation
from repro.relation.columnview import PATCH_DATA, PATCH_REPAIR


def numbers_dc() -> DenialConstraint:
    return DenialConstraint(
        [
            Predicate(0, "price", "<", 1, "price"),
            Predicate(0, "discount", ">", 1, "discount"),
        ],
        name="dc_price_discount",
    )


def numbers_relation(n: int = 240) -> Relation:
    return Relation.from_rows(
        [
            ("orderkey", ColumnType.INT),
            ("price", ColumnType.FLOAT),
            ("discount", ColumnType.FLOAT),
        ],
        [(i, 100.0 + i * 10.0, round(0.01 + i * 0.0001, 6)) for i in range(n)],
        name="lineorder",
    )


def build_matrix(rel, backend="columnar", sqrt_p=6) -> ThetaJoinMatrix:
    return ThetaJoinMatrix(
        rel, numbers_dc(), sqrt_p=sqrt_p, counter=WorkCounter(), backend=backend
    )


def assert_matches_cold(matrix: ThetaJoinMatrix, rel: Relation) -> None:
    """Patched matrix must be structurally identical to a cold rebuild and
    return byte-identical violations + work units on a full check."""
    cold = build_matrix(rel, backend=matrix.backend, sqrt_p=matrix.sqrt_p)
    include_sorted = matrix.backend == "columnar"
    assert matrix_fingerprint(matrix, include_sorted) == matrix_fingerprint(
        cold, include_sorted
    )
    cold.checked_cells = set(matrix.checked_cells)
    fresh_a, fresh_b = WorkCounter(), WorkCounter()
    matrix.counter, cold.counter = fresh_a, fresh_b
    assert matrix.check_full() == cold.check_full()
    assert fresh_a.as_dict() == fresh_b.as_dict()


class TestSyncMatrix:
    @pytest.mark.parametrize("backend", ["columnar", "rowstore"])
    def test_content_only_patch_matches_cold_rebuild(self, backend):
        rel = numbers_relation()
        matrix = build_matrix(rel, backend)
        matrix.check_full()
        updates = {(20, "discount"): 0.9, (100, "discount"): 0.8}
        report = sync_matrix(matrix, updates, MaintenancePolicy(mode="patch"))
        assert report.action == "patch"
        assert report.tids_rerouted == 0
        assert report.stripes_rebuilt == 0  # membership/order unchanged
        assert report.stripes_patched >= 1
        assert_matches_cold(matrix, rel.update_cells(updates))

    @pytest.mark.parametrize("backend", ["columnar", "rowstore"])
    def test_primary_move_reroutes_to_cold_rebuild_position(self, backend):
        rel = numbers_relation()
        matrix = build_matrix(rel, backend)
        matrix.check_full()
        # Move rows across stripes (large primary jumps) and nudge one in
        # place (same stripe, different sort position).
        updates = {
            (5, "price"): 2000.0,
            (200, "price"): 101.0,
            (40, "price"): 502.5,
        }
        report = sync_matrix(matrix, updates, MaintenancePolicy(mode="patch"))
        assert report.action == "patch"
        assert report.tids_rerouted >= 2
        assert_matches_cold(matrix, rel.update_cells(updates))

    def test_duplicate_keys_tiebreak_like_stable_sort(self):
        # Several rows collapse onto the same primary value: the re-insert
        # must land them exactly where a stable sort (relation row order)
        # would.
        rel = numbers_relation(60)
        matrix = build_matrix(rel, sqrt_p=4)
        updates = {(50, "price"): 300.0, (10, "price"): 300.0, (30, "price"): 300.0}
        sync_matrix(matrix, updates, MaintenancePolicy(mode="patch"))
        assert_matches_cold(matrix, rel.update_cells(updates))

    def test_pvalue_update_lands_in_uncertain_set(self):
        rel = numbers_relation(80)
        matrix = build_matrix(rel, sqrt_p=4)
        pv = PValue([Candidate(0.5, 0.7), Candidate(0.01, 0.3)])
        updates = {(12, "discount"): pv}
        sync_matrix(matrix, updates, MaintenancePolicy(mode="patch"))
        assert_matches_cold(matrix, rel.update_cells(updates))
        stripe = matrix._stripe_of_tid[12]
        cols = matrix._stripe_cols[stripe]
        pos = next(k for k, r in enumerate(matrix.stripes[stripe]) if r.tid == 12)
        assert pos in cols.uncertain["discount"]

    def test_membership_change_forces_rebuild(self):
        rel = numbers_relation(50)
        matrix = build_matrix(rel, sqrt_p=4)
        matrix.check_full()
        report = sync_matrix(
            matrix, {(7, "price"): None}, MaintenancePolicy(mode="patch")
        )
        assert report.action == "rebuild"
        assert "membership" in report.reason
        assert matrix.checked_cells == set()
        assert_matches_cold(matrix, rel.update_cells({(7, "price"): None}))

    def test_irrelevant_updates_are_noop(self):
        rel = numbers_relation(50)
        matrix = build_matrix(rel, sqrt_p=4)
        matrix.check_full()
        checked_before = set(matrix.checked_cells)
        report = sync_matrix(matrix, {(3, "orderkey"): 999})
        assert report.action == "noop"
        assert matrix.checked_cells == checked_before

    def test_absent_tids_ignored(self):
        rel = numbers_relation(30)
        matrix = build_matrix(rel, sqrt_p=3)
        report = sync_matrix(matrix, {(999, "price"): 1.0})
        assert report.action == "noop"

    def test_only_affected_cells_invalidated(self):
        rel = numbers_relation(240)
        matrix = build_matrix(rel, sqrt_p=6)
        matrix.check_full()
        total = matrix.total_cells()
        assert len(matrix.checked_cells) == total
        # One content-only touch in a single stripe.
        stripe = matrix._stripe_of_tid[30]
        report = sync_matrix(
            matrix, {(30, "discount"): 0.7}, MaintenancePolicy(mode="patch")
        )
        s = matrix.num_stripes()
        expected_invalid = {
            (i, j)
            for i in range(s)
            for j in range(i, s)
            if i == stripe or j == stripe
        }
        assert report.invalidated == expected_invalid
        assert matrix.checked_cells == {
            (i, j) for i in range(s) for j in range(i, s)
        } - expected_invalid
        # Re-checking covers exactly the invalidated cells.
        assert set(matrix.candidate_cells()) == expected_invalid

    def test_rebuild_mode_keeps_diff_based_bookkeeping(self):
        """The strategy governs structure derivation only: a wholesale
        rebuild invalidates exactly the cells the patch path would."""
        rel = numbers_relation(100)
        twin_a = build_matrix(rel, sqrt_p=4)
        twin_b = build_matrix(rel, sqrt_p=4)
        twin_a.check_full()
        twin_b.check_full()
        updates = {(5, "discount"): 0.4}
        rep_a = sync_matrix(twin_a, updates, MaintenancePolicy(mode="rebuild"))
        rep_b = sync_matrix(twin_b, updates, MaintenancePolicy(mode="patch"))
        assert rep_a.action == "rebuild" and rep_b.action == "patch"
        assert rep_a.invalidated == rep_b.invalidated
        assert twin_a.checked_cells == twin_b.checked_cells
        assert twin_a.checked_cells != set()  # unaffected cells survive
        assert_matches_cold(twin_a, rel.update_cells(updates))
        assert_matches_cold(twin_b, rel.update_cells(updates))

    def test_auto_mode_rebuilds_for_bulk_updates(self):
        rel = numbers_relation(100)
        matrix = build_matrix(rel, sqrt_p=4)
        updates = {(t, "price"): 5000.0 - t for t in range(90)}
        report = sync_matrix(matrix, updates, MaintenancePolicy(mode="auto"))
        assert report.action == "rebuild"
        assert report.est_patch_cost > report.est_rebuild_cost
        assert_matches_cold(matrix, rel.update_cells(updates))

    def test_per_stripe_rebuild_threshold(self):
        rel = numbers_relation(120)
        matrix = build_matrix(rel, sqrt_p=3)  # 40 rows per stripe
        # Touch most of stripe 0's rows: the per-stripe hook re-derives it.
        tids = [t for t, s in matrix._stripe_of_tid.items() if s == 0][:30]
        updates = {(t, "discount"): 0.5 for t in tids}
        policy = MaintenancePolicy(mode="patch", stripe_rebuild_fraction=0.5)
        sync_matrix(matrix, updates, policy)
        assert_matches_cold(matrix, rel.update_cells(updates))

    def test_validate_maintenance_mode(self):
        assert validate_maintenance_mode("auto") == "auto"
        with pytest.raises(ValueError):
            validate_maintenance_mode("lazy")
        with pytest.raises(ValueError):
            MaintenancePolicy(mode="auto", rebuild_margin=0)


class TestPatchStream:
    def test_patched_view_records_batch_and_notifies(self):
        rel = numbers_relation(10)
        view = rel.column_view()
        seen = []
        unsubscribe = view.subscribe(lambda v, b: seen.append((v.version, b)))
        updated = rel.update_cells({(1, "discount"): 0.5})
        batch = updated.column_view().last_patch
        assert batch is not None
        assert batch.origin == PATCH_DATA
        assert batch.updates == {(1, "discount"): 0.5}
        assert batch.touched == {"discount": (1,)}
        assert [v for v, _b in seen] == [batch.version]
        # The listener list is carried: patching the *new* view notifies too.
        updated2 = updated.update_cells({(2, "price"): 1.0})
        assert len(seen) == 2
        assert updated2.column_view().last_patch.base_version == batch.version
        unsubscribe()
        updated2.update_cells({(3, "price"): 2.0})
        assert len(seen) == 2

    def test_repair_patches_are_tagged(self):
        rel = numbers_relation(10)
        rel.column_view()
        updated = rel.update_cells({(1, "discount"): 0.5}, origin=PATCH_REPAIR)
        assert updated.column_view().last_patch.origin == PATCH_REPAIR

    def test_absent_tids_not_in_batch(self):
        rel = numbers_relation(10)
        rel.column_view()
        updated = rel.update_cells({(1, "discount"): 0.5, (99, "discount"): 0.1})
        assert updated.column_view().last_patch.updates == {(1, "discount"): 0.5}

    def test_relation_update_rows_emits_cell_diff_batch(self):
        from repro.relation import Row

        rel = numbers_relation(10)
        rel.column_view()
        old = rel.tid_index()[4]
        vals = list(old.values)
        vals[2] = 0.42  # discount
        updated = rel.update_rows({4: Row(4, tuple(vals))})
        batch = updated.column_view().last_patch
        assert batch.updates == {(4, "discount"): 0.42}
        assert updated.tid_index()[4].values[2] == 0.42


class TestTableStateLifecycle:
    def _daisy(self, mode="auto", n=240):
        rel = numbers_relation(n)
        daisy = Daisy(use_cost_model=False)
        daisy.register_table("lineorder", rel).maintenance = MaintenancePolicy(mode=mode)
        daisy.add_rule("lineorder", numbers_dc())
        return daisy

    def test_update_table_syncs_matrix_lazily(self):
        daisy = self._daisy(mode="patch")
        state = daisy.states["lineorder"]
        report = daisy.update_table(
            "lineorder", {(5, "price"): 1234.5, (9, "discount"): 0.3}
        )
        assert report.cells_applied == 2
        assert report.epoch == 1
        assert state.patch_log  # pending until the matrix is used
        assert not state.maintenance_log
        matrix = state.matrix_for(numbers_dc())
        assert state.maintenance_log[-1].action == "patch"
        assert state.matrix_epochs["dc_price_discount"] == 1
        assert not state.patch_log  # trimmed once every matrix synced
        assert_matches_cold(matrix, state.relation)

    def test_chained_batches_coalesce(self):
        daisy = self._daisy(mode="patch")
        state = daisy.states["lineorder"]
        daisy.update_table("lineorder", {(5, "price"): 1000.0})
        daisy.update_table("lineorder", {(5, "price"): 2000.0, (7, "discount"): 0.6})
        daisy.update_table("lineorder", {(11, "price"): 150.5})
        matrix = state.matrix_for(numbers_dc())
        assert state.data_epoch == 3
        assert_matches_cold(matrix, state.relation)

    def test_update_rows_reduces_to_cell_diff(self):
        daisy = self._daisy(mode="patch")
        state = daisy.states["lineorder"]
        from repro.relation import Row

        old = state.relation.tid_index()[8]
        new_values = list(old.values)
        new_values[1] = 999.5  # price
        report = daisy.update_rows("lineorder", [Row(8, tuple(new_values))])
        assert report.cells_applied == 1
        assert report.attrs_touched == {"price"}
        matrix = state.matrix_for(numbers_dc())
        assert_matches_cold(matrix, state.relation)

    def test_update_invalidates_rule_progress(self):
        daisy = self._daisy()
        state = daisy.states["lineorder"]
        dc = numbers_dc()
        key = "dc_price_discount"
        state.mark_seen(dc, {5, 6, 7})
        state.mark_fully_cleaned(dc)
        state.provenance.mark_checked(key, {"g1"})
        report = daisy.update_table("lineorder", {(5, "price"): 1.5})
        assert key in report.rules_invalidated
        assert not state.is_fully_cleaned(dc)
        assert state.seen_for(dc) == {6, 7}
        assert state.provenance.checked(key) == set()

    def test_same_value_updates_are_noops(self):
        """Re-sending current values (idempotent upsert streams) must not
        bump the epoch, rebuild statistics, or invalidate rule progress —
        matching the row form's cell-diff semantics."""
        daisy = self._daisy()
        state = daisy.states["lineorder"]
        dc = numbers_dc()
        state.mark_seen(dc, {5})
        state.mark_fully_cleaned(dc)
        current_price = state.relation.tid_index()[5].values[1]
        report = daisy.update_table("lineorder", {(5, "price"): current_price})
        assert report.cells_applied == 0
        assert state.data_epoch == 0
        assert state.is_fully_cleaned(dc)
        assert state.seen_for(dc) == {5}
        assert not state.patch_log
        # Mixed batch: only the really-changed cell counts.
        report = daisy.update_table(
            "lineorder", {(5, "price"): current_price, (6, "discount"): 0.7}
        )
        assert report.cells_applied == 1
        assert state.data_epoch == 1

    def test_update_forgets_provenance_of_touched_cells(self):
        daisy = self._daisy()
        state = daisy.states["lineorder"]
        state.provenance.record_original(5, "price", 150.0, "dc_price_discount")
        report = daisy.update_table("lineorder", {(5, "price"): 777.0})
        assert report.provenance_forgotten == 1
        assert state.provenance.original(5, "price") is None

    def test_confirming_a_repaired_value_still_applies(self):
        """Re-sending a repaired cell's *current* value is not a no-op: the
        external source is confirming the repair as ground truth, so the
        obsolete provenance original must go and the matrix source must
        advance to the confirmed value."""
        daisy = self._daisy(mode="patch")
        state = daisy.states["lineorder"]
        current = state.relation.tid_index()[5].values[1]  # price
        state.provenance.record_original(5, "price", 150.0, "dc_price_discount")
        report = daisy.update_table("lineorder", {(5, "price"): current})
        assert report.cells_applied == 1
        assert report.provenance_forgotten == 1
        assert state.provenance.original(5, "price") is None
        assert state.data_epoch == 1
        matrix = state.matrix_for(numbers_dc())
        assert_matches_cold(matrix, state.relation)

    def test_row_form_confirms_repaired_cells_like_cell_form(self):
        """Replacing a row whose repaired cell keeps its current value must
        apply like the cell form does — both APIs invalidate identically."""
        from repro.relation import Row

        daisy = self._daisy(mode="patch")
        state = daisy.states["lineorder"]
        state.provenance.record_original(5, "price", 150.0, "dc_price_discount")
        same_row = state.relation.tid_index()[5]
        report = daisy.update_rows(
            "lineorder", [Row(5, tuple(same_row.values))]
        )
        assert report.cells_applied == 1  # the confirmed repaired cell
        assert report.provenance_forgotten == 1
        assert state.provenance.original(5, "price") is None
        matrix = state.matrix_for(numbers_dc())
        assert_matches_cold(matrix, state.relation)

    def test_malformed_replacement_row_raises(self):
        from repro.errors import SchemaError
        from repro.relation import Row

        daisy = self._daisy()
        with pytest.raises(SchemaError, match="arity"):
            daisy.update_rows("lineorder", [Row(3, (1.0, 2.0))])  # 2 of 3 cols
        # Nothing was partially applied.
        assert daisy.states["lineorder"].data_epoch == 0

    def test_update_refreshes_fd_statistics(self):
        rel = Relation.from_rows(
            [("zip", ColumnType.INT), ("city", ColumnType.STRING)],
            [(1, "a"), (1, "a"), (2, "b")],
            name="cities",
        )
        daisy = Daisy(config=DaisyConfig(use_cost_model=False))
        daisy.register_table("cities", rel)
        daisy.add_rule("cities", "zip -> city")
        state = daisy.states["cities"]
        key = state.rules[0].name or str(state.rules[0])
        assert state.statistics.get(key).dirty_group_count() == 0
        report = daisy.update_table("cities", {(1, "city"): "c"})
        assert key in report.stats_rebuilt
        assert state.statistics.get(key).dirty_group_count() == 1

    def test_data_epoch_refreshes_session_cost_model(self):
        daisy = self._daisy()
        with daisy.connect() as session:
            model_before = session._cost_model("lineorder")
            assert session._cost_model("lineorder") is model_before  # cached
            daisy.update_table("lineorder", {(5, "discount"): 0.9})
            model_after = session._cost_model("lineorder")
            assert model_after is not model_before

    def test_update_does_not_invalidate_plan_cache(self):
        daisy = self._daisy()
        with daisy.connect() as session:
            q = "SELECT orderkey FROM lineorder WHERE price < 500"
            session.execute(q)
            daisy.update_table("lineorder", {(5, "discount"): 0.9})
            session.execute(q)
            assert session.plan_cache_hits == 1

    def test_unknown_attribute_raises_schema_error_either_way(self):
        """The error type must not depend on whether the columnar view is
        already cached."""
        from repro.errors import SchemaError

        cold = self._daisy()
        with pytest.raises(SchemaError):
            cold.update_table("lineorder", {(0, "nosuch"): 5})
        warm = self._daisy()
        warm.states["lineorder"].column_view()  # cache the view first
        with pytest.raises(SchemaError):
            warm.update_table("lineorder", {(0, "nosuch"): 5})

    def test_patch_log_stays_bounded_with_lagging_matrix(self):
        from repro.core.state import _PATCH_LOG_SOFT_LIMIT

        daisy = self._daisy(mode="patch", n=60)
        state = daisy.states["lineorder"]
        # Never touch the matrix: the soft limit must force a sync rather
        # than let the log grow with every batch.
        for k in range(_PATCH_LOG_SOFT_LIMIT + 10):
            daisy.update_table(
                "lineorder", {(k % 60, "discount"): 0.2 + (k % 9) * 0.01}
            )
        assert len(state.patch_log) <= _PATCH_LOG_SOFT_LIMIT
        matrix = state.matrix_for(numbers_dc())
        assert_matches_cold(matrix, state.relation)

    def test_rowstore_backend_update_path(self):
        rel = numbers_relation(100)
        daisy = Daisy(use_cost_model=False, backend="rowstore")
        daisy.register_table("lineorder", rel).maintenance = MaintenancePolicy(mode="patch")
        daisy.add_rule("lineorder", numbers_dc())
        state = daisy.states["lineorder"]
        report = daisy.update_table("lineorder", {(5, "price"): 1234.5})
        assert report.cells_applied == 1
        matrix = state.matrix_for(numbers_dc())
        assert_matches_cold(matrix, state.relation)

    @pytest.mark.xfail(strict=True, reason=(
        "known defect seen by bench/ on updates_interleaved (bench/README.md, "
        "bench/reference.py:missing_rows): once a later update makes the pair "
        "repair again, a cell updated after a DC repair gets candidates that "
        "exclude its new value, so a range query over that value loses the row. "
        "The fix changes answers and bench/golden.json: a correctness PR's job."
    ))
    def test_updated_cell_keeps_its_new_value_through_re_repair(self):
        schema = [
            ("k", ColumnType.INT), ("price", ColumnType.FLOAT), ("discount", ColumnType.FLOAT)
        ]
        daisy = Daisy(use_cost_model=False)
        # The two rows violate the DC: the cheaper one has the higher discount.
        daisy.register_table(
            "t", Relation.from_rows(schema, [(1, 110.0, 0.03), (2, 120.0, 0.02)], name="t")
        )
        daisy.add_rule("t", "not(t1.price < t2.price & t1.discount > t2.discount)")
        over_new_value = "SELECT k FROM t WHERE price >= 121 AND price < 130"
        with daisy.connect() as session:
            session.execute("SELECT k FROM t WHERE price >= 0")  # DC repair
            session.update_table("t", {(1, "price"): 125.5})  # row k=2, new truth
            assert (2,) in session.execute(over_new_value).rows()
            session.update_table("t", {(0, "price"): 111.0})  # the pair repairs again
            session.execute(over_new_value)
            assert (2,) in session.execute(over_new_value).rows()
