"""ColumnView construction, filtering semantics, and incremental patching.

The stale-cache failure mode — a repair lands but a cached array/index
keeps answering with pre-repair values — is the main risk of the columnar
backend, so most tests here drive updates through ``Relation.update_cells``
/ ``Daisy`` fixes and assert the patched view answers like a fresh scan.
"""

from __future__ import annotations

import pytest

from repro import Daisy
from repro.probabilistic.value import Candidate, PValue, ValueRange, cell_compare
from repro.relation import ColumnType, Relation
from repro.relation.columnview import (
    BACKEND_COLUMNAR,
    BACKEND_ROWSTORE,
    ColumnView,
    PValueBoundsSidecar,
    validate_backend,
)


def make_relation():
    return Relation.from_rows(
        [("k", ColumnType.INT), ("v", ColumnType.INT), ("s", ColumnType.STRING)],
        [
            (1, 10, "a"),
            (2, 20, "b"),
            (3, 30, "a"),
            (4, None, "c"),
            (5, 50, "b"),
        ],
        name="t",
    )


def naive_filter(relation, attr, op, value):
    idx = relation.schema.index_of(attr)
    return {
        row.tid for row in relation.rows if cell_compare(row.values[idx], op, value)
    }


class TestConstruction:
    def test_arrays_mirror_rows(self):
        rel = make_relation()
        view = rel.column_view()
        assert view.tids == [0, 1, 2, 3, 4]
        assert view.columns["k"] == [1, 2, 3, 4, 5]
        assert view.columns["v"] == [10, 20, 30, None, 50]
        assert len(view) == len(rel)

    def test_view_is_cached_on_relation(self):
        rel = make_relation()
        assert rel.column_view() is rel.column_view()

    def test_pvalue_sidecar_tracks_probabilistic_positions(self):
        rel = make_relation()
        pv = PValue([Candidate(20, 0.6), Candidate(99, 0.4)])
        rel2 = rel.update_cells({(1, "v"): pv})
        view = rel2.column_view()
        assert view.pvalue_positions("v") == {1}
        assert view.pvalue_positions("k") == frozenset()

    def test_validate_backend(self):
        assert validate_backend(BACKEND_COLUMNAR) == "columnar"
        assert validate_backend(BACKEND_ROWSTORE) == "rowstore"
        with pytest.raises(ValueError):
            validate_backend("arrow")


class TestFiltering:
    @pytest.mark.parametrize("op,value", [
        ("<", 30), ("<=", 30), (">", 20), (">=", 20), ("=", 20), ("!=", 20),
        ("<", -1), (">", 1000), ("=", 12345), ("=", None),
    ])
    def test_matches_possible_worlds_scan_concrete(self, op, value):
        rel = make_relation()
        view = rel.column_view()
        assert view.filter_tids("v", op, value) == naive_filter(rel, "v", op, value)

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "=", "!="])
    def test_matches_with_pvalues(self, op):
        rel = make_relation()
        rel = rel.update_cells({
            (0, "v"): PValue([Candidate(10, 0.5), Candidate(25, 0.5)]),
            (4, "v"): PValue([Candidate(ValueRange(low=40.0, high=60.0), 1.0)]),
        })
        view = rel.column_view()
        for value in (-5, 10, 24, 25, 41, 60, 61):
            assert view.filter_tids("v", op, value) == naive_filter(rel, "v", op, value), (
                op, value,
            )

    def test_string_column_and_cross_type_constant(self):
        rel = make_relation()
        view = rel.column_view()
        assert view.filter_tids("s", "=", "a") == {0, 2}
        assert view.filter_tids("s", "<", "b") == {0, 2}
        # Incomparable constant: no row satisfies (same as cell_compare).
        assert view.filter_tids("s", "<", 42) == naive_filter(rel, "s", "<", 42)

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_nan_probe_matches_no_concrete_cell(self, op):
        # Regression: bisecting a NaN probe cut the sorted column at an
        # arbitrary place ("<=" / ">=" returned every position).
        rel = Relation.from_rows(
            [("x", ColumnType.FLOAT)], [(1.0,), (2.0,), (3.0,)], name="t"
        )
        nan = float("nan")
        assert rel.column_view().filter_positions("x", op, nan) == set()
        assert naive_filter(rel, "x", op, nan) == set()

    def test_nan_candidate_does_not_poison_the_bound(self):
        # Regression: min/max over candidates let a leading NaN become the
        # (nan, nan) bound, which dropped a cell both comparisons accept.
        cell = PValue(
            [Candidate(float("nan"), 0.5), Candidate(1.0, 0.25), Candidate(5.0, 0.25)]
        )
        rel = Relation.from_rows(
            [("x", ColumnType.FLOAT)], [(cell,), (2.0,)], name="t", validate=False
        )
        view = rel.column_view()
        assert cell_compare(cell, "<", 3.0) and cell_compare(cell, ">", 3.0)
        assert view.filter_positions("x", "<", 3.0) == {0, 1}
        assert view.filter_positions("x", ">", 3.0) == {0}

    def test_nan_cells_stay_out_of_the_sorted_index(self):
        rel = Relation.from_rows(
            [("x", ColumnType.FLOAT)],
            [(3.0,), (float("nan"),), (1.0,), (2.0,), (float("nan"),), (0.5,)],
            name="t",
        )
        view = rel.column_view()
        for op in ("<", "<=", ">", ">="):
            for value in (0.7, 2.0, 2.5):
                assert view.filter_tids("x", op, value) == naive_filter(
                    rel, "x", op, value
                ), (op, value)


class TestBoundsSidecar:
    """The sorted (min, max) sidecar behind range filters over PValues."""

    @staticmethod
    def _pv(*values):
        return PValue(
            Candidate(v, 1.0 / len(values), world=i) for i, v in enumerate(values)
        )

    def _relation(self, n=32):
        return Relation.from_rows(
            [("x", ColumnType.INT)],
            [(self._pv(i, i + 10),) for i in range(n)],
            name="t", validate=False,
        )

    @staticmethod
    def _sidecar(view):
        return view.derived(
            ("pv_bounds", "x"), ("x",), lambda: PValueBoundsSidecar.of_view(view, "x")
        )

    def test_orders_are_sorted_by_low_and_by_high_end(self):
        rel = self._relation(4).update_cells({(1, "x"): self._pv(-5, 50)})
        by_lo, by_hi = self._sidecar(rel.column_view()).orders
        assert (by_lo.values, by_lo.positions) == ([-5, 0, 2, 3], [1, 0, 2, 3])
        assert (by_hi.values, by_hi.positions) == ([10, 12, 13, 50], [0, 2, 3, 1])

    def test_unbounded_cells_are_loose_and_still_answered(self):
        rel = self._relation(4).update_cells({
            (0, "x"): self._pv("a", 3),        # candidates do not order
            (2, "x"): self._pv(None),          # no point at all
        })
        view = rel.column_view()
        assert self._sidecar(view).loose == {0, 2}
        for op in ("<", "<=", ">", ">="):
            assert view.filter_tids("x", op, 4) == naive_filter(rel, "x", op, 4)

    def test_incomparable_bounds_decline_and_recover(self):
        rel = self._relation(16)
        self._sidecar(rel.column_view())
        mixed = rel.update_cells({(5, "x"): self._pv("a", "b")})
        declined = self._sidecar(mixed.column_view())
        assert declined.orders is None
        hits, loose = declined.select("<", 4)
        assert not hits and set(loose) == set(range(16))
        assert mixed.column_view().filter_tids("x", "<", 4) == naive_filter(
            mixed, "x", "<", 4
        )
        healed = mixed.update_cells({(5, "x"): self._pv(5, 15)})
        assert self._sidecar(healed.column_view()).orders is not None

    @pytest.mark.parametrize("touched", [1, 3, 12])
    def test_patched_equals_cold_built(self, touched):
        # 1 and 3 of 32 cells slot in positionally, 12 forces the re-sort;
        # cells leave (concrete), enter loose (None) and move (new bound).
        rel = self._relation()
        self._sidecar(rel.column_view())
        cells = [7, self._pv(None), self._pv(-3, 99)]
        rel = rel.update_cells(
            {(tid * 2, "x"): cells[tid % 3] for tid in range(touched)}
        )
        patched = self._sidecar(rel.column_view())
        cold = PValueBoundsSidecar.of_view(ColumnView.from_relation(rel), "x")
        assert patched.bounds == cold.bounds and patched.loose == cold.loose
        for mine, theirs in zip(patched.orders, cold.orders):
            assert (mine.values, mine.positions) == (theirs.values, theirs.positions)


class TestPatching:
    def test_update_cells_carries_patched_view(self):
        rel = make_relation()
        old_view = rel.column_view()
        rel2 = rel.update_cells({(2, "v"): 99})
        new_view = rel2._colview
        assert new_view is not None and new_view is not old_view
        assert new_view.columns["v"][2] == 99
        # Untouched columns are shared, touched ones copied.
        assert new_view.columns["k"] is old_view.columns["k"]
        assert new_view.columns["v"] is not old_view.columns["v"]
        # The old view still answers for the old relation.
        assert old_view.columns["v"][2] == 30

    def test_patched_view_filters_fresh_values(self):
        rel = make_relation()
        view = rel.column_view()
        assert view.filter_tids("v", ">", 40) == {4}  # warm the sorted index
        rel2 = rel.update_cells({(0, "v"): 70})
        assert rel2.column_view().filter_tids("v", ">", 40) == {0, 4}
        assert rel.column_view().filter_tids("v", ">", 40) == {4}

    def test_patch_to_pvalue_and_back(self):
        rel = make_relation()
        rel.column_view().filter_tids("v", "=", 20)  # warm the hash index
        pv = PValue([Candidate(20, 0.5), Candidate(80, 0.5)])
        rel2 = rel.update_cells({(1, "v"): pv})
        view2 = rel2.column_view()
        assert view2.filter_tids("v", "=", 80) == {1}
        assert view2.filter_tids("v", "=", 20) == {1}
        rel3 = rel2.update_cells({(1, "v"): 80})
        view3 = rel3.column_view()
        assert view3.pvalue_positions("v") == set()
        assert view3.filter_tids("v", "=", 20) == set()
        assert view3.filter_tids("v", "=", 80) == {1}

    def test_apply_delta_patches_all_columns(self):
        from repro.relation.relation import Row

        rel = make_relation()
        rel.column_view()
        rel2 = rel.apply_delta({3: Row(3, (4, 44, "z"))})
        view = rel2.column_view()
        assert view.columns["v"][3] == 44
        assert view.columns["s"][3] == "z"

    def test_derived_cache_eviction_and_survival(self):
        rel = make_relation()
        view = rel.column_view()
        built = []

        def build_k():
            built.append("k")
            return {"which": "k"}

        view.derived("dk", ("k",), build_k)
        view.derived("dk", ("k",), build_k)
        assert built == ["k"]  # cached
        view2 = rel.update_cells({(1, "v"): 21}).column_view()
        # 'v' patch must not evict the k-derived entry...
        view2.derived("dk", ("k",), build_k)
        assert built == ["k"]
        # ...but a k patch must (no patch protocol on a plain dict payload).
        view3 = rel.update_cells({(1, "k"): 7}).column_view()
        view3.derived("dk", ("k",), build_k)
        assert built == ["k", "k"]

    def test_eviction_is_explicit_counted_and_logged(self, caplog):
        """Payloads without ``patched_for_view`` must not vanish silently:
        the eviction bumps a counter and emits a debug log record."""
        import logging

        rel = make_relation()
        view = rel.column_view()
        view.derived("dk", ("k",), lambda: {"which": "k"})
        view.derived("dv", ("v",), lambda: {"which": "v"})
        assert view.derived_evictions == 0
        with caplog.at_level(logging.DEBUG, logger="repro.relation.columnview"):
            view2 = rel.update_cells({(1, "k"): 7}).column_view()
        assert view2.derived_evictions == 1  # dk evicted, dv survived
        assert any("evicted derived payload" in r.message for r in caplog.records)
        # The counter is cumulative along the patch chain.
        rel2 = rel.update_cells({(1, "k"): 7})
        view3 = rel2.update_cells({(2, "v"): 99}).column_view()
        assert view3.derived_evictions == 2

    def test_group_index_matches_cold_rebuild_after_patch(self):
        """Regression: the group index is evicted (it is a plain tuple) when
        a patch touches its key attribute — the rebuilt index must equal a
        cold rebuild's, not answer with pre-patch groups."""
        rel = make_relation()
        view = rel.column_view()
        _order, groups = view.group_index(("s",))
        assert groups[("a",)] == [0, 2]
        updated = rel.update_cells({(0, "s"): "b", (4, "s"): "a"})
        patched = updated.column_view()
        cold = ColumnView.from_relation(updated)
        assert patched.group_index(("s",)) == cold.group_index(("s",))
        _order2, groups2 = patched.group_index(("s",))
        assert groups2[("a",)] == [2, 4]
        assert groups2[("b",)] == [0, 1]
        # Multi-key index over a touched attr rebuilds correctly too.
        assert patched.group_index(("s", "k")) == cold.group_index(("s", "k"))

    def test_hash_index_matches_cold_rebuild_after_patch(self):
        rel = make_relation()
        view = rel.column_view()
        assert view.hash_column("v")[20] == [1]
        updated = rel.update_cells({(1, "v"): 30, (4, "v"): 20})
        patched = updated.column_view()
        cold = ColumnView.from_relation(updated)
        assert patched.hash_column("v") == cold.hash_column("v")
        assert patched.hash_column("v")[30] == [1, 2]
        assert patched.hash_column("v")[20] == [4]
        # Untouched column's index object is shared, not rebuilt.
        view.sorted_column("k")
        patched_k = rel.update_cells({(1, "v"): 31}).column_view()
        assert patched_k._sorted["k"] is view._sorted["k"]


class TestDaisyIntegration:
    """End-to-end: Daisy's in-place fixes keep the cached view fresh."""

    def make_daisy(self):
        rel = Relation.from_rows(
            [("zip", ColumnType.INT), ("city", ColumnType.STRING)],
            [
                (9001, "Los Angeles"),
                (9001, "San Francisco"),
                (9001, "Los Angeles"),
                (10001, "San Francisco"),
                (10001, "New York"),
            ],
            name="cities",
        )
        daisy = Daisy(use_cost_model=False, backend="columnar")
        daisy.register_table("cities", rel)
        daisy.add_rule("cities", "zip -> city")
        return daisy

    def test_fix_patches_view_instead_of_rebuilding(self):
        daisy = self.make_daisy()
        before = daisy.table("cities").column_view()
        with daisy.connect() as session:
            session.execute("SELECT zip FROM cities WHERE city = 'Los Angeles'")
        after = daisy.table("cities").column_view()
        assert after.version > before.version  # patched lineage, not a rebuild
        assert daisy.probabilistic_cells("cities") > 0

    def test_view_matches_relation_after_fixes(self):
        daisy = self.make_daisy()
        with daisy.connect() as session:
            session.execute("SELECT zip FROM cities WHERE city = 'Los Angeles'")
            session.execute("SELECT city FROM cities WHERE zip = 10001")
        relation = daisy.table("cities")
        view = relation.column_view()
        fresh = ColumnView.from_relation(relation)
        assert view.tids == fresh.tids
        for attr in relation.schema.names:
            assert view.columns[attr] == fresh.columns[attr], attr
            assert set(view.pvalue_positions(attr)) == set(
                fresh.pvalue_positions(attr)
            ), attr

    def test_queries_after_fixes_see_probabilistic_matches(self):
        daisy = self.make_daisy()
        with daisy.connect() as session:
            session.execute("SELECT zip FROM cities WHERE city = 'Los Angeles'")
            # Tuple 2's city was repaired into a PValue containing 'Los Angeles';
            # a stale filter cache would miss it.
            result = session.execute("SELECT zip FROM cities WHERE city = 'Los Angeles'")
        tids = daisy.table("cities").column_view().filter_tids(
            "city", "=", "Los Angeles"
        )
        assert {0, 1, 2} <= tids
        assert len(result) >= 3
