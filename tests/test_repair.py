"""Tests for FD/DC repair, fix merging (Lemma 4), and provenance."""

import math

from hypothesis import given, settings, strategies as st

from repro.constraints import DenialConstraint, FunctionalDependency, Predicate
from repro.detection.thetajoin import ViolationPair
from repro.probabilistic import PValue, ValueRange
from repro.relation import ColumnType, Relation
from repro.repair import (
    CandidateFix,
    CellFix,
    ProvenanceStore,
    RepairDelta,
    apply_fd_delta,
    compute_dc_fixes,
    compute_fd_fixes,
    deltas_equivalent,
    inversion_sets,
    merge_commutes,
    merge_deltas,
)


class TestCellFix:
    def test_add_merges_same_value_world(self):
        fix = CellFix(tid=0, attr="a", original="x")
        fix.add(CandidateFix("x", frozenset({1}), world=0))
        fix.add(CandidateFix("x", frozenset({2}), world=0))
        assert len(fix.candidates) == 1
        assert fix.candidates[0].support == frozenset({1, 2})

    def test_to_pvalue_weights_by_support(self):
        fix = CellFix(tid=0, attr="a", original="x")
        fix.add(CandidateFix("x", frozenset({1, 2}), world=0))
        fix.add(CandidateFix("y", frozenset({3}), world=0))
        pv = fix.to_pvalue()
        assert math.isclose(pv.probability_of("x"), 2 / 3)

    def test_is_trivial(self):
        fix = CellFix(tid=0, attr="a", original="x")
        fix.add(CandidateFix("x", frozenset({0}), world=0))
        assert fix.is_trivial()
        fix.add(CandidateFix("y", frozenset({1}), world=0))
        assert not fix.is_trivial()


    def test_add_after_direct_append_sees_the_appended_key(self):
        # fd_repair appends to ``candidates`` directly; the index must not
        # go stale under it.
        fix = CellFix(tid=0, attr="a", original="x")
        fix.add(CandidateFix("x", frozenset({0}), 0))
        fix.candidates.append(CandidateFix("y", frozenset({1}), 0))
        fix.add(CandidateFix("y", frozenset({2}), 0))
        assert [(c.value, c.support) for c in fix.candidates] == [
            ("x", frozenset({0})),
            ("y", frozenset({1, 2})),
        ]

    def test_nan_never_merges_and_equal_numbers_do(self):
        nan = float("nan")
        fix = CellFix(tid=0, attr="a", original=1)
        for tid, value in enumerate((nan, nan, 1, 1.0, True)):
            fix.add(CandidateFix(value, frozenset({tid}), 0))
        assert [c.support for c in fix.candidates] == [
            frozenset({0}), frozenset({1}), frozenset({2, 3, 4})
        ]
        assert type(fix.candidates[2].value) is int  # the first spelling is kept


def _reference_add(fix: CellFix, candidate: CandidateFix) -> None:
    """The linear (value, world) scan ``CellFix.add`` used to be."""
    for i, existing in enumerate(fix.candidates):
        if existing.value == candidate.value and existing.world == candidate.world:
            fix.candidates[i] = CandidateFix(
                existing.value, existing.support | candidate.support, existing.world
            )
            return
    fix.candidates.append(candidate)


_NAN = float("nan")
_fix_value = st.one_of(
    st.integers(0, 3),
    st.sampled_from([1, 1.0, True, 0, 0.0, False, "a", "b", "1", _NAN]),
    st.builds(float, st.just("nan")),  # a NaN object of its own
    st.builds(
        ValueRange,
        low=st.sampled_from([None, 1, 1.0, 2.5]),
        low_open=st.booleans(),
    ),
)
_fix_step = st.tuples(
    st.sampled_from(["add", "add", "add", "append"]),
    _fix_value,
    st.integers(0, 2),
    st.sets(st.integers(0, 5), max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_fix_step, max_size=30))
def test_keyed_add_equals_linear_scan(steps):
    keyed = CellFix(tid=0, attr="a", original=0)
    scanned = CellFix(tid=0, attr="a", original=0)
    for how, value, world, support in steps:
        candidate = CandidateFix(value, frozenset(support), world)
        if how == "append":  # producers with unique-by-construction keys
            keyed.candidates.append(candidate)
            scanned.candidates.append(candidate)
        else:
            keyed.add(candidate)
            _reference_add(scanned, candidate)

    def shape(fix):
        return [(repr(c.value), sorted(c.support), c.world) for c in fix.candidates]

    assert shape(keyed) == shape(scanned)
    if keyed.candidates:
        assert repr(keyed.to_pvalue()) == repr(scanned.to_pvalue())


def test_dc_fix_accumulation_is_linear_in_violations(monkeypatch):
    """A star of k violations sharing one cell: the ``ValueRange.__eq__``
    calls per violation must not grow with k (the scan made them ~k)."""
    calls = [0]
    original_eq = ValueRange.__eq__

    def counting_eq(self, other):
        calls[0] += 1
        return original_eq(self, other)

    monkeypatch.setattr(ValueRange, "__eq__", counting_eq)
    dc = DenialConstraint(
        [Predicate(0, "a", "<", 1, "a"), Predicate(0, "b", ">", 1, "b")], name="dc"
    )

    def eq_calls(k: int) -> int:
        rel = Relation.from_rows(
            [("a", ColumnType.INT), ("b", ColumnType.INT)],
            [(0, 10_000)] + [(i, 10_000 - i) for i in range(1, k + 1)],
        )
        calls[0] = 0
        delta = compute_dc_fixes(rel, dc, [ViolationPair(0, i) for i in range(1, k + 1)])
        assert len(delta.fixes[(0, "a")].candidates) == 2 * k
        return calls[0]

    small, large = eq_calls(200), eq_calls(400)
    assert large <= 2.2 * max(small, 1)


class TestRepairDelta:
    def test_add_fix_merges_per_cell(self):
        delta = RepairDelta()
        a = CellFix(tid=0, attr="a", original="x", rules={"r1"})
        a.add(CandidateFix("x", frozenset({0}), 0))
        b = CellFix(tid=0, attr="a", original="x", rules={"r2"})
        b.add(CandidateFix("y", frozenset({1}), 0))
        delta.add_fix(a)
        delta.add_fix(b)
        assert len(delta) == 1
        assert delta.fixes[(0, "a")].rules == {"r1", "r2"}

    def test_trivial_fixes_skipped_in_updates(self):
        delta = RepairDelta()
        fix = CellFix(tid=0, attr="a", original="x")
        fix.add(CandidateFix("x", frozenset({0}), 0))
        delta.add_fix(fix)
        assert delta.cell_updates() == {}


class TestFdRepair:
    """Example 2 semantics (Table 2b)."""

    def fixes_for_la_query(self, cities_relation, zip_city_fd):
        delta, groups = compute_fd_fixes(
            cities_relation,
            zip_city_fd,
            scope_tids={0, 1, 2},
            consult_tids={3},
        )
        return delta, groups

    def test_only_violating_group_repaired(self, cities_relation, zip_city_fd):
        delta, groups = self.fixes_for_la_query(cities_relation, zip_city_fd)
        assert groups == {(9001,)}
        assert all(tid in (0, 1, 2) for tid, _ in delta.fixes)

    def test_rhs_candidates_frequency(self, cities_relation, zip_city_fd):
        delta, _ = self.fixes_for_la_query(cities_relation, zip_city_fd)
        city_fix = delta.fixes[(0, "city")]
        pv = city_fix.to_pvalue()
        assert math.isclose(pv.probability_of("Los Angeles"), 2 / 3)
        assert math.isclose(pv.probability_of("San Francisco"), 1 / 3)

    def test_lhs_candidates_use_consult_tuples(self, cities_relation, zip_city_fd):
        # Tuple 1 (9001, SF): zip candidates {9001, 10001} via the consulted
        # (10001, SF) tuple — exactly Table 2b.
        delta, _ = self.fixes_for_la_query(cities_relation, zip_city_fd)
        zip_fix = delta.fixes[(1, "zip")]
        assert set(zip_fix.values()) == {9001, 10001}

    def test_consult_tuples_not_repaired(self, cities_relation, zip_city_fd):
        delta, _ = self.fixes_for_la_query(cities_relation, zip_city_fd)
        assert (3, "city") not in delta.fixes
        assert (3, "zip") not in delta.fixes

    def test_unambiguous_lhs_stays_concrete(self, cities_relation, zip_city_fd):
        # Tuples 0 and 2 (9001, LA): all LA tuples share zip 9001, so no
        # world-2 instance and no zip fix.
        delta, _ = self.fixes_for_la_query(cities_relation, zip_city_fd)
        assert (0, "zip") not in delta.fixes
        assert (2, "zip") not in delta.fixes

    def test_two_instances_have_two_worlds(self, cities_relation, zip_city_fd):
        delta, _ = self.fixes_for_la_query(cities_relation, zip_city_fd)
        city_fix = delta.fixes[(1, "city")]
        assert city_fix.world_ids() == {1, 2}

    def test_skip_group_keys(self, cities_relation, zip_city_fd):
        delta, groups = compute_fd_fixes(
            cities_relation,
            zip_city_fd,
            scope_tids={0, 1, 2, 3, 4},
            skip_group_keys={(9001,)},
        )
        assert groups == {(10001,)}

    def test_apply_records_provenance(self, cities_relation, zip_city_fd):
        delta, _ = self.fixes_for_la_query(cities_relation, zip_city_fd)
        prov = ProvenanceStore()
        updated = apply_fd_delta(cities_relation, delta, provenance=prov)
        assert prov.original(0, "city") == "Los Angeles"
        assert isinstance(updated.row_by_tid(0).values[1], PValue)

    def test_composite_lhs_fix(self):
        fd = FunctionalDependency(("a", "b"), "c")
        rel = Relation.from_rows(
            [("a", ColumnType.INT), ("b", ColumnType.INT), ("c", ColumnType.STRING)],
            [(1, 1, "x"), (1, 1, "y"), (1, 1, "x")],
        )
        delta, groups = compute_fd_fixes(rel, fd, scope_tids={0, 1, 2})
        assert groups == {(1, 1)}
        pv = delta.fixes[(0, "c")].to_pvalue()
        assert math.isclose(pv.probability_of("x"), 2 / 3)


class TestDcRepair:
    """Example 5 semantics (holistic range fixes)."""

    def dc(self):
        return DenialConstraint(
            [
                Predicate(0, "salary", "<", 1, "salary"),
                Predicate(0, "tax", ">", 1, "tax"),
            ],
            name="dc",
        )

    def test_inversion_sets_single_atoms(self):
        sets = inversion_sets(self.dc())
        assert sets == [(0,), (1,)]

    def test_inversion_sets_frozen(self):
        sets = inversion_sets(self.dc(), frozen_atoms={0})
        assert sets == [(1,)]

    def test_example5_candidates(self, salary_tax_relation):
        # Violating pair: t3=(2000, 0.3) and t2=(3000, 0.2) → (t1=2, t2=1).
        delta = compute_dc_fixes(
            salary_tax_relation, self.dc(), [ViolationPair(2, 1)]
        )
        # t2's salary: {3000 or < 2000-ish range}; t2's tax: {0.2 or >= 0.3}.
        sal_fix = delta.fixes[(1, "salary")]
        values = sal_fix.values()
        assert 3000 in values
        ranges = [v for v in values if isinstance(v, ValueRange)]
        assert ranges and ranges[0].high == 2000.0

        tax_fix = delta.fixes[(1, "tax")]
        tax_ranges = [v for v in tax_fix.values() if isinstance(v, ValueRange)]
        assert tax_ranges and tax_ranges[0].low == 0.3

    def test_both_tuples_get_options(self, salary_tax_relation):
        delta = compute_dc_fixes(
            salary_tax_relation, self.dc(), [ViolationPair(2, 1)]
        )
        assert (2, "salary") in delta.fixes  # t3's salary can also change
        assert (2, "tax") in delta.fixes

    def test_fifty_fifty_probabilities(self, salary_tax_relation):
        delta = compute_dc_fixes(
            salary_tax_relation, self.dc(), [ViolationPair(2, 1)]
        )
        pv = delta.fixes[(1, "salary")].to_pvalue()
        assert math.isclose(pv.probability_of(3000), 0.5)

    def test_three_atom_dc(self):
        dc = DenialConstraint(
            [
                Predicate(0, "salary", "<", 1, "salary"),
                Predicate(0, "age", "<", 1, "age"),
                Predicate(0, "tax", ">", 1, "tax"),
            ]
        )
        rel = Relation.from_rows(
            [("salary", ColumnType.INT), ("tax", ColumnType.FLOAT), ("age", ColumnType.INT)],
            [(1000, 0.1, 31), (3000, 0.2, 32), (2000, 0.3, 43)],
        )
        sets = inversion_sets(dc)
        assert sets == [(0,), (1,), (2,)]
        delta = compute_dc_fixes(rel, dc, [ViolationPair(2, 1)])
        # age fixes must appear too (the ϕ2 discussion in Example 5)
        assert (1, "age") in delta.fixes or (2, "age") in delta.fixes

    def test_disequality_atom_produces_value_fix(self):
        dc = DenialConstraint(
            [Predicate(0, "a", "=", 1, "a"), Predicate(0, "b", "!=", 1, "b")]
        )
        # force the DC path (normally FD-shaped goes the FD way)
        rel = Relation.from_rows(
            [("a", ColumnType.INT), ("b", ColumnType.INT)], [(1, 10), (1, 20)]
        )
        delta = compute_dc_fixes(rel, dc, [ViolationPair(0, 1)])
        b_fix = delta.fixes[(0, "b")]
        assert 20 in b_fix.values()


class TestMerge:
    """Lemma 4: merging candidate sets is commutative."""

    def make_delta(self, rule, value, support):
        delta = RepairDelta()
        fix = CellFix(tid=0, attr="x", original="o", rules={rule})
        fix.add(CandidateFix("o", frozenset({0}), 0))
        fix.add(CandidateFix(value, frozenset(support), 0))
        delta.add_fix(fix)
        return delta

    def test_merge_unions_support(self):
        a = self.make_delta("r1", "v", {1, 2})
        b = self.make_delta("r2", "v", {3})
        merged = merge_deltas([a, b])
        fix = merged.fixes[(0, "x")]
        cand = next(c for c in fix.candidates if c.value == "v")
        assert cand.support == frozenset({1, 2, 3})

    def test_lemma4_commutativity(self):
        a = self.make_delta("r1", "v", {1, 2})
        b = self.make_delta("r2", "w", {3})
        c = self.make_delta("r3", "v", {4})
        assert merge_commutes([a, b, c])

    def test_merged_probability_reflects_union(self):
        # P(X | Y ∪ Z): supports {1,2} and {2,3} → union size 3 of 4 total.
        a = self.make_delta("r1", "v", {1, 2})
        b = self.make_delta("r2", "v", {2, 3})
        merged = merge_deltas([a, b])
        pv = merged.fixes[(0, "x")].to_pvalue()
        assert math.isclose(pv.probability_of("v"), 3 / 4)

    def test_deltas_equivalent_detects_difference(self):
        a = self.make_delta("r1", "v", {1})
        b = self.make_delta("r1", "w", {1})
        assert not deltas_equivalent(a, b)

    def test_merge_leaves_its_inputs_untouched(self):
        inputs = [
            self.make_delta("r1", "v", {1, 2}),
            self.make_delta("r2", "v", {3}),
            self.make_delta("r3", "w", {4}),
        ]

        def snapshot():
            return [
                (key, list(fix.candidates), set(fix.rules))
                for delta in inputs
                for key, fix in delta.fixes.items()
            ]

        before = snapshot()
        merged = merge_deltas(inputs)
        assert snapshot() == before
        assert all(
            merged.fixes[key] is not delta.fixes[key]
            for delta in inputs
            for key in delta.fixes
        )
        assert merged.fixes[(0, "x")].rules == {"r1", "r2", "r3"}
        assert merge_deltas(inputs[:1]) is inputs[0]  # nothing to merge or copy

    def test_merge_commutes_fails_on_an_order_dependent_merge(self):
        class FirstTwoWin(CellFix):
            """Keeps the first two candidates it is given: order-dependent."""

            def add(self, candidate):
                if len(self.candidates) < 2:
                    super().add(candidate)

        def fake(rule, value):
            delta = RepairDelta()
            fix = FirstTwoWin(tid=0, attr="x", original="o", rules={rule})
            fix.add(CandidateFix("o", frozenset({0}), 0))
            fix.add(CandidateFix(value, frozenset({1}), 0))
            delta.add_fix(fix)
            return delta

        assert not merge_commutes([fake("r1", "v"), fake("r2", "w")])


class TestProvenance:
    def test_first_writer_wins(self):
        prov = ProvenanceStore()
        prov.record_original(0, "a", "first", "r1")
        prov.record_original(0, "a", "second", "r2")
        assert prov.original(0, "a") == "first"
        assert prov.rules_of(0, "a") == {"r1", "r2"}

    def test_checked_groups(self):
        prov = ProvenanceStore()
        prov.mark_checked("r1", {(1,), (2,)})
        assert prov.is_checked("r1", (1,))
        assert not prov.is_checked("r2", (1,))
        prov.reset_rule("r1")
        assert not prov.is_checked("r1", (1,))

    def test_repaired_cells(self):
        prov = ProvenanceStore()
        prov.record_original(3, "b", 42, "r")
        assert prov.is_repaired(3, "b")
        assert prov.repaired_cells() == {(3, "b")}
        assert len(prov) == 1


# ---------------------------------------------------------------------------
# Property: Lemma 4 commutativity over random per-rule deltas
# ---------------------------------------------------------------------------

fix_st = st.tuples(
    st.sampled_from(["v1", "v2", "v3"]),
    st.sets(st.integers(1, 6), min_size=1, max_size=3),
)


@settings(max_examples=40)
@given(st.lists(st.lists(fix_st, min_size=1, max_size=3), min_size=2, max_size=4))
def test_merge_commutativity_property(per_rule_fixes):
    deltas = []
    for i, fixes in enumerate(per_rule_fixes):
        delta = RepairDelta()
        cell = CellFix(tid=0, attr="x", original="o", rules={f"r{i}"})
        cell.add(CandidateFix("o", frozenset({0}), 0))
        for value, support in fixes:
            cell.add(CandidateFix(value, frozenset(support), 0))
        delta.add_fix(cell)
        deltas.append(delta)
    assert merge_commutes(deltas)
