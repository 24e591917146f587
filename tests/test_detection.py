"""Tests for FD group detection and the theta-join matrix."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints import DenialConstraint, Predicate
from repro.detection import (
    ThetaJoinMatrix,
    decide_cleaning,
    detect_fd_violations,
    estimate_errors,
    violating_lhs_keys,
)
from repro.engine import WorkCounter
from repro.errors import ConstraintError
from repro.relation import ColumnType, Relation


def salary_tax_dc() -> DenialConstraint:
    return DenialConstraint(
        [Predicate(0, "salary", "<", 1, "salary"), Predicate(0, "tax", ">", 1, "tax")],
        name="dc_sal_tax",
    )


def make_salary_relation(rows):
    return Relation.from_rows(
        [("salary", ColumnType.FLOAT), ("tax", ColumnType.FLOAT)], rows
    )


class TestFdDetection:
    def test_finds_violating_groups(self, cities_relation, zip_city_fd):
        report = detect_fd_violations(cities_relation, zip_city_fd)
        keys = {g.lhs_key for g in report.groups}
        assert keys == {(9001,), (10001,)}

    def test_violating_tids(self, cities_relation, zip_city_fd):
        report = detect_fd_violations(cities_relation, zip_city_fd)
        assert report.violating_tids() == {0, 1, 2, 3, 4}

    def test_violation_pairs(self, cities_relation, zip_city_fd):
        report = detect_fd_violations(cities_relation, zip_city_fd)
        pairs = set(report.violation_pairs())
        assert (0, 1) in pairs and (1, 2) in pairs and (3, 4) in pairs
        assert (0, 2) not in pairs

    def test_scope_restriction(self, cities_relation, zip_city_fd):
        report = detect_fd_violations(cities_relation, zip_city_fd, tids={0, 1})
        assert {g.lhs_key for g in report.groups} == {(9001,)}

    def test_clean_relation_no_groups(self, zip_city_fd):
        rel = Relation.from_rows(
            [("zip", ColumnType.INT), ("city", ColumnType.STRING)],
            [(1, "A"), (1, "A"), (2, "B")],
        )
        report = detect_fd_violations(rel, zip_city_fd)
        assert not report

    def test_originals_override_current_values(self, cities_relation, zip_city_fd):
        # Pretend tid 1's city was already repaired; grouping must use the
        # original value.
        originals = {(1, "city"): "San Francisco"}
        report = detect_fd_violations(
            cities_relation, zip_city_fd, originals=originals
        )
        assert (9001,) in {g.lhs_key for g in report.groups}

    def test_violating_lhs_keys(self, cities_relation, zip_city_fd):
        assert violating_lhs_keys(cities_relation, zip_city_fd) == {(9001,), (10001,)}

    def test_work_charged(self, cities_relation, zip_city_fd):
        wc = WorkCounter()
        detect_fd_violations(cities_relation, zip_city_fd, counter=wc)
        assert wc.tuples_scanned == 5


class TestThetaJoinMatrix:
    def test_rejects_non_binary(self):
        dc = DenialConstraint([Predicate(0, "a", ">", constant=1)])
        rel = make_salary_relation([(1.0, 0.1)])
        with pytest.raises(ConstraintError):
            ThetaJoinMatrix(rel, dc)

    def test_finds_paper_violation(self, salary_tax_relation):
        matrix = ThetaJoinMatrix(salary_tax_relation, salary_tax_dc(), sqrt_p=2)
        pairs = {(v.t1, v.t2) for v in matrix.check_full()}
        assert pairs == {(2, 1)}

    def test_full_check_equals_bruteforce(self):
        import random

        rng = random.Random(0)
        rows = [(rng.uniform(0, 100), rng.uniform(0, 1)) for _ in range(60)]
        rel = make_salary_relation(rows)
        dc = salary_tax_dc()
        matrix = ThetaJoinMatrix(rel, dc, sqrt_p=4)
        found = {(v.t1, v.t2) for v in matrix.check_full()}
        brute = set(dc.find_violations(rel))
        assert found == brute

    def test_incremental_no_rechecking(self, salary_tax_relation):
        matrix = ThetaJoinMatrix(salary_tax_relation, salary_tax_dc(), sqrt_p=2)
        first = matrix.check_partial({0, 1, 2})
        cells_after_first = set(matrix.checked_cells)
        second = matrix.check_partial({0, 1, 2})
        assert second == []  # nothing left to check for these stripes
        assert set(matrix.checked_cells) == cells_after_first

    def test_partial_then_full_equals_full(self):
        import random

        rng = random.Random(1)
        rows = [(rng.uniform(0, 100), rng.uniform(0, 1)) for _ in range(50)]
        rel = make_salary_relation(rows)
        dc = salary_tax_dc()
        m1 = ThetaJoinMatrix(rel, dc, sqrt_p=4)
        part = {(v.t1, v.t2) for v in m1.check_partial(set(range(10)))}
        rest = {(v.t1, v.t2) for v in m1.check_full()}
        m2 = ThetaJoinMatrix(rel, dc, sqrt_p=4)
        full = {(v.t1, v.t2) for v in m2.check_full()}
        assert part | rest == full
        assert part & rest == set()  # no duplicate checking

    def test_support_grows(self, salary_tax_relation):
        matrix = ThetaJoinMatrix(salary_tax_relation, salary_tax_dc(), sqrt_p=2)
        assert matrix.support() == 0.0
        matrix.check_full()
        assert matrix.support() == 1.0

    def test_pruning_counted(self):
        # Monotone data (no violations): boxes should prune most cells.
        rows = [(float(i), float(i) / 100.0) for i in range(100)]
        rel = make_salary_relation(rows)
        wc = WorkCounter()
        matrix = ThetaJoinMatrix(rel, salary_tax_dc(), sqrt_p=8, counter=wc)
        assert matrix.check_full() == []
        assert wc.partitions_pruned > 0

    def test_stripes_overlapping_range(self, salary_tax_relation):
        matrix = ThetaJoinMatrix(salary_tax_relation, salary_tax_dc(), sqrt_p=2)
        stripes = matrix.stripes_overlapping_range(900.0, 1100.0)
        assert stripes  # the 1000-salary tuple's stripe

    def test_serial_order_is_canonical(self):
        """Each cell returns its violations in (t1, t2) order, and
        ``check_full`` is the cells' lists concatenated in cell order."""
        from repro.datasets.errors import inject_numeric_errors

        rows = [(100.0 + i * 10.0, round(0.01 + i * 0.0001, 6)) for i in range(120)]
        rel, _ = inject_numeric_errors(
            make_salary_relation(rows), "tax", cell_fraction=0.05, magnitude=3.0, seed=7
        )
        matrix = ThetaJoinMatrix(rel, salary_tax_dc(), sqrt_p=4, counter=WorkCounter())
        per_cell = [matrix._check_cell(i, j) for i, j in matrix.candidate_cells()]
        for violations in per_cell:
            assert violations == sorted(violations, key=lambda v: (v.t1, v.t2))
        flat = [v for chunk in per_cell for v in chunk]
        assert flat
        fresh = ThetaJoinMatrix(rel, salary_tax_dc(), sqrt_p=4, counter=WorkCounter())
        assert fresh.check_full() == flat


class TestEstimator:
    def test_no_errors_on_monotone_data(self):
        rows = [(float(i), float(i) / 100.0) for i in range(50)]
        rel = make_salary_relation(rows)
        matrix = ThetaJoinMatrix(rel, salary_tax_dc(), sqrt_p=5)
        estimates = estimate_errors(matrix)
        assert sum(e.estimated_errors for e in estimates) == 0.0

    def test_errors_estimated_on_shuffled_tax(self):
        import random

        rng = random.Random(2)
        rows = [(float(i), rng.uniform(0, 1)) for i in range(50)]
        rel = make_salary_relation(rows)
        matrix = ThetaJoinMatrix(rel, salary_tax_dc(), sqrt_p=5)
        estimates = estimate_errors(matrix)
        assert sum(e.estimated_errors for e in estimates) > 0.0

    def test_decision_full_on_dirty_data(self):
        import random

        rng = random.Random(3)
        rows = [(float(i), rng.uniform(0, 1)) for i in range(100)]
        rel = make_salary_relation(rows)
        matrix = ThetaJoinMatrix(rel, salary_tax_dc(), sqrt_p=5)
        decision = decide_cleaning(matrix, list(range(10)), rel, threshold=0.05)
        assert decision.full_cleaning
        assert decision.error_rate > 0.05

    def test_decision_partial_on_clean_data(self):
        rows = [(float(i), float(i) / 100.0) for i in range(100)]
        rel = make_salary_relation(rows)
        matrix = ThetaJoinMatrix(rel, salary_tax_dc(), sqrt_p=5)
        decision = decide_cleaning(matrix, list(range(10)), rel, threshold=0.05)
        assert not decision.full_cleaning
        assert decision.error_rate == 0.0


# ---------------------------------------------------------------------------
# Property: matrix detection == brute force on random data
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=1, allow_nan=False),
        ),
        min_size=2,
        max_size=25,
    ),
    st.integers(1, 5),
)
def test_matrix_equals_bruteforce_property(rows, sqrt_p):
    rel = make_salary_relation(rows)
    dc = salary_tax_dc()
    matrix = ThetaJoinMatrix(rel, dc, sqrt_p=sqrt_p)
    found = {(v.t1, v.t2) for v in matrix.check_full()}
    brute = set(dc.find_violations(rel))
    assert found == brute
