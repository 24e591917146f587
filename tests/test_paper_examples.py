"""End-to-end checks of every worked example and lemma in the paper.

These tests pin the reproduction to the paper's own numbers: candidate sets
and probabilities from Tables 2b/3/4e, the Example 5 range fixes, the
Example 1 employees scenario, and the correctness/termination claims of
Lemmas 1-5.
"""

import math

import pytest

from repro import Daisy
from repro.constraints import (
    DenialConstraint,
    FilterSide,
    FunctionalDependency,
    Predicate,
)
from repro.core.relaxation import relax_fd
from repro.probabilistic import PValue, ValueRange
from repro.relation import ColumnType, Relation


class TestExample1Employees:
    """Table 1: Jon/Jim share zip 9001 with conflicting cities."""

    def test_los_angeles_analysis_recovers_jim(self, employees_relation):
        daisy = Daisy()
        daisy.register_table("employees", employees_relation)
        daisy.add_rule("employees", "zip -> city")
        with daisy.connect() as session:
            result = session.execute(
                "SELECT name FROM employees WHERE city = 'Los Angeles'"
            )
        names = {row.values[0] for row in result.relation.rows}
        # Jim's city may be Los Angeles after cleaning: he joins the result.
        assert names == {"Jon", "Jim"}

    def test_mary_jane_not_touched(self, employees_relation):
        # zip 10001 and 10002 both map to New York — no violation there.
        daisy = Daisy(use_cost_model=False)
        daisy.register_table("employees", employees_relation)
        daisy.add_rule("employees", "zip -> city")
        with daisy.connect() as session:
            session.execute("SELECT name FROM employees WHERE city = 'Los Angeles'")
        rel = daisy.table("employees")
        assert not isinstance(rel.row_by_tid(2).values[2], PValue)
        assert not isinstance(rel.row_by_tid(3).values[2], PValue)


class TestTable2bProbabilities:
    """Exact candidate probabilities of the partially-clean version."""

    @pytest.fixture
    def cleaned(self, cities_relation):
        # Without the cost model: pin the exact Table 2b intermediate state
        # (the strategy switch would otherwise clean the 10001 group too).
        daisy = Daisy(use_cost_model=False)
        daisy.register_table("cities", cities_relation)
        daisy.add_rule("cities", "zip -> city", name="phi")
        with daisy.connect() as session:
            session.execute("SELECT zip FROM cities WHERE city = 'Los Angeles'")
        return daisy.table("cities")

    def test_tuple0_city_candidates(self, cleaned):
        cell = cleaned.row_by_tid(0).values[1]
        assert isinstance(cell, PValue)
        # P(City|Zip=9001) = {LA 2/3, SF 1/3}
        assert math.isclose(cell.probability_of("Los Angeles"), 2 / 3, abs_tol=0.01)

    def test_tuple1_zip_candidates_fifty_fifty_within_world(self, cleaned):
        cell = cleaned.row_by_tid(1).values[0]
        assert isinstance(cell, PValue)
        # P(Zip|City=SF) = {9001 50%, 10001 50%} within the fix-lhs world.
        world2 = [c for c in cell.candidates if c.world == 2]
        assert {c.value for c in world2} == {9001, 10001}
        probs = sorted(c.prob for c in world2)
        assert math.isclose(probs[0], probs[1], abs_tol=1e-9)

    def test_tuples_3_4_untouched(self, cleaned):
        for tid in (3, 4):
            row = cleaned.row_by_tid(tid)
            assert not isinstance(row.values[0], PValue)
            assert not isinstance(row.values[1], PValue)


class TestTable3Result:
    """The lhs-filter query returns exactly the four tuples of Table 3."""

    def test_result_tids(self, cities_relation):
        daisy = Daisy(use_cost_model=False)
        daisy.register_table("cities", cities_relation)
        daisy.add_rule("cities", "zip -> city", name="phi")
        with daisy.connect() as session:
            result = session.execute("SELECT city FROM cities WHERE zip = 9001")
        assert {r.tid for r in result.relation.rows} == {0, 1, 2, 3}

    def test_tuple4_repaired_but_not_in_result(self, cities_relation):
        daisy = Daisy(use_cost_model=False)
        daisy.register_table("cities", cities_relation)
        daisy.add_rule("cities", "zip -> city", name="phi")
        with daisy.connect() as session:
            session.execute("SELECT city FROM cities WHERE zip = 9001")
        rel = daisy.table("cities")
        # (10001, New York) was repaired by the closure (Table 3 shows its
        # city as {SF 50%, NY 50%}) yet its zip stays 10001 — excluded.
        assert isinstance(rel.row_by_tid(4).values[1], PValue)
        assert not isinstance(rel.row_by_tid(4).values[0], PValue)


class TestExample5RangeFixes:
    def test_fix_values_match_paper(self, salary_tax_relation):
        from repro.detection.thetajoin import ViolationPair
        from repro.repair import compute_dc_fixes

        dc = DenialConstraint(
            [
                Predicate(0, "salary", "<", 1, "salary"),
                Predicate(0, "tax", ">", 1, "tax"),
            ]
        )
        delta = compute_dc_fixes(salary_tax_relation, dc, [ViolationPair(2, 1)])
        # t2 = (3000, 0.2): salary ∈ {3000, <~2000}, tax ∈ {0.2, >=0.3}
        sal = delta.fixes[(1, "salary")].to_pvalue()
        assert math.isclose(sal.probability_of(3000), 0.5)
        tax_values = delta.fixes[(1, "tax")].values()
        ranges = [v for v in tax_values if isinstance(v, ValueRange)]
        assert ranges[0].low == 0.3 and not ranges[0].low_open


class TestLemmas:
    def test_lemma1_one_iteration_rhs(self, cities_relation, zip_city_fd):
        result = relax_fd(cities_relation, {0, 2}, zip_city_fd, FilterSide.RHS)
        assert result.iterations == 1

    def test_lemma2_lhs_needs_more_iterations(self, cities_relation, zip_city_fd):
        result = relax_fd(cities_relation, {0, 1, 2}, zip_city_fd, FilterSide.LHS)
        assert result.iterations > 1

    def test_lemma3_bound_holds_on_random_data(self):
        import random

        from repro.core.relaxation import estimate_relaxed_size

        rng = random.Random(0)
        rows = [(rng.randrange(8), rng.randrange(8)) for _ in range(60)]
        rel = Relation.from_rows(
            [("a", ColumnType.INT), ("b", ColumnType.INT)], rows
        )
        fd = FunctionalDependency("a", "b")
        answer = set(range(10))
        bound = estimate_relaxed_size(rel, answer, fd)
        one_iter = relax_fd(rel, answer, fd, FilterSide.LHS, max_iterations=1)
        assert len(one_iter.extra_tids) <= bound

    def test_lemma5_join_update_stable(self):
        """Re-cleaning an updated join result finds nothing new."""
        from repro.core import TableState, clean_join
        from repro.probabilistic import join_with_lineage

        left = Relation.from_rows(
            [("zip", ColumnType.INT), ("city", ColumnType.STRING)],
            [(1, "A"), (1, "B"), (2, "C")],
            name="L",
        )
        right = Relation.from_rows(
            [("zip", ColumnType.INT), ("x", ColumnType.INT)],
            [(1, 10), (2, 20)],
            name="R",
        )
        l_state = TableState(relation=left)
        l_state.add_rule(FunctionalDependency("zip", "city", name="f"))
        r_state = TableState(relation=right)
        jr = join_with_lineage(l_state.relation, r_state.relation, "zip", "zip")
        updated, first = clean_join(l_state, r_state, jr)
        again, second = clean_join(l_state, r_state, updated)
        assert second.errors_fixed == 0
        assert len(again.relation) == len(updated.relation)


class TestIncrementalSeenTuples:
    """The Section 5.2.2 memory: later queries scan less."""

    def test_second_query_scans_fewer_tuples(self):
        from repro.core import TableState, clean_sigma

        rows = [(i % 20, i % 7) for i in range(200)]
        rel = Relation.from_rows(
            [("a", ColumnType.INT), ("b", ColumnType.INT)], rows
        )
        fd = FunctionalDependency("a", "b", name="f")
        state = TableState(relation=rel)
        state.add_rule(fd)

        answer1 = {r.tid for r in rel.where("a", "<", 5)}
        before = state.counter.tuples_scanned
        clean_sigma(state, answer1, where_attrs=["a"], projection=["b"])
        first_scans = state.counter.tuples_scanned - before

        answer2 = {r.tid for r in state.relation.where("a", ">=", 5)}
        before = state.counter.tuples_scanned
        clean_sigma(state, answer2, where_attrs=["a"], projection=["b"])
        second_scans = state.counter.tuples_scanned - before
        assert second_scans < first_scans

    def test_incremental_result_matches_offline(self):
        """Splitting the workload must not change the final repairs."""
        from repro.baselines import OfflineCleaner

        rows = [(i % 10, (i * 3) % 4) for i in range(80)]
        rel = Relation.from_rows(
            [("a", ColumnType.INT), ("b", ColumnType.INT)], rows, name="t"
        )
        fd = FunctionalDependency("a", "b", name="f")

        daisy = Daisy(use_cost_model=False)
        daisy.register_table("t", Relation(rel.schema, list(rel.rows), name="t"))
        daisy.add_rule("t", fd)
        with daisy.connect() as session:
            session.execute("SELECT b FROM t WHERE a < 5")
            session.execute("SELECT b FROM t WHERE a >= 5")
        incremental = daisy.table("t")

        offline_rel, _ = OfflineCleaner().clean(
            Relation(rel.schema, list(rel.rows), name="t"), [fd]
        )
        for tid in range(80):
            a = incremental.row_by_tid(tid).values[1]
            b = offline_rel.row_by_tid(tid).values[1]
            a_vals = set(a.concrete_values()) if isinstance(a, PValue) else {a}
            b_vals = set(b.concrete_values()) if isinstance(b, PValue) else {b}
            assert a_vals == b_vals, f"tid {tid}: {a_vals} != {b_vals}"
