"""Edge-case coverage: empty/degenerate relations, NULLs, adversarial input."""

import pytest

from repro import Daisy
from repro.constraints import DenialConstraint, FunctionalDependency, Predicate
from repro.core import TableState, clean_sigma
from repro.core.relaxation import relax_fd
from repro.detection import ThetaJoinMatrix, detect_fd_violations
from repro.errors import PlanError, QueryError
from repro.probabilistic import PValue
from repro.relation import ColumnType, Relation


class TestEmptyRelations:
    def empty(self):
        return Relation.from_rows(
            [("a", ColumnType.INT), ("b", ColumnType.INT)], [], name="t"
        )

    def test_detection_on_empty(self):
        assert not detect_fd_violations(self.empty(), FunctionalDependency("a", "b"))

    def test_relaxation_on_empty(self):
        result = relax_fd(self.empty(), set(), FunctionalDependency("a", "b"))
        assert result.extra_tids == set()

    def test_theta_join_on_empty(self):
        dc = DenialConstraint(
            [Predicate(0, "a", "<", 1, "a"), Predicate(0, "b", ">", 1, "b")]
        )
        matrix = ThetaJoinMatrix(self.empty(), dc)
        assert matrix.check_full() == []

    def test_daisy_query_on_empty(self):
        d = Daisy()
        d.register_table("t", self.empty())
        d.add_rule("t", "a -> b")
        with d.connect() as session:
            assert len(session.execute("SELECT a FROM t WHERE a = 1")) == 0

    def test_group_by_on_empty(self):
        out = self.empty().group_by(["a"], [("count", "*", "n")])
        assert len(out) == 0


class TestSingleRow:
    def test_single_row_never_violates_fd(self):
        rel = Relation.from_rows(
            [("a", ColumnType.INT), ("b", ColumnType.INT)], [(1, 2)]
        )
        assert not detect_fd_violations(rel, FunctionalDependency("a", "b"))

    def test_single_row_never_violates_binary_dc(self):
        rel = Relation.from_rows(
            [("a", ColumnType.FLOAT), ("b", ColumnType.FLOAT)], [(1.0, 2.0)]
        )
        dc = DenialConstraint(
            [Predicate(0, "a", "<", 1, "a"), Predicate(0, "b", ">", 1, "b")]
        )
        assert ThetaJoinMatrix(rel, dc).check_full() == []


class TestNullHandling:
    def test_null_cells_dont_match_filters(self):
        rel = Relation.from_rows(
            [("a", ColumnType.INT)], [(None,), (1,)], validate=False
        )
        d = Daisy()
        d.register_table("t", rel)
        with d.connect() as session:
            assert len(session.execute("SELECT a FROM t WHERE a = 1")) == 1
            assert len(session.execute("SELECT a FROM t WHERE a < 5")) == 1

    def test_null_groups_in_fd_detection(self):
        rel = Relation.from_rows(
            [("a", ColumnType.INT), ("b", ColumnType.INT)],
            [(None, 1), (None, 2), (1, 3)],
            validate=False,
        )
        report = detect_fd_violations(rel, FunctionalDependency("a", "b"))
        # NULL keys group together: (None,) has conflicting rhs.
        assert (None,) in {g.lhs_key for g in report.groups}

    def test_nulls_skipped_by_theta_join(self):
        rel = Relation.from_rows(
            [("a", ColumnType.FLOAT), ("b", ColumnType.FLOAT)],
            [(1.0, 0.5), (None, 0.1), (2.0, 0.2)],
            validate=False,
        )
        dc = DenialConstraint(
            [Predicate(0, "a", "<", 1, "a"), Predicate(0, "b", ">", 1, "b")]
        )
        pairs = {(v.t1, v.t2) for v in ThetaJoinMatrix(rel, dc).check_full()}
        assert pairs == {(0, 2)}


class TestAdversarialQueries:
    @pytest.fixture
    def session(self):
        d = Daisy()
        d.register_table(
            "t",
            Relation.from_rows(
                [("a", ColumnType.INT), ("b", ColumnType.STRING)],
                [(1, "x")],
                name="t",
            ),
        )
        with d.connect() as session:
            yield session

    def test_unknown_table(self, session):
        with pytest.raises(PlanError):
            session.execute("SELECT a FROM missing")

    def test_unknown_column(self, session):
        with pytest.raises(PlanError):
            session.execute("SELECT zzz FROM t")

    def test_empty_result_range(self, session):
        assert len(session.execute("SELECT a FROM t WHERE a > 100")) == 0

    def test_contradictory_conditions(self, session):
        assert len(session.execute("SELECT a FROM t WHERE a > 5 AND a < 3")) == 0

    def test_string_comparison_against_int_column(self, session):
        # Type-mismatched comparison is NULL-like: no match, no crash.
        assert len(session.execute("SELECT a FROM t WHERE a = 'abc'")) == 0

    def test_or_join_rejected(self):
        d = Daisy()
        for name in ("x", "y"):
            d.register_table(
                name,
                Relation.from_rows([("k", ColumnType.INT)], [(1,)], name=name),
            )
        with d.connect() as session, pytest.raises(QueryError):
            session.execute("SELECT x.k FROM x, y WHERE x.k = y.k OR x.k = 1")


class TestAllIdenticalValues:
    """Degenerate distributions: one group, one value."""

    def test_one_giant_clean_group(self):
        rel = Relation.from_rows(
            [("a", ColumnType.INT), ("b", ColumnType.INT)],
            [(1, 2)] * 50,
        )
        assert not detect_fd_violations(rel, FunctionalDependency("a", "b"))

    def test_one_giant_dirty_group(self):
        rows = [(1, 2)] * 25 + [(1, 3)] * 25
        rel = Relation.from_rows(
            [("a", ColumnType.INT), ("b", ColumnType.INT)], rows
        )
        state = TableState(relation=rel)
        fd = FunctionalDependency("a", "b", name="f")
        state.add_rule(fd)
        report = clean_sigma(
            state, set(range(50)), where_attrs=["a"], projection=["b"]
        )
        assert report.errors_fixed == 50
        # 50/50 split: candidates are equiprobable, deterministic tie-break.
        cell = state.relation.row_by_tid(0).values[1]
        assert isinstance(cell, PValue)
        assert set(cell.concrete_values()) == {2, 3}

    def test_constant_attribute_theta_join(self):
        rel = Relation.from_rows(
            [("a", ColumnType.FLOAT), ("b", ColumnType.FLOAT)],
            [(1.0, 1.0)] * 20,
        )
        dc = DenialConstraint(
            [Predicate(0, "a", "<", 1, "a"), Predicate(0, "b", ">", 1, "b")]
        )
        assert ThetaJoinMatrix(rel, dc, sqrt_p=4).check_full() == []


class TestRepeatedCleaning:
    def test_idempotent_full_clean(self):
        rel = Relation.from_rows(
            [("a", ColumnType.INT), ("b", ColumnType.INT)],
            [(1, 10), (1, 20), (2, 30)],
        )
        d = Daisy(use_cost_model=False)
        d.register_table("t", rel)
        d.add_rule("t", "a -> b", name="f")
        first = d.clean_table("t")
        snapshot = [r.values for r in d.table("t").rows]
        second = d.clean_table("t")
        assert second.errors_fixed == 0
        assert [r.values for r in d.table("t").rows] == snapshot
