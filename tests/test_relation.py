"""Unit tests for repro.relation.relation (Relation / Row operators)."""

import pytest

from repro.errors import SchemaError
from repro.probabilistic import Candidate, PValue
from repro.relation import ColumnType, Relation
from repro.relation.relation import Row


@pytest.fixture
def rel():
    return Relation.from_rows(
        [("k", ColumnType.INT), ("v", ColumnType.STRING)],
        [(1, "a"), (2, "b"), (2, "c"), (3, "a")],
        name="t",
    )


class TestConstruction:
    def test_fresh_tids(self, rel):
        assert [r.tid for r in rel] == [0, 1, 2, 3]

    def test_validation_catches_bad_row(self):
        with pytest.raises(Exception):
            Relation.from_rows([("k", ColumnType.INT)], [("oops",)])

    def test_empty_like(self, rel):
        empty = rel.empty_like()
        assert len(empty) == 0
        assert empty.schema == rel.schema


class TestSelection:
    def test_where_equality(self, rel):
        assert {r.tid for r in rel.where("k", "=", 2)} == {1, 2}

    def test_where_range(self, rel):
        assert {r.tid for r in rel.where("k", ">=", 2)} == {1, 2, 3}

    def test_where_probabilistic_candidate_matches(self, rel):
        pv = PValue([Candidate(1, 0.5), Candidate(9, 0.5)])
        rel2 = rel.update_cells({(3, "k"): pv})
        # tid 3 qualifies k=9 through its candidate
        assert {r.tid for r in rel2.where("k", "=", 9)} == {3}

    def test_filter_callable(self, rel):
        assert len(rel.filter(lambda r: r.values[1] == "a")) == 2


class TestProjectRename:
    def test_project_keeps_tids(self, rel):
        proj = rel.project(["v"])
        assert [r.tid for r in proj] == [0, 1, 2, 3]
        assert proj.schema.names == ("v",)

    def test_identity_projection_shares_rows(self, rel):
        proj = rel.project(["k", "v"])
        assert proj.schema == rel.schema and proj is not rel
        assert all(mine is theirs for mine, theirs in zip(proj.rows, rel.rows))

    @pytest.mark.parametrize(
        "attrs", [["v"], ["b"], ["v", "k"], ["k", "b"], ["b", "v", "k"], []]
    )
    def test_projection_equals_tuple_building_oracle(self, attrs):
        wide = Relation.from_rows(
            [("k", ColumnType.INT), ("v", ColumnType.STRING), ("b", ColumnType.INT)],
            [(1, "a", 10), (2, "b", 20), (2, "c", 30)],
        )
        indices = [wide.schema.index_of(a) for a in attrs]
        oracle = [Row(r.tid, tuple(r.values[i] for i in indices)) for r in wide]
        proj = wide.project(attrs)
        assert proj.rows == oracle
        assert all(type(r.values) is tuple for r in proj)
        assert proj.schema.names == tuple(attrs)

    def test_rename(self, rel):
        assert rel.rename({"k": "key"}).schema.names == ("key", "v")

    def test_prefixed(self, rel):
        assert rel.prefixed("x").schema.names == ("x.k", "x.v")


class TestSetOps:
    def test_union(self, rel):
        assert len(rel.union(rel)) == 8

    def test_union_schema_mismatch(self, rel):
        other = Relation.from_rows([("z", ColumnType.INT)], [(1,)])
        with pytest.raises(SchemaError):
            rel.union(other)

    def test_restrict_and_minus(self, rel):
        assert rel.restrict_tids({0, 2}).tids() == {0, 2}
        assert rel.minus_tids({0, 2}).tids() == {1, 3}


class TestRestrictTids:
    """The positional path (cached view, answer under half the table) and the
    scan return the same rows in the same order."""

    @staticmethod
    def _big(n=12):
        return Relation.from_rows(
            [("k", ColumnType.INT), ("v", ColumnType.INT)],
            [(i % 4, i) for i in range(n)],
            name="t",
        )

    @staticmethod
    def _scan(relation, tids):
        return [r for r in relation.rows if r.tid in tids]

    def test_keeps_row_order_and_shares_rows(self):
        rel = self._big()
        rel.column_view()
        picked = rel.restrict_tids({9, 1, 4})
        assert [r.tid for r in picked] == [1, 4, 9]
        assert all(a is b for a, b in zip(picked.rows, self._scan(rel, {1, 4, 9})))

    def test_ignores_absent_tids(self):
        rel = self._big()
        rel.column_view()
        assert [r.tid for r in rel.restrict_tids({3, 99, -1})] == [3]
        assert len(rel.restrict_tids(set())) == 0

    def test_large_answers_scan(self):
        rel = self._big()
        rel.column_view()
        tids = set(range(0, 12, 2)) | {1, 99}
        assert rel.restrict_tids(tids).rows == self._scan(rel, tids)

    def test_follows_update_cells_and_apply_delta(self):
        rel = self._big()
        rel.column_view()
        rel = rel.update_cells({(4, "v"): 400})
        rel = rel.apply_delta({9: Row(9, (1, 900))})
        assert rel._colview is not None  # the patched view came along
        picked = rel.restrict_tids({9, 4, 2})
        assert [r.values for r in picked] == [(2, 2), (0, 400), (1, 900)]
        assert picked.rows == self._scan(rel, {9, 4, 2})

    def test_relation_without_a_view_scans(self):
        rel = self._big()
        picked = rel.restrict_tids({7, 2})
        assert [r.tid for r in picked] == [2, 7]
        assert rel._colview is None  # and did not build one to answer

    def test_repeated_tids_scan(self):
        rel = self._big(4)
        doubled = rel.union(rel).union(rel)
        doubled.column_view()
        assert [r.tid for r in doubled.restrict_tids({2})] == [2, 2, 2]


class TestJoin:
    def test_equi_join_basic(self, rel):
        other = Relation.from_rows(
            [("k", ColumnType.INT), ("w", ColumnType.STRING)], [(2, "x"), (4, "y")]
        )
        out = rel.equi_join(other, "k", "k", "l", "r")
        assert len(out) == 2  # tids 1 and 2 match k=2
        assert out.schema.names == ("l.k", "l.v", "r.k", "r.w")

    def test_join_probabilistic_key_overlap(self):
        left = Relation.from_rows([("k", ColumnType.INT)], [(1,)])
        pv = PValue([Candidate(1, 0.5), Candidate(2, 0.5)])
        right = Relation.from_rows([("k", ColumnType.INT)], [(7,)])
        right = right.update_cells({(0, "k"): pv})
        out = left.equi_join(right, "k", "k", "l", "r")
        assert len(out) == 1

    def test_join_no_duplicate_pairs(self):
        # A PValue with two candidates both matching must produce one pair.
        pv = PValue([Candidate(1, 0.5), Candidate(1, 0.5, world=1)])
        left = Relation.from_rows([("k", ColumnType.INT)], [(1,)])
        right = Relation.from_rows([("k", ColumnType.INT)], [(1,)])
        right = right.update_cells({(0, "k"): pv})
        out = left.equi_join(right, "k", "k", "l", "r")
        assert len(out) == 1


class TestGroupBy:
    def test_count(self, rel):
        out = rel.group_by(["k"], [("count", "*", "n")])
        mapping = {row.values[0]: row.values[1] for row in out}
        assert mapping == {1: 1, 2: 2, 3: 1}

    def test_sum_avg_min_max(self):
        r = Relation.from_rows(
            [("g", ColumnType.INT), ("x", ColumnType.FLOAT)],
            [(1, 2.0), (1, 4.0), (2, 10.0)],
        )
        out = r.group_by(
            ["g"],
            [("sum", "x", "s"), ("avg", "x", "a"), ("min", "x", "lo"), ("max", "x", "hi")],
        )
        by_g = {row.values[0]: row.values[1:] for row in out}
        assert by_g[1] == (6.0, 3.0, 2.0, 4.0)
        assert by_g[2] == (10.0, 10.0, 10.0, 10.0)

    def test_group_by_probabilistic_key_uses_most_probable(self):
        pv = PValue([Candidate(1, 0.9), Candidate(2, 0.1)])
        r = Relation.from_rows([("g", ColumnType.INT)], [(1,), (2,)])
        r = r.update_cells({(1, "g"): pv})
        out = r.group_by(["g"], [("count", "*", "n")])
        mapping = {row.values[0]: row.values[1] for row in out}
        assert mapping == {1: 2}

    def test_unknown_aggregate_rejected(self, rel):
        with pytest.raises(SchemaError):
            rel.group_by(["k"], [("median", "k", "m")])


class TestUpdates:
    def test_apply_delta_replaces_by_tid(self, rel):
        new_row = Row(1, (99, "z"))
        out = rel.apply_delta({1: new_row})
        assert out.tid_index()[1].values == (99, "z")
        assert out.tid_index()[0].values == (1, "a")

    def test_update_cells(self, rel):
        out = rel.update_cells({(0, "v"): "Z", (3, "k"): 42})
        assert out.tid_index()[0].values == (1, "Z")
        assert out.tid_index()[3].values == (42, "a")

    def test_update_cells_empty_is_identity(self, rel):
        assert rel.update_cells({}) is rel

    def test_probabilistic_cell_count(self, rel):
        pv = PValue([Candidate("a", 0.5), Candidate("b", 0.5)])
        out = rel.update_cells({(0, "v"): pv})
        assert out.probabilistic_cell_count() == 1

    def test_to_plain_rows_collapses(self, rel):
        pv = PValue([Candidate("zz", 0.9), Candidate("b", 0.1)])
        out = rel.update_cells({(0, "v"): pv})
        assert out.to_plain_rows()[0] == (1, "zz")


class TestTidAccess:
    def test_row_by_tid(self, rel):
        assert rel.row_by_tid(2).values == (2, "c")

    def test_row_by_tid_missing(self, rel):
        with pytest.raises(KeyError):
            rel.row_by_tid(99)

    def test_distinct_values_includes_candidates(self, rel):
        pv = PValue([Candidate(7, 0.5), Candidate(8, 0.5)])
        out = rel.update_cells({(0, "k"): pv})
        assert out.distinct_values("k") == {2, 3, 7, 8}
