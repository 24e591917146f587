"""Parity tests: columnar GROUP BY (ColumnView group index) vs the rowstore
row-walking path, at the Relation level and end-to-end through Daisy."""

import pytest

from repro import Daisy, DaisyConfig
from repro.probabilistic import PValue
from repro.probabilistic.value import Candidate
from repro.relation import BACKENDS, ColumnType, Relation


def sample_rel():
    return Relation.from_rows(
        [
            ("g", ColumnType.INT),
            ("h", ColumnType.STRING),
            ("x", ColumnType.FLOAT),
        ],
        [
            (1, "a", 10.0),
            (2, "b", 20.0),
            (1, "a", 30.0),
            (3, "b", None),
            (2, "a", 5.0),
            (1, "b", 2.5),
        ],
        name="t",
        validate=False,
    )


def rel_with_nulls_and_pvalues():
    rel = sample_rel()
    rows = rel.rows
    # A probabilistic grouping key (collapses to most-probable = 2) and a
    # probabilistic aggregate input (most-probable = 8.0), plus a None key.
    pv_key = PValue([Candidate(2, 0.7, 0), Candidate(9, 0.3, 0)])
    pv_x = PValue([Candidate(8.0, 0.6, 0), Candidate(1.0, 0.4, 0)])
    rows[1] = type(rows[1])(rows[1].tid, (pv_key, "b", 20.0))
    rows[4] = type(rows[4])(rows[4].tid, (2, "a", pv_x))
    rows[3] = type(rows[3])(rows[3].tid, (None, "b", None))
    return rel


AGGS = [
    ("count", "*", "n"),
    ("sum", "x", "sx"),
    ("avg", "x", "ax"),
    ("min", "x", "mn"),
    ("max", "x", "mx"),
]


def assert_same_relation(a: Relation, b: Relation):
    assert a.schema.names == b.schema.names
    assert [c.ctype for c in a.schema] == [c.ctype for c in b.schema]
    assert len(a) == len(b)
    for ra, rb in zip(a.rows, b.rows):
        assert ra == rb


class TestRelationLevelParity:
    @pytest.mark.parametrize("make_rel", [sample_rel, rel_with_nulls_and_pvalues])
    @pytest.mark.parametrize("keys", [["g"], ["h"], ["g", "h"]])
    def test_full_table(self, make_rel, keys):
        rowstore = make_rel().group_by(keys, AGGS)
        rel = make_rel()
        columnar = rel.group_by(keys, AGGS, view=rel.column_view())
        assert_same_relation(columnar, rowstore)

    @pytest.mark.parametrize("make_rel", [sample_rel, rel_with_nulls_and_pvalues])
    @pytest.mark.parametrize("tids", [{0, 2, 4}, {1, 3, 5}, {5}, set()])
    def test_tid_restriction(self, make_rel, tids):
        rowstore = make_rel().restrict_tids(tids).group_by(["g"], AGGS)
        rel = make_rel()
        columnar = rel.group_by(["g"], AGGS, view=rel.column_view(), tids=tids)
        assert_same_relation(columnar, rowstore)

    @pytest.mark.parametrize("make_rel", [sample_rel, rel_with_nulls_and_pvalues])
    @pytest.mark.parametrize("tids", [None, {0, 2, 4}, set()])
    def test_no_keys_is_one_group_of_every_row(self, make_rel, tids):
        rowstore = make_rel().group_by([], AGGS, tids=tids)
        rel = make_rel()
        columnar = rel.group_by([], AGGS, view=rel.column_view(), tids=tids)
        assert_same_relation(columnar, rowstore)
        empty = rel.empty_like()
        assert_same_relation(
            empty.group_by([], AGGS, view=empty.column_view()), empty.group_by([], AGGS)
        )

    def test_group_order_is_first_occurrence_of_restriction(self):
        rel = sample_rel()
        # Restricted to rows where group 2 appears before group 1.
        out = rel.group_by(
            ["g"], [("count", "*", "n")], view=rel.column_view(), tids={1, 2, 5}
        )
        assert [row.values[0] for row in out.rows] == [2, 1]

    def test_hash_seeded_single_key_path(self):
        rel = sample_rel()
        view = rel.column_view()
        view.hash_column("g")  # pre-build so group_index can seed from it
        order, groups = view.group_index(("g",))
        assert order == [(1,), (2,), (3,)]
        assert groups[(1,)] == [0, 2, 5]
        out = rel.group_by(["g"], AGGS, view=view)
        assert_same_relation(out, sample_rel().group_by(["g"], AGGS))

    def test_group_index_cached_and_evicted_on_key_patch(self):
        rel = sample_rel()
        view = rel.column_view()
        first = view.group_index(("g",))
        assert view.group_index(("g",)) is first  # cached
        patched_other = rel.update_cells({(0, "x"): 99.0}).column_view()
        assert patched_other.group_index(("g",)) is first  # untouched attr
        patched_key = rel.update_cells({(0, "g"): 7}).column_view()
        rebuilt = patched_key.group_index(("g",))
        assert rebuilt is not first
        assert (7,) in rebuilt[1]


class TestEndToEndBackendParity:
    def make_engine(self, backend):
        d = Daisy(config=DaisyConfig(use_cost_model=False, backend=backend))
        d.register_table(
            "cities",
            Relation.from_rows(
                [("zip", ColumnType.INT), ("city", ColumnType.STRING)],
                [
                    (9001, "Los Angeles"),
                    (9001, "San Francisco"),
                    (9001, "Los Angeles"),
                    (10001, "San Francisco"),
                    (10001, "New York"),
                ],
                name="cities",
            ),
        )
        d.add_rule("cities", "zip -> city", name="phi")
        return d

    def test_group_by_after_cleaning_matches_rowstore(self):
        results = {}
        for backend in BACKENDS:
            d = self.make_engine(backend)
            session = d.connect()
            # First query repairs cells (keys become probabilistic), the
            # grouped query then exercises the PValue-collapsing path.
            session.execute("SELECT zip FROM cities WHERE city = 'Los Angeles'")
            result = session.execute(
                "SELECT city, COUNT(*) AS n, MIN(zip) AS mz "
                "FROM cities GROUP BY city"
            )
            results[backend] = result.relation
        rowstore = results["rowstore"]
        columnar = results["columnar"]
        assert rowstore.schema.names == columnar.schema.names
        assert rowstore.to_plain_rows() == columnar.to_plain_rows()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("sql,expected", [
        ("SELECT COUNT(*) AS n FROM t", [(3,)]),
        ("SELECT SUM(b) AS s FROM t", [(60.0,)]),
        ("SELECT COUNT(*) AS n, MAX(b) AS m FROM t WHERE a >= 2", [(2, 30.0)]),
        ("SELECT COUNT(*) AS n FROM t WHERE a > 9", []),
    ])
    def test_aggregate_without_group_by(self, backend, sql, expected):
        # Regression: the default backend's lexsort grouping raised
        # "need sequence of keys with len > 0" for an empty key tuple.
        d = Daisy(config=DaisyConfig(backend=backend))
        d.register_table(
            "t",
            Relation.from_rows(
                [("a", ColumnType.INT), ("b", ColumnType.INT)],
                [(1, 10), (2, 20), (3, 30)],
                name="t",
            ),
        )
        with d.connect() as session:
            assert session.execute(sql).rows() == expected
