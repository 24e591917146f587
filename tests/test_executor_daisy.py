"""Integration tests: Daisy end-to-end query execution with cleaning."""

import pytest

from repro import Daisy
from repro.probabilistic import PValue
from repro.query.ast import ColumnRef, Condition, Connector
from repro.query.executor import Executor
from repro.relation import ColumnType, Relation


def cities_rel():
    return Relation.from_rows(
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


@pytest.fixture
def session():
    d = Daisy()
    d.register_table("cities", cities_rel())
    d.add_rule("cities", "zip -> city", name="phi")
    with d.connect() as session:
        yield session


class TestSpQueries:
    def test_rhs_filter_cleans_and_returns(self, session):
        result = session.execute("SELECT zip FROM cities WHERE city = 'Los Angeles'")
        assert len(result) == 3  # rows 0, 2 + repaired row 1
        assert session.probabilistic_cells("cities") > 0

    def test_lhs_filter_returns_candidate_matches(self, session):
        result = session.execute("SELECT city FROM cities WHERE zip = 9001")
        # Table 3: four tuples qualify after cleaning.
        assert len(result) == 4

    def test_untouched_attrs_skip_cleaning(self):
        d = Daisy()
        rel = Relation.from_rows(
            [("a", ColumnType.INT), ("zip", ColumnType.INT), ("city", ColumnType.STRING)],
            [(1, 9001, "LA"), (2, 9001, "SF")],
        )
        d.register_table("t", rel)
        d.add_rule("t", "zip -> city")
        with d.connect() as session:
            result = session.execute("SELECT a FROM t WHERE a = 1")
        assert d.probabilistic_cells("t") == 0
        assert len(result) == 1

    def test_second_query_cheaper_than_first(self, session):
        session.execute("SELECT zip FROM cities WHERE city = 'Los Angeles'")
        work_first = session.query_log[-1].work_units
        session.execute("SELECT zip FROM cities WHERE city = 'Los Angeles'")
        work_second = session.query_log[-1].work_units
        assert work_second < work_first

    def test_range_query(self, session):
        result = session.execute("SELECT city FROM cities WHERE zip >= 9001 AND zip < 10002")
        assert len(result) == 5

    def test_or_connector(self, session):
        result = session.execute(
            "SELECT city FROM cities WHERE zip = 9001 OR zip = 10001"
        )
        assert len(result) == 5

    def test_select_star(self, session):
        result = session.execute("SELECT * FROM cities WHERE zip = 10001")
        assert result.relation.schema.names == ("zip", "city")


class TestGroupByQueries:
    def test_count_group_by(self, session):
        result = session.execute(
            "SELECT city, COUNT(*) AS n FROM cities GROUP BY city"
        )
        total = sum(row.values[1] for row in result.relation.rows)
        assert total == 5

    def test_cleaning_happens_before_aggregation(self, session):
        session.execute("SELECT city, COUNT(*) AS n FROM cities GROUP BY city")
        # Cleaning was pushed below the group-by: cells got repaired.
        assert session.probabilistic_cells("cities") > 0

    def test_avg(self):
        d = Daisy()
        rel = Relation.from_rows(
            [("g", ColumnType.INT), ("x", ColumnType.FLOAT)],
            [(1, 10.0), (1, 20.0), (2, 30.0)],
        )
        d.register_table("t", rel)
        with d.connect() as session:
            result = session.execute("SELECT g, AVG(x) AS m FROM t GROUP BY g")
        by_g = {row.values[0]: row.values[1] for row in result.relation.rows}
        assert by_g == {1: 15.0, 2: 30.0}


class TestJoinQueries:
    def make_daisy(self):
        d = Daisy()
        d.register_table(
            "cities",
            Relation.from_rows(
                [("zip", ColumnType.INT), ("city", ColumnType.STRING)],
                [(9001, "Los Angeles"), (9001, "San Francisco"), (10001, "San Francisco")],
                name="cities",
            ),
        )
        d.register_table(
            "employee",
            Relation.from_rows(
                [("zip", ColumnType.INT), ("ename", ColumnType.STRING), ("phone", ColumnType.INT)],
                [(9001, "Peter", 23456), (10001, "Mary", 12345), (10002, "Jon", 12345)],
                name="employee",
            ),
        )
        d.add_rule("cities", "zip -> city", name="phi1")
        d.add_rule("employee", "phone -> zip", name="phi2")
        return d

    def test_example6_end_to_end(self):
        with self.make_daisy().connect() as session:
            result = session.execute(
                "SELECT cities.zip, employee.ename FROM cities, employee "
                "WHERE cities.zip = employee.zip AND city = 'Los Angeles'"
            )
        names = sorted(row.values[1] for row in result.relation.rows)
        assert names == ["Jon", "Mary", "Peter", "Peter"]

    def test_bound_side_filters_equal_row_satisfies(self):
        # After the first run both join keys are probabilistic; the filters
        # clean⋈ re-applies, bound to column indexes once per query, must
        # keep exactly the rows the per-row name-resolving oracle keeps.
        sql = (
            "SELECT cities.zip, employee.ename FROM cities, employee "
            "WHERE cities.zip = employee.zip "
            "AND cities.zip > 9001 AND employee.zip <= 10001"
        )
        engine = self.make_daisy()
        with engine.connect() as session:
            first = session.execute(sql).rows()
            assert session.probabilistic_cells("cities") > 0
            assert session.probabilistic_cells("employee") > 0
            assert session.execute(sql).rows() == first
        joined = engine.table("cities").equi_join(
            engine.table("employee"), "zip", "zip", "cities", "employee"
        )
        conditions = [
            Condition(ColumnRef("zip", "cities"), ">", 9001),
            Condition(ColumnRef("zip", "employee"), "<", 10001),
        ]
        kept_any = dropped_any = False
        for connector in (Connector.AND, Connector.OR):
            bound = Executor._bound_filter(joined, conditions, connector, True)
            for row in joined.rows:
                want = Executor._row_satisfies(row, joined, conditions, connector, True)
                assert bound(row) == want
                kept_any, dropped_any = kept_any or want, dropped_any or not want
        assert kept_any and dropped_any
        unqualified = [Condition(ColumnRef("zip"), ">=", 9002)]
        cities = engine.table("cities")
        bound = Executor._bound_filter(cities, unqualified, Connector.AND, False)
        assert [bound(r) for r in cities.rows] == [
            Executor._row_satisfies(r, cities, unqualified, Connector.AND, False)
            for r in cities.rows
        ]
        assert Executor._bound_filter(cities, [], Connector.AND, False)(cities.rows[0])

    def test_join_without_rules_plain(self):
        d = Daisy()
        d.register_table(
            "a", Relation.from_rows([("k", ColumnType.INT)], [(1,), (2,)], name="a")
        )
        d.register_table(
            "b", Relation.from_rows([("k", ColumnType.INT)], [(2,), (3,)], name="b")
        )
        with d.connect() as session:
            result = session.execute("SELECT a.k FROM a, b WHERE a.k = b.k")
        assert len(result) == 1

    def test_join_with_groupby(self):
        with self.make_daisy().connect() as session:
            result = session.execute(
                "SELECT employee.ename, COUNT(*) AS n FROM cities, employee "
                "WHERE cities.zip = employee.zip GROUP BY employee.ename"
            )
        assert len(result) >= 1


class TestGradualCleaning:
    def test_dataset_becomes_probabilistic_incrementally(self, session):
        assert session.probabilistic_cells("cities") == 0
        session.execute("SELECT zip FROM cities WHERE city = 'Los Angeles'")
        first = session.probabilistic_cells("cities")
        assert first > 0
        session.execute("SELECT zip FROM cities WHERE city = 'New York'")
        assert session.probabilistic_cells("cities") >= first

    def test_full_coverage_workload_matches_offline(self):
        """The paper's FD correctness guarantee: after a workload covering
        the whole dataset, Daisy's violation repairs equal offline's."""
        from repro.baselines import OfflineCleaner

        d = Daisy(use_cost_model=False)
        d.register_table("cities", cities_rel())
        d.add_rule("cities", "zip -> city", name="phi")
        with d.connect() as session:
            session.execute("SELECT city FROM cities WHERE zip >= 0 AND zip < 99999")

        cleaner = OfflineCleaner()
        offline_rel, _ = cleaner.clean(cities_rel(), d.states["cities"].rules)

        daisy_rel = d.table("cities")
        for tid in range(5):
            d_cell = daisy_rel.row_by_tid(tid).values[1]
            o_cell = offline_rel.row_by_tid(tid).values[1]
            d_vals = set(d_cell.concrete_values()) if isinstance(d_cell, PValue) else {d_cell}
            o_vals = set(o_cell.concrete_values()) if isinstance(o_cell, PValue) else {o_cell}
            assert d_vals == o_vals, f"tid {tid}: {d_vals} != {o_vals}"

    def test_clean_table_direct(self, session):
        report = session.clean_table("cities")
        assert report.errors_fixed > 0
        result = session.execute("SELECT zip FROM cities WHERE city = 'Los Angeles'")
        # No further cleaning needed.
        assert session.query_log[-1].errors_fixed == 0


class TestCostModelSwitch:
    def test_switch_happens_on_dirty_heavy_workload(self):
        from repro.datasets import ssb, workloads

        inst = ssb.generate_instance(
            num_rows=600, num_orderkeys=60, num_suppkeys=15, seed=3
        )
        d = Daisy(use_cost_model=True, expected_queries=30)
        d.register_table("lineorder", inst.lineorder)
        d.add_rule("lineorder", inst.fd)
        queries = workloads.range_queries(
            "lineorder", "suppkey", 15, 30, projection="orderkey, suppkey"
        )
        with d.connect() as session:
            report = session.execute_workload(queries)
        assert report.switch_query_index is not None
        # After the switch every rule is fully cleaned.
        state = d.states["lineorder"]
        assert all(state.is_fully_cleaned(r) for r in state.rules)

    def test_no_switch_without_cost_model(self):
        from repro.datasets import ssb, workloads

        inst = ssb.generate_instance(
            num_rows=600, num_orderkeys=60, num_suppkeys=15, seed=3
        )
        d = Daisy(use_cost_model=False)
        d.register_table("lineorder", inst.lineorder)
        d.add_rule("lineorder", inst.fd)
        queries = workloads.range_queries(
            "lineorder", "suppkey", 15, 10, projection="orderkey, suppkey"
        )
        with d.connect() as session:
            report = session.execute_workload(queries)
        assert report.switch_query_index is None


class TestExplain:
    def test_explain_shows_cleaning(self, session):
        text = session.explain("SELECT zip FROM cities WHERE city = 'Los Angeles'")
        assert "CleanSigma" in text
