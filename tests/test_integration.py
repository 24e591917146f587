"""Cross-module integration tests: persistence, possible-worlds consistency,
DC end-to-end, multi-table sessions."""


from hypothesis import given, settings, strategies as st

from repro import Daisy
from repro.constraints import DenialConstraint, Predicate
from repro.probabilistic import PValue
from repro.probabilistic.worlds import tuple_appears_in_some_world
from repro.relation import ColumnType, Relation, from_csv_string, to_csv_string


class TestPersistenceRoundtrip:
    """A gradually-cleaned (probabilistic) dataset survives CSV persistence."""

    def make_cleaned(self):
        rel = Relation.from_rows(
            [("zip", ColumnType.INT), ("city", ColumnType.STRING)],
            [(9001, "LA"), (9001, "SF"), (10001, "NY"), (10001, "SF")],
            name="cities",
        )
        d = Daisy(use_cost_model=False)
        d.register_table("cities", rel)
        d.add_rule("cities", "zip -> city", name="phi")
        d.clean_table("cities")
        return d.table("cities")

    def test_roundtrip_preserves_candidates(self):
        cleaned = self.make_cleaned()
        reloaded = from_csv_string(to_csv_string(cleaned), name="cities")
        assert reloaded.probabilistic_cell_count() == cleaned.probabilistic_cell_count()
        for a, b in zip(cleaned.rows, reloaded.rows):
            for ca, cb in zip(a.values, b.values):
                if isinstance(ca, PValue):
                    assert isinstance(cb, PValue)
                    assert set(ca.concrete_values()) == set(cb.concrete_values())

    def test_reloaded_relation_queryable(self):
        cleaned = self.make_cleaned()
        reloaded = from_csv_string(to_csv_string(cleaned), name="cities")
        d = Daisy()
        d.register_table("cities", reloaded)
        with d.connect() as session:
            result = session.execute("SELECT zip FROM cities WHERE city = 'LA'")
        # Possible-worlds filter sees candidate LAs of repaired rows.
        assert len(result) >= 1


class TestPossibleWorldsConsistency:
    """The executor's filter semantics agree with world enumeration."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=2,
            max_size=6,
        ),
        st.integers(0, 3),
    )
    def test_filter_matches_world_enumeration(self, rows, probe):
        rel = Relation.from_rows(
            [("a", ColumnType.INT), ("b", ColumnType.INT)], rows, name="t"
        )
        d = Daisy(use_cost_model=False)
        d.register_table("t", rel)
        d.add_rule("t", "a -> b", name="f")
        d.clean_table("t")
        cleaned = d.table("t")

        result = cleaned.where("b", "=", probe)
        result_tids = {r.tid for r in result}
        for row in cleaned.rows:
            expected = tuple_appears_in_some_world(cleaned, "b", "=", probe, row.tid)
            assert (row.tid in result_tids) == expected


class TestDcEndToEnd:
    def test_daisy_with_inequality_dc(self):
        dc = DenialConstraint(
            [
                Predicate(0, "price", "<", 1, "price"),
                Predicate(0, "discount", ">", 1, "discount"),
            ],
            name="dc",
        )
        rel = Relation.from_rows(
            [("k", ColumnType.INT), ("price", ColumnType.FLOAT),
             ("discount", ColumnType.FLOAT)],
            [(0, 100.0, 0.01), (1, 200.0, 0.30), (2, 300.0, 0.03),
             (3, 400.0, 0.04)],
            name="orders",
        )
        d = Daisy(use_cost_model=False, dc_error_threshold=0.95)
        d.register_table("orders", rel)
        d.add_rule("orders", dc)
        with d.connect() as session:
            result = session.execute("SELECT k FROM orders WHERE price >= 100 AND price <= 400")
        # (1, 0.30) conflicts with tuples 2 and 3: it got range candidates.
        assert d.probabilistic_cells("orders") > 0
        assert len(result) == 4

    def test_dc_rule_via_text(self):
        rel = Relation.from_rows(
            [("salary", ColumnType.FLOAT), ("tax", ColumnType.FLOAT)],
            [(1000.0, 0.1), (3000.0, 0.2), (2000.0, 0.3)],
            name="emp",
        )
        d = Daisy(use_cost_model=False, dc_error_threshold=0.99)
        d.register_table("emp", rel)
        rules = d.add_rule(
            "emp", "forall t1,t2: not(t1.salary < t2.salary & t1.tax > t2.tax)",
            name="dc",
        )
        assert len(rules) == 1
        with d.connect() as session:
            session.execute("SELECT salary, tax FROM emp WHERE salary > 0")
        assert d.probabilistic_cells("emp") > 0


class TestMultiTableSession:
    def test_independent_tables_do_not_interfere(self):
        d = Daisy(use_cost_model=False)
        a = Relation.from_rows(
            [("k", ColumnType.INT), ("v", ColumnType.STRING)],
            [(1, "x"), (1, "y")], name="a",
        )
        b = Relation.from_rows(
            [("k", ColumnType.INT), ("v", ColumnType.STRING)],
            [(2, "p"), (2, "p")], name="b",
        )
        d.register_table("a", a)
        d.register_table("b", b)
        d.add_rule("a", "k -> v", name="fa")
        d.add_rule("b", "k -> v", name="fb")
        with d.connect() as session:
            session.execute("SELECT v FROM a WHERE k = 1")
        assert d.probabilistic_cells("a") > 0
        assert d.probabilistic_cells("b") == 0

    def test_query_log_accumulates(self):
        d = Daisy()
        d.register_table(
            "t", Relation.from_rows([("x", ColumnType.INT)], [(1,)], name="t")
        )
        with d.connect() as session:
            session.execute("SELECT x FROM t")
            session.execute("SELECT x FROM t WHERE x = 1")
            assert len(session.query_log) == 2
            assert session.query_log[0].result_size == 1


class TestMixedRuleKinds:
    def test_fd_and_dc_on_same_table(self):
        rel = Relation.from_rows(
            [("g", ColumnType.INT), ("v", ColumnType.INT),
             ("price", ColumnType.FLOAT), ("discount", ColumnType.FLOAT)],
            [(1, 10, 100.0, 0.01), (1, 20, 200.0, 0.30), (2, 30, 300.0, 0.03)],
            name="t",
        )
        d = Daisy(use_cost_model=False, dc_error_threshold=0.95)
        d.register_table("t", rel)
        d.add_rule("t", "g -> v", name="fd")
        d.add_rule(
            "t", "not(t1.price < t2.price & t1.discount > t2.discount)",
            name="dc",
        )
        with d.connect() as session:
            session.execute("SELECT g, v, price, discount FROM t WHERE price > 0")
        # Both rule kinds fired: v (FD) and price/discount (DC) cells fixed.
        rel_after = d.table("t")
        fd_fixed = isinstance(rel_after.row_by_tid(0).values[1], PValue)
        dc_fixed = any(
            isinstance(rel_after.row_by_tid(t).values[i], PValue)
            for t in (1, 2)
            for i in (2, 3)
        )
        assert fd_fixed and dc_fixed
