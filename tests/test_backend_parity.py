"""Columnar/row-store backend parity.

The columnar backend must be an *exact* drop-in: identical violation sets
from the detectors, identical query results, and identical repaired
relations (candidate values, probabilities, and candidate order included —
asserted via ``repr``) across the hospital, air-quality, and SSB fixtures.
The row-store backend is the semantics oracle.
"""

from __future__ import annotations

import pytest

from repro import Daisy
from repro.baselines import OfflineCleaner
from repro.constraints import DenialConstraint, Predicate
from repro.datasets import airquality, hospital, ssb, workloads
from repro.detection.fd_detector import detect_fd_violations
from repro.detection.thetajoin import ThetaJoinMatrix
from repro.relation import BACKENDS, ColumnType, Relation


def rows_repr(relation: Relation) -> list[str]:
    return [repr(row) for row in relation.rows]


def run_pair(make_inputs, queries, table):
    """Execute the workload on both backends; return (columnar, rowstore)."""
    engines = {}
    for backend in BACKENDS:
        relation, rules = make_inputs()
        daisy = Daisy(use_cost_model=False, backend=backend)
        daisy.register_table(table, relation)
        for rule in rules:
            daisy.add_rule(table, rule)
        engines[backend] = daisy
    outputs = {}
    for backend, daisy in engines.items():
        with daisy.connect() as session:
            outputs[backend] = [session.execute(sql) for sql in queries]
    return engines, outputs


def assert_identical(engines, outputs, table):
    columnar, rowstore = outputs["columnar"], outputs["rowstore"]
    for i, (a, b) in enumerate(zip(columnar, rowstore)):
        assert rows_repr(a.relation) == rows_repr(b.relation), f"query {i}"
        assert a.report.errors_fixed == b.report.errors_fixed, f"query {i}"
        assert a.report.extra_tuples == b.report.extra_tuples, f"query {i}"
    assert rows_repr(engines["columnar"].table(table)) == rows_repr(
        engines["rowstore"].table(table)
    )


class TestHospitalParity:
    def test_workload_and_final_relation_identical(self):
        def make_inputs():
            instance = hospital.generate_instance(num_rows=300, seed=11)
            return instance.dirty, instance.rules

        queries = [
            "SELECT zip FROM hospital WHERE city = 'City001'",
            "SELECT city FROM hospital WHERE zip = 10003",
            "SELECT hospital_name, zip FROM hospital WHERE zip >= 10000 AND zip < 10008",
            "SELECT phone FROM hospital WHERE zip = 10001",
            "SELECT * FROM hospital WHERE provider_id < 40",
        ]
        engines, outputs = run_pair(make_inputs, queries, "hospital")
        assert_identical(engines, outputs, "hospital")

    def test_fd_detection_identical_violation_sets(self):
        instance = hospital.generate_instance(num_rows=300, seed=11)
        for fd in instance.rules:
            rowstore = detect_fd_violations(instance.dirty, fd)
            columnar = detect_fd_violations(
                instance.dirty, fd, view=instance.dirty.column_view()
            )
            assert rowstore.violating_tids() == columnar.violating_tids()
            assert rowstore.violation_pairs() == columnar.violation_pairs()
            assert [g.lhs_key for g in rowstore.groups] == [
                g.lhs_key for g in columnar.groups
            ]


class TestAirQualityParity:
    def test_workload_and_final_relation_identical(self):
        def make_inputs():
            instance = airquality.generate_instance(
                num_rows=600, num_states=10, violation_level="high", seed=17
            )
            return instance.dirty, [instance.fd]

        queries = airquality.state_co_queries(num_states=10)
        engines, outputs = run_pair(make_inputs, queries, "airquality")
        assert_identical(engines, outputs, "airquality")


class TestSsbParity:
    def test_fd_workload_identical(self):
        def make_inputs():
            dirty, fd, _ = ssb.dirty_lineorder(600, 60, 20, seed=101)
            return dirty, [fd]

        queries = workloads.range_queries(
            "lineorder", "suppkey", 20, 8, projection="orderkey, suppkey"
        )
        engines, outputs = run_pair(make_inputs, queries, "lineorder")
        assert_identical(engines, outputs, "lineorder")

    def test_offline_cleaner_identical(self):
        results = {}
        for backend in BACKENDS:
            dirty, fd, _ = ssb.dirty_lineorder(500, 50, 20, seed=103)
            cleaned, report = OfflineCleaner(backend=backend).clean(dirty, [fd])
            results[backend] = (rows_repr(cleaned), report.violations_found)
        assert results["columnar"][0] == results["rowstore"][0]
        assert results["columnar"][1] == results["rowstore"][1]


def price_discount_dc() -> DenialConstraint:
    return DenialConstraint(
        [
            Predicate(0, "extended_price", "<", 1, "extended_price"),
            Predicate(0, "discount", ">", 1, "discount"),
        ],
        name="dc_price_discount",
    )


class TestThetaJoinParity:
    def make_relation(self, n=300, seed=7):
        import random

        rng = random.Random(seed)
        raw = []
        for i in range(n):
            price = 100.0 + i * 10.0
            discount = round(0.01 + i * 0.0001, 6)
            if rng.random() < 0.1:
                discount = round(discount + rng.uniform(-0.02, 0.02), 6)
            raw.append((i, price, discount))
        return Relation.from_rows(
            [
                ("orderkey", ColumnType.INT),
                ("extended_price", ColumnType.FLOAT),
                ("discount", ColumnType.FLOAT),
            ],
            raw,
            name="lineorder",
        )

    def test_check_full_identical_ordered_lists(self):
        relation = self.make_relation()
        dc = price_discount_dc()
        columnar = ThetaJoinMatrix(relation, dc, backend="columnar").check_full()
        rowstore = ThetaJoinMatrix(relation, dc, backend="rowstore").check_full()
        assert [(v.t1, v.t2) for v in columnar] == [(v.t1, v.t2) for v in rowstore]
        assert columnar  # the fixture does produce violations

    def test_check_partial_identical(self):
        relation = self.make_relation()
        dc = price_discount_dc()
        mc = ThetaJoinMatrix(relation, dc, backend="columnar")
        mr = ThetaJoinMatrix(relation, dc, backend="rowstore")
        for tids in ([0, 1, 2], [150, 151], list(range(250, 300))):
            vc = mc.check_partial(tids)
            vr = mr.check_partial(tids)
            assert [(v.t1, v.t2) for v in vc] == [(v.t1, v.t2) for v in vr]
        assert mc.checked_cells == mr.checked_cells
        assert mc.support() == mr.support()

    def test_dc_workload_identical(self):
        def make_inputs():
            return self.make_relation(seed=9), [price_discount_dc()]

        queries = workloads.range_queries(
            "lineorder", "extended_price", 3100, 6,
            projection="orderkey, extended_price, discount",
        )
        engines, outputs = run_pair(make_inputs, queries, "lineorder")
        assert_identical(engines, outputs, "lineorder")

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "=", "!="])
    def test_every_driving_operator_identical(self, op):
        relation = self.make_relation(n=120, seed=7 + "< <= > >= = !=".split().index(op))
        dc = DenialConstraint(
            [
                Predicate(0, "extended_price", op, 1, "extended_price"),
                Predicate(0, "discount", ">", 1, "discount"),
            ],
            name=f"dc_{op}",
        )
        columnar = ThetaJoinMatrix(relation, dc, backend="columnar").check_full()
        rowstore = ThetaJoinMatrix(relation, dc, backend="rowstore").check_full()
        assert [(v.t1, v.t2) for v in columnar] == [(v.t1, v.t2) for v in rowstore]


class TestCostModelParity:
    def test_strategy_switch_behaves_identically(self):
        results = {}
        for backend in BACKENDS:
            dirty, fd, _ = ssb.dirty_lineorder(
                600, 60, 20, error_group_fraction=0.8, seed=107
            )
            daisy = Daisy(use_cost_model=True, expected_queries=12, backend=backend)
            daisy.register_table("lineorder", dirty)
            daisy.add_rule("lineorder", fd)
            queries = workloads.range_queries(
                "lineorder", "suppkey", 20, 12, projection="orderkey, suppkey"
            )
            with daisy.connect() as session:
                report = session.execute_workload(queries)
            results[backend] = (
                rows_repr(daisy.table("lineorder")),
                report.switch_query_index,
                [e.errors_fixed for e in report.entries],
            )
        assert results["columnar"] == results["rowstore"]
