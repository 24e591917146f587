"""Storage-backend parity: memory and mmap are byte-identical.

The storage layer's contract (out-of-core spill under the kernel-oracle
discipline): where column bytes *live* — RAM lists or on-disk stripe
chunks mapped back on demand — must never change what the engine
computes.  Every suite here runs the same
workload once per storage mode and asserts byte-identity of

* query results (rows with exact cells, PValue candidates included),
* the final repaired relation,
* work-unit totals (storage I/O is deliberately not charged),
* the per-query log (errors fixed, extra tuples, result sizes),

across patch vs rebuild matrix maintenance.  ``memory`` is the oracle.
"""

from __future__ import annotations

from repro import Daisy, DaisyConfig
from repro.constraints import DenialConstraint, Predicate
from repro.datasets import airquality, hospital, workloads
from repro.detection.maintenance import MaintenancePolicy
from repro.relation import ColumnType, Relation
from repro.storage.modes import STORAGE_MODES

#: A budget (1 MB) small enough that every fixture table is over it, so
#: mmap mode really spills and the LRU tracker really evicts.
TIGHT_BUDGET_MB = 1


def _relation_fingerprint(rel: Relation) -> list[tuple]:
    return [(row.tid, tuple(repr(c) for c in row.values)) for row in rel.rows]


def _run_workload(make_daisy, table, queries):
    daisy = make_daisy()
    try:
        with daisy.connect() as session:
            rows = [session.execute(q).relation.to_plain_rows() for q in queries]
            log = [
                (e.errors_fixed, e.extra_tuples, e.result_size)
                for e in session.query_log
            ]
        return {
            "rows": rows,
            "log": log,
            "relation": _relation_fingerprint(daisy.table(table)),
            "work": daisy.work_counter(table).as_dict(),
            "pcells": daisy.probabilistic_cells(table),
        }
    finally:
        daisy.close()


def _hospital_make(storage):
    def make() -> Daisy:
        daisy = Daisy(
            config=DaisyConfig(
                use_cost_model=False,
                storage=storage,
                memory_budget_mb=TIGHT_BUDGET_MB,
            )
        )
        fresh = hospital.generate_instance(num_rows=300, seed=11)
        daisy.register_table("hospital", fresh.dirty)
        for fd in fresh.rules:
            daisy.add_rule("hospital", fd)
        return daisy

    return make


def _hospital_queries() -> list[str]:
    return [
        "SELECT zip FROM hospital WHERE city = 'City001'",
        "SELECT city FROM hospital WHERE zip = 10003",
        "SELECT hospital_name, zip FROM hospital WHERE zip >= 10000 AND zip < 10008",
        "SELECT phone FROM hospital WHERE zip = 10001",
        "SELECT * FROM hospital WHERE provider_id < 40",
    ]


def _dc_relation(n: int = 300, seed: int = 7):
    import random

    rng = random.Random(seed)
    raw = []
    for i in range(n):
        price = 100.0 + i * 10.0
        discount = round(0.01 + i * 0.0001, 6)
        if rng.random() < 0.1:
            discount = round(discount + rng.uniform(-0.02, 0.02), 6)
        raw.append((i, price, discount))
    relation = Relation.from_rows(
        [
            ("orderkey", ColumnType.INT),
            ("extended_price", ColumnType.FLOAT),
            ("discount", ColumnType.FLOAT),
        ],
        raw,
        name="lineorder",
    )
    dc = DenialConstraint(
        [
            Predicate(0, "extended_price", "<", 1, "extended_price"),
            Predicate(0, "discount", ">", 1, "discount"),
        ],
        name="dc_price_discount",
    )
    return relation, dc


class TestFdWorkloadParity:
    """FD cleaning (hospital): mmap equals the memory oracle."""

    def test_serial_modes_byte_identical(self):
        oracle = _run_workload(
            _hospital_make("memory"), "hospital", _hospital_queries()
        )
        got = _run_workload(_hospital_make("mmap"), "hospital", _hospital_queries())
        assert got == oracle


class TestDcWorkloadParity:
    """DC theta-join workload: repairs route through the patch stream and
    must survive evict-then-reload."""

    def _make(self, storage, maintenance="auto"):
        def make() -> Daisy:
            rel, dc = _dc_relation()
            daisy = Daisy(
                config=DaisyConfig(
                    use_cost_model=False,
                    storage=storage,
                    memory_budget_mb=TIGHT_BUDGET_MB,
                )
            )
            state = daisy.register_table("lineorder", rel)
            state.maintenance = MaintenancePolicy(mode=maintenance)
            daisy.add_rule("lineorder", dc)
            return daisy

        return make

    def _queries(self):
        return workloads.range_queries(
            "lineorder", "extended_price", 3100, 6,
            projection="orderkey, extended_price, discount",
        )

    def test_serial_modes_byte_identical(self):
        oracle = _run_workload(self._make("memory"), "lineorder", self._queries())
        got = _run_workload(self._make("mmap"), "lineorder", self._queries())
        assert got == oracle

    def test_maintenance_modes_byte_identical(self):
        """patch vs rebuild maintenance, each spilled, equals the oracle."""
        oracle = _run_workload(self._make("memory"), "lineorder", self._queries())
        for maintenance in ("patch", "rebuild"):
            got = _run_workload(
                self._make("mmap", maintenance), "lineorder", self._queries()
            )
            assert got == oracle, f"maintenance={maintenance} diverged"


class TestAirQualityBatchParity:
    def test_batch_workload_modes_byte_identical(self):
        def make(storage):
            def build() -> Daisy:
                daisy = Daisy(
                    config=DaisyConfig(
                        use_cost_model=False,
                        storage=storage,
                        memory_budget_mb=TIGHT_BUDGET_MB,
                    )
                )
                fresh = airquality.generate_instance(
                    num_rows=600, num_states=8, violation_level="high", seed=17
                )
                daisy.register_table("airquality", fresh.dirty)
                daisy.add_rule("airquality", fresh.fd)
                return daisy

            return build

        queries = airquality.state_co_queries(num_states=8)
        results = {}
        for mode in STORAGE_MODES:
            daisy = make(mode)()
            try:
                with daisy.connect() as session:
                    batch = session.execute_batch(list(queries))
                    rows = [r.relation.to_plain_rows() for r in batch.results]
                results[mode] = (
                    rows,
                    _relation_fingerprint(daisy.table("airquality")),
                    daisy.work_counter("airquality").as_dict(),
                )
            finally:
                daisy.close()
        assert results["mmap"] == results["memory"]


def _wide_relation(n_rows: int = 6000) -> Relation:
    """A table whose modeled resident size exceeds the 1 MB budget
    (``n_rows * n_cols * CELL_BYTES > 1 MiB``), so ``auto`` must spill."""
    return Relation.from_rows(
        [
            ("k", ColumnType.INT),
            ("a", ColumnType.INT),
            ("b", ColumnType.FLOAT),
            ("c", ColumnType.STRING),
        ],
        [(i, i % 97, float(i) / 3.0, f"v{i % 53}") for i in range(n_rows)],
        name="wide",
    )


def _over_budget_dc_relation(n_rows: int = 400):
    """:func:`_dc_relation` padded with zero columns past the 1 MiB budget."""
    base, dc = _dc_relation(n_rows)
    pad = 18_725 // n_rows
    schema = [*base.schema.columns, *((f"p{j}", ColumnType.INT) for j in range(pad))]
    rows = [row.values + (0,) * pad for row in base.rows]
    return Relation.from_rows(schema, rows, name="lineorder"), dc


class TestAutoModeParity:
    def test_auto_equals_every_forced_mode(self):
        """storage="auto" resolves to a concrete mode; results match the oracle."""
        oracle = _run_workload(
            _hospital_make("memory"), "hospital", _hospital_queries()
        )
        got = _run_workload(
            _hospital_make("auto"), "hospital", _hospital_queries()
        )
        assert got == oracle

    def test_auto_stays_in_memory_when_budget_unlimited(self):
        daisy = Daisy(use_cost_model=False, storage="auto", memory_budget_mb=0)
        state = daisy.register_table("wide", _wide_relation(500))
        assert state.resolved_storage() == "memory"  # nothing spilled, nothing to close

    def test_auto_spills_an_over_budget_dc_table_to_mmap(self):
        """A DC-carrying table over budget resolves to mmap stripes."""
        homes = []

        def make(storage):
            def build() -> Daisy:
                relation, dc = _over_budget_dc_relation()
                daisy = Daisy(
                    use_cost_model=False, storage=storage, memory_budget_mb=TIGHT_BUDGET_MB
                )
                state = daisy.register_table("lineorder", relation)
                daisy.add_rule("lineorder", dc)
                homes.append(state.resolved_storage())
                return daisy

            return build

        queries = [
            "SELECT orderkey FROM lineorder WHERE extended_price < 500.0",
            "SELECT orderkey, discount FROM lineorder WHERE extended_price >= 3000.0",
        ]
        got = _run_workload(make("auto"), "lineorder", queries)
        assert got == _run_workload(make("memory"), "lineorder", queries)
        assert homes == ["mmap", "memory"]

    def test_auto_resolution_survives_a_later_rule(self):
        """An FD-only table over budget spills to mmap stripes and stays
        there when a DC arrives later: no re-homing, same answers."""
        def run(storage):
            relation, dc = _over_budget_dc_relation()
            daisy = Daisy(use_cost_model=False, storage=storage, memory_budget_mb=TIGHT_BUDGET_MB)
            try:
                state = daisy.register_table("lineorder", relation)
                daisy.add_rule("lineorder", "orderkey -> discount")
                with daisy.connect() as session:
                    first = session.execute("SELECT discount FROM lineorder WHERE orderkey < 50")
                    homes = [state.resolved_storage()]
                    daisy.add_rule("lineorder", dc)
                    second = session.execute(
                        "SELECT orderkey FROM lineorder WHERE extended_price < 500.0"
                    )
                    homes.append(state.resolved_storage())
                return homes, (
                    first.relation.to_plain_rows(),
                    second.relation.to_plain_rows(),
                    _relation_fingerprint(daisy.table("lineorder")),
                    daisy.work_counter("lineorder").as_dict(),
                )
            finally:
                daisy.close()

        (auto_homes, auto), (_, memory) = run("auto"), run("memory")
        assert auto_homes == ["mmap", "mmap"]
        assert auto == memory


class TestEvictionReallyHappens:
    """The spill plumbing is exercised for real: stripes are written,
    evicted under a shrunken budget, and reloaded from disk."""

    def test_stripe_store_evicts_and_reloads_under_budget(self):
        daisy = _hospital_make("mmap")()
        try:
            queries = _hospital_queries()
            with daisy.connect() as session:
                session.execute(queries[0])
                stores = daisy.storage_manager.tables()
                assert stores, "spill mode never attached a table store"
                # Shrink the resident budget far below one column so the
                # LRU tracker must evict on every subsequent load.
                for t in stores:
                    t.store.tracker.set_budget(1024)
                for q in queries[1:]:
                    session.execute(q)
            assert any(t.store.chunk_writes > 0 for t in stores)
            assert any(t.store.tracker.evictions > 0 for t in stores)
            assert any(t.store.chunk_reads > 0 for t in stores)
        finally:
            daisy.close()
