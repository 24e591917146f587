"""The unified adaptive cost model: forced-vs-auto parity + decision audit.

Contract under test (the invariant ``docs/cost-model.md`` documents): every
adaptive choice — per-pass pool/worker/shard shape under
``parallelism="auto"``, per-rule-group shared-vs-sequential arbitration
under ``batch_strategy="auto"`` — selects *how* a pass executes, never
*what* it computes.  Auto runs must be byte-identical to the forced-choice
oracle in query results, repaired relations (PValue candidates included),
query logs, and merged work-unit totals; and every decision must land on
the report with its alternatives' estimates and the observed cost.
"""

from __future__ import annotations

import pytest

from repro import Daisy, DaisyConfig
from repro.constraints import DenialConstraint, Predicate
from repro.core import AdaptivePlanner, CostCalibration
from repro.core.costmodel import (
    DECISION_BATCH,
    DECISION_POOL,
    DECISION_STRATEGY,
    PASS_DC_CHECK,
)
from repro.datasets import airquality, hospital
from repro.datasets.errors import inject_numeric_errors
from repro.parallel import fork_available
from repro.relation import ColumnType, Relation


# ---------------------------------------------------------------------------
# AdaptivePlanner unit behaviour
# ---------------------------------------------------------------------------


class TestChoosePool:
    def make(self, workers=4, process=True):
        return AdaptivePlanner(
            cpu_count=workers, max_workers=workers, process_pool_available=process
        )

    def test_tiny_scope_stays_serial(self):
        planner = self.make()
        plan, decision = planner.choose_pool(PASS_DC_CHECK, "t", raw_units=100)
        assert plan.kind == "serial" and plan.workers == 1
        assert decision.choice == "serial"
        assert decision.alternatives["serial"] == 100

    def test_mid_scope_takes_thread_pool(self):
        planner = self.make()
        plan, _ = planner.choose_pool(PASS_DC_CHECK, "t", raw_units=20_000)
        assert plan.kind == "thread"
        assert plan.workers > 1

    def test_full_matrix_scale_escalates_to_process_pool(self):
        planner = self.make()
        plan, decision = planner.choose_pool(PASS_DC_CHECK, "t", raw_units=2_000_000)
        assert plan.kind == "process"
        assert plan.workers == 4
        # The modeled process cost beat every thread/serial alternative.
        process_cost = decision.alternatives["process:4"]
        assert process_cost < decision.alternatives["serial"]
        assert process_cost < min(
            v for k, v in decision.alternatives.items() if k.startswith("thread")
        )

    def test_no_fork_never_picks_process(self):
        planner = self.make(process=False)
        plan, decision = planner.choose_pool(PASS_DC_CHECK, "t", raw_units=2_000_000)
        assert plan.kind == "thread"
        assert not any(k.startswith("process") for k in decision.alternatives)

    def test_single_worker_cap_is_always_serial(self):
        planner = self.make(workers=1)
        plan, decision = planner.choose_pool(PASS_DC_CHECK, "t", raw_units=10**9)
        assert plan.kind == "serial"
        assert list(decision.alternatives) == ["serial"]

    def test_num_shards_override_respected(self):
        planner = self.make()
        plan, _ = planner.choose_pool(PASS_DC_CHECK, "t", 50_000, num_shards=7)
        assert plan.parallel and plan.shards == 7

    def test_observe_fills_observed_cost_and_calibrates(self):
        planner = self.make()
        _, decision = planner.choose_pool(PASS_DC_CHECK, "t", raw_units=1000)
        planner.observe(decision, 4000)
        assert decision.observed_cost == 4000
        assert planner.calibration.factor(PASS_DC_CHECK) == pytest.approx(4.0)
        # The next estimate of the same kind is rescaled by the learned ratio.
        _, second = planner.choose_pool(PASS_DC_CHECK, "t", raw_units=1000)
        assert second.alternatives["serial"] == pytest.approx(4000)

    def test_decisions_accumulate_in_order(self):
        planner = self.make()
        mark = planner.mark()
        planner.choose_pool(PASS_DC_CHECK, "a", 10)
        planner.choose_pool(PASS_DC_CHECK, "b", 20)
        since = planner.decisions_since(mark)
        assert [d.table for d in since] == ["a", "b"]
        assert all(d.kind == DECISION_POOL for d in since)


class TestChooseBatchStrategy:
    def test_singleton_group_goes_sequential(self):
        planner = AdaptivePlanner(cpu_count=4)
        decision = planner.choose_batch_strategy(
            "t", members=1, cleaning_members=1, shared_units=50, sequential_units=50
        )
        assert decision.choice == "sequential"

    def test_overlapping_members_share(self):
        planner = AdaptivePlanner(cpu_count=4)
        # Five members whose scopes overlap heavily: union 100 vs sum 500 —
        # the cleaning saved dwarfs the per-member routing re-filter.
        decision = planner.choose_batch_strategy(
            "t", members=5, cleaning_members=5,
            shared_units=100, sequential_units=500, routing_units=500,
        )
        assert decision.choice == "shared"
        assert decision.kind == DECISION_BATCH
        assert decision.alternatives["shared"] < decision.alternatives["sequential"]

    def test_disjoint_members_go_sequential(self):
        planner = AdaptivePlanner(cpu_count=4)
        # Disjoint scopes: union == sum, so sharing saves no cleaning and
        # still pays every member's routing re-filter.
        decision = planner.choose_batch_strategy(
            "t", members=4, cleaning_members=4,
            shared_units=400, sequential_units=400, routing_units=400,
        )
        assert decision.choice == "sequential"
        assert decision.alternatives["sequential"] < decision.alternatives["shared"]

    def test_group_with_nothing_to_clean_shares(self):
        planner = AdaptivePlanner(cpu_count=4)
        # No member needs cleaning: the shared pass is a no-op and members
        # route plainly — never pay per-member cleaning passes for nothing.
        decision = planner.choose_batch_strategy(
            "t", members=3, cleaning_members=0,
            shared_units=0, sequential_units=0, routing_units=120,
        )
        assert decision.choice == "shared"


# ---------------------------------------------------------------------------
# Config surface
# ---------------------------------------------------------------------------


class TestConfig:
    def test_parallelism_auto_accepted(self):
        config = DaisyConfig(parallelism="auto")
        assert config.adaptive_parallelism

    def test_parallelism_rejects_other_strings(self):
        with pytest.raises(ValueError, match="parallelism"):
            DaisyConfig(parallelism="turbo")

    def test_batch_strategy_validated(self):
        DaisyConfig(batch_strategy="auto")
        DaisyConfig(batch_strategy="sequential")
        with pytest.raises(ValueError, match="batch strategy"):
            DaisyConfig(batch_strategy="greedy")

    def test_auto_max_workers_validated(self):
        DaisyConfig(parallelism="auto", auto_max_workers=4)
        with pytest.raises(ValueError, match="auto_max_workers"):
            DaisyConfig(auto_max_workers=-1)

    def test_daisy_kwargs_pass_through(self):
        daisy = Daisy(parallelism="auto", batch_strategy="auto")
        assert daisy.config.adaptive_parallelism
        assert daisy.config.batch_strategy == "auto"


# ---------------------------------------------------------------------------
# Forced-vs-auto parity (hospital + air-quality fixtures)
# ---------------------------------------------------------------------------


def _relation_fingerprint(rel: Relation) -> list[tuple]:
    return [(row.tid, tuple(repr(c) for c in row.values)) for row in rel.rows]


def _run_workload(make_daisy, table: str, queries, batch: bool = False):
    daisy = make_daisy()
    with daisy.connect() as session:
        if batch:
            batch_result = session.execute_batch(list(queries))
            rows = [r.relation.to_plain_rows() for r in batch_result.results]
            report = batch_result.report
        else:
            rows = [session.execute(q).relation.to_plain_rows() for q in queries]
            report = None
        log = [
            (e.errors_fixed, e.extra_tuples, e.result_size)
            for e in session.query_log
        ]
        decisions = list(session.planner.decisions)
    return {
        "rows": rows,
        "log": log,
        "relation": _relation_fingerprint(daisy.table(table)),
        "work": daisy.work_counter(table).as_dict(),
        "pcells": daisy.probabilistic_cells(table),
        "decisions": decisions,
        "report": report,
    }


def _hospital_queries() -> list[str]:
    zips = [10000, 10400, 10800, 11200, 11600]
    out = [
        f"SELECT city, zip FROM hospital WHERE zip >= {lo} AND zip < {hi}"
        for lo, hi in zip(zips, zips[1:])
    ]
    out.append("SELECT hospital_name, zip FROM hospital WHERE city = 'city_3'")
    return out


def _hospital_daisy(**config_kwargs):
    def make() -> Daisy:
        daisy = Daisy(config=DaisyConfig(use_cost_model=False, **config_kwargs))
        fresh = hospital.generate_instance(num_rows=400, seed=11)
        daisy.register_table("hospital", fresh.dirty)
        for fd in fresh.rules:
            daisy.add_rule("hospital", fd)
        return daisy

    return make


def _dc_daisy(**config_kwargs):
    def make() -> Daisy:
        raw = [
            (i, 100.0 + i * 10.0, round(0.01 + i * 0.0001, 6)) for i in range(240)
        ]
        rel = Relation.from_rows(
            [
                ("orderkey", ColumnType.INT),
                ("extended_price", ColumnType.FLOAT),
                ("discount", ColumnType.FLOAT),
            ],
            raw,
            name="lineorder",
        )
        dirty, _ = inject_numeric_errors(
            rel, "discount", cell_fraction=0.05, magnitude=3.0, seed=7
        )
        dc = DenialConstraint(
            [
                Predicate(0, "extended_price", "<", 1, "extended_price"),
                Predicate(0, "discount", ">", 1, "discount"),
            ],
            name="dc_price_discount",
        )
        daisy = Daisy(config=DaisyConfig(use_cost_model=False, **config_kwargs))
        daisy.register_table("lineorder", dirty)
        daisy.add_rule("lineorder", dc)
        return daisy

    return make


FORCED_CONFIGS = [
    {},  # the serial oracle
    {"parallelism": 2, "pool": "thread"},
    {"parallelism": 4, "pool": "thread", "num_shards": 4},
    pytest.param(
        {"parallelism": 2, "pool": "process"},
        marks=pytest.mark.skipif(not fork_available(), reason="no fork"),
    ),
]


class TestForcedVsAutoParity:
    @pytest.mark.parametrize("forced", FORCED_CONFIGS)
    def test_hospital_fd_workload(self, forced):
        queries = _hospital_queries()
        auto = _run_workload(
            _hospital_daisy(parallelism="auto", auto_max_workers=4),
            "hospital",
            queries,
        )
        oracle = _run_workload(_hospital_daisy(**forced), "hospital", queries)
        assert auto["rows"] == oracle["rows"]
        assert auto["relation"] == oracle["relation"]
        assert auto["work"] == oracle["work"]
        assert auto["log"] == oracle["log"]
        assert auto["pcells"] == oracle["pcells"]

    @pytest.mark.parametrize("forced", FORCED_CONFIGS)
    def test_dc_workload(self, forced):
        queries = [
            "SELECT orderkey, discount FROM lineorder WHERE orderkey < 60",
            "SELECT orderkey, discount FROM lineorder WHERE orderkey >= 120",
            "SELECT orderkey FROM lineorder WHERE extended_price > 500",
        ]
        auto = _run_workload(
            _dc_daisy(parallelism="auto", auto_max_workers=4), "lineorder", queries
        )
        oracle = _run_workload(_dc_daisy(**forced), "lineorder", queries)
        assert auto["rows"] == oracle["rows"]
        assert auto["relation"] == oracle["relation"]
        assert auto["work"] == oracle["work"]
        assert auto["log"] == oracle["log"]
        # The auto run recorded a priced pool decision per DC check.
        dc_decisions = [d for d in auto["decisions"] if d.pass_kind == "dc_check"]
        assert dc_decisions
        assert all(d.observed_cost is not None for d in dc_decisions)

    def test_airquality_batch_auto_parity(self):
        num_states = 8

        def make(**config_kwargs):
            def build() -> Daisy:
                daisy = Daisy(
                    config=DaisyConfig(use_cost_model=False, **config_kwargs)
                )
                fresh = airquality.generate_instance(
                    num_rows=900, num_states=num_states,
                    violation_level="low", seed=17,
                )
                daisy.register_table("airquality", fresh.dirty)
                daisy.add_rule("airquality", fresh.fd)
                return daisy

            return build

        queries = airquality.state_co_queries(num_states)
        auto = _run_workload(
            make(parallelism="auto", auto_max_workers=4, batch_strategy="auto"),
            "airquality",
            queries,
            batch=True,
        )
        # The forced oracle is whichever configuration auto's recorded
        # (uniform) per-group choices correspond to — work units must match
        # it byte-identically, results must match every configuration.
        batch_decisions = [d for d in auto["decisions"] if d.kind == DECISION_BATCH]
        assert batch_decisions
        choices = {d.choice for d in batch_decisions}
        assert len(choices) == 1, "per-state groups should decide uniformly"
        oracle = _run_workload(
            make(batch_strategy=choices.pop()), "airquality", queries, batch=True
        )
        assert auto["rows"] == oracle["rows"]
        assert auto["relation"] == oracle["relation"]
        assert auto["work"] == oracle["work"]
        assert auto["log"] == oracle["log"]


# ---------------------------------------------------------------------------
# Batch arbitration semantics
# ---------------------------------------------------------------------------


class TestBatchArbitration:
    def test_singleton_groups_run_sequential_and_match_forced(self):
        # One query per rule group: auto must demote every group to the
        # sequential path and charge exactly the forced-sequential work.
        queries = [_hospital_queries()[0], _hospital_queries()[-1]]
        auto = _run_workload(
            _hospital_daisy(batch_strategy="auto"), "hospital", queries, batch=True
        )
        forced = _run_workload(
            _hospital_daisy(batch_strategy="sequential"),
            "hospital",
            queries,
            batch=True,
        )
        decisions = [d for d in auto["decisions"] if d.kind == DECISION_BATCH]
        assert decisions and all(d.choice == "sequential" for d in decisions)
        assert auto["rows"] == forced["rows"]
        assert auto["relation"] == forced["relation"]
        assert auto["work"] == forced["work"]
        assert auto["log"] == forced["log"]

    def test_results_identical_across_all_strategies(self):
        queries = _hospital_queries()
        runs = {
            name: _run_workload(
                _hospital_daisy(batch_strategy=name), "hospital", queries, batch=True
            )
            for name in ("shared", "sequential", "auto")
        }
        for name in ("sequential", "auto"):
            assert runs[name]["rows"] == runs["shared"]["rows"]
            assert runs[name]["relation"] == runs["shared"]["relation"]
            assert runs[name]["pcells"] == runs["shared"]["pcells"]

    def test_auto_work_matches_its_chosen_forced_oracle(self):
        queries = _hospital_queries()
        auto = _run_workload(
            _hospital_daisy(batch_strategy="auto"), "hospital", queries, batch=True
        )
        decisions = [d for d in auto["decisions"] if d.kind == DECISION_BATCH]
        assert decisions
        choices = {d.choice for d in decisions}
        # Uniform choices have an exact forced twin; auto must charge its
        # work units byte-identically.
        if choices == {"shared"}:
            oracle_cfg = "shared"
        elif choices == {"sequential"}:
            oracle_cfg = "sequential"
        else:
            pytest.skip("mixed per-group choices have no single forced twin")
        oracle = _run_workload(
            _hospital_daisy(batch_strategy=oracle_cfg), "hospital", queries, batch=True
        )
        assert auto["work"] == oracle["work"]
        assert auto["log"] == oracle["log"]

    def test_group_reports_carry_strategy_and_decision(self):
        queries = _hospital_queries()
        daisy = _hospital_daisy(batch_strategy="auto")()
        with daisy.connect() as session:
            batch = session.execute_batch(queries)
        assert batch.groups
        for group in batch.groups:
            assert group.strategy in ("shared", "sequential")
            assert group.decision is not None
            assert group.decision.observed_cost is not None
            assert set(group.decision.alternatives) == {"shared", "sequential"}
        assert batch.report.decisions_of_kind(DECISION_BATCH)

    def test_forced_strategies_record_no_batch_decisions(self):
        queries = _hospital_queries()
        daisy = _hospital_daisy(batch_strategy="shared")()
        with daisy.connect() as session:
            batch = session.execute_batch(queries)
        assert not batch.report.decisions_of_kind(DECISION_BATCH)
        assert all(g.decision is None for g in batch.groups)


# ---------------------------------------------------------------------------
# Strategy-switch decisions on the workload report
# ---------------------------------------------------------------------------


class TestStrategySwitchDecisions:
    def test_switch_recorded_with_both_projected_costs(self):
        def make() -> Daisy:
            daisy = Daisy(
                config=DaisyConfig(use_cost_model=True, expected_queries=6)
            )
            fresh = hospital.generate_instance(num_rows=400, seed=11)
            daisy.register_table("hospital", fresh.dirty)
            for fd in fresh.rules:
                daisy.add_rule("hospital", fd)
            return daisy

        daisy = make()
        with daisy.connect() as session:
            report = session.execute_workload(_hospital_queries())
        decisions = report.decisions_of_kind(DECISION_STRATEGY)
        assert decisions
        # column_backend="auto" (the default) is a static rule: the session
        # prices and logs nothing for it.
        assert {d.kind for d in session.planner.decisions} == {DECISION_STRATEGY}
        for decision in decisions:
            assert set(decision.alternatives) == {
                "continue_incremental",
                "full_clean_now",
            }
            assert decision.choice in decision.alternatives
        # A switch (if any) carries the observed work of the full clean.
        switched = [d for d in decisions if d.choice == "full_clean_now"]
        if report.switch_query_index is not None:
            assert switched and switched[0].observed_cost is not None
        # The workload behaves exactly as the pre-planner should_switch path.
        daisy2 = make()
        with daisy2.connect() as session:
            report2 = session.execute_workload(_hospital_queries())
        assert report2.switch_query_index == report.switch_query_index


# ---------------------------------------------------------------------------
# Calibration feedback inside a session
# ---------------------------------------------------------------------------


class TestSessionCalibration:
    def test_fd_relax_bucket_learns_within_a_workload(self):
        daisy = _hospital_daisy(parallelism="auto", auto_max_workers=4)()
        with daisy.connect() as session:
            session.execute_workload(_hospital_queries())
            calibration = session.planner.calibration
            assert calibration.samples("fd_relax") > 0
            assert calibration.factor("fd_relax") != 1.0


def test_calibration_shared_across_decision_kinds():
    calibration = CostCalibration()
    planner = AdaptivePlanner(cpu_count=2, calibration=calibration)
    _, decision = planner.choose_pool(PASS_DC_CHECK, "t", raw_units=10)
    planner.observe(decision, 30)
    assert calibration.factor(PASS_DC_CHECK) == pytest.approx(3.0)
    # Other buckets stay untouched.
    assert calibration.factor("fd_relax") == 1.0
