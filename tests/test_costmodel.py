"""Tests for the cost model: Section 5.2 formulas, statistics, calibration,
and the adaptive planner's two priced decisions (strategy switch and
admission)."""

import pytest

from repro import Daisy, DaisyConfig
from repro.constraints import FunctionalDependency
from repro.core import (
    AdaptivePlanner,
    CostCalibration,
    CostModel,
    CostModelConfig,
    QueryObservation,
    build_fd_statistics,
    incremental_query_cost,
    offline_cost,
)
from repro.core.costmodel import DECISION_STRATEGY, PASS_ADMISSION
from repro.datasets import hospital
from repro.relation import ColumnType, Relation


class TestCostFormulas:
    def test_offline_cost_fd_linear_detection(self):
        cost = offline_cost(n=1000, errors=10, candidates_per_error=2, num_queries=5)
        # q·n + n + ε·n + n + ε·p
        assert cost == 5 * 1000 + 1000 + 10 * 1000 + 1000 + 20

    def test_offline_cost_dc_quadratic_detection(self):
        fd = offline_cost(100, 0, 1, 0, is_dc=False)
        dc = offline_cost(100, 0, 1, 0, is_dc=True)
        assert dc > fd

    def test_incremental_first_query_scans_everything(self):
        cost = incremental_query_cost(
            n=1000, seen_tuples=0, result_size=20, extra_tuples=5,
            errors=2, prior_prob_values=0, candidates_per_error=2,
        )
        assert cost >= 1000  # relaxation over the unknown remainder

    def test_incremental_relaxation_shrinks_with_seen(self):
        kwargs = dict(
            result_size=20, extra_tuples=5, errors=2,
            prior_prob_values=0, candidates_per_error=2,
        )
        first = incremental_query_cost(n=1000, seen_tuples=0, **kwargs)
        later = incremental_query_cost(n=1000, seen_tuples=900, **kwargs)
        assert later < first

    def test_dc_detection_cost_higher(self):
        fd = incremental_query_cost(
            n=1000, seen_tuples=0, result_size=100, extra_tuples=0,
            errors=0, prior_prob_values=0, candidates_per_error=1, is_dc=False,
        )
        dc = incremental_query_cost(
            n=1000, seen_tuples=0, result_size=100, extra_tuples=0,
            errors=0, prior_prob_values=0, candidates_per_error=1, is_dc=True,
        )
        assert dc > fd


class TestCostModelDecision:
    def make_model(self, errors=100, p=2.0, expected=50):
        return CostModel(
            dataset_size=1000,
            estimated_errors=errors,
            candidates_per_error=p,
            config=CostModelConfig(expected_queries=expected),
        )

    def test_no_switch_with_no_queries_left(self):
        model = self.make_model(expected=1)
        model.observe(QueryObservation(20, 5, 2, 25.0))
        assert not model.should_switch_to_full()

    def test_switch_when_update_cost_dominates(self):
        # The Fig. 7 scenario: many candidate values per error (large p), a
        # long workload, and most errors already turned probabilistic — the
        # per-query probabilistic update cost dominates, so finishing with a
        # full clean of the remainder is cheaper.
        model = CostModel(
            dataset_size=1000,
            estimated_errors=900,
            candidates_per_error=20.0,
            config=CostModelConfig(expected_queries=100),
        )
        model.observe(
            QueryObservation(
                result_size=100, extra_tuples=700, errors=800, detection_cost=800.0
            )
        )
        assert model.should_switch_to_full()

    def test_no_switch_on_clean_data(self):
        model = CostModel(
            dataset_size=1000,
            estimated_errors=0,
            candidates_per_error=1.0,
            config=CostModelConfig(expected_queries=100),
        )
        model.observe(QueryObservation(10, 0, 0, 10.0))
        # With no errors, full cleaning buys nothing; projections still pay
        # relaxation, so allow either decision but require consistency.
        first = model.should_switch_to_full()
        assert first == model.should_switch_to_full()

    def test_observations_accumulate(self):
        model = self.make_model()
        model.observe(QueryObservation(10, 5, 3, 15.0))
        model.observe(QueryObservation(20, 5, 3, 25.0))
        assert model.errors_cleaned == 6
        assert model.tuples_seen == 40
        assert len(model.observations) == 2

    def test_remaining_errors_floor_zero(self):
        model = self.make_model(errors=5)
        model.observe(QueryObservation(10, 0, 10, 10.0))
        assert model.remaining_errors() == 0

    def test_switch_costs_expose_both_sides_of_the_inequality(self):
        model = self.make_model()
        model.observe(QueryObservation(20, 5, 2, 25.0))
        costs = model.switch_costs()
        assert costs is not None
        incremental, full = costs
        assert incremental == model.projected_incremental_remaining(
            model.config.expected_queries - 1
        )
        assert full == model.full_clean_now_cost(model.config.expected_queries - 1)
        # The boolean decision is exactly the inequality over these costs.
        assert model.should_switch_to_full() == (incremental > full)

    def test_switch_costs_none_when_workload_over(self):
        model = self.make_model(expected=1)
        model.observe(QueryObservation(20, 5, 2, 25.0))
        assert model.switch_costs() is None
        assert not model.should_switch_to_full()


class TestCostCalibration:
    def test_defaults_to_identity(self):
        calibration = CostCalibration()
        assert calibration.factor("dc_check") == 1.0
        assert calibration.calibrated("dc_check", 500) == 500

    def test_first_sample_adopts_observed_ratio(self):
        calibration = CostCalibration()
        calibration.observe("dc_check", 100, 700)
        assert calibration.factor("dc_check") == pytest.approx(7.0)

    def test_replayed_log_monotonically_improves_estimates(self):
        """On a replayed work log with a stable observed/estimated ratio,
        every calibration update shrinks the absolute estimation error —
        the feedback loop never regresses on stationary workloads."""
        calibration = CostCalibration(alpha=0.3)
        # A replayed log: raw estimates with the true cost at 12.5x —
        # seeded away from the truth by a misleading first observation.
        calibration.observe("fd_relax", 100, 300)  # factor jumps to 3.0
        log = [(80, 1000), (120, 1500), (100, 1250), (60, 750), (90, 1125)]
        errors = []
        for raw, observed in log:
            errors.append(abs(calibration.calibrated("fd_relax", raw) / raw - 12.5))
            calibration.observe("fd_relax", raw, observed)
        errors.append(abs(calibration.factor("fd_relax") - 12.5))
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert calibration.factor("fd_relax") == pytest.approx(12.5, rel=0.35)

    def test_buckets_are_independent(self):
        calibration = CostCalibration()
        calibration.observe("dc_check", 10, 100)
        assert calibration.factor("fd_relax") == 1.0
        assert calibration.samples("dc_check") == 1
        assert calibration.samples("fd_relax") == 0

    def test_ignores_degenerate_samples(self):
        calibration = CostCalibration()
        calibration.observe("dc_check", 0, 100)      # no raw estimate
        calibration.observe("dc_check", 10, -5)      # negative observation
        calibration.observe("dc_check", 10, float("nan"))
        assert calibration.factor("dc_check") == 1.0

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            CostCalibration(alpha=0.0)
        with pytest.raises(ValueError):
            CostCalibration(alpha=1.5)


def _switching_model() -> CostModel:
    model = CostModel(
        dataset_size=1000, estimated_errors=900, candidates_per_error=20.0,
        config=CostModelConfig(expected_queries=100),
    )
    model.observe(QueryObservation(100, 700, 800, 800.0))
    return model


class TestPlannerPricing:
    def test_strategy_verdicts_do_not_contaminate_calibration(self):
        planner = AdaptivePlanner()
        decision = planner.strategy_switch("t", _switching_model())
        assert decision is not None and decision.choice == "full_clean_now"
        # The estimate projects remaining-workload execution; the observed
        # value is only the clean's counter delta — record, don't calibrate.
        planner.observe(decision, 5000)
        assert decision.observed_cost == 5000
        assert planner.calibration.samples("strategy") == 0

    def test_calibration_shared_across_decision_kinds(self):
        calibration = CostCalibration()
        planner = AdaptivePlanner(calibration=calibration)
        admission = planner.choose_admission("t", 10, 0, 0)
        planner.observe(admission, 30)
        assert calibration.factor(PASS_ADMISSION) == pytest.approx(3.0)
        # The next admission estimate is rescaled by the learned ratio.
        again = planner.choose_admission("t", 10, 0, 0)
        assert again.alternatives["admit"] == pytest.approx(30.0)
        # A strategy verdict observed through the same planner leaves every
        # bucket but the admission one untouched.
        verdict = planner.strategy_switch("t", _switching_model())
        assert verdict is not None
        planner.observe(verdict, 5000)
        assert calibration.samples(PASS_ADMISSION) == 1
        assert calibration.samples("strategy") == 0

    def test_decision_log_is_capped(self):
        planner = AdaptivePlanner()
        cap = AdaptivePlanner.MAX_DECISIONS
        mark = planner.mark()
        for i in range(cap + 50):
            planner.choose_admission(f"t{i}", 10, 0, 0)
        assert len(planner.decisions) == cap
        assert planner.decisions_dropped == 50
        # Marks are absolute: the slice loses only what the cap discarded.
        since = planner.decisions_since(mark)
        assert len(since) == cap
        assert since[-1].table == f"t{cap + 49}"
        late_mark = planner.mark()
        planner.choose_admission("late", 10, 0, 0)
        assert [d.table for d in planner.decisions_since(late_mark)] == ["late"]


def _hospital_queries() -> list[str]:
    zips = [10000, 10400, 10800, 11200, 11600]
    out = [
        f"SELECT city, zip FROM hospital WHERE zip >= {lo} AND zip < {hi}"
        for lo, hi in zip(zips, zips[1:])
    ]
    out.append("SELECT hospital_name, zip FROM hospital WHERE city = 'city_3'")
    return out


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


class TestFdStatistics:
    def make_rel(self):
        return Relation.from_rows(
            [("k", ColumnType.INT), ("v", ColumnType.STRING)],
            [(1, "a"), (1, "a"), (2, "b"), (2, "c"), (3, "d")],
        )

    def test_dirty_groups_found(self):
        stats = build_fd_statistics(self.make_rel(), FunctionalDependency("k", "v"))
        assert stats.dirty_groups == {(2,)}
        assert stats.dirty_group_count() == 1

    def test_group_sizes(self):
        stats = build_fd_statistics(self.make_rel(), FunctionalDependency("k", "v"))
        assert stats.group_sizes == {(1,): 2, (2,): 2, (3,): 1}

    def test_erroneous_entities(self):
        stats = build_fd_statistics(self.make_rel(), FunctionalDependency("k", "v"))
        assert stats.erroneous_entities() == 2

    def test_candidate_estimate_on_clean_data(self):
        rel = Relation.from_rows(
            [("k", ColumnType.INT), ("v", ColumnType.STRING)], [(1, "a"), (2, "b")]
        )
        stats = build_fd_statistics(rel, FunctionalDependency("k", "v"))
        assert stats.candidate_count_estimate() == 1.0

    def test_is_dirty_key(self):
        stats = build_fd_statistics(self.make_rel(), FunctionalDependency("k", "v"))
        assert stats.is_dirty_key((2,))
        assert not stats.is_dirty_key((1,))

    def test_rhs_fanout(self):
        rel = Relation.from_rows(
            [("k", ColumnType.INT), ("v", ColumnType.STRING)],
            [(1, "a"), (2, "a"), (3, "b")],
        )
        stats = build_fd_statistics(rel, FunctionalDependency("k", "v"))
        assert stats.rhs_fanout == {"a": 2, "b": 1}
