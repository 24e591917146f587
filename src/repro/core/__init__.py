"""Daisy's core: relaxation, cleaning operators, cost model, statistics."""

from repro.core.relaxation import (
    RelaxationResult,
    estimate_relaxed_size,
    extra_iteration_probability,
    frequency_distribution,
    iterations_needed_rhs_filter,
    relax_fd,
    relaxed_size_upper_bound,
)
from repro.core.state import TableState, rule_key
from repro.core.operators import (
    CleanReport,
    clean_full_table,
    clean_join,
    clean_sigma,
)
from repro.core.costmodel import (
    AdaptivePlanner,
    CostCalibration,
    CostModel,
    CostModelConfig,
    PassDecision,
    QueryObservation,
    incremental_query_cost,
    offline_cost,
)
from repro.core.statistics import (
    FdStatistics,
    TableStatistics,
    build_fd_statistics,
)
from repro.core.resolve import (
    domain_coverage,
    refine_probabilities,
    resolve_keep_original,
    resolve_most_probable,
    resolve_with,
    resolve_with_master,
)

__all__ = [
    "relax_fd",
    "RelaxationResult",
    "iterations_needed_rhs_filter",
    "extra_iteration_probability",
    "relaxed_size_upper_bound",
    "estimate_relaxed_size",
    "frequency_distribution",
    "TableState",
    "rule_key",
    "clean_sigma",
    "clean_join",
    "clean_full_table",
    "CleanReport",
    "CostModel",
    "CostModelConfig",
    "QueryObservation",
    "AdaptivePlanner",
    "CostCalibration",
    "PassDecision",
    "offline_cost",
    "incremental_query_cost",
    "FdStatistics",
    "TableStatistics",
    "build_fd_statistics",
    "resolve_with",
    "resolve_most_probable",
    "resolve_keep_original",
    "resolve_with_master",
    "domain_coverage",
    "refine_probabilities",
]
