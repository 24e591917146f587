"""Metrics: repair accuracy and the engine's wall-clock read."""

from repro.metrics.accuracy import AccuracyReport, evaluate_relation, evaluate_repairs

__all__ = [
    "AccuracyReport",
    "evaluate_repairs",
    "evaluate_relation",
]
