"""Violation detection: FD group-by detection, DC theta-join, estimation."""

from repro.detection.fd_detector import (
    FdViolationReport,
    ViolatingGroup,
    detect_fd_violations,
    violating_lhs_keys,
)
from repro.detection.thetajoin import BoundingBox, ThetaJoinMatrix, ViolationPair
from repro.detection.estimator import (
    CleaningDecision,
    RangeErrorEstimate,
    decide_cleaning,
    estimate_errors,
)
from repro.detection.maintenance import (
    MaintenancePolicy,
    MaintenanceReport,
    matrix_fingerprint,
    sync_matrix,
)

__all__ = [
    "MaintenancePolicy",
    "MaintenanceReport",
    "matrix_fingerprint",
    "sync_matrix",
    "FdViolationReport",
    "ViolatingGroup",
    "detect_fd_violations",
    "violating_lhs_keys",
    "ThetaJoinMatrix",
    "ViolationPair",
    "BoundingBox",
    "estimate_errors",
    "decide_cleaning",
    "CleaningDecision",
    "RangeErrorEstimate",
]
