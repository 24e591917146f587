"""Shared fixtures: the paper's running examples and small synthetic data."""

from __future__ import annotations

import os

import pytest

from repro.constraints import FunctionalDependency
from repro.relation import ColumnType, Relation


@pytest.fixture(scope="session", autouse=True)
def _race_witness_harness():
    """Run the whole suite under the race witness when asked.

    ``REPRO_TEST_DIAGNOSTICS=witness`` activates the ownership witness
    (:mod:`repro.diagnostics.witness`) for every test — the CI ``witness``
    job runs the whole tier-1 suite this way.  On teardown the witness writes
    its report (``REPRO_WITNESS_REPORT``) and the session FAILS if any
    observed write contradicted the declared ownership contracts.
    """
    if os.environ.get("REPRO_TEST_DIAGNOSTICS") != "witness":
        yield
        return
    from repro.diagnostics import global_witness

    witness = global_witness()
    witness.activate()
    try:
        yield
    finally:
        violations = list(witness.violations)
        witness.deactivate()
    if violations:
        lines = "\n".join(v.reason for v in violations[:20])
        raise AssertionError(
            f"race witness observed {len(violations)} ownership "
            f"violation(s):\n{lines}"
        )


@pytest.fixture
def cities_relation() -> Relation:
    """Table 2a — the dirty Cities dataset of the paper's running example."""
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
def zip_city_fd() -> FunctionalDependency:
    return FunctionalDependency("zip", "city", name="phi")


@pytest.fixture
def employees_relation() -> Relation:
    """Table 1 — the employees dataset of the introduction."""
    return Relation.from_rows(
        [("name", ColumnType.STRING), ("zip", ColumnType.INT), ("city", ColumnType.STRING)],
        [
            ("Jon", 9001, "Los Angeles"),
            ("Jim", 9001, "San Francisco"),
            ("Mary", 10001, "New York"),
            ("Jane", 10002, "New York"),
        ],
        name="employees",
    )


@pytest.fixture
def salary_tax_relation() -> Relation:
    """Example 5's salary/tax/age dataset."""
    return Relation.from_rows(
        [("salary", ColumnType.INT), ("tax", ColumnType.FLOAT), ("age", ColumnType.INT)],
        [
            (1000, 0.1, 31),
            (3000, 0.2, 32),
            (2000, 0.3, 43),
        ],
        name="salaries",
    )
