"""Incremental-vs-cold-rebuild parity after chains of external updates.

The contract under test (the PR's acceptance bar): after a chain of
``update_cells`` batches, **every incrementally patched structure** —
ColumnView columns, sorted/hash indexes, the PValue-bounds sidecar, the
group index, and the theta-join detection matrices — equals its
cold-rebuilt twin on the hospital and air-quality fixtures; and the
patched matrices return byte-identical violations and work units to the
cold rebuild.

Engine-level: an engine whose tables force ``MaintenancePolicy(mode="patch")``
and one forcing ``"rebuild"`` (the pre-maintenance oracle: full rebuild
per sync) produce identical query results and final relations — the two
modes may differ in how much checked-cell bookkeeping survives (that is
the perf win), never in answers.
"""

from __future__ import annotations

import pytest

from repro import Daisy
from repro.constraints import DenialConstraint, Predicate
from repro.datasets import airquality, hospital
from repro.detection.maintenance import (
    MaintenancePolicy,
    matrix_fingerprint,
    sync_matrix,
)
from repro.detection.thetajoin import ThetaJoinMatrix
from repro.engine.stats import WorkCounter
from repro.probabilistic.value import Candidate, PValue
from repro.relation import ColumnView, Relation

def hospital_dc() -> DenialConstraint:
    # provider_id and phone are assigned monotonically together, so the DC
    # holds on clean data and violations come only from updates.
    return DenialConstraint(
        [
            Predicate(0, "provider_id", "<", 1, "provider_id"),
            Predicate(0, "phone", ">", 1, "phone"),
        ],
        name="dc_provider_phone",
    )


def airquality_dc() -> DenialConstraint:
    return DenialConstraint(
        [
            Predicate(0, "co_mean", ">", 1, "co_mean"),
            Predicate(0, "co_max", "<", 1, "co_max"),
        ],
        name="dc_co",
    )


def hospital_relation(n: int = 400) -> Relation:
    return hospital.generate_instance(num_rows=n, seed=11).dirty


def airquality_relation(n: int = 220) -> Relation:
    return airquality.generate_instance(
        num_rows=n, num_states=8, violation_level="low", seed=17
    ).dirty


def hospital_updates() -> list[dict]:
    """Three batches touching ~1% of cells: reroutes, content, a PValue."""
    return [
        {(3, "phone"): 5559999, (41, "provider_id"): 10901},
        {(120, "phone"): 5550001, (120, "provider_id"): 10903,
         (7, "city"): "Elsewhere"},
        {(55, "phone"): PValue([Candidate(5550300, 0.6), Candidate(5550400, 0.4)]),
         (200, "provider_id"): 9999},
    ]


def airquality_updates() -> list[dict]:
    return [
        {(5, "co_mean"): 9.5, (30, "co_max"): 0.01},
        {(5, "co_mean"): 0.2, (77, "co_mean"): 4.4, (12, "county_name"): "Nowhere"},
        {(150, "co_max"): 12.0},
    ]


FIXTURES = {
    "hospital": (hospital_relation, hospital_dc, hospital_updates),
    "airquality": (airquality_relation, airquality_dc, airquality_updates),
}


# ---------------------------------------------------------------------------
# ColumnView structures
# ---------------------------------------------------------------------------


def view_fingerprint(view: ColumnView, attrs) -> dict:
    out: dict = {"tids": list(view.tids)}
    for attr in attrs:
        out[f"col:{attr}"] = [repr(c) for c in view.columns[attr]]
        out[f"pv:{attr}"] = set(view.pvalue_positions(attr))
        sc = view.sorted_column(attr)
        out[f"sorted:{attr}"] = (
            None if sc is None else ([repr(v) for v in sc.values], list(sc.positions))
        )
        hc = view.hash_column(attr)
        out[f"hash:{attr}"] = (
            None if hc is None
            else sorted((repr(k), tuple(v)) for k, v in hc.items())
        )
    return out


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_columnview_structures_match_cold_rebuild(fixture):
    make_rel, _make_dc, make_updates = FIXTURES[fixture]
    rel = make_rel()
    rel.column_view()  # force the view so updates patch it incrementally
    for batch in make_updates():
        rel = rel.update_cells(batch)
    patched = rel.column_view()
    cold = ColumnView.from_relation(rel)
    attrs = rel.schema.names
    assert view_fingerprint(patched, attrs) == view_fingerprint(cold, attrs)

    # The PValue-bounds sidecar (exercised through range filters) and the
    # group index answer like the cold view.
    numeric_attr = "phone" if fixture == "hospital" else "co_mean"
    key_attr = "city" if fixture == "hospital" else "county_name"
    pivot = 5550300 if fixture == "hospital" else 1.0
    assert patched.filter_positions(numeric_attr, ">", pivot) == cold.filter_positions(
        numeric_attr, ">", pivot
    )
    assert patched.group_index((key_attr,)) == cold.group_index((key_attr,))


# ---------------------------------------------------------------------------
# Theta-join matrices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_patched_matrix_byte_identical_to_cold_rebuild(fixture):
    """Structure, violations, and work units match a cold rebuild."""
    make_rel, make_dc, make_updates = FIXTURES[fixture]
    rel = make_rel()
    matrix = ThetaJoinMatrix(rel, make_dc(), sqrt_p=6, counter=WorkCounter())
    matrix.check_full()

    current = rel
    for batch in make_updates():
        current = current.update_cells(batch)
        sync_matrix(matrix, batch)

    cold = ThetaJoinMatrix(current, make_dc(), sqrt_p=6, counter=WorkCounter())
    assert matrix_fingerprint(matrix, include_sorted=True) == matrix_fingerprint(
        cold, include_sorted=True
    )

    # Same bookkeeping -> byte-identical checks (violations AND work).
    cold.checked_cells = set(matrix.checked_cells)
    matrix.counter, cold.counter = WorkCounter(), WorkCounter()
    assert matrix.check_full() == cold.check_full()
    assert matrix.counter.as_dict() == cold.counter.as_dict()
    assert matrix.checked_cells == cold.checked_cells


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_partial_checks_after_patch_match_cold_rebuild(fixture):
    make_rel, make_dc, make_updates = FIXTURES[fixture]
    rel = make_rel()
    matrix = ThetaJoinMatrix(rel, make_dc(), sqrt_p=6, counter=WorkCounter())
    matrix.check_partial(range(0, 40))

    current = rel
    for batch in make_updates():
        current = current.update_cells(batch)
        sync_matrix(matrix, batch)

    cold = ThetaJoinMatrix(current, make_dc(), sqrt_p=6, counter=WorkCounter())
    cold.checked_cells = set(matrix.checked_cells)
    matrix.counter, cold.counter = WorkCounter(), WorkCounter()
    tids = set(range(20, 90))
    assert matrix.check_partial(tids) == cold.check_partial(tids)
    assert matrix.counter.as_dict() == cold.counter.as_dict()
    assert matrix.support() == cold.support()


# ---------------------------------------------------------------------------
# Engine-level: patch mode vs rebuild oracle
# ---------------------------------------------------------------------------


def _relation_fingerprint(rel: Relation) -> list[tuple]:
    return [(row.tid, tuple(repr(c) for c in row.values)) for row in rel.rows]


def _run_update_workload(fixture: str, mode: str) -> dict:
    make_rel, make_dc, make_updates = FIXTURES[fixture]
    daisy = Daisy(use_cost_model=False)
    table = fixture
    daisy.register_table(table, make_rel()).maintenance = MaintenancePolicy(mode=mode)
    if fixture == "hospital":
        for fd in hospital.hospital_rules():
            daisy.add_rule(table, fd)
        queries = [
            "SELECT provider_id, phone FROM hospital WHERE provider_id < 10050",
            "SELECT provider_id, phone FROM hospital WHERE phone > 5550100",
            "SELECT city, zip FROM hospital WHERE zip >= 10000",
        ]
    else:
        daisy.add_rule(table, airquality.airquality_fd())
        queries = [
            "SELECT state_code, co_mean FROM airquality WHERE co_mean > 2.0",
            "SELECT county_name, co_max FROM airquality WHERE co_max < 1.0",
            "SELECT state_code, co_mean FROM airquality WHERE co_mean < 5.0",
        ]
    daisy.add_rule(table, make_dc())

    rows = []
    with daisy.connect() as session:
        rows.append(session.execute(queries[0]).relation.to_plain_rows())
        for batch, query in zip(make_updates(), queries):
            session.update_table(table, batch)
            rows.append(session.execute(query).relation.to_plain_rows())
        log = [
            (e.errors_fixed, e.extra_tuples, e.result_size)
            for e in session.query_log
        ]
    return {
        "rows": rows,
        "log": log,
        "relation": _relation_fingerprint(daisy.table(table)),
        "pcells": daisy.probabilistic_cells(table),
        "actions": [
            m.action for m in daisy.states[table].maintenance_log
        ],
    }


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_engine_patch_mode_matches_rebuild_oracle(fixture):
    patched = _run_update_workload(fixture, "patch")
    rebuilt = _run_update_workload(fixture, "rebuild")
    assert "patch" in patched["actions"]
    assert set(rebuilt["actions"]) == {"rebuild"}
    assert patched["rows"] == rebuilt["rows"]
    assert patched["log"] == rebuilt["log"]
    assert patched["relation"] == rebuilt["relation"]
    assert patched["pcells"] == rebuilt["pcells"]
