"""Figure 12 — mixed SP + SPJ workload with the strategy switch.

Paper setup: 90 mixed queries (SP and joins, random selectivities) over the
100K-orderkey lineorder with 500 distinct suppkeys; Daisy predicts after ~30
queries that cleaning the remaining dirty part is cheaper and switches,
beating both always-incremental and offline.

Scaled here: 2000 rows, 250 orderkeys/suppkeys, 25% dirty orderkeys,
30 mixed queries.
"""

from _harness import print_cumulative, print_series, run_daisy, run_offline
from repro.datasets import ssb, workloads

NUM_ROWS = 2000
NUM_ORDERKEYS = 250
NUM_SUPPKEYS = 250
NUM_QUERIES = 30


def _setup():
    lineorder, phi, _ = ssb.dirty_lineorder(
        NUM_ROWS, NUM_ORDERKEYS, NUM_SUPPKEYS,
        error_group_fraction=0.25, seed=108,
    )
    supplier, psi, _ = ssb.dirty_supplier(
        NUM_SUPPKEYS, error_fraction=0.1, seed=108
    )
    queries = workloads.mixed_workload(NUM_QUERIES, NUM_ORDERKEYS, seed=108)
    return lineorder, phi, supplier, psi, queries


def _run_series():
    lo, phi, sup, psi, queries = _setup()
    incremental = run_daisy(
        lo, [phi], queries, use_cost_model=False, label="Daisy w/o cost",
        extra_tables={"supplier": sup}, extra_rules={"supplier": [psi]},
    )
    lo2, phi2, sup2, psi2, queries2 = _setup()
    switching = run_daisy(
        lo2, [phi2], queries2, use_cost_model=True, label="Daisy",
        extra_tables={"supplier": sup2}, extra_rules={"supplier": [psi2]},
    )
    lo3, phi3, sup3, psi3, queries3 = _setup()
    offline = run_offline(
        lo3, [phi3], queries3, label="Full",
        extra_tables={"supplier": sup3}, extra_rules={"supplier": [psi3]},
    )
    return incremental, switching, offline


def test_fig12_mixed_workload(benchmark):
    incremental, switching, offline = benchmark.pedantic(
        _run_series, rounds=1, iterations=1
    )
    print_series(
        "Fig.12 — mixed workload (totals)", [incremental, switching, offline]
    )
    print_cumulative("Fig.12", [incremental, switching, offline], step=6)
    # Cost-model Daisy must not lose to always-incremental.
    assert switching.seconds <= incremental.seconds * 1.25
