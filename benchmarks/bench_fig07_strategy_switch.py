"""Figure 7 — switching from incremental to full cleaning.

Paper setup: 90 random-selectivity queries over the 100K-orderkey lineorder
with *low* suppkey cardinality (each suppkey co-occurs with many orderkeys,
so candidate sets are large and per-query probabilistic updates expensive).
Expected shape: always-incremental ("Daisy w/o cost") is the slowest; Daisy
with the cost model starts incremental, switches to cleaning the remaining
dirty part, and ends cheaper than both alternatives.

Scaled here: 2400 rows, 300 orderkeys/suppkeys (mostly 1:1 mapping so the
FD value graph stays fragmented), 25% of orderkeys dirty, 45 queries — this
keeps per-query cleaning local so the cost model switches mid-workload
instead of after the first (giant-component) query.
"""

from _harness import print_cumulative, print_series, run_daisy, run_offline
from repro.datasets import ssb, workloads

NUM_ROWS = 2400
NUM_ORDERKEYS = 300
NUM_SUPPKEYS = 300
NUM_QUERIES = 45
ERROR_GROUP_FRACTION = 0.25


def _setup():
    dirty, fd, _ = ssb.dirty_lineorder(
        NUM_ROWS, NUM_ORDERKEYS, NUM_SUPPKEYS,
        error_group_fraction=ERROR_GROUP_FRACTION, seed=103,
    )
    queries = workloads.random_selectivity_queries(
        "lineorder", "orderkey", NUM_ORDERKEYS, NUM_QUERIES, seed=103,
        projection="orderkey, suppkey",
    )
    return dirty, fd, queries


def _run_series():
    dirty, fd, queries = _setup()
    incremental = run_daisy(
        dirty, [fd], queries, use_cost_model=False, label="Daisy w/o cost"
    )
    dirty2, fd2, queries2 = _setup()
    switching = run_daisy(
        dirty2, [fd2], queries2, use_cost_model=True, label="Daisy"
    )
    dirty3, fd3, queries3 = _setup()
    offline = run_offline(dirty3, [fd3], queries3, label="Full")
    return incremental, switching, offline


def test_fig07_strategy_switch(benchmark):
    incremental, switching, offline = benchmark.pedantic(
        _run_series, rounds=1, iterations=1
    )
    print_series("Fig.7 — strategy switch (totals)", [incremental, switching, offline])
    print_cumulative("Fig.7", [incremental, switching, offline], step=9)
    # Shape: Daisy-with-cost-model is never worse than always-incremental.
    assert switching.seconds <= incremental.seconds * 1.25
    # The cost model actually fired mid-workload (not at the very start,
    # not never).
    assert switching.switch_index is not None
    assert 0 < switching.switch_index < NUM_QUERIES
