"""Batched vs sequential workload execution (the rule-sharing batch API).

The fig07-style setup — lineorder with the orderkey → suppkey FD and a
random-selectivity workload whose non-overlapping ranges cover the whole
orderkey domain — runs two ways:

* sequential: ``Session.execute_workload``, a loop of ``Session.execute``
  (one cleaning pass per query),
* ``Session.execute_batch`` (one shared relaxation / detection pass for
  the whole rule group).

Expected shape: the batched run performs strictly fewer work units than
the sequential loop while returning byte-identical query results, and
``BENCH_batch_workload.json`` records the speedup the CI smoke job tracks.
"""

from _harness import (
    bench_scale,
    print_series,
    record_benchmark,
    run_daisy,
    run_daisy_batch,
    scaled,
    speedup,
)
from repro.datasets import ssb, workloads

NUM_ROWS = 2400
NUM_ORDERKEYS = 300
NUM_SUPPKEYS = 300
NUM_QUERIES = 45
ERROR_GROUP_FRACTION = 0.25


def _setup():
    dirty, fd, _ = ssb.dirty_lineorder(
        scaled(NUM_ROWS), scaled(NUM_ORDERKEYS), scaled(NUM_SUPPKEYS),
        error_group_fraction=ERROR_GROUP_FRACTION, seed=103,
    )
    queries = workloads.random_selectivity_queries(
        "lineorder", "orderkey", scaled(NUM_ORDERKEYS),
        scaled(NUM_QUERIES, minimum=5), seed=103,
        projection="orderkey, suppkey",
    )
    return dirty, fd, queries


def _run_all():
    dirty, fd, queries = _setup()
    sequential = run_daisy(
        dirty, [fd], queries, use_cost_model=False, label="Daisy sequential"
    )
    dirty2, fd2, queries2 = _setup()
    batched = run_daisy_batch(
        dirty2, [fd2], queries2, label="Daisy batch (rule sharing)"
    )
    return sequential, batched


def test_batch_workload(benchmark):
    sequential, batched = benchmark.pedantic(
        _run_all, rounds=1, iterations=1
    )
    print_series(
        "Batched vs sequential workload (fig07-style)",
        [sequential, batched],
    )
    record_benchmark(
        "batch_workload",
        {
            "config": {
                "rows": scaled(NUM_ROWS),
                "orderkeys": scaled(NUM_ORDERKEYS),
                "queries": scaled(NUM_QUERIES, minimum=5),
                "error_group_fraction": ERROR_GROUP_FRACTION,
            },
            "sequential": {
                "seconds": sequential.seconds,
                "work_units": sequential.work_units,
            },
            "batch_shared": {
                "seconds": batched.seconds,
                "work_units": batched.work_units,
                **batched.extras,
            },
            "speedup_batched_over_sequential": speedup(batched, sequential),
            "work_ratio_sequential_over_batched": (
                sequential.work_units / batched.work_units
                if batched.work_units else float("inf")
            ),
        },
    )
    assert batched.extras["rule_groups"] == 1
    # At smoke scale the fixed per-batch costs (double filtering, member
    # pruning) dominate the tiny workload, so the comparative assertions
    # only apply at full scale; tiny runs just record.
    if bench_scale() >= 1.0:
        # The shared pass must do strictly less detection work than
        # per-query cleaning…
        assert batched.work_units < sequential.work_units
        # …and wall-clock must not regress materially.
        assert batched.seconds <= sequential.seconds * 1.25


def test_batch_repairs_match_offline():
    """The batch's shared pass repairs the workload's footprint like the
    offline cleaner would (byte-for-byte result parity with *sequential*
    execution is pinned separately, on the hospital and air-quality parity
    fixtures in tests/test_api.py — this workload's lhs-range filters make
    sequential answers order-dependent, so only repair equivalence is a
    stable cross-check here)."""
    from repro import Daisy, DaisyConfig
    from repro.baselines import OfflineCleaner

    dirty, fd, queries = _setup()
    d_batch = Daisy(config=DaisyConfig(use_cost_model=False))
    d_batch.register_table("lineorder", dirty)
    d_batch.add_rule("lineorder", fd)
    with d_batch.connect() as session:
        batch = session.execute_batch(queries)
    assert len(batch) == len(queries)
    assert d_batch.probabilistic_cells("lineorder") > 0

    dirty2, fd2, _ = _setup()
    offline_rel, _report = OfflineCleaner().clean(dirty2, [fd2])
    repaired = d_batch.table("lineorder")
    # The full-coverage workload footprint == the whole table, so the
    # batch's repaired candidate sets equal the offline cleaner's.
    offline_by_tid = offline_rel.tid_index()
    for row in repaired.rows:
        assert row.values == offline_by_tid[row.tid].values
