"""Figure 9 — cost with an increasing number of violations (20%–80%).

Paper setup: lineorder versions with 20/40/60/80% of orderkeys erroneous;
50 SP queries of 2% selectivity.  Expected shape: Daisy beats full cleaning
at every rate, and the gap widens with the error rate (offline's per-group
traversals grow with the number of dirty groups; Daisy's precomputed
dirty-group statistics prune checks for clean values).

Scaled here: 2500 rows, 250 orderkeys, 60 suppkeys, 20 queries.
"""

import pytest

from _harness import (
    bench_scale,
    print_series,
    run_daisy,
    run_offline,
    scaled,
    speedup,
)
from repro.datasets import ssb, workloads

NUM_ROWS = scaled(2500, minimum=200)
NUM_ORDERKEYS = scaled(250, minimum=20)
NUM_SUPPKEYS = 60
NUM_QUERIES = scaled(20, minimum=5)
RATES = (0.2, 0.4, 0.6, 0.8)


def _setup(rate: float):
    dirty, fd, _ = ssb.dirty_lineorder(
        NUM_ROWS, NUM_ORDERKEYS, NUM_SUPPKEYS,
        error_group_fraction=rate, seed=105,
    )
    queries = workloads.range_queries(
        "lineorder", "suppkey", NUM_SUPPKEYS, NUM_QUERIES,
        projection="orderkey, suppkey",
    )
    return dirty, fd, queries


def _run(rate: float):
    dirty, fd, queries = _setup(rate)
    daisy = run_daisy(
        dirty, [fd], queries, use_cost_model=False,
        label=f"Daisy ({rate:.0%} dirty)",
    )
    dirty2, fd2, queries2 = _setup(rate)
    offline = run_offline(
        dirty2, [fd2], queries2, label=f"Full cleaning ({rate:.0%} dirty)"
    )
    return daisy, offline


@pytest.mark.parametrize("rate", RATES)
def test_fig09_violation_rate(benchmark, rate):
    daisy, offline = benchmark.pedantic(_run, args=(rate,), rounds=1, iterations=1)
    print_series(f"Fig.9 — violation rate {rate:.0%}", [daisy, offline])
    print(f"  speedup: {speedup(daisy, offline):.2f}x")
    # At low rates Daisy's relaxation scans can exceed offline's work units
    # while still winning wall-clock (cheap scans vs expensive group
    # traversals); at high rates Daisy wins both.  Assert wall clock with
    # a noise margin, and work units from 40% up.
    # Timing/work shape assertions only hold at full scale (smoke runs are
    # dominated by fixed costs and scheduler noise).
    if bench_scale() >= 1.0:
        assert daisy.seconds < offline.seconds * 1.2
        if rate >= 0.4:
            assert daisy.work_units < offline.work_units


def test_fig09_gap_widens_with_rate(benchmark):
    def run_extremes():
        d20, o20 = _run(0.2)
        d80, o80 = _run(0.8)
        return d20, o20, d80, o80

    d20, o20, d80, o80 = benchmark.pedantic(run_extremes, rounds=1, iterations=1)
    gap_low = o20.work_units - d20.work_units
    gap_high = o80.work_units - d80.work_units
    print_series("Fig.9 — extremes", [d20, o20, d80, o80])
    assert gap_high > gap_low
