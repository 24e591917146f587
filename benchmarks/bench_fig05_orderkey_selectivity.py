"""Figure 5 — SP query cost when varying orderkey selectivity.

Paper setup: lineorder with 5K/10K/100K distinct orderkeys, every orderkey
violating ``orderkey → suppkey`` (10% of each orderkey's rows edited);
50 non-overlapping SP queries of 2% selectivity with range filters on the
**rhs** (suppkey).  Expected shape: Daisy ≈ 2× faster than full cleaning,
with the gap narrowing as orderkey selectivity (and hence p, the candidate
count) grows.

Scaled here: 3000 rows, orderkey cardinalities {150, 300, 600}, 25 queries.
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

NUM_ROWS = scaled(3000, minimum=200)
NUM_SUPPKEYS = 60
NUM_QUERIES = scaled(25, minimum=5)
CARDINALITIES = (scaled(150, 10), scaled(300, 20), scaled(600, 40))


def _setup(num_orderkeys: int):
    dirty, fd, _ = ssb.dirty_lineorder(
        NUM_ROWS, num_orderkeys, NUM_SUPPKEYS, seed=101
    )
    queries = workloads.range_queries(
        "lineorder", "suppkey", NUM_SUPPKEYS, NUM_QUERIES,
        projection="orderkey, suppkey",
    )
    return dirty, fd, queries


def _run_pair(num_orderkeys: int):
    dirty, fd, queries = _setup(num_orderkeys)
    daisy = run_daisy(
        dirty, [fd], queries, label=f"Daisy ({num_orderkeys} ok)",
        use_cost_model=False,
    )
    dirty2, fd2, queries2 = _setup(num_orderkeys)
    offline = run_offline(
        dirty2, [fd2], queries2, label=f"Full cleaning ({num_orderkeys} ok)"
    )
    return daisy, offline


@pytest.mark.parametrize("num_orderkeys", CARDINALITIES)
def test_fig05_series(benchmark, num_orderkeys):
    daisy, offline = benchmark.pedantic(
        _run_pair, args=(num_orderkeys,), rounds=1, iterations=1
    )
    print_series(
        f"Fig.5 — orderkey selectivity {num_orderkeys}", [daisy, offline]
    )
    print(f"  Daisy speedup over full cleaning: {speedup(daisy, offline):.2f}x")
    # Shape check: Daisy beats offline cleaning on wall clock and work.
    # At smoke scale fixed costs dominate and timing ratios are noise, so
    # the assertions only apply at full scale; tiny runs just record.
    if bench_scale() >= 1.0:
        assert daisy.seconds < offline.seconds
        assert daisy.work_units < offline.work_units
