"""Figure 10 — general DCs with inequality conditions.

Paper setup: rule ¬(t1.extended_price < t2.extended_price ∧
t1.discount > t2.discount) over lineorder; versions with 0.2% / 2% / 20%
violations; 60 SP range queries.  Expected shape: at low violation rates
Daisy is ~1.3× faster (partition + intra-partition pruning of the partial
theta-join); at 20% the Algorithm 2 estimator predicts low accuracy and
Daisy cleans the whole matrix, matching offline's cost.

Scaled here: 800 rows (theta-joins are quadratic), 12 queries.
The price/discount relation is monotone in the clean version so only
injected cells violate.
"""

import pytest

from _harness import print_series, run_daisy, run_offline, speedup
from repro.constraints import DenialConstraint, Predicate
from repro.datasets.errors import inject_numeric_errors
from repro.datasets import workloads
from repro.relation import ColumnType, Relation

NUM_ROWS = 800
NUM_QUERIES = 12


def price_discount_dc() -> DenialConstraint:
    return DenialConstraint(
        [
            Predicate(0, "extended_price", "<", 1, "extended_price"),
            Predicate(0, "discount", ">", 1, "discount"),
        ],
        name="dc_price_discount",
    )


def _setup(cell_fraction: float):
    # Monotone clean data: higher price -> higher discount.
    raw = [
        (i, 100.0 + i * 10.0, round(0.01 + i * 0.0001, 6))
        for i in range(NUM_ROWS)
    ]
    rel = Relation.from_rows(
        [
            ("orderkey", ColumnType.INT),
            ("extended_price", ColumnType.FLOAT),
            ("discount", ColumnType.FLOAT),
        ],
        raw,
        name="lineorder",
    )
    dirty, _report = inject_numeric_errors(
        rel, "discount", cell_fraction=cell_fraction, magnitude=3.0, seed=106
    )
    queries = workloads.range_queries(
        "lineorder", "extended_price", int(100.0 + NUM_ROWS * 10.0), NUM_QUERIES,
        projection="orderkey, extended_price, discount",
    )
    return dirty, queries


def _run(cell_fraction: float, threshold: float = 0.2):
    dirty, queries = _setup(cell_fraction)
    daisy = run_daisy(
        dirty, [price_discount_dc()], queries, use_cost_model=False,
        label=f"Daisy ({cell_fraction:.1%} dirty cells)",
        dc_error_threshold=threshold,
    )
    dirty2, queries2 = _setup(cell_fraction)
    offline = run_offline(
        dirty2, [price_discount_dc()], queries2,
        label=f"Full cleaning ({cell_fraction:.1%})",
    )
    return daisy, offline


@pytest.mark.parametrize("fraction", (0.002, 0.02, 0.2))
def test_fig10_dc_violation_levels(benchmark, fraction):
    daisy, offline = benchmark.pedantic(_run, args=(fraction,), rounds=1, iterations=1)
    print_series(f"Fig.10 — DC, {fraction:.1%} dirty cells", [daisy, offline])
    print(f"  speedup: {speedup(daisy, offline):.2f}x")
    if fraction <= 0.02:
        # Low rates: the partial theta-join saves comparisons.
        assert daisy.work_units <= offline.work_units


def test_fig10_estimator_escalates_at_high_rate(benchmark):
    """At the highest rate Algorithm 2 escalates to a full matrix check."""
    from repro import Daisy

    def run():
        dirty, queries = _setup(0.2)
        d = Daisy(use_cost_model=False, dc_error_threshold=0.2)
        d.register_table("lineorder", dirty)
        d.add_rule("lineorder", price_discount_dc())
        with d.connect() as session:
            session.execute(queries[0])
        state = d.states["lineorder"]
        return state.is_fully_cleaned(price_discount_dc())

    escalated = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== Fig.10 — estimator escalation at 20% dirty:", escalated, "===")
    assert escalated
