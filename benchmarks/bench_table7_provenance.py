"""Table 7 — incremental rule arrival via provenance.

Paper setup: rules arrive one at a time (ϕ1; then ϕ2; then ϕ3).  Running
Daisy three times from scratch costs the sum of the three runs; a single
incremental execution reuses the provenance + merges the new rule's fixes
into the probabilistic data, paying only the merge overhead.  HoloClean
must rerun each time.

Scaled here: 800 hospital rows.
"""

import time

from repro import Daisy
from repro.baselines import HoloCleanLike
from repro.datasets import hospital

NUM_ROWS = 800
FULL_SCAN = "SELECT * FROM hospital WHERE zip >= 0 AND zip < 99999"


def _instance():
    return hospital.generate_instance(num_rows=NUM_ROWS, seed=112)


def _three_separate_runs():
    """Daisy from scratch per rule set: ϕ1; ϕ1+ϕ2; ϕ1+ϕ2+ϕ3."""
    total = 0.0
    inst = _instance()
    for upto in (1, 2, 3):
        fresh = _instance()
        d = Daisy(use_cost_model=False)
        d.register_table("hospital", fresh.dirty)
        for rule in fresh.rules[:upto]:
            d.add_rule("hospital", rule)
        started = time.perf_counter()
        with d.connect() as session:
            session.execute(FULL_SCAN)
        d.clean_table("hospital")
        total += time.perf_counter() - started
    return total


def _single_incremental_run():
    """One Daisy instance; rules added as they 'appear'."""
    inst = _instance()
    d = Daisy(use_cost_model=False)
    d.register_table("hospital", inst.dirty)
    total = 0.0
    with d.connect() as session:
        for rule in inst.rules:
            started = time.perf_counter()
            d.add_rule("hospital", rule)
            session.execute(FULL_SCAN)
            d.clean_table("hospital")
            total += time.perf_counter() - started
    return total


def _holoclean_three_runs():
    total = 0.0
    for upto in (1, 2, 3):
        inst = _instance()
        hc = HoloCleanLike()
        started = time.perf_counter()
        cells = hc.dirty_cells(inst.dirty, inst.rules[:upto])
        hc.generate_domains(inst.dirty, cells)
        total += time.perf_counter() - started
    return total


def test_table7_provenance_benefit(benchmark):
    def run_series():
        return (
            _three_separate_runs(),
            _single_incremental_run(),
            _holoclean_three_runs(),
        )

    three, one, holo = benchmark.pedantic(run_series, rounds=1, iterations=1)
    print("\n=== Table 7 — incremental rule arrival (total seconds) ===")
    print(f"  Daisy (3 executions)  {three:8.3f}s")
    print(f"  Daisy (1 execution)   {one:8.3f}s")
    print(f"  Holoclean (3 runs)    {holo:8.3f}s")
    # The incremental execution must beat re-running from scratch.
    assert one < three
