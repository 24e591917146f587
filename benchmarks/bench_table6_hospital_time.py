"""Table 6 — response time on hospital data with an increasing rule count.

Paper setup: hospital 100K; rule sets ϕ1 / ϕ1+ϕ2 / ϕ1+ϕ2+ϕ3; wall time of
Full cleaning vs Daisy vs HoloClean (inference disabled — candidate
computation only).  Expected shape: Daisy ≤ Full << HoloClean (HoloClean's
per-cell co-occurrence domain generation traverses the dataset repeatedly).

Scaled here: 800 hospital rows.
"""

import time

import pytest

from repro import Daisy
from repro.baselines import HoloCleanLike, OfflineCleaner
from repro.datasets import hospital

NUM_ROWS = 800


def _instance():
    return hospital.generate_instance(num_rows=NUM_ROWS, seed=111)


def _run(num_rules: int):
    inst = _instance()
    rules = inst.rules[:num_rules]

    started = time.perf_counter()
    OfflineCleaner().clean(inst.dirty, rules)
    full_s = time.perf_counter() - started

    inst2 = _instance()
    d = Daisy(use_cost_model=False)
    d.register_table("hospital", inst2.dirty)
    for rule in rules:
        d.add_rule("hospital", rule)
    started = time.perf_counter()
    with d.connect() as session:
        session.execute("SELECT * FROM hospital WHERE zip >= 0 AND zip < 99999")
        session.execute("SELECT zip, city FROM hospital WHERE city >= ''")
    daisy_s = time.perf_counter() - started

    inst3 = _instance()
    hc = HoloCleanLike()
    started = time.perf_counter()
    cells = hc.dirty_cells(inst3.dirty, rules)
    hc.generate_domains(inst3.dirty, cells)  # inference disabled, as in the paper
    holo_s = time.perf_counter() - started
    return full_s, daisy_s, holo_s


@pytest.mark.parametrize("num_rules", (1, 2, 3))
def test_table6_response_time(benchmark, num_rules):
    full_s, daisy_s, holo_s = benchmark.pedantic(
        _run, args=(num_rules,), rounds=1, iterations=1
    )
    print(f"\n=== Table 6 — {num_rules} rule(s) ===")
    print(f"  Full cleaning  {full_s:8.3f}s")
    print(f"  Daisy          {daisy_s:8.3f}s")
    print(f"  Holoclean      {holo_s:8.3f}s")
    # HoloClean's domain generation is the clear loser, as in the paper.
    assert holo_s > daisy_s
