"""Table 5 — repair accuracy: HoloClean vs DaisyH vs DaisyP on hospital data.

Paper setup: hospital 1K with master data; rule sets ϕ1 / ϕ1+ϕ2 / ϕ1+ϕ2+ϕ3;
precision/recall/F1 of (a) HoloClean's own domain + inference, (b) DaisyH =
Daisy's candidate domains + HoloClean inference, (c) DaisyP = Daisy's most
probable value.  Expected shape: with one rule HoloClean ≥ DaisyH > DaisyP;
with all rules Daisy-based domains match or beat HoloClean (whose domain
pruning drops true values).

Scaled here: 600 hospital rows, ~5% injected errors.
"""

import pytest

from repro import Daisy
from repro.baselines import HoloCleanLike, domains_from_daisy, most_probable_repairs
from repro.datasets import hospital
from repro.metrics import evaluate_repairs

NUM_ROWS = 600


def _instance():
    return hospital.generate_instance(num_rows=NUM_ROWS, seed=110)


def _daisy_cleaned(inst, rules):
    d = Daisy(use_cost_model=False)
    d.register_table("hospital", inst.dirty)
    for rule in rules:
        d.add_rule("hospital", rule)
    # The paper's 4 SP queries covering the dataset; a full-coverage scan.
    with d.connect() as session:
        session.execute("SELECT * FROM hospital WHERE zip >= 0 AND zip < 99999")
    d.clean_table("hospital")
    return d.table("hospital")


def _truth_for(inst, rules):
    attrs = {fd.rhs for fd in rules} | {a for fd in rules for a in fd.lhs}
    return {
        key: value for key, value in inst.ground_truth.items() if key[1] in attrs
    }


def _accuracy_rows(num_rules: int):
    inst = _instance()
    rules = inst.rules[:num_rules]
    truth = _truth_for(inst, rules)

    hc = HoloCleanLike()
    _, hc_repairs, _ = hc.repair(inst.dirty, rules)
    holoclean = evaluate_repairs(hc_repairs, inst.dirty, truth)

    cleaned = _daisy_cleaned(inst, rules)
    domains = domains_from_daisy(cleaned)
    _, daisyh_repairs, _ = hc.repair(inst.dirty, rules, external_domains=domains)
    daisyh = evaluate_repairs(daisyh_repairs, inst.dirty, truth)

    daisyp_repairs = most_probable_repairs(cleaned)
    daisyp = evaluate_repairs(daisyp_repairs, inst.dirty, truth)
    return holoclean, daisyh, daisyp


@pytest.mark.parametrize("num_rules", (1, 2, 3))
def test_table5_accuracy(benchmark, num_rules):
    holoclean, daisyh, daisyp = benchmark.pedantic(
        _accuracy_rows, args=(num_rules,), rounds=1, iterations=1
    )
    names = "ϕ1" if num_rules == 1 else f"ϕ1+…+ϕ{num_rules}"
    print(f"\n=== Table 5 — {names} (precision / recall / F1) ===")
    for label, rep in (
        ("Holoclean", holoclean),
        ("DaisyH", daisyh),
        ("DaisyP", daisyp),
    ):
        print(
            f"  {label:<10} P={rep.precision:.2f}  R={rep.recall:.2f}  "
            f"F1={rep.f1:.2f}  (updates={rep.total_updates}, "
            f"errors={rep.total_errors})"
        )
    # Shape assertions: every system finds a meaningful share of the errors;
    # with more rules the Daisy-domain variants do not collapse.
    assert daisyh.recall > 0.2
    assert holoclean.recall > 0.2
    if num_rules >= 2:
        assert daisyh.f1 >= daisyp.f1 * 0.8
