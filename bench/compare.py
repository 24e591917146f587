#!/usr/bin/env python3
"""Compare two suite results: ``python3 bench/compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two A/A sets), ``B``
the candidate; both are files written by ``bench/run.py`` (suite mode).
One table per workload, one row per end-to-end metric: both medians with
their quartiles and sample counts, the relative difference *with A as its
base*, the bound from ``BENCHMARK.json`` and a verdict:

* ``ok`` — B is not worse than A by more than the bound;
* ``regressed`` — it is;
* ``unresolved`` — A's own run-to-run spread (interquartile range over its
  median) is wider than the bound, so the runs cannot tell either way.

Below the table: every deterministic quantity that must repeat exactly
(answer digest, ``engine.*`` counts when both sides ran ``--trace``) and
the failure counts.  Exit status 0 iff no row is ``regressed`` or
``unresolved``, every exact quantity is equal and nothing failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, float, str]:
    """(relative change of B against A, A's spread, verdict)."""
    change = (b["median"] - a["median"]) / a["median"]
    worse = change if better == "lower" else -change
    spread = (a["q3"] - a["q1"]) / a["median"]
    if spread > bound:
        return change, spread, "unresolved"
    return change, spread, "regressed" if worse > bound else "ok"


def _cell(s: dict) -> str:
    return f"{s['median']:.5g} [{s['q1']:.4g}..{s['q3']:.4g}] n={s['n']}"


def compare(a: dict, b: dict, catalog: dict) -> bool:
    clean = True
    for workload in (w["name"] for w in catalog["workloads"]):
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            print(f"\n== {workload}: missing from {'A' if wa is None else 'B'}")
            clean = False
            continue
        print(f"\n== {workload}")
        print(f"   {'metric':<14} {'A (base)':<34} {'B':<34} {'B vs A':>8} {'A spread':>9} {'bound':>6}  verdict")
        for metric in catalog["end_to_end"]:
            name = metric["name"]
            sa, sb = wa["end_to_end"][name], wb["end_to_end"][name]
            change, spread, word = verdict(sa, sb, metric["better"], metric["bound"])
            clean = clean and word == "ok"
            print(f"   {name:<14} {_cell(sa):<34} {_cell(sb):<34} {change:>+8.1%} {spread:>9.1%} "
                  f"{metric['bound']:>6.0%}  {word}")
        exact = [("digest", wa.get("digest"), wb.get("digest"))]
        if "per_layer" in wa and "per_layer" in wb:
            exact += [
                (name, wa["per_layer"][name]["median"], wb["per_layer"][name]["median"])
                for name in wa["per_layer"] if name.startswith("engine.")
            ]
        for name, left, right in exact:
            if left != right:
                clean = False
                print(f"   DIFFERS {name}: A={left} B={right}")
        print(f"   exact: {len(exact)} quantities compared; "
              f"failed A={wa['failed']}/{wa['attempted']} B={wb['failed']}/{wb['attempted']}")
        clean = clean and wa["failed"] == 0 and wb["failed"] == 0
    return clean


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
    for label, doc in (("A", a), ("B", b)):
        meta = doc["meta"]
        print(f"{label}: seed={meta['seed']} repeats={meta['repeats']} seconds={meta['seconds']} "
              f"python={meta['python']} numpy={meta['numpy']} nproc={meta['nproc']} "
              f"loadavg={meta['loadavg'][0]:.2f}" + (f"  WARNING: {meta['load_warning']}" if meta["load_warning"] else ""))
    clean = compare(a, b, json.loads(BENCHMARK_JSON.read_text()))
    print("\nall rows ok" if clean else "\nNOT clean: see regressed / unresolved / DIFFERS rows above")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
