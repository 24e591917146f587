#!/usr/bin/env python3
"""Checks the benchmark against its own contract: ``python3 bench/selftest.py``.

Runs the whole suite in ``--smoke`` mode (sizes / 10, one short repeat plus
one traced run per workload, under 30 s) with ``DeprecationWarning`` turned
into an error in the measuring subprocesses, then asserts:

* ``BENCHMARK.json`` has exactly the contract's keys and stays inside its
  limits; every workload and metric it names exists here, and vice versa;
* every metric named there was emitted, with its unit, by every workload;
* the benchmark passes only the four kept ``DaisyConfig`` fields and its
  code names none of the knobs and shims ROADMAP-3 plans to delete;
* spans nest (a child lies inside its parent, self time >= 0) and, per
  client, the operation root spans add up to within 5 % of the time between
  that client's first operation sent and last answered;
* answers were correct: no operation failed, digests agree between traced
  and untraced runs and with ``golden.json`` where it has the inputs.

Exit status 0 iff all of it holds.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[0] = str(ROOT)

from bench.metrics import LAYER_NOTES  # noqa: E402
from bench.workloads import CONFIG_FIELDS, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Knobs and shims on ROADMAP-3's deletion list; benchmark code must not name them.
FORBIDDEN = re.compile(
    r"\b(backend|pool|num_shards|batch_rule_sharing|batch_observe_cost_model|"
    r"matrix_maintenance|auto_max_workers|execute_workload|default_session|"
    r"repro\.datasets)\b|Daisy\(\)\.execute|engine\.execute\("
)
CODE_FILES = (
    "harness.py", "worker.py", "workloads.py", "metrics.py", "reference.py",
    "trace.py", "run.py", "compare.py",
)
SMOKE_BUDGET_S = 30.0

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL: {message}")


def check_catalog(catalog: dict) -> None:
    check(set(catalog) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the six contract keys")
    check(len(json.dumps(catalog)) <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")
    check(catalog["paths"] == ["bench"], "paths is ['bench']")
    check(isinstance(catalog["run_seconds"], int) and 1 <= catalog["run_seconds"] <= 60,
          "run_seconds is a whole number in 1..60")
    runs = 4 + 22 * len(catalog["workloads"])
    check(runs * (catalog["run_seconds"] + 6) <= 3420,
          f"{runs} driver runs of run_seconds + 6 s fit in 3420 s")
    check(2 <= len(catalog["workloads"]) <= 8, "2..8 workloads")
    check(1 <= len(catalog["end_to_end"]) <= 16, "1..16 end-to-end metrics")
    check(1 <= len(catalog["per_layer"]) <= 128, "1..128 per-layer metrics")
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in catalog[key]]
    check(len(names) == len(set(names)), "every name is used once")
    for name in names:
        check(bool(NAME.match(name)), f"name {name!r} is well-formed")
    for w in catalog["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
              f"workload {w['name']} has a one-line why")
    check({w["name"] for w in catalog["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json and bench/workloads.py name the same workloads")
    for m in catalog["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
              f"end-to-end {m['name']} has a bound in (0, 0.25]")
    for m in catalog["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per-layer {m['name']} has exactly three keys")
    for m in catalog["end_to_end"] + catalog["per_layer"]:
        check(bool(UNIT.match(m["unit"])) and m["better"] in ("lower", "higher"),
              f"{m['name']} has a well-formed unit and direction")
    setup = [m for m in catalog["end_to_end"] if m["name"] == "setup_s"]
    check(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s is an end-to-end metric in s, lower is better")


def check_surface() -> None:
    for name, (generate, _why) in WORKLOADS.items():
        extra = set(generate(1, 10).config) - CONFIG_FIELDS
        check(not extra, f"{name} passes only kept DaisyConfig fields (extra: {extra})")
    for filename in CODE_FILES:
        for number, line in enumerate((BENCH_DIR / filename).read_text().splitlines(), 1):
            hit = FORBIDDEN.search(line)
            check(hit is None, f"bench/{filename}:{number} names {hit.group(0) if hit else ''!r}")


def check_spans(workload: str, detail: dict) -> None:
    spans = {s["id"]: s for s in detail["spans"]}
    children: dict[int, list[dict]] = {}
    slack = 1e-6
    nested = True
    for span in spans.values():
        parent = spans.get(span["parent"]) if span["parent"] is not None else None
        if span["parent"] is not None:
            nested = nested and parent is not None and (
                parent["start"] - slack <= span["start"] and span["end"] <= parent["end"] + slack
            )
            children.setdefault(span["parent"], []).append(span)
    check(nested, f"{workload}: every child span lies inside its parent")
    for span in spans.values():
        covered = sum(c["end"] - c["start"] for c in children.get(span["id"], ()))
        if covered > (span["end"] - span["start"]) + slack:
            # Children of one parent overlapping each other would also show here.
            check(False, f"{workload}: span {span['id']} ({span['name']}) has negative self time")
            break
    for client, (first, last) in detail["client_wall"].items():
        roots = sum(
            s["end"] - s["start"] for s in spans.values()
            if s["name"] == "bench.op" and s["op"][0] == client
        )
        check(abs(roots - (last - first)) <= 0.05 * (last - first),
              f"{workload}/{client}: root spans sum to {roots:.4f} s of {last - first:.4f} s")


def main() -> int:
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_catalog(catalog)
    check_surface()
    check(set(LAYER_NOTES) == {m["name"] for m in catalog["per_layer"]},
          "every per-layer metric has its layer and prediction in bench/metrics.py")

    out = BENCH_DIR / "out" / "selftest.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--trace", "--out", str(out)],
        cwd=ROOT, env={**os.environ, "PYTHONWARNINGS": "error::DeprecationWarning"},
        stdout=subprocess.PIPE, text=True, check=False,
    )
    elapsed = time.monotonic() - started
    check(done.returncode == 0, f"smoke suite exits 0 (got {done.returncode})")
    check(elapsed < SMOKE_BUDGET_S, f"smoke suite took {elapsed:.1f} s (< {SMOKE_BUDGET_S:.0f} s)")
    if done.returncode != 0:
        print(done.stdout)
        return 1
    results = json.loads(out.read_text())["workloads"]
    for w in catalog["workloads"]:
        entry = results[w["name"]]
        check(entry["correct"] and entry["failed"] == 0 and entry["attempted"] >= 1,
              f"{w['name']}: correct, nothing failed")
        for section in ("end_to_end", "per_layer"):
            for m in catalog[section]:
                got = entry[section].get(m["name"])
                check(got is not None and got["unit"] == m["unit"]
                      and isinstance(got["median"], (int, float)),
                      f"{w['name']}: {m['name']} emitted as a number in {m['unit']}")
        for m in catalog["end_to_end"]:
            check(entry["end_to_end"][m["name"]]["median"] > 0, f"{w['name']}: {m['name']} is never 0")
        detail = json.loads((BENCH_DIR / "out" / f"trace-{w['name']}.json").read_text())
        check_spans(w["name"], detail)

    print(f"\nselftest: {'ok' if not failures else f'{len(failures)} check(s) failed'} "
          f"(smoke suite {elapsed:.1f} s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
