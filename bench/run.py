#!/usr/bin/env python3
"""The Daisy benchmark: one command, every metric by name with its unit.

Two ways in:

* **One run** (what ``BENCHMARK.json``'s ``command`` is called with)::

      python3 bench/run.py --workload fd_sp --seed 7 --seconds 12 --trace 0

  (``--seconds`` selects this mode) measures one workload in a fresh
  subprocess and prints,
  as the last line of standard output, one JSON object with ``correct``,
  ``attempted``, ``failed`` and ``metrics`` — every end-to-end metric with
  ``--trace 0``, every per-layer metric with ``--trace 1``.

* **The suite** (no ``--seconds``)::

      python3 bench/run.py [--seed N] [--repeats K] [--workload W ...]
                           [--trace] [--smoke] [--out FILE]

  runs ``--repeats`` untraced runs of every workload, ``run_seconds`` each
  and each in its own subprocess, plus, with ``--trace``, one traced run
  (spans go to ``bench/out/trace-<workload>.json``), prints a table of
  medians with quartiles and sample counts, and writes everything to
  ``bench/out/results.json`` for ``bench/compare.py``.

Nothing here imports the program under test: the measuring is done by
``bench/worker.py`` in the subprocess, which gets ``PYTHONPATH=src``,
``PYTHONHASHSEED=0`` and a ``TMPDIR`` under ``bench/out`` (the storage tier
spills to the temp directory, and a run may only write inside its checkout).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path[0] = str(ROOT)  # import siblings as bench.*, never shadow the stdlib

from bench.workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 20200614  # SIGMOD 2020
#: Hard stop for one subprocess, well inside the driver's 180 s.
RUN_TIMEOUT_S = 170
SMOKE_SCALE = 10
SMOKE_SECONDS = 1.0


def run_worker(
    workload: str, seed: int, seconds: float, trace: int, scale: int = 1
) -> tuple[dict, dict]:
    """One run in a fresh subprocess.  Returns its result line, parsed, and
    the detail it left in ``bench/out`` (digest, passes, spans when traced)."""
    OUT_DIR.mkdir(exist_ok=True)
    detail = OUT_DIR / f"{'trace' if trace else 'run'}-{workload}.json"
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(exist_ok=True)
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "TMPDIR": str(tmp),
    }
    command = [
        sys.executable, "-m", "bench.worker",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scale", str(scale), "--detail", str(detail),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S, check=False,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if done.returncode != 0:
        raise SystemExit(f"bench: worker for {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1]), json.loads(detail.read_text())


def load_warning() -> str | None:
    load1 = os.getloadavg()[0]
    cpus = os.cpu_count() or 1
    if load1 > cpus:
        return f"1-min loadavg {load1:.2f} > nproc {cpus}: timings below are suspect"
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs: list[dict]) -> dict[str, dict]:
    """metric -> {unit, median, q1, q3, n, values} over a list of result lines."""
    out: dict[str, dict] = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, _, q3 = quartiles(values)
        out[name] = {
            "unit": first["unit"], "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values), "values": values,
        }
    return out


def suite(args: argparse.Namespace) -> int:
    scale = SMOKE_SCALE if args.smoke else 1
    repeats = 1 if args.smoke else args.repeats
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = SMOKE_SECONDS if args.smoke else float(catalog["run_seconds"])
    names = args.workload or [w["name"] for w in catalog["workloads"]]
    warning = load_warning()
    if warning:
        print(f"WARNING: {warning}", file=sys.stderr)

    results: dict[str, dict] = {}
    for name in names:
        runs = [run_worker(name, args.seed, seconds, 0, scale) for _ in range(repeats)]
        if args.trace:
            runs.append(run_worker(name, args.seed, seconds, 1, scale))
        lines = [line for line, _ in runs]
        digests = {detail["digest"] for _, detail in runs}
        entry = {
            "why": WORKLOADS[name][1],
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            # Traced or not, first repeat or last: one digest.
            "correct": all(line["correct"] for line in lines) and len(digests) == 1,
            "digest": min(digests),
            "golden": all(detail["golden"] for _, detail in runs),
            "end_to_end": summarize(lines[:repeats]),
        }
        if args.trace:
            entry["per_layer"] = summarize(lines[repeats:])
            entry["layer_self_s"] = runs[-1][1]["layer_self_s"]
            entry["traced_workload_s"] = runs[-1][1]["traced_workload_s"]
        results[name] = entry
        print_workload(name, entry)

    document = {
        "meta": {
            "seed": args.seed, "repeats": repeats, "seconds": seconds, "scale": scale,
            "python": platform.python_version(), "numpy": numpy_version(),
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "load_warning": warning, "when": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        },
        "workloads": results,
    }
    out = Path(args.out) if args.out else OUT_DIR / "results.json"
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 0 if all(entry["correct"] for entry in results.values()) else 1


def numpy_version() -> str | None:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


def print_workload(name: str, entry: dict) -> None:
    share = entry["failed"] / entry["attempted"]
    print(f"\n== {name}: {entry['why']}")
    print(f"   correct={entry['correct']} attempted={entry['attempted']} "
          f"failed={entry['failed']} failed_share={share:.4f} "
          f"digest={entry['digest'][:16]} ({'golden' if entry['golden'] else 'no golden: repeats agree'})")
    for section in ("end_to_end", "per_layer"):
        for metric, s in entry.get(section, {}).items():
            spread = f"[{s['q1']:.4g} .. {s['q3']:.4g}] n={s['n']}" if s["n"] > 1 else "n=1"
            print(f"   {metric:<40} {s['median']:>12.5g} {s['unit']:<6} {spread}")
    if "layer_self_s" in entry:
        total = entry["traced_workload_s"]
        shares = ", ".join(
            f"{layer} {seconds / total:.0%}" for layer, seconds in entry["layer_self_s"].items()
        )
        print(f"   self time by layer (last traced pass, {total:.3f} s): {shares}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="one run of --workload for this long; prints the result line")
    parser.add_argument("--trace", nargs="?", const=1, type=int, choices=(0, 1), default=0,
                        help="one run: 0/1 selects the metric set; suite: add a traced run")
    parser.add_argument("--repeats", type=int, default=5, help="suite: untraced runs per workload")
    parser.add_argument("--smoke", action="store_true", help="suite: sizes / 10, one short repeat")
    parser.add_argument("--out", help="suite: where to write the results JSON")
    args = parser.parse_args()

    if args.seconds is None:
        return suite(args)
    if args.workload is None or len(args.workload) != 1:
        parser.error("--seconds measures one run: give exactly one --workload")
    line, _detail = run_worker(args.workload[0], args.seed, args.seconds, args.trace)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
