"""Run every benchmark module and merge the results into BENCH_PR.json.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py [--scale 0.1] [--only fig05 fig09]

Each ``bench_*.py`` module is executed as its own pytest run (the files do
not match pytest's default collection pattern, so they are passed
explicitly).  Modules that honor ``REPRO_BENCH_SCALE`` (fig05, fig09)
shrink with ``--scale``; the rest run at their built-in laptop scale.
Per-module outcome, duration, and peak RSS (the child's own
``resource.getrusage`` high-water mark), plus
any ``BENCH_<name>.json`` payloads the modules recorded, are merged into
one ``BENCH_PR.json`` at the repo root — the perf-trajectory file that
accumulates across PRs.  Peak RSS is what makes the storage modes
comparable: a spill backend must show a lower high-water mark than
``storage="memory"`` at the same scale, not just similar latency.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

#: Marker line the child shim prints after pytest finishes (ru_maxrss is
#: KiB on Linux).
_RSS_MARKER = "RUN_ALL_MAXRSS_KB="

_CHILD_SHIM = """\
import sys
import pytest
rc = pytest.main(sys.argv[1:])
try:
    import resource
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("{marker}%d" % peak, flush=True)
except ImportError:
    pass
sys.exit(int(rc))
""".format(marker=_RSS_MARKER)


def bench_modules(only: list[str] | None) -> list[Path]:
    modules = sorted(BENCH_DIR.glob("bench_*.py"))
    if only:
        wanted = [token.lower() for token in only]
        modules = [
            m for m in modules if any(token in m.name.lower() for token in wanted)
        ]
    return modules


def run_module(path: Path, scale: float, timeout: int) -> dict:
    env = dict(os.environ, REPRO_BENCH_SCALE=str(scale))
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    started = time.perf_counter()
    peak_rss_kb: int | None = None
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_SHIM, str(path), "-q", "--no-header"],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        outcome = "passed" if proc.returncode == 0 else "failed"
        lines = (proc.stdout or "").strip().splitlines()
        for line in lines:
            if line.startswith(_RSS_MARKER):
                peak_rss_kb = int(line[len(_RSS_MARKER):])
        tail = [ln for ln in lines if not ln.startswith(_RSS_MARKER)][-1:] or [""]
    except subprocess.TimeoutExpired:
        outcome, tail = "timeout", [f"exceeded {timeout}s"]
    return {
        "outcome": outcome,
        "seconds": round(time.perf_counter() - started, 3),
        "peak_rss_kb": peak_rss_kb,
        "summary": tail[0],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="REPRO_BENCH_SCALE multiplier (default 1.0)")
    parser.add_argument("--only", nargs="*", default=None,
                        help="substring filters, e.g. fig05 fig09")
    parser.add_argument("--timeout", type=int, default=1800,
                        help="per-module timeout in seconds")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_PR.json"))
    args = parser.parse_args()

    modules = bench_modules(args.only)
    if not modules:
        print("no benchmark modules matched", file=sys.stderr)
        return 2

    results: dict = {}
    for path in modules:
        name = path.stem.replace("bench_", "")
        print(f"[run_all] {path.name} ...", flush=True)
        results[name] = run_module(path, args.scale, args.timeout)
        rss = results[name]["peak_rss_kb"]
        rss_note = f", peak {rss / 1024:.0f} MB" if rss else ""
        print(f"[run_all]   {results[name]['outcome']} "
              f"in {results[name]['seconds']}s{rss_note} — "
              f"{results[name]['summary']}")

    # Fold in the BENCH_<name>.json files the modules recorded.  Scale-
    # suffixed files are leftovers from smoke/experiment runs at other
    # scales — never current evidence, so they are not folded in.
    recorded = {}
    for bench_file in sorted(REPO_ROOT.glob("BENCH_*.json")):
        if bench_file.name == Path(args.output).name:
            continue
        if bench_file.stem.startswith("BENCH_PR"):
            continue  # trajectory files are outputs, not module payloads
        if "_scale" in bench_file.stem:
            continue
        try:
            recorded[bench_file.stem.replace("BENCH_", "")] = json.loads(
                bench_file.read_text()
            )
        except ValueError:
            continue

    output = Path(args.output)
    merged: dict = {}
    if output.exists():
        try:
            merged = json.loads(output.read_text())
        except ValueError:
            merged = {}
    history = merged.setdefault("runs", [])
    history.append(
        {
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "scale": args.scale,
            "modules": results,
        }
    )
    merged["latest"] = {"scale": args.scale, "modules": results, "recorded": recorded}
    output.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    print(f"[run_all] merged results -> {output}")
    failed = [n for n, r in results.items() if r["outcome"] != "passed"]
    if failed:
        print(f"[run_all] FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
