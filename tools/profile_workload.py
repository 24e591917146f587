#!/usr/bin/env python3
"""Profile one pass of a benchmark workload: where a perf issue starts.

    python3 tools/profile_workload.py dc_sp [--seed N] [--top 25]

Generates the workload's inputs exactly as ``bench/run.py`` does, runs one
warm-up pass (lazy imports, caches), then one pass under ``cProfile`` and
prints the top functions by self time.  cProfile taxes every Python call
and no native work, so use the listing to find candidates and
``bench/run.py --workload <name> --trace`` to measure them.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench.harness import run_pass  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20200614)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args()

    inputs = WORKLOADS[args.workload][0](args.seed, 1)
    run_pass(inputs)
    profile = cProfile.Profile()
    result = profile.runcall(run_pass, inputs)
    print(
        f"{args.workload} seed={args.seed}: workload_s={result.workload_s:.3f} "
        f"(profiled) attempted={result.attempted} failed={result.failed}"
    )
    pstats.Stats(profile).sort_stats("tottime").print_stats(args.top)


if __name__ == "__main__":
    main()
