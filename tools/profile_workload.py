#!/usr/bin/env python3
"""Profile the operations of one benchmark workload pass: where a perf issue starts.

    python3 tools/profile_workload.py dc_sp [--seed N] [--scale N]
                                            [--ops all|plain|heavy] [--top 25]

Generates the workload's inputs exactly as ``bench/run.py`` does, runs one
warm-up pass (lazy imports, caches), then one pass in which every operation
— and nothing else — runs under its own ``cProfile``: engine set-up and the
harness's answer digest, which ``bench/run.py`` never times, stay out of the
listing.  ``--ops plain`` keeps the operations at or below 3× the pass's
median latency (the steady-state query ``query_p50_ms`` reports), ``--ops
heavy`` the ones above it (first-touch cleaning, escalations, updates).
cProfile taxes every Python call and no native work, so use the listing to
find candidates and ``bench/run.py --workload <name> --trace`` to measure
them.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench.harness import run_pass  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402
from repro.api.session import Session  # noqa: E402
from repro.service.runner import RequestRunner  # noqa: E402

#: An operation is "heavy" above this multiple of the pass's median latency.
HEAVY_FACTOR = 3.0

#: The callables one operation enters the program through, per driving mode
#: (never nested in one another, so each call gets exactly one profile).
SESSION_ENTRIES = ((Session, "execute"), (Session, "update_table"))
SERVICE_ENTRIES = ((RequestRunner, "run"),)

Sample = tuple[float, cProfile.Profile]


def _profiling(original: Callable[..., Any], samples: list[Sample]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        profile = cProfile.Profile()
        started = perf_counter()
        try:
            return profile.runcall(original, *args, **kwargs)
        finally:
            samples.append((perf_counter() - started, profile))

    return wrapper


def profile_operations(inputs: Any) -> tuple[Any, list[Sample]]:
    """One pass with every operation under its own profile: ``(result, samples)``."""
    entries = SERVICE_ENTRIES if inputs.via_service else SESSION_ENTRIES
    samples: list[Sample] = []
    originals = [(owner, name, getattr(owner, name)) for owner, name in entries]
    for owner, name, original in originals:
        setattr(owner, name, _profiling(original, samples))
    try:
        result = run_pass(inputs)
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
    return result, samples


def select(samples: list[Sample], ops: str) -> tuple[list[Sample], float]:
    """The samples ``--ops`` keeps and the plain/heavy latency threshold."""
    threshold = HEAVY_FACTOR * statistics.median(seconds for seconds, _ in samples)
    if ops == "plain":
        samples = [s for s in samples if s[0] <= threshold]
    elif ops == "heavy":
        samples = [s for s in samples if s[0] > threshold]
    return samples, threshold


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20200614)
    parser.add_argument("--scale", type=int, default=1,
                        help="divide row and operation counts (bench/run.py --smoke uses 10)")
    parser.add_argument("--ops", choices=("all", "plain", "heavy"), default="all")
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args()

    inputs = WORKLOADS[args.workload][0](args.seed, args.scale)
    run_pass(inputs)
    result, samples = profile_operations(inputs)
    if not samples:
        raise SystemExit("profile_workload: no operation reached the profiled entry points")
    kept, threshold = select(samples, args.ops)
    print(
        f"{args.workload} seed={args.seed} scale={args.scale}: "
        f"workload_s={result.workload_s:.3f} (profiled) attempted={result.attempted} "
        f"failed={result.failed}; ops={args.ops}: {len(kept)} of {len(samples)} operations, "
        f"{sum(s for s, _ in kept):.3f} s (plain <= {threshold * 1e3:.2f} ms)"
    )
    if not kept:
        print(f"no {args.ops} operation in this pass")
        return
    pstats.Stats(*(profile for _, profile in kept)).sort_stats("tottime").print_stats(args.top)


if __name__ == "__main__":
    main()
