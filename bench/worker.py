"""One benchmark run, in this process: generate the inputs from the seed,
repeat passes for ``--seconds``, check the answers, print one JSON line.

``bench/run.py`` starts this as a fresh subprocess (``python3 -m
bench.worker`` with ``PYTHONHASHSEED=0``, ``PYTHONPATH=src`` and ``TMPDIR``
inside ``bench/out``) — once per driver invocation, once per repeat in
suite mode.

A *pass* is a fresh engine plus the workload's whole operation list; a run
repeats passes until the time is up and reports, per end-to-end metric, the
best pass (``setup_s``: the median) — see ``metrics.best_of`` for why.
With ``--trace 1`` every other pass runs under the span tracer: the
untraced passes still give clean timings (and the tracing overhead ratio),
the traced ones give the per-layer numbers, as medians over traced passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

from bench import metrics
from bench.harness import PassResult, run_pass
from bench.trace import Tracer, summarize
from bench.workloads import WORKLOADS, Inputs

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_JSON = BENCH_DIR / "golden.json"
def golden_key(workload: str, seed: int, scale: int) -> str:
    return f"{workload}/seed{seed}/scale{scale}"


def golden_entry(result: PassResult) -> dict[str, Any]:
    return {
        "digest": result.digest,
        "work_units": result.facts["work_units"],
        "ops": result.op_digests,
    }


def mismatches(result: PassResult, golden: dict[str, Any] | None, first: PassResult) -> int:
    """Operations whose answer differs from the golden run's (when one is
    recorded for these inputs) or else from this run's first pass.  A run
    whose answers all match but whose final tables or work units do not
    counts one mismatch, so it can never read as correct."""
    reference = golden["ops"] if golden else first.op_digests
    wrong = sum(
        mine != theirs
        for client, digests in result.op_digests.items()
        for mine, theirs in zip(digests, reference[client])
    )
    digest = golden["digest"] if golden else first.digest
    return wrong or int(result.digest != digest)


def measure(inputs: Inputs, seconds: float, trace: bool) -> tuple[list[PassResult], list[tuple]]:
    """Passes until ``seconds`` have gone by.  Returns the untraced passes
    and, per traced pass, ``(result, spans, missing target paths)``."""
    untraced: list[PassResult] = []
    traced: list[tuple] = []
    tracer = Tracer() if trace else None
    started = perf_counter()
    while True:
        gc.collect()
        if tracer is not None and len(untraced) > len(traced):
            tracer.install()
            try:
                result = run_pass(inputs, tracer)
            finally:
                tracer.uninstall()
            traced.append((result, tracer.take(), tracer.missing))
        else:
            untraced.append(run_pass(inputs, check_reference=not untraced))
        done = untraced and (traced or not trace)
        if done and perf_counter() - started >= seconds:
            return untraced, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=1, help="divide sizes (smoke = 10)")
    parser.add_argument("--detail", help="also write passes, the digest and the last traced pass's spans here")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this run's digests in bench/golden.json")
    args = parser.parse_args(argv)

    catalog = metrics.load_catalog()
    generate, _why = WORKLOADS[args.workload]
    generated = perf_counter()
    inputs = generate(args.seed, args.scale)
    generate_s = perf_counter() - generated

    key = golden_key(args.workload, args.seed, args.scale)
    goldens = json.loads(GOLDEN_JSON.read_text()) if GOLDEN_JSON.exists() else {}
    golden = None if args.record_golden else goldens.get(key)

    untraced, traced = measure(inputs, args.seconds, bool(args.trace))
    every = untraced + [t[0] for t in traced]
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed + mismatches(r, golden, every[0]) for r in every)

    if args.record_golden:
        goldens[key] = golden_entry(every[0])
        GOLDEN_JSON.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")

    e2e = metrics.best_of(
        [metrics.end_to_end(r, inputs) for r in untraced], catalog["end_to_end"]
    )
    e2e["peak_rss_mb"] = metrics.peak_rss_mb()
    values: dict[str, float | None]
    summaries = [summarize(spans, missing) for _, spans, missing in traced]
    if args.trace:
        values = metrics.median_of([
            metrics.per_layer(summary, spans, result)
            for summary, (result, spans, _) in zip(summaries, traced)
        ])
        values.update(metrics.median_of(
            [metrics.untraced_layer(r, inputs.clients) for r in untraced]
        ))
        values["bench.trace_overhead_ratio"] = (
            min(t[0].workload_s for t in traced) / e2e["workload_s"]
        )
        wanted = catalog["per_layer"]
    else:
        values = dict(e2e)
        wanted = catalog["end_to_end"]
    metrics.warn_missing(values)

    if args.detail:
        detail: dict[str, Any] = {
            "workload": args.workload, "seed": args.seed, "scale": args.scale,
            "facts": inputs.facts, "generate_s": generate_s,
            "digest": every[0].digest, "golden": golden is not None,
            "work_units": every[0].facts["work_units"],
            "passes": [
                {"traced": i >= len(untraced), "setup_s": r.setup_s,
                 "workload_s": r.workload_s, "failed": r.failed, "digest": r.digest}
                for i, r in enumerate(every)
            ],
            "end_to_end": e2e,
        }
        if traced:
            # The last traced pass in full; metrics above are medians over all.
            result, spans, _ = traced[-1]
            detail["per_layer"] = values
            detail["layer_self_s"] = metrics.layer_self_seconds(spans)
            detail["traced_workload_s"] = result.workload_s
            detail["client_wall"] = {c: list(w) for c, w in result.client_wall.items()}
            detail["spans"] = [span.as_json() for span in spans]
        Path(args.detail).write_text(json.dumps(detail) + "\n")

    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            # A per-layer metric whose span target is gone is null in the
            # detail file and warned about above; the result line carries
            # numbers only, so it reads 0 there.
            m["name"]: {"value": values[m["name"]] or 0.0, "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
