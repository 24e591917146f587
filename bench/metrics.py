"""What the numbers are: the catalog and how each is derived.

``BENCHMARK.json`` (repo root) is the single source for every metric's
name, unit, direction and — for end-to-end metrics — regression bound; this
file derives the values.  End-to-end metrics come from untraced passes
only.  Per-layer metrics come from traced passes (span self time, call and
count sums, the engine's deterministic ``WorkCounter``), except the three
marked *untraced* below, which need clean timings and are taken from the
untraced passes of the same ``--trace 1`` run.

:data:`LAYER_NOTES` says, for every per-layer metric, which layer
(``src/repro`` package) it belongs to and which end-to-end metric on which
workload it is predicted to move; on every workload not named the
prediction is *no change*.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any

from bench.trace import Span, Summary, self_times
from bench.workloads import Inputs

if TYPE_CHECKING:  # keeps this module importable without the program under test
    from bench.harness import PassResult

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_catalog() -> dict[str, Any]:
    return json.loads(BENCHMARK_JSON.read_text())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (the sample at or just above rank q*n)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def op_kinds(ops: list[tuple]) -> list[str]:
    """'query' / 'update' / 'post_update_query' (first query after an update)."""
    kinds, previous = [], None
    for op in ops:
        kind = op[0]
        kinds.append("post_update_query" if kind == "query" and previous == "update" else kind)
        previous = kind
    return kinds


def _latencies_ms(result: PassResult, clients: dict[str, list[tuple]], *wanted: str) -> list[float]:
    return [
        1e3 * latency
        for client, ops in clients.items()
        for kind, latency in zip(op_kinds(ops), result.latencies[client])
        if kind in wanted
    ]


def peak_rss_mb() -> float:
    """Peak resident set of this process (the run's own subprocess) and of
    any child it reaped, in MiB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(result: PassResult, inputs: Inputs) -> dict[str, float]:
    """One untraced pass's end-to-end numbers (``peak_rss_mb`` is per run).

    Query latencies are those of ``inputs.reader``: on ``service_mixed`` the
    writer's full scans are a different operation and would make the
    percentiles bimodal, so only ``reader0``'s queries count there.
    """
    readers = {inputs.reader: inputs.clients[inputs.reader]}
    queries = _latencies_ms(result, readers, "query", "post_update_query")
    answered = result.attempted - result.failed
    return {
        "setup_s": result.setup_s,
        "workload_s": result.workload_s,
        "query_p50_ms": statistics.median(queries),
        "query_p90_ms": percentile(queries, 0.90),
        "query_max_ms": max(queries),
        "qps": answered / result.workload_s,
    }


def untraced_layer(result: PassResult, clients: dict[str, list[tuple]]) -> dict[str, float]:
    """Write-side latencies: per-layer by the contract's shape (not every
    workload has updates, so they cannot be end-to-end metrics there), but
    measured with tracing off."""
    updates = _latencies_ms(result, clients, "update")
    post = _latencies_ms(result, clients, "post_update_query")
    return {
        "api.update_p50_ms": statistics.median(updates) if updates else 0.0,
        "api.post_update_query_p50_ms": statistics.median(post) if post else 0.0,
    }


def _ratio(num: float | None, den: float | None) -> float | None:
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def _p50_ms(values: list[float]) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def per_layer(s: Summary, spans: list[Span], result: PassResult) -> dict[str, float | None]:
    """One traced pass's per-layer numbers.  ``None`` = the span target no
    longer exists (a refactor removed it); 0 = wrapped but never reached."""
    facts = result.facts
    executes = s.n("api.execute")
    plans = s.n("query.build_plan")
    switch_ops = sorted(
        span.op[1] for span in spans if span.name == "api.full_clean" and span.op
    )
    rows_returned = s.count("api.execute", "rows")
    pruned, checked = facts["partitions_pruned"], facts["partitions_checked"]

    out: dict[str, float | None] = {
        # api
        "api.session_self_s": s.seconds("api.execute", "api.update_table"),
        "api.plan_cache_hit_ratio": (
            None if executes is None or plans is None
            else 1.0 - plans / executes if executes else 0.0
        ),
        "api.full_clean_s": s.seconds("api.full_clean", inclusive=True),
        "api.strategy_switch_query": (
            None if "api.full_clean" in s.missing
            else float(switch_ops[0]) if switch_ops else -1.0
        ),
        # query
        "query.parse_s": s.seconds("query.parse"),
        "query.plan_s": s.seconds("query.resolve", "query.build_plan"),
        "query.exec_self_s": s.seconds("query.exec"),
        "query.rows_scanned_per_row_returned": _ratio(facts["tuples_scanned"], rows_returned),
        # relation
        "relation.filter_tids_s": s.seconds("relation.filter_tids"),
        "relation.project_s": s.seconds("relation.project"),
        "relation.restrict_tids_s": s.seconds("relation.restrict_tids"),
        "relation.equi_join_s": s.seconds("relation.equi_join"),
        "relation.filter_s": s.seconds("relation.filter"),
        "relation.group_by_s": s.seconds("relation.group_by"),
        "relation.update_cells_s": s.seconds("relation.update_cells"),
        "relation.view_patch_s": s.seconds("relation.view_patch"),
        # core
        "core.clean_sigma_self_s": s.seconds("core.clean_sigma"),
        "core.relax_fd_s": s.seconds("core.relax_fd"),
        "core.relax_iterations": s.count("core.relax_fd", "iterations"),
        "core.relax_extra_ratio": _ratio(s.count("api.execute", "extra_tuples"), rows_returned),
        "core.clean_join_self_s": s.seconds("core.clean_join"),
        "core.apply_updates_self_s": s.seconds("core.apply_updates"),
        "core.fd_stats_build_s": s.seconds("core.fd_stats_build"),
        "core.decisions": s.n("core.decision"),
        # detection
        "detection.matrix_build_s": s.seconds("detection.matrix_build"),
        "detection.check_cells_s": s.seconds("detection.check_cells"),
        "detection.cells_checked": s.count("detection.check_cells", "cells"),
        "detection.cells_pruned_ratio": _ratio(pruned, pruned + checked),
        "detection.estimator_s": s.seconds("detection.estimator"),
        "detection.sync_matrix_s": s.seconds("detection.sync_matrix"),
        "detection.sync_calls": s.n("detection.sync_matrix"),
        # repair
        "repair.fd_fixes_s": s.seconds("repair.fd_fixes"),
        "repair.dc_fixes_s": s.seconds("repair.dc_fixes"),
        "repair.candidates_per_fix": _ratio(
            s.count("repair.dc_fixes", "candidates"), s.count("repair.dc_fixes", "fixes")
        ),
        "repair.apply_delta_s": s.seconds("repair.apply_delta"),
        "repair.merge_deltas_s": s.seconds("repair.merge_deltas"),
        "repair.errors_fixed": s.count("api.execute", "errors_fixed"),
        "repair.cells_updated": facts["tuples_updated"],
        # probabilistic
        "probabilistic.join_lineage_s": s.seconds("probabilistic.join_lineage"),
        "probabilistic.prob_cells": facts["prob_cells"],
        # storage
        "storage.load_column_s": s.seconds("storage.load_column"),
        "storage.put_column_s": s.seconds("storage.put_column"),
        "storage.rewrite_s": s.seconds("storage.rewrite"),
        "storage.chunk_reads": s.count("storage.load_column", "chunk_reads"),
        "storage.chunk_writes": _sum(
            s.count("storage.put_column", "chunk_writes"),
            s.count("storage.rewrite", "chunk_writes"),
        ),
        "storage.evictions": facts.get("evictions"),
        "storage.reload_ratio": _ratio(
            s.count("storage.load_column", "chunk_reads"),
            s.count("storage.put_column", "chunk_writes"),
        ),
        "storage.resident_mb": facts.get("resident_mb"),
        "storage.spilled_mb": facts.get("spilled_mb"),
        # engine: the deterministic WorkCounter, summed over tables
        "engine.work_units": facts["work_units"],
        "engine.tuples_scanned": facts["tuples_scanned"],
        "engine.comparisons": facts["comparisons"],
        "engine.tuples_updated": facts["tuples_updated"],
        "engine.joins_probed": facts["joins_probed"],
        "engine.partitions_checked": checked,
        "engine.partitions_pruned": pruned,
        "bench.spans": float(len(spans)),
    }
    out.update(_service_layer(s, spans, result))
    return out


def _sum(*values: float | None) -> float | None:
    return None if any(v is None for v in values) else sum(values)


def _service_layer(s: Summary, spans: list[Span], result: PassResult) -> dict[str, float | None]:
    """Where a service request's client-side latency goes: waiting to be
    admitted and for its table turnstile (``wait``), running on the worker
    (``run``), and everything else (``overhead`` = latency - run)."""
    facts = result.facts
    out: dict[str, float | None] = {
        "service.turnstile_wait_s": s.seconds("service.turnstile_wait"),
        "service.admitted": facts.get("admitted", 0),
        "service.shed": facts.get("shed", 0),
    }
    if "service.run" in s.missing:
        return {**out, "service.wait_p50_ms": None, "service.run_p50_ms": None,
                "service.overhead_p50_ms": None}
    waits, runs, overheads = [], [], []
    for span in spans:
        if span.name != "service.run" or span.op is None:
            continue
        client, index = span.op
        run = span.end - span.start
        runs.append(run)
        waits.append(span.start - result.sent_at[client][index])
        overheads.append(result.latencies[client][index] - run)
    return {
        **out,
        "service.wait_p50_ms": _p50_ms(waits),
        "service.run_p50_ms": _p50_ms(runs),
        "service.overhead_p50_ms": _p50_ms(overheads),
    }


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Layer -> summed self time of the spans inside operations (set-up and
    tear-down left out), largest first.  Self times partition each
    operation's wall time, so on a single-client workload the layers add up
    to ``workload_s`` (``bench`` is the harness itself plus fetching
    ``rows()``); on ``service_mixed`` two clients overlap and ``bench`` is
    the time a client waits for a response that no worker span covers."""
    own = self_times(spans)
    by_layer: dict[str, float] = {}
    for span in spans:
        if span.op is not None:
            layer = span.name.split(".", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + own[span.id]
    return dict(sorted(by_layer.items(), key=lambda item: -item[1]))


def best_of(passes: list[dict[str, float]], catalog: list[dict]) -> dict[str, float]:
    """Per end-to-end metric, the best pass of the run: the lowest value
    where lower is better, the highest where higher is.

    Every pass does identical work, so passes differ only by what the box
    adds — and on a shared box that is one-sided and comes in phases of tens
    of seconds (ten same-seed runs of ``fd_sp``: pass times 0.78-0.98 s in
    nine runs, 1.09-1.27 s in all eight passes of the tenth).  The best pass
    estimates the program's own cost; over those ten runs it spread 3.8 %
    (interquartile range / median) where the median of passes spread 7 %.
    A regression in the program slows every pass and moves the best one
    with them.  ``setup_s`` is the exception the contract asks for: the
    median over the run's set-ups.
    """
    pick = {m["name"]: max if m["better"] == "higher" else min for m in catalog}
    out = {name: pick[name](p[name] for p in passes) for name in passes[0]}
    out["setup_s"] = statistics.median(p["setup_s"] for p in passes)
    return out


def median_of(passes: list[dict[str, float | None]]) -> dict[str, float | None]:
    """Per metric, the median over passes (``None`` if any pass lacks it)."""
    out: dict[str, float | None] = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        out[name] = None if any(v is None for v in values) else statistics.median(values)
    return out


def warn_missing(metrics: dict[str, float | None]) -> None:
    for name, value in metrics.items():
        if value is None:
            print(f"bench: {name} is null (its span target no longer exists)", file=sys.stderr)


#: per-layer metric -> (layer, what it should move, on which workload).
LAYER_NOTES: dict[str, tuple[str, str]] = {
    "api.session_self_s": ("api", "query_p50_ms on mixed_spj"),
    "api.plan_cache_hit_ratio": ("api", "query_p50_ms on mixed_spj"),
    "api.full_clean_s": ("api", "query_max_ms, workload_s on mixed_spj"),
    "api.strategy_switch_query": ("api", "query_max_ms, workload_s on mixed_spj"),
    "api.update_p50_ms": ("api", "workload_s on updates_interleaved, qps on service_mixed (untraced)"),
    "api.post_update_query_p50_ms": ("api", "workload_s on updates_interleaved (untraced)"),
    "query.parse_s": ("query", "query_p50_ms on service_mixed, mixed_spj"),
    "query.plan_s": ("query", "query_p50_ms on service_mixed, mixed_spj"),
    "query.exec_self_s": ("query", "workload_s on fd_sp"),
    "query.rows_scanned_per_row_returned": ("query", "query_p50_ms on fd_sp"),
    "relation.filter_tids_s": ("relation", "query_p50_ms on fd_sp"),
    "relation.project_s": ("relation", "query_p50_ms on fd_sp"),
    "relation.restrict_tids_s": ("relation", "query_p50_ms on fd_sp"),
    "relation.equi_join_s": ("relation", "workload_s on mixed_spj"),
    "relation.filter_s": ("relation", "workload_s on mixed_spj"),
    "relation.group_by_s": ("relation", "workload_s on mixed_spj"),
    "relation.update_cells_s": ("relation", "api.update_p50_ms on updates_interleaved; workload_s on fd_sp"),
    "relation.view_patch_s": ("relation", "api.update_p50_ms on updates_interleaved; workload_s on fd_sp"),
    "core.clean_sigma_self_s": ("core", "workload_s on fd_sp"),
    "core.relax_fd_s": ("core", "workload_s on fd_sp"),
    "core.relax_iterations": ("core", "workload_s on fd_sp"),
    "core.relax_extra_ratio": ("core", "workload_s on fd_sp"),
    "core.clean_join_self_s": ("core", "workload_s on mixed_spj"),
    "core.apply_updates_self_s": ("core", "api.update_p50_ms on updates_interleaved"),
    "core.fd_stats_build_s": ("core", "api.update_p50_ms on updates_interleaved"),
    "core.decisions": ("core", "none (planner decisions logged)"),
    "detection.matrix_build_s": ("detection", "setup_s on dc_sp"),
    "detection.check_cells_s": ("detection", "workload_s, query_max_ms on dc_sp"),
    "detection.cells_checked": ("detection", "workload_s, query_max_ms on dc_sp"),
    "detection.cells_pruned_ratio": ("detection", "workload_s, query_max_ms on dc_sp"),
    "detection.estimator_s": ("detection", "workload_s, query_max_ms on dc_sp"),
    "detection.sync_matrix_s": ("detection", "api.post_update_query_p50_ms on updates_interleaved"),
    "detection.sync_calls": ("detection", "api.post_update_query_p50_ms on updates_interleaved"),
    "repair.fd_fixes_s": ("repair", "workload_s on fd_sp"),
    "repair.dc_fixes_s": ("repair", "workload_s, query_max_ms on dc_sp; api.post_update_query_p50_ms on updates_interleaved"),
    "repair.candidates_per_fix": ("repair", "workload_s, query_max_ms on dc_sp"),
    "repair.apply_delta_s": ("repair", "workload_s on fd_sp"),
    "repair.merge_deltas_s": ("repair", "workload_s on fd_sp"),
    "repair.errors_fixed": ("repair", "workload_s on fd_sp"),
    "repair.cells_updated": ("repair", "workload_s on fd_sp"),
    "probabilistic.join_lineage_s": ("probabilistic", "workload_s on mixed_spj"),
    "probabilistic.prob_cells": ("probabilistic", "peak_rss_mb on fd_sp"),
    "storage.load_column_s": ("storage", "workload_s on fd_sp_spill"),
    "storage.put_column_s": ("storage", "setup_s, workload_s on fd_sp_spill"),
    "storage.rewrite_s": ("storage", "workload_s on fd_sp_spill"),
    "storage.chunk_reads": ("storage", "workload_s on fd_sp_spill"),
    "storage.chunk_writes": ("storage", "workload_s on fd_sp_spill"),
    "storage.evictions": ("storage", "workload_s, peak_rss_mb on fd_sp_spill"),
    "storage.reload_ratio": ("storage", "workload_s on fd_sp_spill"),
    "storage.resident_mb": ("storage", "peak_rss_mb on fd_sp_spill"),
    "storage.spilled_mb": ("storage", "peak_rss_mb on fd_sp_spill"),
    "service.wait_p50_ms": ("service", "query_p50_ms, qps on service_mixed"),
    "service.run_p50_ms": ("service", "query_p50_ms, qps on service_mixed"),
    "service.overhead_p50_ms": ("service", "query_p50_ms, qps on service_mixed"),
    "service.turnstile_wait_s": ("service", "query_p50_ms, qps on service_mixed"),
    "service.admitted": ("service", "qps on service_mixed"),
    "service.shed": ("service", "qps on service_mixed"),
    "engine.work_units": ("engine", "deterministic: lower = work saved, equal = time saved per unit"),
    "engine.tuples_scanned": ("engine", "deterministic"),
    "engine.comparisons": ("engine", "deterministic"),
    "engine.tuples_updated": ("engine", "deterministic"),
    "engine.joins_probed": ("engine", "deterministic"),
    "engine.partitions_checked": ("engine", "deterministic"),
    "engine.partitions_pruned": ("engine", "deterministic"),
    "bench.trace_overhead_ratio": ("bench", "none (traced / untraced workload_s)"),
    "bench.spans": ("bench", "none (spans per traced pass)"),
}
