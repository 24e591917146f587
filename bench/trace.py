"""Span tracing from outside the program: timing wrappers around the layers'
public callables, installed by the benchmark and removed again.

No file under ``src/`` knows about this.  :data:`TARGETS` is a table of
dotted names resolved when the tracer is installed; every ``repro.*``
module attribute that *is* the original function is rebound to the wrapper
(the engine ``from``-imports its collaborators) and methods are rebound on
their class.  A target that no longer exists is skipped with one warning
and its layer metrics read ``null`` — a refactor under ``src/`` never
crashes the benchmark and never touches the end-to-end metrics, which are
measured with no wrapper installed.

Only coarse calls are wrapped (at most ~10^4 per pass; never a per-pair
``Predicate.evaluate`` or ``CellFix.add``).  A span records name, layer,
thread, start, end, the span that caused it, the operation it belongs to,
the engine's ``WorkCounter`` delta across the call and, where a target
names them, counts taken from the arguments or the return value at the
same boundary.  Spans stay in memory; :func:`summarize` turns them into
per-name self time (duration minus the part child spans cover), call
counts and count sums.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

WORK_FIELDS = (
    "tuples_scanned",
    "comparisons",
    "tuples_updated",
    "joins_probed",
    "partitions_checked",
    "partitions_pruned",
)

Counts = Callable[[tuple, dict, Any], dict]


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module:attr`` or ``module:Class.method``."""

    span: str  # "<layer>.<what>", the span name
    path: str
    #: Counts read from (args, kwargs, result) after the call returns.
    counts: Counts | None = None
    #: Numbers read from the arguments before *and* after the call; the
    #: span records the difference (for counters the callee bumps on self).
    gauge: Callable[[tuple], dict] | None = None
    #: The (client, index) of the operation a thread-root span serves, for
    #: callables that run on another thread than the client that asked.
    op_of: Callable[[tuple], tuple] | None = None


def _sized(_args: tuple, _kwargs: dict, result: Any) -> dict:
    return {"out": len(result)}


def _execute_counts(_args: tuple, _kwargs: dict, result: Any) -> dict:
    report = result.report
    return {
        "rows": len(result),
        "errors_fixed": report.errors_fixed,
        "extra_tuples": report.extra_tuples,
    }


def _dc_fix_counts(_args: tuple, _kwargs: dict, delta: Any) -> dict:
    return {
        "fixes": len(delta.fixes),
        "candidates": sum(len(fix.candidates) for fix in delta.fixes.values()),
    }


def _store_io(args: tuple) -> dict:
    store = args[0]
    return {"chunk_reads": store.chunk_reads, "chunk_writes": store.chunk_writes}


TARGETS: tuple[Target, ...] = (
    # api
    Target("api.execute", "repro.api.session:Session.execute", counts=_execute_counts),
    Target("api.update_table", "repro.api.session:Session.update_table"),
    Target("api.full_clean", "repro.core.operators:clean_full_table"),
    # query
    Target("query.parse", "repro.query.sql:parse_sql"),
    Target("query.resolve", "repro.query.planner:resolve_query"),
    Target("query.build_plan", "repro.query.planner:build_plan"),
    Target("query.exec", "repro.query.executor:Executor.execute_resolved"),
    # relation
    Target("relation.filter_tids", "repro.relation.columnview:ColumnView.filter_tids", counts=_sized),
    Target("relation.view_patch", "repro.relation.columnview:ColumnView.patched"),
    Target("relation.project", "repro.relation.relation:Relation.project"),
    Target("relation.restrict_tids", "repro.relation.relation:Relation.restrict_tids"),
    Target("relation.group_by", "repro.relation.relation:Relation.group_by"),
    Target("relation.equi_join", "repro.relation.relation:Relation.equi_join"),
    Target("relation.filter", "repro.relation.relation:Relation.filter"),
    Target("relation.update_cells", "repro.relation.relation:Relation.update_cells"),
    # core
    Target("core.clean_sigma", "repro.core.operators:clean_sigma"),
    Target("core.clean_join", "repro.core.operators:clean_join"),
    Target(
        "core.relax_fd",
        "repro.core.relaxation:relax_fd",
        counts=lambda a, k, r: {"iterations": r.iterations, "extra": len(r.extra_tids)},
    ),
    Target("core.fd_stats_build", "repro.core.statistics:build_fd_statistics"),
    Target("core.apply_updates", "repro.core.state:TableState.apply_updates"),
    Target("core.decision", "repro.core.costmodel:AdaptivePlanner._append"),
    # detection
    Target("detection.matrix_build", "repro.detection.thetajoin:ThetaJoinMatrix.rebuild"),
    Target(
        "detection.check_cells",
        "repro.detection.thetajoin:ThetaJoinMatrix.check_cells",
        counts=lambda a, k, r: {"cells": len(a[1]), "violations": len(r)},
    ),
    Target("detection.estimator", "repro.detection.estimator:decide_cleaning"),
    Target("detection.sync_matrix", "repro.detection.maintenance:sync_matrix"),
    # repair
    Target("repair.fd_fixes", "repro.repair.fd_repair:compute_fd_fixes"),
    Target("repair.dc_fixes", "repro.repair.dc_repair:compute_dc_fixes", counts=_dc_fix_counts),
    Target("repair.apply_delta", "repro.repair.fd_repair:apply_fd_delta"),
    Target("repair.merge_deltas", "repro.repair.merge:merge_deltas"),
    # probabilistic
    Target("probabilistic.join_lineage", "repro.probabilistic.lineage:join_with_lineage"),
    # storage
    Target("storage.load_column", "repro.storage.stripestore:StripeStore.load_column", gauge=_store_io),
    Target("storage.put_column", "repro.storage.stripestore:StripeStore.put_column", gauge=_store_io),
    Target("storage.rewrite", "repro.storage.stripestore:StripeStore.rewrite_positions", gauge=_store_io),
    # service
    Target(
        "service.run",
        "repro.service.runner:RequestRunner.run",
        op_of=lambda a: (a[1].client, a[1].seq),
    ),
    Target("service.turnstile_wait", "repro.service.scheduler:TableTurnstile.wait_for"),
)


@dataclass
class Span:
    id: int
    name: str
    thread: int
    parent: int | None
    op: tuple | None  # (client, index)
    start: float
    end: float
    counts: dict

    def as_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "layer": self.name.split(".", 1)[0],
            "thread": self.thread,
            "parent": self.parent,
            "op": list(self.op) if self.op else None,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


class Tracer:
    """Installs the wrappers, collects spans, removes the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Target paths that did not resolve at install time.
        self.missing: list[str] = []
        #: Set per pass by the harness; its table counters feed the deltas.
        self.engine: Any = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_spans: dict[tuple, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []  # (owner, attr, original)
        #: Target paths and span names already warned about (once each).
        self._warned: set[str] = set()

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for target in TARGETS:
            try:
                owner, attr, original = _resolve(target.path)
            except (ImportError, AttributeError) as exc:
                self.missing.append(target.path)
                if target.path not in self._warned:
                    self._warned.add(target.path)
                    print(f"bench/trace: {target.path} not found ({exc}); "
                          f"{target.span} metrics will be null", file=sys.stderr)
                continue
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapper)
            else:
                # The engine from-imports its collaborators: rebind every
                # repro module global that is this very function.
                for name, module in list(sys.modules.items()):
                    if name == "repro" or name.startswith("repro."):
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._rebind(module, key, original, wrapper)

    def _rebind(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording -------------------------------------------------------------------

    def _state(self) -> Any:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = None
        return local

    def _work(self) -> tuple:
        totals = [0] * len(WORK_FIELDS)
        engine = self.engine
        if engine is not None:
            for state in engine.states.values():
                counter = state.counter
                for i, name in enumerate(WORK_FIELDS):
                    totals[i] += getattr(counter, name)
        return tuple(totals)

    def _guard(self, span: str, fn: Callable[..., dict], *args: Any) -> dict:
        try:
            return fn(*args)
        except Exception as exc:  # a refactor moved what the probe reads
            if span not in self._warned:
                self._warned.add(span)
                print(f"bench/trace: counts of {span} unavailable ({exc!r})",
                      file=sys.stderr)
            return {}

    def begin(self, name: str, op: tuple | None = None, adopt: tuple | None = None) -> tuple:
        """Open a span on this thread.  ``op`` makes it the root span of that
        ``(client, index)`` operation (the harness opens one per operation);
        ``adopt`` names the operation a thread-root span serves on behalf of
        another thread, whose root span becomes its parent."""
        local = self._state()
        span_id = next(self._ids)
        parent = local.stack[-1] if local.stack else None
        if adopt is not None and parent is None:
            local.op = adopt
            parent = self._op_spans.get(adopt)
        if op is not None:
            local.op = op
            self._op_spans[op] = span_id
        local.stack.append(span_id)
        return (span_id, name, parent, self._work(), perf_counter())

    def end(self, token: tuple, counts: dict | None = None, at: float | None = None) -> None:
        finished = perf_counter() if at is None else at
        span_id, name, parent, work0, start = token
        local = self._state()
        local.stack.pop()
        counts = dict(counts or {})
        for field, before, after in zip(WORK_FIELDS, work0, self._work()):
            if after != before:
                counts[field] = after - before
        self.spans.append(
            Span(span_id, name, threading.get_ident(), parent, local.op, start, finished, counts)
        )
        if not local.stack:
            local.op = None

    def _wrap(self, target: Target, original: Callable) -> Callable:
        tracer = self
        name = target.span

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            adopt = None
            if target.op_of is not None:
                adopt = tracer._guard(name, lambda: {"op": target.op_of(args)}).get("op")
            gauge0 = tracer._guard(name, target.gauge, args) if target.gauge else {}
            counts: dict = {}
            token = tracer.begin(name, adopt=adopt)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.end(token)
                raise
            finished = perf_counter()
            if target.counts is not None:
                counts = tracer._guard(name, target.counts, args, kwargs, result)
            if target.gauge is not None:
                for key, after in tracer._guard(name, target.gauge, args).items():
                    if key in gauge0 and after != gauge0[key]:
                        counts[key] = after - gauge0[key]
            tracer.end(token, counts, at=finished)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    def take(self) -> list[Span]:
        """The spans recorded since the last call, with thread-root spans
        that could not name their operation (a turnstile wait precedes the
        request's ``service.run`` on the same worker thread) attached to
        the next span on their thread that could."""
        spans, self.spans = self.spans, []
        self._op_spans.clear()
        spans.sort(key=lambda s: s.start)
        pending: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent is None and span.op is None:
                pending.setdefault(span.thread, []).append(span)
            elif span.op is not None and span.thread in pending:
                for orphan in pending.pop(span.thread):
                    orphan.op, orphan.parent = span.op, span.parent
        return spans


def _resolve(path: str) -> tuple[Any, str, Any]:
    module_name, _, dotted = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *holders, attr = dotted.split(".")
    for holder in holders:
        owner = getattr(owner, holder)
    # A method must be defined on the class itself (an inherited or
    # descriptor-wrapped one is not what the table names).
    original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)
    if original is None or isinstance(original, (staticmethod, classmethod)):
        raise AttributeError(f"{path} is not a plain function defined there")
    return owner, attr, original


# -- turning spans into numbers ------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            low, high = max(child.start, cursor), min(child.end, span.end)
            if high > low:
                covered += high - low
                cursor = high
        out[span.id] = (span.end - span.start) - covered
    return out


@dataclass
class Summary:
    """Per span name: self seconds, inclusive seconds, calls, count sums."""

    self_s: dict[str, float]
    total_s: dict[str, float]
    calls: dict[str, int]
    counts: dict[str, dict[str, float]]
    #: Span names whose target did not resolve (their metrics are null).
    missing: set[str]

    def seconds(self, *names: str, inclusive: bool = False) -> float | None:
        """Summed self (or inclusive) time of the named spans; ``None`` when
        any of them could not be wrapped; 0.0 when wrapped but never called."""
        if any(name in self.missing for name in names):
            return None
        table = self.total_s if inclusive else self.self_s
        return sum(table.get(name, 0.0) for name in names)

    def n(self, name: str) -> int | None:
        return None if name in self.missing else self.calls.get(name, 0)

    def count(self, name: str, key: str) -> float | None:
        return None if name in self.missing else self.counts.get(name, {}).get(key, 0)


def summarize(spans: list[Span], missing_paths: list[str]) -> Summary:
    own = self_times(spans)
    summary = Summary({}, {}, {}, {}, {t.span for t in TARGETS if t.path in missing_paths})
    for span in spans:
        name = span.name
        summary.self_s[name] = summary.self_s.get(name, 0.0) + own[span.id]
        summary.total_s[name] = summary.total_s.get(name, 0.0) + (span.end - span.start)
        summary.calls[name] = summary.calls.get(name, 0) + 1
        sums = summary.counts.setdefault(name, {})
        for key, value in span.counts.items():
            sums[key] = sums.get(key, 0) + value
    return summary
