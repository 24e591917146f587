"""Shared helpers for the experiment benchmarks.

Every benchmark reproduces one table or figure of the paper's Section 7 at
laptop scale: it builds the dirty data, runs Daisy and the relevant
baselines, and prints the same series the paper plots (plus deterministic
work units).  Absolute numbers differ from the paper's 7-node-cluster
minutes; the reproduction target is the *shape* — who wins, by what rough
factor, and where strategy switches occur.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro import Daisy, DaisyConfig
from repro.baselines import OfflineCleaner
from repro.constraints.dc import Rule
from repro.core.state import TableState
from repro.query.executor import Executor
from repro.query.planner import PlannerCatalog
from repro.relation.relation import Relation


def bench_scale() -> float:
    """Global scale multiplier (``REPRO_BENCH_SCALE``, default 1.0).

    CI's smoke job sets a small value so every module runs in seconds;
    comparative shape assertions bind only at scale 1.0.
    """
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(n: int, minimum: int = 1) -> int:
    """``n`` adjusted by the global benchmark scale, floored at ``minimum``."""
    return max(minimum, int(round(n * bench_scale())))


@dataclass
class RunResult:
    """One system's run over one workload configuration."""

    label: str
    seconds: float
    work_units: int
    cumulative_seconds: list[float] = field(default_factory=list)
    switch_index: int | None = None

    def row(self) -> str:
        switch = (
            f"  switch@q{self.switch_index}" if self.switch_index is not None else ""
        )
        return (
            f"{self.label:<28} {self.seconds:>8.3f}s {self.work_units:>12,} wu{switch}"
        )


def run_daisy(
    relation: Relation,
    rules: Sequence[Rule],
    queries: Sequence[str],
    table: str = "lineorder",
    use_cost_model: bool = True,
    expected_queries: int | None = None,
    label: str = "Daisy",
    extra_tables: dict[str, Relation] | None = None,
    extra_rules: dict[str, Sequence[Rule]] | None = None,
    dc_error_threshold: float = 0.2,
) -> RunResult:
    """Execute a workload with Daisy (optionally without the cost model)."""
    daisy = Daisy(config=DaisyConfig(
        use_cost_model=use_cost_model,
        expected_queries=expected_queries or len(queries),
        dc_error_threshold=dc_error_threshold,
    ))
    daisy.register_table(table, relation)
    for rule in rules:
        daisy.add_rule(table, rule)
    for name, rel in (extra_tables or {}).items():
        daisy.register_table(name, rel)
        for rule in (extra_rules or {}).get(name, ()):
            daisy.add_rule(name, rule)
    with daisy.connect() as session:
        started = time.perf_counter()
        report = session.execute_workload(list(queries))
        seconds = time.perf_counter() - started
    return RunResult(
        label=label,
        seconds=seconds,
        work_units=daisy.total_work(),
        cumulative_seconds=report.cumulative_seconds(),
        switch_index=report.switch_query_index,
    )


def run_offline(
    relation: Relation,
    rules: Sequence[Rule],
    queries: Sequence[str],
    table: str = "lineorder",
    label: str = "Full cleaning + queries",
    extra_tables: dict[str, Relation] | None = None,
    extra_rules: dict[str, Sequence[Rule]] | None = None,
) -> RunResult:
    """Clean everything upfront (offline baseline), then run the workload."""
    started = time.perf_counter()
    cleaner = OfflineCleaner()
    work = 0
    cleaned, report = cleaner.clean(relation, list(rules))
    work += report.work.total()
    catalog = PlannerCatalog()
    states = {table: TableState(relation=cleaned)}
    catalog.add_table(table, cleaned.schema)
    for name, rel in (extra_tables or {}).items():
        extra_cleaner = OfflineCleaner()
        rel_rules = list((extra_rules or {}).get(name, ()))
        if rel_rules:
            rel, rel_report = extra_cleaner.clean(rel, rel_rules)
            work += rel_report.work.total()
        states[name] = TableState(relation=rel)
        catalog.add_table(name, rel.schema)
    executor = Executor(states, catalog, cleaning_enabled=False)
    cumulative = []
    for sql in queries:
        executor.execute(sql)
        cumulative.append(time.perf_counter() - started)
    seconds = time.perf_counter() - started
    work += sum(s.counter.total() for s in states.values())
    return RunResult(
        label=label,
        seconds=seconds,
        work_units=work,
        cumulative_seconds=cumulative,
    )


def print_series(title: str, results: Sequence[RunResult]) -> None:
    """Print one experiment's series in a paper-like layout."""
    print()
    print(f"=== {title} ===")
    for result in results:
        print(" ", result.row())


def print_cumulative(title: str, results: Sequence[RunResult], step: int = 10) -> None:
    """Print cumulative-time curves (Figs 7/8/11/12/13 style)."""
    print()
    print(f"=== {title} (cumulative seconds) ===")
    header = "query#".ljust(10) + "".join(r.label[:16].rjust(18) for r in results)
    print(" ", header)
    length = max(len(r.cumulative_seconds) for r in results)
    for i in range(step - 1, length, step):
        row = f"{i + 1:<10}"
        for result in results:
            series = result.cumulative_seconds
            value = series[min(i, len(series) - 1)] if series else 0.0
            row += f"{value:>18.3f}"
        print(" ", row)
    for result in results:
        if result.switch_index is not None:
            print(f"  [{result.label}] switched to full cleaning at query "
                  f"{result.switch_index + 1}")


def speedup(fast: RunResult, slow: RunResult) -> float:
    """slow/fast wall-clock ratio (>= 1 means `fast` wins)."""
    if fast.seconds <= 0:
        return float("inf")
    return slow.seconds / fast.seconds
