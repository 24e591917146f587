"""Per-query and per-workload execution reports.

These used to live on the ``Daisy`` god-object's module; they are now part
of the public API layer because sessions, prepared queries, and batches all
produce them.  ``repro.daisy`` re-exports both names for backward
compatibility.

Workload-level reports also carry the **decision audit trail**: every
Section 5.2.3 strategy-switch verdict the session's
:class:`~repro.core.AdaptivePlanner` took while the workload ran lands in
:attr:`WorkloadReport.decisions` as
:class:`~repro.core.costmodel.PassDecision` records (choice, the modeled
cost of both alternatives, and the observed work units of a full clean).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.costmodel import PassDecision
from repro._ownership import session_owned


@dataclass
class QueryLogEntry:
    """Bookkeeping for one executed query (feeds the workload reports)."""

    sql: str
    result_size: int
    elapsed_seconds: float
    errors_fixed: int
    extra_tuples: int
    switched_to_full: bool = False
    work_units: int = 0


@session_owned
@dataclass
class WorkloadReport:
    """Aggregate of a workload execution."""

    entries: list[QueryLogEntry] = field(default_factory=list)
    total_seconds: float = 0.0
    total_work_units: int = 0
    switch_query_index: int | None = None
    #: Adaptive decisions taken while this workload ran, in order.
    decisions: list[PassDecision] = field(default_factory=list)

    def cumulative_seconds(self) -> list[float]:
        out, acc = [], 0.0
        for entry in self.entries:
            acc += entry.elapsed_seconds
            out.append(acc)
        return out

    def cumulative_work(self) -> list[int]:
        out, acc = [], 0
        for entry in self.entries:
            acc += entry.work_units
            out.append(acc)
        return out

    def decisions_of_kind(self, kind: str) -> list[PassDecision]:
        """The recorded decisions of one family (``"strategy_switch"``)."""
        return [d for d in self.decisions if d.kind == kind]
