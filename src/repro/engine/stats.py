"""Deterministic work accounting for the dataflow engine.

The paper evaluates Daisy in minutes on a 7-node Spark cluster.  Our substrate
is a single-process simulator, so in addition to wall-clock time every engine
and cleaning operation charges *work units* to a :class:`WorkCounter`:

* ``tuples_scanned`` — tuples read by scans/filters/relaxation passes,
* ``comparisons``   — pairwise predicate evaluations (theta-join cells,
  group conflict checks),
* ``tuples_updated`` — cells/rows written back to the dataset,
* ``partitions_checked`` / ``partitions_pruned`` — theta-join matrix work.

Work units are deterministic, machine-independent, and proportional to the
asymptotic costs the paper's Section 5.2 cost model reasons about, so the
benchmark harness reports both seconds and work units.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro._ownership import shared_engine_state


@shared_engine_state
@dataclass
class WorkCounter:
    """Mutable tally of work units performed by engine + cleaning operators.

    Each counter is written only by its ``charge_*`` seam (plus ``merge``,
    which folds another tally in, and ``reset``).
    """

    MUTATED_UNDER = {
        "tuples_scanned": ("WorkCounter.charge_scan", "WorkCounter.merge", "WorkCounter.reset"),
        "comparisons": ("WorkCounter.charge_comparisons", "WorkCounter.merge", "WorkCounter.reset"),
        "tuples_updated": ("WorkCounter.charge_update", "WorkCounter.merge", "WorkCounter.reset"),
        "partitions_checked": ("WorkCounter.charge_partition", "WorkCounter.merge", "WorkCounter.reset"),
        "partitions_pruned": ("WorkCounter.charge_partition", "WorkCounter.merge", "WorkCounter.reset"),
        "joins_probed": ("WorkCounter.charge_join_probe", "WorkCounter.merge", "WorkCounter.reset"),
    }

    tuples_scanned: int = 0
    comparisons: int = 0
    tuples_updated: int = 0
    partitions_checked: int = 0
    partitions_pruned: int = 0
    joins_probed: int = 0

    def charge_scan(self, n: int = 1) -> None:
        self.tuples_scanned += n

    def charge_comparisons(self, n: int = 1) -> None:
        self.comparisons += n

    def charge_update(self, n: int = 1) -> None:
        self.tuples_updated += n

    def charge_partition(self, checked: int = 0, pruned: int = 0) -> None:
        self.partitions_checked += checked
        self.partitions_pruned += pruned

    def charge_join_probe(self, n: int = 1) -> None:
        self.joins_probed += n

    def total(self) -> int:
        """A single scalar summary: total work units charged."""
        return (
            self.tuples_scanned
            + self.comparisons
            + self.tuples_updated
            + self.joins_probed
        )

    def snapshot(self) -> "WorkCounter":
        """An immutable copy of the current tallies."""
        return WorkCounter(
            tuples_scanned=self.tuples_scanned,
            comparisons=self.comparisons,
            tuples_updated=self.tuples_updated,
            partitions_checked=self.partitions_checked,
            partitions_pruned=self.partitions_pruned,
            joins_probed=self.joins_probed,
        )

    def delta_since(self, earlier: "WorkCounter") -> "WorkCounter":
        """Work performed since an earlier snapshot."""
        return WorkCounter(
            tuples_scanned=self.tuples_scanned - earlier.tuples_scanned,
            comparisons=self.comparisons - earlier.comparisons,
            tuples_updated=self.tuples_updated - earlier.tuples_updated,
            partitions_checked=self.partitions_checked - earlier.partitions_checked,
            partitions_pruned=self.partitions_pruned - earlier.partitions_pruned,
            joins_probed=self.joins_probed - earlier.joins_probed,
        )

    def merge(self, other: "WorkCounter") -> None:
        """Accumulate another counter into this one (e.g. per-partition tallies)."""
        self.tuples_scanned += other.tuples_scanned
        self.comparisons += other.comparisons
        self.tuples_updated += other.tuples_updated
        self.partitions_checked += other.partitions_checked
        self.partitions_pruned += other.partitions_pruned
        self.joins_probed += other.joins_probed

    def reset(self) -> None:
        self.tuples_scanned = 0
        self.comparisons = 0
        self.tuples_updated = 0
        self.partitions_checked = 0
        self.partitions_pruned = 0
        self.joins_probed = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "tuples_scanned": self.tuples_scanned,
            "comparisons": self.comparisons,
            "tuples_updated": self.tuples_updated,
            "partitions_checked": self.partitions_checked,
            "partitions_pruned": self.partitions_pruned,
            "joins_probed": self.joins_probed,
            "total": self.total(),
        }

    def __str__(self) -> str:
        return (
            f"work(scan={self.tuples_scanned}, cmp={self.comparisons}, "
            f"upd={self.tuples_updated}, probe={self.joins_probed}, "
            f"parts={self.partitions_checked}+{self.partitions_pruned}p)"
        )


#: Module-level default counter: operations that are not given an explicit
#: counter charge here, so ad-hoc usage still gets accounting.
GLOBAL_COUNTER = WorkCounter()
