"""repro — a reproduction of *Cleaning Denial Constraint Violations through
Relaxation* (Daisy, SIGMOD 2020).

Public API highlights:

* :class:`repro.Daisy` — the query-driven cleaning engine (register tables
  and rules; connect sessions; data is cleaned incrementally).
* :mod:`repro.api` — the layered session API: :class:`repro.DaisyConfig`,
  :class:`repro.Session` (per-workload state), :class:`repro.PreparedQuery`
  (plan once, bind ``?`` parameters, execute many), and
  :meth:`Session.execute_batch` (rule-sharing batched execution returning a
  :class:`repro.BatchResult`).
* :mod:`repro.constraints` — denial constraints, FDs, and the textual
  parser (``parse_rule("zip -> city")``).
* :mod:`repro.relation` — the relational substrate (schemas, relations,
  CSV i/o).
* :mod:`repro.baselines` — the offline full-dataset cleaner and the
  HoloClean-like inference baseline.
* :mod:`repro.datasets` — synthetic SSB / hospital / Nestlé / air-quality
  generators with BART-style error injection.

Quickstart::

    from repro import Daisy
    from repro.relation import Relation, ColumnType

    rel = Relation.from_rows(
        [("zip", ColumnType.INT), ("city", ColumnType.STRING)],
        [(9001, "Los Angeles"), (9001, "San Francisco"), (10001, "New York")],
    )
    daisy = Daisy()
    daisy.register_table("cities", rel)
    daisy.add_rule("cities", "zip -> city")
    with daisy.connect() as session:
        result = session.execute(
            "SELECT zip FROM cities WHERE city = 'Los Angeles'"
        )
"""

from repro.api import (
    BatchResult,
    DaisyConfig,
    PreparedQuery,
    QueryLogEntry,
    RuleGroupReport,
    Session,
    WorkloadReport,
)
from repro.daisy import Daisy
from repro.errors import ReproError

__version__ = "1.3.0"

__all__ = [
    "BatchResult",
    "Daisy",
    "DaisyConfig",
    "PreparedQuery",
    "QueryLogEntry",
    "ReproError",
    "RuleGroupReport",
    "Session",
    "WorkloadReport",
    "__version__",
]
