"""The layered public API over the Daisy engine.

Three layers (Section 6's engine, re-architected for workloads):

1. **Configuration & sessions** — :class:`DaisyConfig` bundles every engine
   knob into one frozen value; :meth:`repro.Daisy.connect` opens a
   :class:`Session` that owns per-workload state (query log, cost models)
   so the engine object only holds the data-scoped state (tables, rules,
   provenance, matrices).
2. **Prepared queries** — :meth:`Session.prepare` parses, resolves, and
   plans once; the returned :class:`PreparedQuery` re-executes without
   re-planning and binds ``?`` placeholders positionally.
3. **Batched execution** — :meth:`Session.execute_batch` groups a batch's
   plans by the rules their clean-nodes touch, runs one shared
   relaxation/detection pass per rule group, and answers each member query
   against the shared pass, returning a :class:`BatchResult`.

Typical usage::

    from repro import Daisy

    daisy = Daisy()
    daisy.register_table("cities", relation)
    daisy.add_rule("cities", "zip -> city")
    with daisy.connect() as session:
        by_city = session.prepare("SELECT zip FROM cities WHERE city = ?")
        la = by_city.execute("Los Angeles")
        batch = session.execute_batch(queries)   # shares cleaning passes
"""

from repro.api.batch import BatchResult, RuleGroupReport
from repro.api.config import DaisyConfig
from repro.api.prepared import PreparedQuery
from repro.api.reporting import QueryLogEntry, WorkloadReport
from repro.api.session import Session

__all__ = [
    "BatchResult",
    "DaisyConfig",
    "PreparedQuery",
    "QueryLogEntry",
    "RuleGroupReport",
    "Session",
    "WorkloadReport",
]
