"""An answer check that needs no golden file, so it works for any seed.

For a single-table range query the paper's semantics (and this engine's)
only ever *add* to the dirty answer: a repaired cell keeps its original
value among its candidates, so every row whose raw value satisfies the
filter must still be in the answer computed over the repaired, probabilistic
table.  The benchmark generated the raw rows, so it can say which rows
those are without asking the program.

Rows are recognised by the projected columns no rule mentions — those are
never repaired, so they compare as plain values.  Queries whose workload
marks them unchecked (joins, aggregates, anything after an update) are
skipped; see ``bench/workloads.py``.
"""

from __future__ import annotations

import re
from typing import Any

from bench.workloads import Inputs


def rule_attributes(rule: str) -> set[str]:
    """Attributes a rule mentions: ``a, b -> c`` or ``not(t1.a < t2.b & ...)``."""
    if "->" in rule:
        return {name.strip() for side in rule.split("->") for name in side.split(",")}
    return set(re.findall(r"t\d+\.(\w+)", rule))


def missing_rows(inputs: Inputs, answers: dict[str, list[Any]]) -> int:
    """How many checked queries lack a row their plain filter selects."""
    ruled: dict[str, set[str]] = {}
    for table, rule in inputs.rules:
        ruled.setdefault(table, set()).update(rule_attributes(rule))
    bad = 0
    for client, ops in inputs.clients.items():
        for op, answer in zip(ops, answers[client]):
            if op[0] != "query" or op[2] is None:
                continue
            if isinstance(answer, dict):  # a service response on the wire
                answer = answer.get("payload", {}).get("rows")
            if not isinstance(answer, list):
                continue  # the operation failed and is counted as such
            table, attr, low, high, projection = op[2]
            schema, rows = inputs.tables[table]
            names = [name for name, _ in schema]
            projected = list(projection) if projection else names
            identity = [c for c in projected if c not in ruled.get(table, ())]
            source = [names.index(c) for c in identity]
            where = names.index(attr)
            expected = {
                tuple(row[i] for i in source) for row in rows if low <= row[where] < high
            }
            shown = [projected.index(c) for c in identity]
            got = {tuple(row[i] for i in shown) for row in answer}
            bad += not expected <= got
    return bad
