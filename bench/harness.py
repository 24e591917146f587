"""One pass of one workload: set the engine up, drive the clients, digest.

This is the only benchmark file that touches the program under test, and it
touches only the surface ROADMAP-3 keeps: ``Daisy`` / ``DaisyConfig`` (four
fields), ``register_table``, ``add_rule``, ``connect``, ``Session.execute``
/ ``update_table``, ``DaisyService.submit`` / ``ServiceRequest`` — plus
``Relation.from_rows``, without which no table can be registered.

A pass is closed-loop: a client sends its next operation only after the
previous answer arrived.  Single-client workloads drive a ``Session`` on the
calling thread; ``via_service`` workloads start one thread per client, all
submitting to one ``DaisyService`` (two clients = ``nproc`` on the
reference box).
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro import Daisy, DaisyConfig
from repro.relation import ColumnType, Relation
from repro.service import DaisyService, ServiceRequest

from bench.reference import missing_rows
from bench.trace import WORK_FIELDS, Tracer
from bench.workloads import CONFIG_FIELDS, Inputs

#: Per-operation digests only locate a mismatch (the run digest guards the
#: total), so they are kept, and stored in golden.json, at this many hex digits.
OP_DIGEST_CHARS = 12

#: A client gives up on one service response after this long.
RESPONSE_TIMEOUT_S = 120.0


@dataclass
class PassResult:
    setup_s: float = 0.0
    workload_s: float = 0.0
    #: client -> per-operation latency in seconds, in sending order.
    latencies: dict[str, list[float]] = field(default_factory=dict)
    #: client -> (first operation sent, last answered), perf_counter seconds.
    client_wall: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: client -> submit timestamp per operation (service workloads only).
    sent_at: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    #: Operations that raised, were shed or timed out, plus (when the pass
    #: was asked to check) answers lacking a row the reference says is due.
    failed: int = 0
    #: SHA-256 over every answer, every final table and the work units.
    digest: str = ""
    #: client -> per-operation answer digest (locates a mismatch).
    op_digests: dict[str, list[str]] = field(default_factory=dict)
    #: Deterministic totals read off the engine after the last answer.
    facts: dict[str, Any] = field(default_factory=dict)


class _Canon:
    """Canonical bytes of answers and tables: JSON with sorted keys and fixed
    separators, ``repr`` for engine values (probabilistic cells) JSON cannot
    carry.  One instance serves one pass and memoizes by object identity —
    the same row tuple and the same probabilistic cell appear in many
    answers and in the final table, and their Python-level ``repr`` would
    otherwise cost more than the workload.  Sound only while every encoded
    object stays alive, which the pass guarantees (it holds all answers)."""

    def __init__(self) -> None:
        self._cells: dict[int, str] = {}
        self._rows: dict[int, str] = {}

    def _cell(self, value: Any) -> Any:
        if isinstance(value, (set, frozenset)):
            return sorted(value, key=repr)
        text = self._cells.get(id(value))
        if text is None:
            text = self._cells[id(value)] = repr(value)
        return text

    def encode(self, value: Any) -> bytes:
        return json.dumps(
            value, sort_keys=True, separators=(",", ":"), default=self._cell
        ).encode()

    def rows(self, rows: list[tuple]) -> bytes:
        out = []
        for values in rows:
            text = self._rows.get(id(values))
            if text is None:
                text = self._rows[id(values)] = self.encode(values).decode()
            out.append(text)
        return "\n".join(out).encode()

    def answer(self, answer: Any) -> str:
        data = self.rows(answer) if isinstance(answer, list) else self.encode(answer)
        return hashlib.sha256(data).hexdigest()[:OP_DIGEST_CHARS]


def run_pass(
    inputs: Inputs, tracer: Tracer | None = None, check_reference: bool = False
) -> PassResult:
    """Set up, run every client's operations, tear down.  ``tracer`` (already
    installed) makes each operation a root span; ``check_reference`` also
    holds the answers against ``bench/reference.py`` (once per run is
    enough: later passes must reproduce this one's digest)."""
    unknown = set(inputs.config) - CONFIG_FIELDS
    if unknown:
        raise ValueError(f"workload sets DaisyConfig fields outside the kept surface: {unknown}")
    out = PassResult()

    setup_span = tracer.begin("bench.setup") if tracer else None
    started = perf_counter()
    engine = Daisy(config=DaisyConfig(**inputs.config))
    for name, (schema, rows) in inputs.tables.items():
        relation = Relation.from_rows(
            [(column, ColumnType(kind)) for column, kind in schema], rows, name=name
        )
        engine.register_table(name, relation)
    for table, rule in inputs.rules:
        engine.add_rule(table, rule)
    service = session = None
    if inputs.via_service:
        service = DaisyService(engine)
        service.start()
    else:
        session = engine.connect()
    out.setup_s = perf_counter() - started

    if tracer is not None:
        tracer.end(setup_span)
        tracer.engine = engine
    answers: dict[str, list[Any]] = {}
    try:
        if service is not None:
            _drive_service(service, inputs, out, answers, tracer)
        else:
            (client, ops), = inputs.clients.items()
            _drive_session(session, client, ops, out, answers, tracer)
        out.workload_s = max(end for _, end in out.client_wall.values()) - min(
            start for start, _ in out.client_wall.values()
        )
        out.facts = _engine_facts(engine, service)
        out.attempted = sum(len(ops) for ops in inputs.clients.values())
        if check_reference:
            out.failed += missing_rows(inputs, answers)
        _digest(engine, inputs, answers, out)
    finally:
        if tracer is not None:
            tracer.engine = None
        if service is not None:
            service.stop()
        if session is not None:
            session.close()
        engine.close()
    return out


def _drive_session(
    session: Any,
    client: str,
    ops: list[tuple],
    out: PassResult,
    answers: dict[str, list[Any]],
    tracer: Tracer | None,
) -> None:
    latencies: list[float] = []
    mine: list[Any] = []
    first = perf_counter()
    for index, op in enumerate(ops):
        token = tracer.begin("bench.op", (client, index)) if tracer else None
        sent = perf_counter()
        try:
            if op[0] == "query":
                answer: Any = session.execute(op[1]).rows()
            else:
                answer = session.update_table(
                    op[1], {(tid, attr): value for tid, attr, value in op[2]}
                )
        except Exception as exc:  # the boundary that must keep the loop going
            answer = exc
        latencies.append(perf_counter() - sent)
        if token is not None:
            tracer.end(token)
        mine.append(answer)
    last = perf_counter()
    out.latencies[client] = latencies
    out.client_wall[client] = (first, last)
    out.failed += sum(isinstance(a, Exception) for a in mine)
    answers[client] = [
        f"{type(a).__name__}: {a}" if isinstance(a, Exception)
        else a if isinstance(a, list) else dict(vars(a))  # rows | UpdateReport
        for a in mine
    ]


def _drive_service(
    service: Any,
    inputs: Inputs,
    out: PassResult,
    answers: dict[str, list[Any]],
    tracer: Tracer | None,
) -> None:
    gate = threading.Barrier(len(inputs.clients))
    errors: list[BaseException] = []

    def client_loop(client: str, ops: list[tuple]) -> None:
        latencies: list[float] = []
        sent_at: list[float] = []
        mine: list[Any] = []
        requests = [
            ServiceRequest(client=client, seq=index, kind="execute", sql=op[1])
            if op[0] == "query"
            else ServiceRequest(
                client=client, seq=index, kind="update_table", table=op[1], cells=op[2]
            )
            for index, op in enumerate(ops)
        ]
        try:
            gate.wait(timeout=RESPONSE_TIMEOUT_S)
            first = perf_counter()
            for index, request in enumerate(requests):
                token = tracer.begin("bench.op", (client, index)) if tracer else None
                sent = perf_counter()
                try:
                    response = service.submit(request).result(timeout=RESPONSE_TIMEOUT_S)
                    wire = response.to_wire()
                    # The admission index depends on how the two clients
                    # interleave; everything else is deterministic per client.
                    wire.pop("admitted", None)
                except Exception as exc:  # timeout or a broken service
                    wire = {"status": f"{type(exc).__name__}: {exc}"}
                latencies.append(perf_counter() - sent)
                if token is not None:
                    tracer.end(token)
                sent_at.append(sent)
                mine.append(wire)
            last = perf_counter()
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)
            return
        out.latencies[client] = latencies
        out.sent_at[client] = sent_at
        out.client_wall[client] = (first, last)
        answers[client] = mine

    threads = [
        threading.Thread(target=client_loop, args=item, name=f"bench-{item[0]}")
        for item in inputs.clients.items()
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    out.failed = sum(
        wire.get("status") != "ok" for mine in answers.values() for wire in mine
    )


def _engine_facts(engine: Any, service: Any) -> dict[str, Any]:
    facts: dict[str, Any] = {name: 0 for name in WORK_FIELDS}
    for state in engine.states.values():
        for name in WORK_FIELDS:
            facts[name] += getattr(state.counter, name)
    facts["work_units"] = engine.total_work()
    facts["prob_cells"] = sum(engine.probabilistic_cells(t) for t in engine.states)
    if service is not None:
        status = service.status()
        facts["admitted"] = status["admitted"]
        facts["shed"] = status["shed"]
    try:
        facts.update(_storage_facts(engine))
    except AttributeError as exc:  # reaches past the kept surface
        print(f"bench/harness: storage gauges unavailable ({exc})", file=sys.stderr)
        facts.update(evictions=None, resident_mb=None, spilled_mb=None)
    return facts


def _storage_facts(engine: Any) -> dict[str, float]:
    """Residency and spill gauges off the engine's stripe stores."""
    stores = [table.store for table in engine.storage_manager.tables()]
    mib = 1024.0 * 1024.0
    return {
        "evictions": sum(s.tracker.evictions for s in stores),
        "resident_mb": sum(s.tracker.resident_bytes for s in stores) / mib,
        "spilled_mb": sum(s.spilled_bytes() for s in stores) / mib,
    }


def _digest(
    engine: Any, inputs: Inputs, answers: dict[str, list[Any]], out: PassResult
) -> None:
    canon = _Canon()
    total = hashlib.sha256()
    for client in sorted(inputs.clients):
        digests = [canon.answer(a) for a in answers[client]]
        out.op_digests[client] = digests
        total.update(canon.encode([client, digests]))
    for table in sorted(inputs.tables):
        total.update(canon.encode(table))
        total.update(canon.rows([row.values for row in engine.table(table).rows]))
    total.update(canon.encode(out.facts["work_units"]))
    out.digest = total.hexdigest()
