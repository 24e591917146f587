"""Service tier: concurrent-equals-serial parity, admission, isolation.

The core invariant under test: every response a concurrent
:class:`~repro.service.DaisyService` run produces is **byte-identical**
(:meth:`ServiceResponse.encode`) to the one the serial one-session-at-a-
time oracle (:func:`~repro.service.replay_serial`) produces replaying the
same admission log on a fresh identical engine.  Final repaired relations
and per-table work-unit totals must match too.

The seeded-bug tests at the bottom are the isolation counterpart of
``tests/test_witness.py``: ``tests/fixtures/seeded_isolation.py`` plants
torn external updates (marked and unmarked) that must be convicted by
*both* layers — the runtime :class:`~repro.diagnostics.RaceWitness`
(out-of-seam epoch/marker writes) and the new snapshot primitives
(:class:`~repro.service.SnapshotViolation`).  The static half of that
proof lives in ``tests/test_daisylint_ownership.py``.
"""

from __future__ import annotations

import asyncio
import importlib.util
import json
import random
import sys
import threading
from concurrent.futures import Future
from pathlib import Path

import pytest

from repro import Daisy
from repro.core.costmodel import DECISION_ADMISSION
from repro.diagnostics import global_witness
from repro.relation import ColumnType, Relation
from repro.service import (
    DaisyService,
    EpochCasError,
    ServicePolicy,
    ServiceRequest,
    ServiceResponse,
    ServiceServer,
    SnapshotViolation,
    TableTurnstile,
    replay_serial,
)
from repro.service.requests import canonical_encode

_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "seeded_isolation.py"
_spec = importlib.util.spec_from_file_location("seeded_isolation", _FIXTURE)
assert _spec is not None and _spec.loader is not None
seeded_isolation = importlib.util.module_from_spec(_spec)
sys.modules["seeded_isolation"] = seeded_isolation
_spec.loader.exec_module(seeded_isolation)

TABLES = ("cities", "orders")
ZIPS = (10001, 10002, 10003, 10004)


class _Quarantine:
    """Activate the global witness; confiscate violations added inside."""

    def __init__(self) -> None:
        self.witness = global_witness()
        self.taken: list = []

    def __enter__(self) -> "_Quarantine":
        self._before = len(self.witness.violations)
        self.witness.activate()
        return self

    def __exit__(self, *exc) -> None:
        self.taken = self.witness.violations[self._before:]
        del self.witness.violations[self._before:]
        self.witness.deactivate()

    def kinds(self) -> list[str]:
        return [v.kind for v in self.taken]


# ---------------------------------------------------------------------------
# Engine + request-log fixtures
# ---------------------------------------------------------------------------


def _cities_relation() -> Relation:
    rows = []
    for i in range(12):
        zip_code = ZIPS[i % 4]
        # Every zip group carries one conflicting city: dirty FD input.
        city = f"metro{i % 4}" if i % 3 else "smudge"
        rows.append((zip_code, city))
    return Relation.from_rows(
        [("zip", ColumnType.INT), ("city", ColumnType.STRING)],
        rows,
        name="cities",
    )


def _orders_relation() -> Relation:
    rows = []
    for i in range(10):
        k = i % 3
        v = f"item{k}" if i % 4 else "typo"
        rows.append((k, v))
    return Relation.from_rows(
        [("k", ColumnType.INT), ("v", ColumnType.STRING)],
        rows,
        name="orders",
    )


def make_engine() -> Daisy:
    engine = Daisy(use_cost_model=False)
    engine.register_table("cities", _cities_relation())
    engine.add_rule("cities", "zip -> city", name="fd_cities")
    engine.register_table("orders", _orders_relation())
    engine.add_rule("orders", "k -> v", name="fd_orders")
    return engine


_CITIES_READS = (
    "SELECT zip, city FROM cities WHERE zip = 10001",
    "SELECT city FROM cities WHERE zip >= 10003",
    "SELECT zip, city FROM cities WHERE zip <= 10002",
    "SELECT zip FROM cities WHERE city = 'metro1'",
)
_ORDERS_READS = (
    "SELECT k, v FROM orders WHERE k = 1",
    "SELECT v FROM orders WHERE k >= 1",
    "SELECT k FROM orders WHERE v = 'item0'",
)
_PREPARED = (
    ("SELECT city FROM cities WHERE zip = ?", ZIPS),
    ("SELECT v FROM orders WHERE k = ?", (0, 1, 2)),
)


def _random_request(rng: random.Random, client: str, seq: int) -> ServiceRequest:
    roll = rng.random()
    if roll < 0.40:
        sql = rng.choice(_CITIES_READS + _ORDERS_READS)
        return ServiceRequest(client=client, seq=seq, kind="execute", sql=sql)
    if roll < 0.60:
        sql, pool = _PREPARED[rng.randrange(len(_PREPARED))]
        return ServiceRequest(
            client=client, seq=seq, kind="prepared", sql=sql,
            params=(rng.choice(pool),),
        )
    if roll < 0.75:
        queries = tuple(
            rng.sample(_CITIES_READS + _ORDERS_READS, rng.randrange(2, 4))
        )
        return ServiceRequest(client=client, seq=seq, kind="batch", queries=queries)
    if roll < 0.90:
        if rng.random() < 0.5:
            cells = tuple(
                (rng.randrange(12), "city", f"metro{rng.randrange(4)}")
                for _ in range(rng.randrange(1, 4))
            )
            return ServiceRequest(
                client=client, seq=seq, kind="update_table",
                table="cities", cells=cells,
            )
        cells = tuple(
            (rng.randrange(10), "v", f"item{rng.randrange(3)}")
            for _ in range(rng.randrange(1, 3))
        )
        return ServiceRequest(
            client=client, seq=seq, kind="update_table",
            table="orders", cells=cells,
        )
    if rng.random() < 0.5:
        tid = rng.randrange(12)
        row = (rng.choice(ZIPS), f"metro{rng.randrange(4)}")
        return ServiceRequest(
            client=client, seq=seq, kind="update_rows",
            table="cities", rows=((tid, row),),
        )
    tid = rng.randrange(10)
    k = rng.randrange(3)
    return ServiceRequest(
        client=client, seq=seq, kind="update_rows",
        table="orders", rows=((tid, (k, f"item{k}")),),
    )


def generate_log(
    seed: int, clients: int = 3, per_client: int = 6
) -> list[ServiceRequest]:
    """A seeded mixed request log: reads, prepared, batches, updates,
    interleaved across ``clients`` simulated clients with per-client
    monotone ``seq`` numbers."""
    rng = random.Random(seed)
    order = [f"c{i}" for i in range(clients)] * per_client
    rng.shuffle(order)
    seqs = {f"c{i}": 0 for i in range(clients)}
    log = []
    for client in order:
        log.append(_random_request(rng, client, seqs[client]))
        seqs[client] += 1
    return log


def run_concurrent(
    log: list[ServiceRequest],
    policy: ServicePolicy | None = None,
) -> tuple[Daisy, DaisyService, list[ServiceResponse]]:
    engine = make_engine()
    service = DaisyService(engine, policy=policy)
    with service:
        futures = [service.submit(request) for request in log]
        responses = [future.result(timeout=120) for future in futures]
    return engine, service, responses


def fingerprint(engine: Daisy, table: str) -> list[tuple[int, tuple[str, ...]]]:
    """The repaired relation, cell by cell (reprs catch PValue candidates)."""
    return [
        (row.tid, tuple(repr(value) for value in row.values))
        for row in engine.table(table).rows
    ]


def assert_serial_parity(
    engine: Daisy,
    service: DaisyService,
    responses: list[ServiceResponse],
) -> None:
    """The full byte-parity check against the serial oracle."""
    oracle_engine = make_engine()
    oracle = replay_serial(oracle_engine, service.admission_log)
    by_admitted = {r.admitted: r for r in responses if r.admitted >= 0}
    assert len(by_admitted) == len(oracle)
    for want in oracle:
        got = by_admitted[want.admitted]
        assert got.encode() == want.encode(), (
            f"response diverged at admission index {want.admitted}: "
            f"{got.to_wire()} != {want.to_wire()}"
        )
    for table in TABLES:
        assert fingerprint(engine, table) == fingerprint(oracle_engine, table)
        assert (
            engine.work_counter(table).total()
            == oracle_engine.work_counter(table).total()
        )


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


class TestWireFormat:
    def test_canonical_encode_is_byte_stable(self):
        assert canonical_encode({"b": 1, "a": [1, 2]}) == b'{"a":[1,2],"b":1}'

    def test_request_round_trips_through_wire(self):
        request = ServiceRequest(
            client="c0", seq=3, kind="update_table", table="cities",
            cells=((2, "city", "metro1"),),
        )
        assert ServiceRequest.from_wire(request.to_wire()) == request

    def test_request_validation(self):
        with pytest.raises(ValueError, match="unknown request kind"):
            ServiceRequest(client="c", seq=0, kind="drop")
        with pytest.raises(ValueError, match="need a table"):
            ServiceRequest(client="c", seq=0, kind="update_table")
        with pytest.raises(ValueError, match="need sql"):
            ServiceRequest(client="c", seq=0, kind="execute")
        with pytest.raises(ValueError, match="need queries"):
            ServiceRequest(client="c", seq=0, kind="batch")

    def test_touched_tables_is_the_lock_footprint(self):
        read = ServiceRequest(
            client="c", seq=0, kind="execute", sql=_CITIES_READS[0]
        )
        assert read.touched_tables() == ("cities",)
        batch = ServiceRequest(
            client="c", seq=0, kind="batch",
            queries=(_ORDERS_READS[0], _CITIES_READS[0]),
        )
        assert batch.touched_tables() == ("cities", "orders")
        write = ServiceRequest(
            client="c", seq=0, kind="update_table", table="orders",
            cells=((0, "v", "item0"),),
        )
        assert write.touched_tables() == ("orders",)


# ---------------------------------------------------------------------------
# Turnstiles
# ---------------------------------------------------------------------------


class TestTurnstile:
    def test_tickets_run_in_issue_order(self):
        turnstile = TableTurnstile()
        first, second = turnstile.issue(), turnstile.issue()
        order: list[str] = []

        def late() -> None:
            turnstile.wait_for(second)
            order.append("second")
            turnstile.advance()

        worker = threading.Thread(target=late)
        worker.start()
        turnstile.wait_for(first)
        order.append("first")
        turnstile.advance()
        worker.join(timeout=30)
        assert order == ["first", "second"]
        assert turnstile.serving == 2


# ---------------------------------------------------------------------------
# Snapshot pins and epoch leases through the Session API
# ---------------------------------------------------------------------------


class TestSnapshotPrimitives:
    def test_execute_pinned_matches_plain_execute(self):
        plain = make_engine()
        with plain.connect() as session:
            want = session.execute(_CITIES_READS[0]).relation.to_plain_rows()
        pinned = make_engine()
        with pinned.connect() as session:
            result, snap = session.execute_pinned(_CITIES_READS[0])
            assert snap.epochs() == {"cities": 0}
            assert result.relation.to_plain_rows() == want
        # The read's own cleaning repaired cells without moving the epoch.
        assert pinned.states["cities"].data_epoch == 0

    def test_snapshot_survives_reads_but_not_updates(self):
        engine = make_engine()
        with engine.connect() as session:
            snap = session.snapshot("cities")
            session.execute(_CITIES_READS[1])
            snap.verify()  # cleaning repairs are epoch-neutral
            session.update_table("cities", {(0, "city"): "metro0"})
            with pytest.raises(SnapshotViolation, match="pinned epoch 0"):
                snap.verify()

    def test_epoch_lease_cas_conflict(self):
        engine = make_engine()
        with engine.connect() as session:
            lease_a = session.epoch_lease("cities")
            lease_b = session.epoch_lease("cities")
            report = session.update_table(
                "cities", {(0, "city"): "metro3"}, lease=lease_a
            )
            assert report.epoch == 1
            with pytest.raises(EpochCasError, match="leased epoch 0"):
                lease_b.check()
            with pytest.raises(EpochCasError):
                session.update_table(
                    "cities", {(1, "city"): "metro2"}, lease=lease_b
                )
            # The conflicting write never landed.
            assert engine.states["cities"].data_epoch == 1


# ---------------------------------------------------------------------------
# Concurrent-equals-serial parity
# ---------------------------------------------------------------------------

class TestConcurrentParity:
    def test_concurrent_matches_serial_oracle(self):
        log = generate_log(seed=11, clients=3, per_client=6)
        engine, service, responses = run_concurrent(log)
        # Budget 0: everything admits, in submission order.
        assert [r.admitted for r in responses] == list(range(len(log)))
        assert all(r.status in ("ok", "error") for r in responses)
        assert_serial_parity(engine, service, responses)

    def test_distinct_seeds_distinct_logs_all_parity(self):
        for seed in (1, 2):
            log = generate_log(seed=seed, clients=4, per_client=4)
            engine, service, responses = run_concurrent(log)
            assert_serial_parity(engine, service, responses)

    def test_per_table_mode_keeps_one_turnstile_per_table(self):
        log = generate_log(seed=11, clients=3, per_client=6)
        engine, service, responses = run_concurrent(log)
        assert set(service._turnstiles) <= set(TABLES)
        assert_serial_parity(engine, service, responses)

    def test_per_client_seq_order_is_a_subsequence_of_admission(self):
        log = generate_log(seed=7, clients=3, per_client=5)
        _engine, service, responses = run_concurrent(log)
        per_client: dict[str, list[int]] = {}
        for response in sorted(responses, key=lambda r: r.admitted):
            per_client.setdefault(response.client, []).append(response.seq)
        for client, seqs in per_client.items():
            assert seqs == sorted(seqs), f"{client} ran out of order: {seqs}"

    def test_witness_clean_concurrent_run(self):
        """A concurrent mixed run under the instrumented witness: zero
        ownership violations (the smoke-scale version of the soak gate)."""
        log = generate_log(seed=3, clients=2, per_client=5)
        with _Quarantine() as quarantine:
            engine, service, responses = run_concurrent(log)
        assert quarantine.taken == []
        assert_serial_parity(engine, service, responses)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


def _cities_read(client: str = "c0", seq: int = 0) -> ServiceRequest:
    return ServiceRequest(
        client=client, seq=seq, kind="execute", sql=_CITIES_READS[0]
    )


def _shutdown_workers(service: DaisyService) -> None:
    for client in sorted(service._workers):
        service._workers[client].enqueue(None)
    for client in sorted(service._workers):
        service._workers[client].join()


class TestAdmissionControl:
    """Deterministic scheduler-level tests: the scheduler functions are
    driven directly on the test thread (no scheduler thread), so every
    admission decision sequence is exactly reproducible."""

    def test_over_budget_request_is_shed(self):
        engine = make_engine()
        service = DaisyService(engine, policy=ServicePolicy(budget_units=5.0))
        request = _cities_read()
        future: Future = Future()
        service._enqueue(request, future)
        service._drain()
        response = future.result(timeout=5)
        assert response.status == "shed"
        assert response.admitted == -1
        assert "shed by admission control" in response.payload["error"]
        assert service.shed_log == [request]
        assert service.admission_log == []
        decisions = [
            d for d in service.planner.decisions if d.kind == DECISION_ADMISSION
        ]
        assert [d.choice for d in decisions] == ["shed"]
        # The cities estimate (12 rows) exceeded the whole budget.
        assert decisions[0].raw_units == 12.0
        assert decisions[0].alternatives["admit"] > 5.0

    def test_head_of_line_delays_until_capacity_frees(self):
        engine = make_engine()
        service = DaisyService(engine, policy=ServicePolicy(budget_units=15.0))
        first, second = Future(), Future()
        service._enqueue(_cities_read("c0", 0), first)
        service._enqueue(_cities_read("c1", 0), second)
        try:
            service._drain()
            # First admitted (12 <= 15); second delayed (12 + 12 > 15).
            assert first.result(timeout=60).status == "ok"
            assert not second.done()
            kind, item, _units = service._inbox.get(timeout=60)
            assert kind == "complete"
            # Feed back observed == raw so the calibration factor stays 1.
            service._complete(item, item.decision.raw_units)
            assert service.queued_units == 0.0
            service._drain()
            assert second.result(timeout=60).status == "ok"
        finally:
            _shutdown_workers(service)
        choices = [
            d.choice for d in service.planner.decisions
            if d.kind == DECISION_ADMISSION
        ]
        assert choices == ["admit", "delay", "admit"]
        assert [r.seq for r in service.admission_log] == [0, 0]

    def test_shutdown_rejects_delayed_requests_as_shed(self):
        engine = make_engine()
        service = DaisyService(engine, policy=ServicePolicy(budget_units=15.0))
        first, second = Future(), Future()
        admitted_request = _cities_read("c0", 0)
        delayed_request = _cities_read("c1", 0)
        service._enqueue(admitted_request, first)
        service._enqueue(delayed_request, second)
        try:
            service._drain()
            service._reject_pending()
        finally:
            first.result(timeout=60)
            _shutdown_workers(service)
        response = second.result(timeout=5)
        assert response.status == "shed"
        assert response.admitted == -1
        assert service.shed_log == [delayed_request]
        assert service.admission_log == [admitted_request]

    def test_zero_budget_disables_admission_control(self):
        engine = make_engine()
        service = DaisyService(engine)  # budget_units == 0.0
        futures = [Future() for _ in range(3)]
        for i, future in enumerate(futures):
            service._enqueue(_cities_read("c0", i), future)
        try:
            service._drain()
            for future in futures:
                assert future.result(timeout=60).status == "ok"
        finally:
            _shutdown_workers(service)
        assert service.shed_log == []
        assert len(service.admission_log) == 3

    def test_budgeted_concurrent_run_still_parity_on_admitted(self):
        """End to end with a real budget: some requests may shed, but the
        admitted subset must still replay byte-identically."""
        log = generate_log(seed=5, clients=3, per_client=5)
        engine, service, responses = run_concurrent(
            log, policy=ServicePolicy(budget_units=40.0)
        )
        assert len(service.admission_log) + len(service.shed_log) == len(log)
        for response in responses:
            if response.status == "shed":
                assert response.admitted == -1
        assert_serial_parity(engine, service, responses)
        decisions = [
            d for d in service.planner.decisions if d.kind == DECISION_ADMISSION
        ]
        assert decisions, "every admission decision must be a PassDecision"
        assert all(d.pass_kind == "admission" for d in decisions)


# ---------------------------------------------------------------------------
# Seeded isolation bugs: witness + snapshot primitives on the same defect
# ---------------------------------------------------------------------------


class TestSeededIsolationBugs:
    """The dynamic half of the torn-read proof (static half:
    ``tests/test_daisylint_ownership.py`` lints the same fixture)."""

    def test_marked_torn_update_rejects_pins_and_trips_witness(self):
        engine = make_engine()
        state = engine.states["cities"]
        with engine.connect() as session:
            caught: list[bool] = []

            def mid_read() -> None:
                with pytest.raises(SnapshotViolation, match="mid-flight"):
                    session.snapshot("cities")
                caught.append(True)

            with _Quarantine() as quarantine:
                seeded_isolation.torn_update(state, mid_read)
            assert caught == [True]
            # The tear finished: epoch moved, marker cleared, pins work again.
            assert state.data_epoch == 1
            assert not state.write_in_progress
            assert session.snapshot("cities").epochs() == {"cities": 1}
        # Every out-of-seam marker/epoch write is a witness seam-violation.
        assert set(quarantine.kinds()) == {"seam-violation"}
        reasons = " ".join(v.reason for v in quarantine.taken)
        assert "TableState.write_in_progress" in reasons
        assert "TableState.data_epoch" in reasons
        sites = {v.event.site for v in quarantine.taken}
        assert any(site.endswith("seeded_isolation.torn_update") for site in sites)

    def test_unmarked_torn_update_caught_by_verify(self):
        engine = make_engine()
        state = engine.states["cities"]
        with engine.connect() as session:
            snaps = []

            def mid_read() -> None:
                snaps.append(session.snapshot("cities"))

            with _Quarantine() as quarantine:
                seeded_isolation.torn_update_unmarked(state, mid_read)
            # The pin constructed fine (no marker was ever raised)...
            assert snaps[0].epochs() == {"cities": 0}
            # ...so only the post-read verify can convict the tear.
            with pytest.raises(SnapshotViolation, match="pinned epoch 0"):
                snaps[0].verify()
        assert quarantine.kinds() == ["seam-violation"]
        assert "TableState.data_epoch" in quarantine.taken[0].reason

    def test_witness_flags_torn_bump_on_seeded_class(self):
        with _Quarantine() as quarantine:
            table = seeded_isolation.SeededEpochTable()
            table.apply()  # the declared seam: no violation
            seeded_isolation.torn_bump(table)
        assert quarantine.kinds() == ["seam-violation"] * 3
        reasons = " ".join(v.reason for v in quarantine.taken)
        assert "SeededEpochTable.write_in_progress" in reasons
        assert "SeededEpochTable.data_epoch" in reasons
        assert table.data_epoch == 2


# ---------------------------------------------------------------------------
# Status surface + HTTP front end
# ---------------------------------------------------------------------------


def _exchanges(
    service: DaisyService, *requests: bytes, half_close: bool = False
) -> list[tuple[int, bytes]]:
    """Send each raw request on its own connection to one fresh in-process
    server; ``half_close`` ends each request with EOF.  Returns (status,
    payload) per request."""

    async def exchange(host: str, port: int, data: bytes) -> tuple[int, bytes]:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(data)
        if half_close:
            writer.write_eof()
        await writer.drain()
        raw = await reader.read()
        writer.close()
        head_bytes, _, payload = raw.partition(b"\r\n\r\n")
        return int(head_bytes.split(b" ", 2)[1]), payload

    async def go() -> list[tuple[int, bytes]]:
        server = ServiceServer(service)
        host, port = await server.start()
        try:
            return [await exchange(host, port, data) for data in requests]
        finally:
            await server.stop()

    return asyncio.run(go())


_STATUS = b"GET /v1/status HTTP/1.1\r\n\r\n"


def _http(
    service: DaisyService, method: str, path: str, body: bytes = b""
) -> tuple[int, bytes]:
    """One HTTP exchange against a fresh in-process server."""
    head = f"{method} {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    return _exchanges(service, head.encode() + body)[0]


class TestHttpServer:
    def test_post_request_and_get_status(self):
        engine = make_engine()
        service = DaisyService(engine)
        with service:
            request = _cities_read()
            status, payload = _http(
                service, "POST", "/v1/requests",
                json.dumps(request.to_wire()).encode(),
            )
            assert status == 200
            data = json.loads(payload)
            assert data["status"] == "ok"
            assert data["epochs"] == {"cities": 0}
            assert data["payload"]["rows"]
            assert data["payload"]["work_units"] > 0

            status, payload = _http(service, "GET", "/v1/status")
            assert status == 200
            snap = json.loads(payload)
            assert snap["budget_units"] == 0.0
            assert snap["admitted"] == 1
            assert snap["tables"]["cities"]["data_epoch"] == 0

    def test_response_bytes_equal_oracle_bytes(self):
        engine = make_engine()
        service = DaisyService(engine)
        with service:
            request = _cities_read()
            _status, payload = _http(
                service, "POST", "/v1/requests",
                json.dumps(request.to_wire()).encode(),
            )
            log = list(service.admission_log)
        want = replay_serial(make_engine(), log)[0]
        assert payload == want.encode()

    def test_bad_json_is_400(self):
        bodies = [
            b"{not json",
            # OverflowError converting the infinite seq to an int.
            b'{"client": "c", "seq": 1e999, "kind": "query", "sql": "SELECT 1"}',
            # RecursionError from the JSON decoder.
            b"[" * 100_000 + b"]" * 100_000,
        ]
        engine = make_engine()
        service = DaisyService(engine)
        with service:
            for body in bodies:
                status, payload = _http(service, "POST", "/v1/requests", body)
                assert status == 400, body[:40]
                assert b"error" in payload
            status, _payload = _http(service, "GET", "/v1/status")
        assert status == 200

    def test_unknown_route_is_404(self):
        engine = make_engine()
        service = DaisyService(engine)
        with service:
            status, _payload = _http(service, "GET", "/v1/nothing")
        assert status == 404

    @pytest.mark.parametrize("content_length", ["abc", "-5", ""])
    def test_bad_content_length_is_400_and_server_keeps_serving(self, content_length):
        # Regression: an unguarded int() answered 500 (or read the wrong
        # number of bytes) for a Content-Length that is not a count.
        bad = f"POST /v1/requests HTTP/1.1\r\nContent-Length: {content_length}\r\n\r\n"
        service = DaisyService(make_engine())
        with service:
            (status, payload), (next_status, _) = _exchanges(
                service, bad.encode(), _STATUS
            )
        assert status == 400
        assert "Content-Length" in json.loads(payload)["error"]
        assert next_status == 200

    @pytest.mark.parametrize("body", [b"0123456789", b""], ids=["short", "headers-only"])
    def test_truncated_body_is_400_and_server_keeps_serving(self, body):
        # Regression: readexactly's IncompleteReadError answered 500 when
        # the client half-closed before sending the announced body.
        head = b"POST /v1/requests HTTP/1.1\r\nContent-Length: 50\r\n\r\n"
        service = DaisyService(make_engine())
        with service:
            (status, payload), (next_status, _) = _exchanges(
                service, head + body, _STATUS, half_close=True
            )
        assert status == 400
        assert json.loads(payload)["error"] == (
            f"request body ended after {len(body)} of 50 bytes"
        )
        assert next_status == 200

    @pytest.mark.parametrize(
        "request_bytes, want_status, want_error",
        [
            (
                b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
                400, "request line longer than 65536 bytes",
            ),
            (
                b"GET /v1/status HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
                431, "header line longer than 65536 bytes",
            ),
        ],
        ids=["request-line", "header-line"],
    )
    def test_over_long_line_is_4xx_and_server_keeps_serving(
        self, request_bytes, want_status, want_error
    ):
        # Regression: the stream's line limit surfaced as a ValueError that
        # answered 500.
        service = DaisyService(make_engine())
        with service:
            (status, payload), (next_status, _) = _exchanges(
                service, request_bytes, _STATUS
            )
        assert status == want_status
        assert json.loads(payload) == {"error": want_error}
        assert next_status == 200

    def test_shed_request_is_429(self):
        engine = make_engine()
        service = DaisyService(engine, policy=ServicePolicy(budget_units=5.0))
        with service:
            status, payload = _http(
                service, "POST", "/v1/requests",
                json.dumps(_cities_read().to_wire()).encode(),
            )
        assert status == 429
        assert json.loads(payload)["status"] == "shed"


class TestStatusSurface:
    def test_status_tracks_epochs_and_admission(self):
        log = generate_log(seed=11, clients=3, per_client=6)
        engine, service, responses = run_concurrent(log)
        status = service.status()
        assert status["admitted"] == len(log)
        assert status["shed"] == 0
        assert sorted(status["tables"]) == sorted(TABLES)
        for table in TABLES:
            assert (
                status["tables"][table]["data_epoch"]
                == engine.states[table].data_epoch
            )
        assert status["clients"] == sorted({r.client for r in log})

    def test_policy_and_status_carry_no_scheduling_mode(self):
        # Per-table turnstiles are the only schedule.
        with pytest.raises(TypeError, match="mode"):
            ServicePolicy(mode="per-table")
        service = DaisyService(make_engine())
        assert "mode" not in service.status()
