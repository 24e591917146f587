"""Property-based snapshot-isolation tests for the service tier.

Hypothesis drives randomized interleavings of reads and external updates
from two clients through a concurrent :class:`~repro.service.DaisyService`
and checks, for every generated schedule:

* **byte parity** — each response equals the serial oracle's replay of the
  admission log, byte for byte;
* **snapshot isolation** — every read's pinned epoch is *exactly* the
  table's epoch at its admission point (the number of update batches that
  applied cells before it in admission order), never a torn in-between
  state;
* **epoch monotonicity** — observed epochs never decrease along the
  admission order.

The properties run twice: on the in-memory engine and on a spill-to-disk
engine (``memory_budget_mb=1`` with a forced ``mmap`` stripe store), so a
pinned read that resolves columns against on-disk stripes is held to the
same isolation contract.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st
import pytest

from repro import Daisy, DaisyConfig
from repro.relation import ColumnType, Relation
from repro.service import DaisyService, ServiceRequest, replay_serial
from repro.service.requests import WRITE_KINDS

TABLE = "t"
NUM_ROWS = 6

_READS = (
    "SELECT k, v FROM t WHERE k = 1",
    "SELECT v FROM t WHERE k >= 0",
    "SELECT k FROM t WHERE v = 'x'",
)


def make_engine(storage: str) -> Daisy:
    config = DaisyConfig(use_cost_model=False, storage=storage)
    if storage != "memory":
        config = DaisyConfig(
            use_cost_model=False, storage=storage, memory_budget_mb=1
        )
    engine = Daisy(config=config)
    rows = [(i % 3, "x" if i % 2 else "y") for i in range(NUM_ROWS)]
    engine.register_table(
        TABLE,
        Relation.from_rows(
            [("k", ColumnType.INT), ("v", ColumnType.STRING)], rows, name=TABLE
        ),
    )
    engine.add_rule(TABLE, "k -> v", name="fd")
    return engine


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.sampled_from(_READS)),
        st.tuples(
            st.just("update"),
            st.integers(min_value=0, max_value=NUM_ROWS - 1),
            st.sampled_from(("x", "y", "z")),
        ),
    ),
    min_size=2,
    max_size=8,
)


def _to_requests(ops) -> list[ServiceRequest]:
    seqs = {"c0": 0, "c1": 0}
    requests = []
    for i, op in enumerate(ops):
        client = f"c{i % 2}"
        seq = seqs[client]
        seqs[client] += 1
        if op[0] == "read":
            requests.append(
                ServiceRequest(client=client, seq=seq, kind="execute", sql=op[1])
            )
        else:
            _kind, tid, value = op
            requests.append(
                ServiceRequest(
                    client=client, seq=seq, kind="update_table",
                    table=TABLE, cells=((tid, "v", value),),
                )
            )
    return requests


def _check_schedule(storage: str, ops) -> None:
    log = _to_requests(ops)
    engine = make_engine(storage)
    service = DaisyService(engine)
    try:
        with service:
            futures = [service.submit(request) for request in log]
            responses = [future.result(timeout=120) for future in futures]
    finally:
        engine.close()

    assert all(response.status == "ok" for response in responses)

    oracle_engine = make_engine(storage)
    try:
        oracle = replay_serial(oracle_engine, service.admission_log)
    finally:
        oracle_engine.close()
    by_admitted = {r.admitted: r for r in responses}
    assert len(by_admitted) == len(oracle)
    for want in oracle:
        assert by_admitted[want.admitted].encode() == want.encode()

    # Snapshot isolation: a read pins exactly the admission-time epoch —
    # the epoch after every earlier-admitted update batch, no tears.
    current = 0
    for response in sorted(responses, key=lambda r: r.admitted):
        observed = dict(response.epochs)[TABLE]
        assert observed >= current, "epochs must be monotone in admission order"
        if response.kind in WRITE_KINDS:
            assert observed == response.payload["epoch"]
            assert observed in (current, current + 1)
            current = observed
        else:
            assert observed == current, (
                f"read at admission {response.admitted} pinned epoch "
                f"{observed}, expected the admission-time epoch {current}"
            )


class TestSnapshotIsolationProperties:
    @settings(max_examples=12, deadline=None)
    @given(ops=_OPS)
    def test_in_memory_schedules(self, ops):
        _check_schedule("memory", ops)

    @settings(max_examples=6, deadline=None)
    @given(ops=_OPS)
    def test_spilled_schedules_under_1mb_budget(self, ops):
        _check_schedule("mmap", ops)


def test_generated_requests_interleave_clients():
    ops = [("read", _READS[0]), ("update", 0, "z"), ("read", _READS[1])]
    requests = _to_requests(ops)
    assert [r.client for r in requests] == ["c0", "c1", "c0"]
    assert [r.seq for r in requests] == [0, 0, 1]
