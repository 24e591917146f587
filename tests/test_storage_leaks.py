"""Storage handle hygiene: nothing survives a close.

The lifecycle contract: no storage OS handle outlives an operation (stripe
reads are transient ``open``+``mmap`` pairs closed before ``load_column``
returns), and ``Daisy.close()`` deletes the spill root, leaving no temp
files behind.  A closed engine's tables keep working — the columns
are materialized back to RAM at detach — and a later session re-spills
them from scratch.

The ``fd_leak_check`` fixture asserts process-wide: no new open file
descriptors and no surviving ``daisy-storage-*`` temp directories after
each test in this module.
"""

from __future__ import annotations

import gc
import os
import tempfile
from pathlib import Path

import pytest

from repro import Daisy
from repro.datasets import hospital


def _open_fds() -> set[int]:
    return {int(fd) for fd in os.listdir("/proc/self/fd")}


def _spill_roots() -> set[str]:
    tmp = Path(tempfile.gettempdir())
    return {p.name for p in tmp.glob("daisy-storage-*")}


@pytest.fixture
def fd_leak_check():
    """Fail the test if it leaks fds or spill directories."""
    gc.collect()
    fds_before = _open_fds()
    roots_before = _spill_roots()
    yield
    gc.collect()
    leaked_fds = _open_fds() - fds_before
    leaked_roots = _spill_roots() - roots_before
    assert not leaked_fds, f"leaked file descriptors: {sorted(leaked_fds)}"
    assert not leaked_roots, f"leaked spill directories: {sorted(leaked_roots)}"


def _spilled_daisy(storage: str) -> Daisy:
    instance = hospital.generate_instance(num_rows=200, seed=11)
    daisy = Daisy(use_cost_model=False, storage=storage, memory_budget_mb=1)
    daisy.register_table("hospital", instance.dirty)
    for fd in instance.rules:
        daisy.add_rule("hospital", fd)
    return daisy


def test_session_close_releases_every_handle(fd_leak_check):
    daisy = _spilled_daisy("mmap")
    try:
        with daisy.connect() as session:
            session.execute("SELECT city FROM hospital WHERE zip = 10003")
            session.execute("SELECT zip FROM hospital WHERE city = 'City001'")
        assert daisy.storage_manager.open_handle_count() == 0
    finally:
        daisy.close()


def test_engine_close_deletes_spill_root(fd_leak_check):
    daisy = _spilled_daisy("mmap")
    with daisy.connect() as session:
        session.execute("SELECT city FROM hospital WHERE zip = 10003")
    assert daisy.storage_manager.spill_root_exists()
    daisy.close()
    assert not daisy.storage_manager.spill_root_exists()
    assert daisy.storage_manager.open_handle_count() == 0


def test_closed_engine_tables_still_work(fd_leak_check):
    """Detach materializes columns back to RAM: queries keep answering."""
    daisy = _spilled_daisy("mmap")
    with daisy.connect() as session:
        before = session.execute(
            "SELECT city FROM hospital WHERE zip = 10003"
        ).relation.to_plain_rows()
    daisy.close()
    with daisy.connect() as session:
        after = session.execute(
            "SELECT city FROM hospital WHERE zip = 10003"
        ).relation.to_plain_rows()
    assert after == before
    daisy.close()


def test_repairs_survive_engine_close(fd_leak_check):
    """Spilled repaired state equals the state after detach + close."""
    daisy = _spilled_daisy("mmap")
    with daisy.connect() as session:
        session.execute("SELECT city FROM hospital WHERE zip = 10003")
    fingerprint = [repr(row) for row in daisy.table("hospital").rows]
    daisy.close()
    assert [repr(row) for row in daisy.table("hospital").rows] == fingerprint


def test_double_close_is_idempotent(fd_leak_check):
    daisy = _spilled_daisy("mmap")
    with daisy.connect() as session:
        session.execute("SELECT city FROM hospital WHERE zip = 10003")
    daisy.close()
    daisy.close()
    assert daisy.storage_manager.open_handle_count() == 0


def test_memory_mode_creates_no_spill_state(fd_leak_check):
    daisy = _spilled_daisy("memory")
    with daisy.connect() as session:
        session.execute("SELECT city FROM hospital WHERE zip = 10003")
    assert not daisy.storage_manager.spill_root_exists()
    assert daisy.storage_manager.tables() == []
    daisy.close()


def test_stripe_reads_leave_no_open_fds(fd_leak_check, tmp_path):
    """load_column's open+mmap pairs are closed before it returns."""
    from repro.storage.stripestore import StripeStore

    store = StripeStore(tmp_path, memory_budget_mb=0, chunk_rows=8)
    try:
        store.put_column("a", list(range(100)))
        for _ in range(5):
            store.load_column("a", store.generation("a"))
        assert store.open_fd_count() == 0
    finally:
        store.close()
