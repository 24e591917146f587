"""Runtime race witness: seeded-bug self-tests, lifecycle, parity.

The seeded fixture (``tests/fixtures/seeded_race.py``) is loaded at
*collection* time under the module name ``seeded_race`` — before the
session-scoped witness fixture (``conftest.py``) activates under
``REPRO_TEST_DIAGNOSTICS=witness`` — so its classes are registered, and
therefore instrumented, in both plain and witness-mode runs.  Its name
deliberately evades the harness-frame exemption: the violations seeded
there must *fire*, proving the witness is not a no-op.

Every test that provokes a violation removes it from the global witness
afterwards, so the session-level "no violations" gate in ``conftest.py``
stays meaningful.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import threading
from pathlib import Path

import pytest

from repro import Daisy, DaisyConfig
from repro._ownership import OWNERSHIP_REGISTRY
from repro.datasets import hospital
from repro.diagnostics import RaceWitness, global_witness

_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "seeded_race.py"
_spec = importlib.util.spec_from_file_location("seeded_race", _FIXTURE)
assert _spec is not None and _spec.loader is not None
seeded_race = importlib.util.module_from_spec(_spec)
sys.modules["seeded_race"] = seeded_race
_spec.loader.exec_module(seeded_race)


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


class TestSeededBugs:
    """The dynamic half of the two-layer seeded-bug proof (static half:
    ``tests/test_daisylint_ownership.py``)."""

    def test_fixture_classes_are_registered(self):
        for cls in (
            seeded_race.SeededCursor,
            seeded_race.SeededFrozen,
            seeded_race.SeededScratch,
        ):
            assert cls in OWNERSHIP_REGISTRY

    def test_seam_violation_fires_on_rogue_write(self):
        with _Quarantine() as q:
            cursor = seeded_race.SeededCursor()
            cursor.advance()  # inside the declared seam: no violation
            seeded_race.rogue_write(cursor)
        assert q.kinds() == ["seam-violation"]
        violation = q.taken[0]
        assert "SeededCursor.position" in violation.reason
        assert violation.event.site.endswith("seeded_race.rogue_write")

    def test_immutable_write_fires_on_corrupt(self):
        with _Quarantine() as q:
            frozen = seeded_race.SeededFrozen(7)
            seeded_race.corrupt(frozen)
        assert q.kinds() == ["immutable-write"]
        assert "SeededFrozen.value" in q.taken[0].reason

    def test_cross_thread_write_fires_on_shared_scratch(self):
        with _Quarantine() as q:
            scratch = seeded_race.SeededScratch()
            seeded_race.touch(scratch)  # main thread becomes the owner
            worker = threading.Thread(
                target=seeded_race.touch, args=(scratch,), name="intruder"
            )
            worker.start()
            worker.join()
        assert q.kinds() == ["cross-thread-write"]
        assert "intruder" in q.taken[0].reason

    def test_single_thread_scratch_is_clean(self):
        with _Quarantine() as q:
            scratch = seeded_race.SeededScratch()
            for _ in range(5):
                seeded_race.touch(scratch)
        assert q.kinds() == []


class TestHarnessExemption:
    def test_direct_write_from_test_frame_is_recorded_not_flagged(self):
        with _Quarantine() as q:
            witness = q.witness
            before_events = len(witness.events)
            cursor = seeded_race.SeededCursor()
            # This module's leaf name matches ``test_*``: the write is
            # harness-frame and must not escalate.
            cursor.position = 123
            recorded = witness.events[before_events:]
        assert q.kinds() == []
        assert any(
            e.attr == "position" and e.phase == "post-init" for e in recorded
        )


class TestInstrumentationLifecycle:
    def test_activate_wraps_and_deactivate_restores(self):
        cls = seeded_race.SeededCursor
        before_set = cls.__dict__.get("__setattr__")
        local = RaceWitness()
        local.activate()
        try:
            assert cls.__dict__.get("__setattr__") is not before_set
        finally:
            local.deactivate()
        assert cls.__dict__.get("__setattr__") is before_set

    def test_activation_is_reference_counted(self):
        local = RaceWitness()
        local.activate()
        local.activate()
        local.deactivate()
        assert local.active
        local.deactivate()
        assert not local.active

    def test_construction_writes_are_init_phase(self):
        with _Quarantine() as q:
            witness = q.witness
            before = len(witness.events)
            seeded_race.SeededFrozen(1)
            phases = [
                e.phase for e in witness.events[before:]
                if e.cls == "SeededFrozen"
            ]
        assert phases == ["init"]
        assert q.kinds() == []

    def test_report_written_on_final_deactivate(self, tmp_path, monkeypatch):
        report_path = tmp_path / "witness.json"
        monkeypatch.setenv("REPRO_WITNESS_REPORT", str(report_path))
        local = RaceWitness()
        local.activate()
        seeded_race.rogue_write(seeded_race.SeededCursor())
        local.deactivate()
        report = json.loads(report_path.read_text())
        assert report["events"] >= 2
        assert "SeededCursor" in report["writes_per_class"]
        assert any(
            v["kind"] == "seam-violation" for v in report["violations"]
        )
        # The global witness (if the suite runs in witness mode) saw the
        # same rogue write: confiscate it so the session gate stays clean.
        g = global_witness()
        g.violations[:] = [
            v for v in g.violations
            if not v.event.site.endswith("seeded_race.rogue_write")
        ]


class TestConfigPlumbing:
    def test_default_is_none(self):
        assert DaisyConfig().diagnostics == "none"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="diagnostics"):
            DaisyConfig(diagnostics="telemetry")

    def test_daisy_kwarg_activates_and_close_deactivates(self):
        witness = global_witness()
        before = witness._activations
        daisy = Daisy(use_cost_model=False, diagnostics="witness")
        assert witness._activations == before + 1
        daisy.close()
        assert witness._activations == before


def _workload(**config_kwargs):
    daisy = Daisy(
        config=DaisyConfig(use_cost_model=False, **config_kwargs)
    )
    try:
        fresh = hospital.generate_instance(num_rows=120, seed=23)
        daisy.register_table("hospital", fresh.dirty)
        for fd in fresh.rules:
            daisy.add_rule("hospital", fd)
        with daisy.connect() as session:
            rows = [
                session.execute(q).relation.to_plain_rows()
                for q in (
                    "SELECT zip FROM hospital WHERE city = 'City001'",
                    "SELECT city FROM hospital WHERE zip = 10003",
                    "SELECT phone FROM hospital WHERE zip >= 10000 AND zip < 10004",
                )
            ]
        return {
            "rows": rows,
            "relation": [
                (row.tid, tuple(repr(c) for c in row.values))
                for row in daisy.table("hospital").rows
            ],
            "work": daisy.work_counter("hospital").as_dict(),
        }
    finally:
        daisy.close()


class TestWitnessedParity:
    """diagnostics="witness" must be observation only: byte-identical
    results, zero violations from real engine code."""

    def test_serial_witnessed_run_is_byte_identical(self):
        witness = global_witness()
        before = len(witness.violations)
        plain = _workload()
        witnessed = _workload(diagnostics="witness")
        assert witnessed == plain
        assert witness.violations[before:] == []
