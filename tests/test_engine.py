"""Tests for the engine's work accounting."""

from repro.engine import WorkCounter


class TestWorkCounter:
    def test_charges_accumulate(self):
        wc = WorkCounter()
        wc.charge_scan(10)
        wc.charge_comparisons(5)
        wc.charge_update(2)
        assert wc.total() == 17

    def test_snapshot_and_delta(self):
        wc = WorkCounter()
        wc.charge_scan(10)
        snap = wc.snapshot()
        wc.charge_scan(5)
        delta = wc.delta_since(snap)
        assert delta.tuples_scanned == 5

    def test_merge(self):
        a, b = WorkCounter(), WorkCounter()
        a.charge_scan(1)
        b.charge_comparisons(2)
        a.merge(b)
        assert a.total() == 3

    def test_reset(self):
        wc = WorkCounter()
        wc.charge_scan(10)
        wc.reset()
        assert wc.total() == 0

    def test_as_dict(self):
        wc = WorkCounter()
        wc.charge_partition(checked=3, pruned=2)
        d = wc.as_dict()
        assert d["partitions_checked"] == 3 and d["partitions_pruned"] == 2
