"""Engine-wide work accounting (the machine-independent cost counters)."""

from repro.engine.stats import GLOBAL_COUNTER, WorkCounter

__all__ = [
    "WorkCounter",
    "GLOBAL_COUNTER",
]
