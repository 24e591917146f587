"""The engine's wall-clock read.

Reports carry both wall-clock seconds and deterministic work units
(:class:`~repro.engine.stats.WorkCounter` tallies); :func:`clock` is the
one place the seconds come from.
"""

from __future__ import annotations

import time


def clock() -> float:
    """The engine's one wall-clock read: monotonic seconds for reporting.

    Every elapsed-seconds field in the engine (session reports, batch
    reports, baseline harnesses) is a difference of :func:`clock` values.
    Centralizing the read here keeps results time-independent by
    construction — daisylint's DL003 flags any other wall-clock access in
    ``src/`` — and gives tests a single seam to stub time through.
    """
    return time.perf_counter()
