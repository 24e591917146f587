"""Benchmark-suite configuration.

Scales are laptop-sized (seconds per experiment, not cluster minutes).
Run every module with ``PYTHONPATH=src python -m pytest benchmarks/bench_*.py
-q`` (``REPRO_BENCH_SCALE=0.1`` shrinks the sizes) — each benchmark prints
the paper-style series to stdout (use ``-s`` to see them live; they also
appear in the captured output section).
"""

import sys
from pathlib import Path

# Make the sibling _harness module importable regardless of rootdir.
sys.path.insert(0, str(Path(__file__).parent))
