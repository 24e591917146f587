"""Repository tooling (not shipped with the ``repro`` package).

:mod:`tools.daisylint` is the AST invariant-lint suite described in
``docs/static-analysis.md``; ``tools/profile_workload.py`` profiles one pass
of a ``bench/`` workload (``docs/benchmarks.md``).
"""
