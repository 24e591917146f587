"""NumPy kernel backend: unit parity and knob plumbing.

Every kernel in :mod:`repro.relation.kernels` must be *byte-identical* to
the pure-Python oracle it replaces — same values, same object types, same
orderings, same work-unit charges — or must decline (return ``None``) so
the caller stays on the oracle.  The tests here pin both halves of that
contract: the exactness gates (dtype inference, 2^53 bounds, NaN and bool
rejection) and the parity of the vectorized results, plus the data-scoped
``column_backend`` knob (config validation, session rejection, once-per-
table ``auto`` resolution) and a seeded end-to-end forced-backend run.

Kernel-level tests skip cleanly when NumPy is absent (the no-numpy CI job
runs this module too and must stay green on the fallback assertions).
"""

from __future__ import annotations

import math

import pytest

from repro import Daisy
from repro.api.config import DaisyConfig
from repro.constraints import DenialConstraint, FunctionalDependency, Predicate
from repro.core.state import TableState
from repro.datasets import ssb, workloads
from repro.detection import matrix_fingerprint
from repro.detection.fd_detector import detect_fd_violations
from repro.detection.thetajoin import ThetaJoinMatrix
from repro.engine.stats import WorkCounter
from repro.probabilistic.value import Candidate, PValue, ValueRange, cell_compare
from repro.relation import ColumnType, Relation
from repro.relation import kernels
from repro.relation.columnview import ColumnView
from repro.relation.kernels import (
    AUTO_MIN_ROWS,
    COLUMN_AUTO,
    COLUMN_NUMPY,
    COLUMN_PYTHON,
    HAVE_NUMPY,
    build_typed_column,
    resolve_column_backend,
    validate_column_backend,
)

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy not installed")

OPS = ("=", "!=", "<", "<=", ">", ">=")


def oracle_sorted_pairs(column, invalid=()):
    invalid = set(invalid)
    pairs = sorted(
        (v, pos)
        for pos, v in enumerate(column)
        if v is not None and pos not in invalid
    )
    return [v for v, _ in pairs], [p for _, p in pairs]


def oracle_hash_groups(column, invalid=()):
    invalid = set(invalid)
    table = {}
    for pos, v in enumerate(column):
        if v is None or pos in invalid:
            continue
        table.setdefault(v, []).append(pos)
    return table


def oracle_filter(column, op, value, invalid=()):
    invalid = set(invalid)
    return [
        pos
        for pos, cell in enumerate(column)
        if pos not in invalid and cell_compare(cell, op, value)
    ]


# -- knob validation and resolution --------------------------------------------------


class TestBackendKnob:
    def test_validate_rejects_unknown(self):
        with pytest.raises(ValueError, match="column_backend"):
            validate_column_backend("pandas")

    def test_config_validates(self):
        with pytest.raises(ValueError, match="column_backend"):
            DaisyConfig(column_backend="vector")
        assert DaisyConfig().column_backend == COLUMN_AUTO
        assert DaisyConfig(column_backend="python").column_backend == COLUMN_PYTHON

    def test_resolve_auto_threshold(self):
        assert resolve_column_backend(COLUMN_PYTHON, 10**6) == COLUMN_PYTHON
        if HAVE_NUMPY:
            assert resolve_column_backend(COLUMN_AUTO, AUTO_MIN_ROWS) == COLUMN_NUMPY
            assert (
                resolve_column_backend(COLUMN_AUTO, AUTO_MIN_ROWS - 1)
                == COLUMN_PYTHON
            )
            assert resolve_column_backend(COLUMN_NUMPY, 1) == COLUMN_NUMPY

    def test_resolve_degrades_without_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
        assert resolve_column_backend(COLUMN_NUMPY, 10**6) == COLUMN_PYTHON
        assert resolve_column_backend(COLUMN_AUTO, 10**6) == COLUMN_PYTHON

    def test_auto_resolves_once_per_table(self):
        def rel(n):
            return Relation.from_rows(
                [("k", ColumnType.INT)], [(i,) for i in range(n)], name="t"
            )

        state = TableState(relation=rel(AUTO_MIN_ROWS - 1), column_backend=COLUMN_AUTO)
        assert state.resolved_column_backend() == COLUMN_PYTHON
        # Crossing the 64-row line later must not move the table's indexes
        # onto another substrate: the first resolution is kept.
        state.replace_relation(rel(AUTO_MIN_ROWS * 2))
        assert state.column_backend == COLUMN_PYTHON
        assert state.column_view().column_backend == COLUMN_PYTHON

    def test_view_is_stamped(self):
        rel = Relation.from_rows(
            [("k", ColumnType.INT)],
            [(i,) for i in range(AUTO_MIN_ROWS)],
            name="t",
        )
        state = TableState(relation=rel, column_backend=COLUMN_AUTO)
        view = state.column_view()
        expected = COLUMN_NUMPY if HAVE_NUMPY else COLUMN_PYTHON
        assert view.column_backend == expected


# -- dtype inference gates ------------------------------------------------------------


@needs_numpy
class TestTypedColumnInference:
    def test_int_column(self):
        t = build_typed_column([3, 1, 2])
        assert t is not None and t.kind == kernels.KIND_INT and t.all_valid

    def test_nulls_and_invalid_positions_masked(self):
        t = build_typed_column([3, None, 2, 9], invalid_positions={3})
        assert t is not None
        assert t.valid.tolist() == [True, False, True, False]
        assert t.n_valid == 2 and not t.all_valid

    def test_bool_columns(self):
        # All-bool columns never vectorize; bools mixed into concrete
        # numeric columns ride the fast path (True == 1 compares the same
        # in both domains and keys are fetched from the raw column), but
        # the null-masked slow path stays conservative and declines them.
        assert build_typed_column([True, False]) is None
        assert build_typed_column([1, True, None]) is None
        mixed = build_typed_column([1, True, 2])
        assert mixed is not None and mixed.kind == kernels.KIND_INT

    def test_bool_mix_parity(self):
        column = [2, True, 1, False, 0, True, 2]
        typed = build_typed_column(column)
        values, positions, _exact = kernels.sorted_pairs(typed, column)
        o_values, o_positions = oracle_sorted_pairs(column)
        assert positions == o_positions and repr(values) == repr(o_values)
        got = kernels.hash_groups(typed, column)
        want = oracle_hash_groups(column)
        assert got == want and repr(list(got)) == repr(list(want))
        for op in OPS:
            assert kernels.mask_filter_positions(typed, op, 1) == oracle_filter(
                column, op, 1
            )

    def test_mixed_int_float_requires_exactness(self):
        assert build_typed_column([1, 2.5]) is not None
        assert build_typed_column([2**53 + 1, 2.5]) is None
        assert build_typed_column([1, float("nan")]) is None

    def test_int64_overflow_rejected(self):
        assert build_typed_column([2**63, 1]) is None
        assert build_typed_column([2**62, 1]) is not None

    def test_str_column_and_mixes(self):
        assert build_typed_column(["b", "a"]) is not None
        assert build_typed_column(["b", 1]) is None

    def test_other_types_rejected(self):
        assert build_typed_column([(1, 2), (3, 4)]) is None
        assert build_typed_column([None, None]) is None


# -- kernel vs oracle unit parity ----------------------------------------------------


@needs_numpy
class TestKernelParity:
    COLUMNS = [
        [5, 1, 5, 3, 1, 5, None, 2, 5, 1],
        [1.5, -2.0, 1.5, None, 0.0, 3.25, 1.5],
        [2, 1.5, 2, None, -7, 0.5, 2, 2**40],
        ["b", "a", "b", None, "", "ab", "b"],
        [0, -(2**62), 2**62, 0, None, 17],
    ]

    @pytest.mark.parametrize("column", COLUMNS)
    def test_sorted_pairs(self, column):
        typed = build_typed_column(column)
        values, positions, exact = kernels.sorted_pairs(typed, column)
        o_values, o_positions = oracle_sorted_pairs(column)
        assert positions == o_positions
        assert values == o_values
        assert [type(v) for v in values] == [type(v) for v in o_values]
        # numeric sorted indexes carry their exact ndarray; strings don't
        if typed.kind == kernels.KIND_STR:
            assert exact is None
        else:
            assert exact.tolist() == [float(v) for v in values] or (
                exact.tolist() == values
            )

    @pytest.mark.parametrize("column", COLUMNS)
    def test_hash_groups(self, column):
        typed = build_typed_column(column)
        got = kernels.hash_groups(typed, column)
        want = oracle_hash_groups(column)
        assert got == want
        assert list(got) == list(want)  # first-occurrence insertion order
        assert [type(k) for k in got] == [type(k) for k in want]

    @pytest.mark.parametrize("column", COLUMNS)
    def test_mask_filter(self, column):
        typed = build_typed_column(column)
        probes = [v for v in column if v is not None][:3] + [99, "zz", None]
        for op in OPS:
            for value in probes:
                got = kernels.mask_filter_positions(typed, op, value)
                if got is None:  # declined: incompatible probe type
                    assert type(value) is not type(
                        next(v for v in column if v is not None)
                    ) or value != value
                    continue
                assert got == oracle_filter(column, op, value)

    def test_mask_filter_none_matches_nothing(self):
        typed = build_typed_column([1, 2, 3])
        for op in OPS:
            assert kernels.mask_filter_positions(typed, op, None) == []

    def test_argsort_positions(self):
        cells = [5, 1.5, 5, 0, -3]
        positions = [0, 2, 5, 7, 9]
        got, exact = kernels.argsort_positions(cells, positions)
        want = [p for _, p in sorted(zip(cells, positions))]
        assert got == want
        assert exact.tolist() == sorted(cells)  # rides along for search_cuts
        assert kernels.argsort_positions(["a", "b"], [0, 1]) is None
        assert kernels.argsort_positions([1, float("nan")], [0, 1]) is None
        empty, empty_exact = kernels.argsort_positions([], [])
        assert empty == [] and empty_exact.size == 0

    def test_grouped_positions_matches_scan(self):
        col_a = [1, 2, 1, 2, 1, 3]
        col_b = [9, 9, 9, 8, 9, 9]
        order = {}
        for pos, key in enumerate(zip(col_a, col_b)):
            order.setdefault(key, []).append(pos)
        typed_a = build_typed_column(col_a)
        typed_b = build_typed_column(col_b)
        groups = kernels.grouped_positions(
            [typed_a.values, typed_b.values], kernels.arange(len(col_a))
        )
        assert groups == list(order.values())

    def test_fd_violating_groups(self):
        lhs = [1, 1, 2, 2, 3, 3, 1]
        rhs = [7, 8, 5, 5, 9, 6, 7]
        typed_l = build_typed_column(lhs)
        typed_r = build_typed_column(rhs)
        count, violating = kernels.fd_violating_groups(
            [typed_l.values], typed_r.values, kernels.arange(len(lhs))
        )
        assert count == 3
        # groups in first-occurrence order: lhs=1 (rows 0,1,6), lhs=3 (rows 4,5)
        assert violating == [[0, 1, 6], [4, 5]]

    def test_search_cuts_match_bisect(self):
        import bisect

        sorted_values = [1, 3, 3, 3, 7, 10]
        probes = [0, 3, 7, 11, 5]
        for op, fn in (
            ("<", lambda v: bisect.bisect_left(sorted_values, v)),
            ("<=", lambda v: bisect.bisect_right(sorted_values, v)),
            (">", lambda v: bisect.bisect_right(sorted_values, v)),
            (">=", lambda v: bisect.bisect_left(sorted_values, v)),
        ):
            cuts = kernels.search_cuts(sorted_values, probes, op)
            assert cuts.tolist() == [fn(v) for v in probes]
        lo, hi = kernels.search_cuts(sorted_values, probes, "=")
        assert lo.tolist() == [bisect.bisect_left(sorted_values, v) for v in probes]
        assert hi.tolist() == [bisect.bisect_right(sorted_values, v) for v in probes]

    def test_search_cuts_values_exact_carry(self):
        # A pre-validated exact array (SortedColumn.exact) skips values-side
        # re-validation and yields the same cuts.
        cells = [7, 1, 3, 10, 3, 3]
        positions = list(range(len(cells)))
        _sorted_pos, exact = kernels.argsort_positions(cells, positions)
        sorted_values = sorted(cells)
        probes = [0, 3, 8]
        plain = kernels.search_cuts(sorted_values, probes, "<")
        carried = kernels.search_cuts(
            sorted_values, probes, "<", values_exact=exact
        )
        assert plain.tolist() == carried.tolist()
        # the probe side still validates even when values are carried
        assert (
            kernels.search_cuts(sorted_values, ["zz"], "<", values_exact=exact)
            is None
        )

    def test_search_cuts_mixed_dtypes_and_declines(self):
        cuts = kernels.search_cuts([1, 2, 3], [1.5, 2.0], "<")
        assert cuts.tolist() == [1, 1]  # bisect_left: 2.0 == 2 cuts left of it
        assert kernels.search_cuts([2**53 + 1, 2**60], [1.5], "<") is None
        assert kernels.search_cuts([1, 2], ["a"], "<") is None
        assert kernels.search_cuts([1, 2], [float("nan")], "<") is None

    def test_numeric_mask_matches_null_semantics(self):
        arr = kernels.numeric_array([1.0, None, 3.0, 2.5])
        mask = kernels.numeric_mask_positions(arr, "<", -math.inf, 3.0, False)
        assert kernels.mask_to_positions(mask) == [0, 3]
        # '!=' prunes only nulls — the oracle returns True for any concrete cell.
        mask = kernels.numeric_mask_positions(arr, "!=", 0.0, 0.0, False)
        assert kernels.mask_to_positions(mask) == [0, 2, 3]
        mask = kernels.numeric_mask_positions(arr, "=", 1.0, 1.0, True)
        assert kernels.mask_to_positions(mask) == []


# -- view-level parity ----------------------------------------------------------------


def make_views(rows, schema=None):
    schema = schema or [("k", ColumnType.INT), ("v", ColumnType.INT)]
    rel = Relation.from_rows(schema, rows, name="t", validate=False)
    v_py = ColumnView.from_relation(rel)
    v_np = ColumnView.from_relation(rel)
    v_np.column_backend = COLUMN_NUMPY
    return v_py, v_np


@needs_numpy
class TestViewParity:
    ROWS = [
        (5, 10),
        (1, 20),
        (5, 10),
        (3, None),
        (None, 40),
        (5, 30),
        (2, 20),
        (1, 20),
    ]

    def test_sorted_hash_and_group_index(self):
        v_py, v_np = make_views(self.ROWS)
        for attr in ("k", "v"):
            s_py, s_np = v_py.sorted_column(attr), v_np.sorted_column(attr)
            assert s_np.values == s_py.values
            assert s_np.positions == s_py.positions
            assert v_np.hash_column(attr) == v_py.hash_column(attr)
            assert list(v_np.hash_column(attr)) == list(v_py.hash_column(attr))
        for keys in (("k",), ("k", "v")):
            assert v_np.group_index(keys) == v_py.group_index(keys)

    def test_filter_positions_and_charges(self):
        v_py, v_np = make_views(self.ROWS)
        for op in OPS:
            for value in (1, 5, 10, 20, 99, None):
                c_py, c_np = WorkCounter(), WorkCounter()
                got_py = v_py.filter_positions("k", op, value, c_py)
                got_np = v_np.filter_positions("k", op, value, c_np)
                assert got_np == got_py, (op, value)
                assert c_np.total() == c_py.total(), (op, value)

    def test_fd_detection_parity_with_charges(self):
        rows = [(i % 5, i % 11, (i * 7) % 3) for i in range(120)]
        schema = [
            ("a", ColumnType.INT),
            ("b", ColumnType.INT),
            ("c", ColumnType.INT),
        ]
        rel = Relation.from_rows(schema, rows, name="t", validate=False)
        v_py = ColumnView.from_relation(rel)
        v_np = ColumnView.from_relation(rel)
        v_np.column_backend = COLUMN_NUMPY
        fd = FunctionalDependency(("a", "c"), "b", name="phi")
        for tids in (None, list(range(0, 120, 3))):
            c_py, c_np = WorkCounter(), WorkCounter()
            r_py = detect_fd_violations(rel, fd, tids=tids, counter=c_py, view=v_py)
            r_np = detect_fd_violations(rel, fd, tids=tids, counter=c_np, view=v_np)
            assert repr(r_np.groups) == repr(r_py.groups)
            assert c_np.total() == c_py.total()

    def test_patched_view_drops_typed_cache(self):
        v_py, v_np = make_views(self.ROWS)
        assert v_np.typed_column("k") is not None
        assert v_np.typed_column("v") is not None
        patched = v_np.patched({(0, "k"): 7})
        assert patched.column_backend == COLUMN_NUMPY
        assert "k" not in patched._typed  # rebuilt lazily from patched cells
        assert "v" in patched._typed  # untouched column's mirror carried over
        s = patched.sorted_column("k")
        ref, _ = make_views([(7,) + r[1:] for r in [self.ROWS[0]]] + self.ROWS[1:])
        assert s.values == ref.sorted_column("k").values


# -- theta-join residual verification ---------------------------------------------------


def check_every_cell(rows, dc, sqrt_p, column_backend):
    """Violations and work charged by each matrix cell, in cell order."""
    relation = Relation.from_rows(
        [("a", ColumnType.FLOAT), ("b", ColumnType.FLOAT)], rows, validate=False
    )
    matrix = ThetaJoinMatrix(
        relation, dc, sqrt_p=sqrt_p, counter=WorkCounter(),
        column_backend=column_backend,
    )
    out = []
    for i in range(matrix.num_stripes()):
        for j in range(i, matrix.num_stripes()):
            before = matrix.counter.snapshot()
            pairs = matrix._check_cell(i, j)
            local = matrix.counter.delta_since(before)
            out.append(((i, j), [(v.t1, v.t2) for v in pairs], local))
    return out


def residual_dc(op):
    return DenialConstraint(
        [Predicate(0, "a", "<", 1, "a"), Predicate(0, "b", op, 1, "b")], name="dc"
    )


_PV = PValue([Candidate(3, 0.5), Candidate(ValueRange(low=6.0), 0.5)])

#: b columns crossing every routing decision of the residual kernel.
RESIDUAL_B_COLUMNS = {
    "ints": [9, 3, 7, 7, 1, 8, 2, 6, 4, 5],
    "nulls": [9, None, 7, 7, 1, None, 2, 6, 4, 5],
    "probabilistic": [9, 3, _PV, 7, 1, 8, _PV, 6, 4, 5],
    "mixed int/float": [9, 3.5, 7, 7.0, 1, 8.25, 2, 6, 4.5, 5],
    "ints above 2**53": [2**53 + 9, 2**53 + 3, 7, 2**53 + 7, 1, 8, 2, 2**53 + 6, 4, 5],
    "inexact mix declines": [2**53 + 1, 3.5, 7, 7, 1, 8, 2, 6, 4, 5],
    "strings decline": [9, "x", 7, 7, 1, 8, 2, 6, 4, 5],
}


class TestResidualVerificationParity:
    """Batched residual checks == the per-pair ``_pair_violates_rest`` loop.

    Runs without NumPy too (both backends are then the scalar path)."""

    @pytest.mark.parametrize("sqrt_p", [1, 3])  # 1 = one diagonal cell
    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("name", sorted(RESIDUAL_B_COLUMNS))
    def test_cells_and_charges_identical(self, name, op, sqrt_p):
        b = RESIDUAL_B_COLUMNS[name]
        rows = [(float(k % 7), b[k]) for k in range(len(b))]  # ties in a
        dc = residual_dc(op)
        assert check_every_cell(rows, dc, sqrt_p, COLUMN_NUMPY) == check_every_cell(
            rows, dc, sqrt_p, COLUMN_PYTHON
        )

    def test_probabilistic_and_null_driving_cells(self):
        a = [0.0, _PV, 2.0, None, 4.0, 5.0, _PV, 7.0]
        rows = [(a[k], RESIDUAL_B_COLUMNS["probabilistic"][k]) for k in range(len(a))]
        for sqrt_p in (1, 2):
            for op in (">", "!="):
                dc = residual_dc(op)
                assert check_every_cell(
                    rows, dc, sqrt_p, COLUMN_NUMPY
                ) == check_every_cell(rows, dc, sqrt_p, COLUMN_PYTHON)

    @needs_numpy
    def test_kernel_decides_clean_pairs_and_leaves_the_rest(self, monkeypatch):
        verdicts = []
        kernel = kernels.residual_window_pairs

        def spy(*args, **kwargs):
            verdicts.append(kernel(*args, **kwargs))
            return verdicts[-1]

        monkeypatch.setattr(kernels, "residual_window_pairs", spy)
        dc = residual_dc(">")

        def rows_of(name):
            b = RESIDUAL_B_COLUMNS[name]
            return [(float(k), b[k]) for k in range(len(b))]

        counter = check_every_cell(rows_of("ints"), dc, 1, COLUMN_NUMPY)[0][2]
        (verified, hit_a, _hit_b, left_a, _left_b), = verdicts
        assert verified == counter.comparisons > 0  # one unit per pair, in bulk
        assert hit_a and not left_a

        del verdicts[:]
        counter = check_every_cell(rows_of("probabilistic"), dc, 1, COLUMN_NUMPY)[0][2]
        (verified, _hit_a, _hit_b, left_a, _left_b), = verdicts
        assert left_a and verified + len(left_a) == counter.comparisons

        del verdicts[:]
        check_every_cell(rows_of("strings decline"), dc, 1, COLUMN_NUMPY)
        assert verdicts == [None]

    @needs_numpy
    def test_kernel_chunks_long_probe_lists(self, monkeypatch):
        rows = [(float(k), float((k * 7) % 23)) for k in range(40)]
        dc = residual_dc(">")
        whole = check_every_cell(rows, dc, 2, COLUMN_NUMPY)
        monkeypatch.setattr(kernels, "_RESIDUAL_CHUNK_PAIRS", 16)
        assert check_every_cell(rows, dc, 2, COLUMN_NUMPY) == whole
        assert whole == check_every_cell(rows, dc, 2, COLUMN_PYTHON)


# -- seeded end-to-end forced-backend parity ------------------------------------------


@needs_numpy
class TestEndToEndParity:
    def _run(self, column_backend):
        dirty, fd, _ = ssb.dirty_lineorder(300, 30, 15, seed=5)
        daisy = Daisy(
            config=DaisyConfig(column_backend=column_backend, use_cost_model=False)
        )
        daisy.register_table("lineorder", dirty)
        daisy.add_rule("lineorder", fd)
        queries = workloads.range_queries(
            "lineorder", "suppkey", 15, 5, projection="orderkey, suppkey"
        )
        outputs = []
        with daisy.connect() as session:
            for q in queries:
                result = session.execute(q)
                outputs.append(
                    (
                        [repr(r) for r in result.relation.rows],
                        result.report.errors_fixed,
                    )
                )
        state = daisy.states["lineorder"]
        fingerprints = {
            name: matrix_fingerprint(m, include_sorted=True)
            for name, m in state.matrices.items()
        }
        counter = daisy.work_counter("lineorder")
        return (
            outputs,
            [repr(r) for r in daisy.table("lineorder").rows],
            fingerprints,
            counter.total(),
        )

    def test_numpy_python_auto_identical(self):
        runs = {cb: self._run(cb) for cb in (COLUMN_PYTHON, COLUMN_NUMPY, COLUMN_AUTO)}
        assert runs[COLUMN_NUMPY] == runs[COLUMN_PYTHON]
        assert runs[COLUMN_AUTO] == runs[COLUMN_PYTHON]
