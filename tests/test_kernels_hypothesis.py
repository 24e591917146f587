"""Property-based round-trip parity for the NumPy kernel backend.

Hypothesis drives randomized columns — mixed int/float/str cells, nulls,
big ints straddling the 2^53 exactness bound — through both column
backends and asserts byte-identical sorted indexes, hash groups, filter
selections and group indexes, then pushes random patch batches through the
maintained views and asserts the patched numpy view equals both the
python-backend twin and a cold rebuild from the patched relation.

The suite skips when hypothesis or numpy is unavailable (the no-numpy CI
job must stay green without either).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.stats import WorkCounter
from repro.probabilistic.value import Candidate, PValue, ValueRange, cell_compare
from repro.relation import ColumnType, Relation
from repro.relation.columnview import ColumnView, PValueBoundsSidecar
from repro.relation.kernels import COLUMN_NUMPY, HAVE_NUMPY

from test_kernels import OPS, check_every_cell, residual_dc

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy not installed")

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Cells deliberately straddle every exactness gate: small ints, ints past
# the 2^53 float bound, ints past int64, finite floats, strings, nulls.
int_cell = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=2**53 - 2, max_value=2**53 + 2),
    st.integers(min_value=2**63 - 2, max_value=2**63 + 2),
)
float_cell = st.floats(allow_nan=False, allow_infinity=False, width=32)
str_cell = st.text(alphabet="abAB é世", max_size=4)

numeric_column = st.lists(
    st.one_of(st.none(), int_cell, float_cell), min_size=0, max_size=40
)
string_column = st.lists(st.one_of(st.none(), str_cell), min_size=0, max_size=40)
mixed_column = st.one_of(
    numeric_column,
    string_column,
    st.lists(
        st.one_of(st.none(), int_cell, float_cell, str_cell, st.booleans()),
        max_size=40,
    ),
)


def make_views(columns: dict[str, list]):
    names = list(columns)
    n = max((len(c) for c in columns.values()), default=0)
    padded = {a: c + [None] * (n - len(c)) for a, c in columns.items()}
    rel = Relation.from_rows(
        [(a, ColumnType.INT) for a in names],
        list(zip(*[padded[a] for a in names])) if n else [],
        name="t",
        validate=False,
    )
    v_py = ColumnView.from_relation(rel)
    v_np = ColumnView.from_relation(rel)
    v_np.column_backend = COLUMN_NUMPY
    return rel, v_py, v_np


def assert_view_parity(v_py: ColumnView, v_np: ColumnView, attrs) -> None:
    for attr in attrs:
        s_py, s_np = v_py.sorted_column(attr), v_np.sorted_column(attr)
        if s_py is None or s_np is None:
            assert s_py is None and s_np is None
        else:
            assert s_np.positions == s_py.positions
            assert repr(s_np.values) == repr(s_py.values)
        h_py, h_np = v_py.hash_column(attr), v_np.hash_column(attr)
        if h_py is None or h_np is None:
            assert h_py is None and h_np is None
        else:
            assert h_np == h_py
            assert repr(list(h_np)) == repr(list(h_py))


@SETTINGS
@given(column=mixed_column, data=st.data())
def test_roundtrip_sorted_hash_filter(column, data):
    _, v_py, v_np = make_views({"k": column})
    assert_view_parity(v_py, v_np, ["k"])
    concrete = [v for v in column if v is not None]
    probe = data.draw(
        st.one_of(st.sampled_from(concrete), int_cell, float_cell, str_cell)
        if concrete
        else st.one_of(int_cell, float_cell, str_cell)
    )
    op = data.draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
    c_py, c_np = WorkCounter(), WorkCounter()
    try:
        want = v_py.filter_positions("k", op, probe, c_py)
    except TypeError:
        # unorderable mixed column + inequality: both backends must raise
        with pytest.raises(TypeError):
            v_np.filter_positions("k", op, probe, c_np)
        return
    got = v_np.filter_positions("k", op, probe, c_np)
    assert got == want
    assert c_np.total() == c_py.total()
    oracle = {
        pos for pos, cell in enumerate(column) if cell_compare(cell, op, probe)
    }
    assert got == oracle


@SETTINGS
@given(
    col_a=st.lists(st.one_of(st.none(), st.integers(-5, 5)), max_size=40),
    col_b=st.lists(
        st.one_of(st.none(), st.integers(-3, 3), float_cell), max_size=40
    ),
)
def test_roundtrip_group_index(col_a, col_b):
    _, v_py, v_np = make_views({"a": col_a, "b": col_b})
    for keys in (("a",), ("b",), ("a", "b")):
        order_py, groups_py = v_py.group_index(keys)
        order_np, groups_np = v_np.group_index(keys)
        assert repr(order_np) == repr(order_py)
        assert repr(groups_np) == repr(groups_py)


@SETTINGS
@given(
    column=st.lists(
        st.one_of(st.none(), st.integers(-20, 20), float_cell),
        min_size=1,
        max_size=30,
    ),
    data=st.data(),
)
def test_patch_batches_into_maintained_sort_orders(column, data):
    rel, _, _ = make_views({"k": column})
    rel_py, rel_np = rel, Relation.from_rows(
        rel.schema, [tuple(r.values) for r in rel.rows], name="t", validate=False
    )
    v_py = rel_py.column_view()
    v_np = rel_np.column_view()
    v_np.column_backend = COLUMN_NUMPY
    # Build the maintained indexes *before* patching so patches re-route
    # through the incremental path, not a cold build.
    assert_view_parity(v_py, v_np, ["k"])

    n = len(column)
    for _ in range(data.draw(st.integers(1, 3))):
        batch = {
            (tid, "k"): value
            for tid, value in zip(
                data.draw(
                    st.lists(
                        st.integers(0, n - 1), min_size=1, max_size=5, unique=True
                    )
                ),
                data.draw(
                    st.lists(
                        st.one_of(st.none(), st.integers(-20, 20), float_cell),
                        min_size=5,
                        max_size=5,
                    )
                ),
            )
        }
        rel_py = rel_py.update_cells(batch)
        rel_np = rel_np.update_cells(batch)
        v_py, v_np = rel_py.column_view(), rel_np.column_view()
        assert v_np.column_backend == COLUMN_NUMPY  # carried through patches
        assert_view_parity(v_py, v_np, ["k"])

    # Cold rebuild vs patched under the numpy backend: same indexes.
    cold = ColumnView.from_relation(rel_np)
    cold.column_backend = COLUMN_NUMPY
    s_patched, s_cold = v_np.sorted_column("k"), cold.sorted_column("k")
    assert (s_patched is None) == (s_cold is None)
    if s_patched is not None:
        assert s_patched.positions == s_cold.positions
        assert repr(s_patched.values) == repr(s_cold.values)
    assert v_np.hash_column("k") == cold.hash_column("k")


# -- theta-join residual verification -----------------------------------------------------

pvalue_cell = st.builds(
    lambda lo, hi: PValue(
        [Candidate(lo, 0.5), Candidate(ValueRange(low=float(hi)), 0.5)]
    ),
    st.integers(-20, 20),
    st.integers(-20, 20),
)
dc_cell = st.one_of(st.none(), int_cell, float_cell, pvalue_cell)


@SETTINGS
@given(
    rows=st.lists(st.tuples(dc_cell, dc_cell), min_size=2, max_size=24),
    op=st.sampled_from(OPS),
    sqrt_p=st.integers(1, 3),
)
def test_residual_verification_matches_per_pair_loop(rows, op, sqrt_p):
    """Every cell's violations (content, order) and work charges agree
    between the batched numpy scan and the scalar oracle, whatever mix of
    nulls, probabilistic cells, big ints and floats the stripes hold."""
    dc = residual_dc(op)
    assert check_every_cell(rows, dc, sqrt_p, COLUMN_NUMPY) == check_every_cell(
        rows, dc, sqrt_p, "python"
    )


# -- range selection over probabilistic cells: the sorted bounds sidecar ------------------

NAN = float("nan")
RANGE_OPS = ["<", "<=", ">", ">="]

small_int = st.integers(-6, 6)
small_float = st.sampled_from([-6.5, -2.25, -0.0, 0.5, 1.0, 3.75, 6.5, float("inf")])
small_str = st.sampled_from(["", "a", "b", "é"])


def _range(a, b):
    if a is not None and b is not None and a > b:  # NaN ends compare False: kept
        a, b = b, a
    return ValueRange(low=a, high=b)


def _pvalue(values):
    return PValue(
        Candidate(v, 1.0 / len(values), world=i) for i, v in enumerate(values)
    )


range_end = st.sampled_from([None, -6.5, -2.25, -0.0, 0.5, 1.0, 3.75, 6.5, float("inf")])
numeric_point = st.one_of(small_int, small_float)
numeric_pvalue = st.lists(
    st.one_of(
        small_int, small_float, st.builds(_range, range_end, range_end),
        st.sampled_from([None, True]),
    ),
    min_size=1, max_size=3,
).map(_pvalue)
nan_pvalue = st.one_of(  # a NaN point or a NaN range end: no usable bound
    st.lists(numeric_point, max_size=2).map(lambda vs: _pvalue([NAN, *vs])),
    st.builds(_range, st.just(NAN), range_end).map(lambda rng: _pvalue([rng, 1])),
)
string_pvalue = st.lists(small_str, min_size=1, max_size=3).map(_pvalue)
mixed_pvalue = st.tuples(small_str, numeric_point).map(_pvalue)

numeric_cell = st.one_of(
    st.none(), numeric_point, st.just(NAN), numeric_pvalue, numeric_pvalue, nan_pvalue
)
string_cell = st.one_of(st.none(), small_str, string_pvalue)
any_cell = st.one_of(numeric_cell, string_cell, mixed_pvalue)
prob_column = st.one_of(
    st.lists(numeric_cell, max_size=40),
    # long enough for a one-cell patch to slot into the sorted bounds
    st.lists(numeric_pvalue, min_size=24, max_size=40),
    st.lists(string_cell, max_size=40),
    st.lists(any_cell, max_size=40),
)
patch_cell = st.one_of(
    numeric_pvalue, numeric_pvalue, numeric_pvalue, numeric_point, numeric_cell, any_cell
)
probe_value = st.one_of(
    small_int, small_float, numeric_point, numeric_point,
    st.just(NAN), small_str, st.none(),
    st.just(Fraction(1, 2)),  # orders against numbers, but is no int/float/str
)


def _sidecar_state(view: ColumnView):
    sidecar = view.derived(
        ("pv_bounds", "k"), ("k",), lambda: PValueBoundsSidecar.of_view(view, "k")
    )
    orders = sidecar.orders and [(repr(o.values), o.positions) for o in sidecar.orders]
    return repr(sorted(sidecar.bounds.items())), orders, sorted(sidecar.loose)


def _assert_range_filters_exact(views, probes) -> None:
    """Every view answers every inequality like the per-cell oracle and
    charges the same scans: concrete matches plus every probabilistic cell
    when the sorted index serves the probe, the whole column otherwise."""
    column = views[0].columns["k"]
    pvals = views[0].pvalue_positions("k")
    for probe in probes:
        for op in RANGE_OPS:
            oracle = {
                pos for pos, cell in enumerate(column) if cell_compare(cell, op, probe)
            }
            for view in views:
                counter = WorkCounter()
                assert view.filter_positions("k", op, probe, counter) == oracle
                served = probe is not None and view.sorted_column("k") is not None
                assert counter.tuples_scanned == (
                    len(oracle - pvals) + len(pvals) if served else len(column)
                )


@SETTINGS
@given(column=prob_column, data=st.data())
def test_range_filters_over_probabilistic_cells_match_cell_compare(column, data):
    """``filter_positions`` over NULLs, NaNs, strings and PValues with point
    and range candidates equals ``cell_compare`` per cell — cold, and along a
    chain of small (slotted) and large (re-sorted) patches, whose maintained
    bounds sidecar equals a cold-built one — under both column backends."""
    rel = Relation.from_rows(
        [("k", ColumnType.INT)], [(cell,) for cell in column], name="t", validate=False
    )
    rel_py, rel_np = rel, Relation(rel.schema, rel.rows, name="t")
    rel_np.column_view().column_backend = COLUMN_NUMPY
    probes = data.draw(st.lists(probe_value, min_size=1, max_size=3))
    _assert_range_filters_exact([rel_py.column_view(), rel_np.column_view()], probes)

    n = len(column)
    for _ in range(data.draw(st.integers(0, 4)) if n else 0):
        # Build the sidecars first so the patch maintains them.
        for view in (rel_py.column_view(), rel_np.column_view()):
            _sidecar_state(view)
        tids = data.draw(
            st.lists(
                st.integers(0, n - 1), min_size=1,
                max_size=data.draw(st.sampled_from([1, 2, n])), unique=True,
            )
        )
        batch = {(tid, "k"): data.draw(patch_cell) for tid in tids}
        rel_py, rel_np = rel_py.update_cells(batch), rel_np.update_cells(batch)
        cold_py = ColumnView.from_relation(rel_py)
        cold_np = ColumnView.from_relation(rel_np)
        cold_np.column_backend = COLUMN_NUMPY
        views = [rel_py.column_view(), rel_np.column_view(), cold_py, cold_np]
        assert views[1].column_backend == COLUMN_NUMPY
        states = [_sidecar_state(view) for view in views]
        assert all(state == states[0] for state in states)
        _assert_range_filters_exact(views, probes)
