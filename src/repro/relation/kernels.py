"""Vectorized NumPy kernels behind the columnar substrate.

The pure-Python list paths of :mod:`repro.relation.columnview`,
:mod:`repro.detection.fd_detector` and :mod:`repro.detection.thetajoin`
are the **semantics oracle** of the system — every kernel in this module
must be byte-identical to them in results, orderings, and work-unit
charges, exactly as the rowstore backend is the oracle for columnar
execution.  The kernels therefore never *approximate*: each one first
proves (via dtype inference) that the vectorized computation is exact,
and returns ``None`` — "not applicable, use the oracle" — otherwise.

Kernel inventory (see ``docs/kernels.md``):

* **sort** — :func:`sorted_pairs` / :func:`argsort_positions`: stable
  ``np.argsort`` construction of sorted-index position lists, equivalent
  to the oracle's ``sorted((value, position))`` because a stable argsort
  over exactly-representable keys breaks ties by ascending position too.
* **group** — :func:`hash_groups` / :func:`grouped_positions`:
  boundary detection over a stable sort (the ``np.unique`` trick without
  losing first-occurrence order), seeding hash indexes, GROUP BY indexes
  and FD lhs-grouping with dict-insertion-order parity.
* **filter** — :func:`mask_filter_positions`: boolean-mask selection for
  the linear-scan operators (``!=`` and friends), with ``None`` cells
  excluded exactly like ``cell_compare``'s null semantics.
* **stripe** — :func:`numeric_mask_positions` / :func:`search_cuts` /
  :func:`residual_window_pairs`: intra-stripe pruning masks over
  NaN-padded float arrays, ``np.searchsorted`` window derivation for the
  sort-based inequality join of the theta-join matrix, and batched
  verification of the remaining predicates over every window pair.

NumPy is an *optional* dependency: when it is absent every entry point
reports "not applicable" and the engine runs the pure-Python paths with
zero behaviour change (enforced by the no-numpy CI job).
"""

from __future__ import annotations

import operator
from types import MappingProxyType

from typing import Any

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as _np

    HAVE_NUMPY = True
except Exception:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

#: Supported column execution backends behind :class:`ColumnView`.
COLUMN_NUMPY = "numpy"
COLUMN_PYTHON = "python"
COLUMN_AUTO = "auto"
COLUMN_BACKENDS = (COLUMN_NUMPY, COLUMN_PYTHON, COLUMN_AUTO)

#: Below this row count the fixed ndarray-construction overhead outweighs
#: the per-cell savings; ``auto`` resolution keeps tiny tables on the
#: pure-Python path.
AUTO_MIN_ROWS = 64

#: Largest integer magnitude exactly representable as a float64.  Columns
#: mixing ints and floats vectorize only when every int is below this
#: bound, so ordering/equality in float64 matches Python's exact
#: int-vs-float comparisons.
MAX_EXACT_FLOAT_INT = 2 ** 53

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

KIND_INT = "int64"
KIND_FLOAT = "float64"
KIND_STR = "str"


def validate_column_backend(name: str) -> str:
    if name not in COLUMN_BACKENDS:
        raise ValueError(
            f"unknown column_backend {name!r}; expected one of {COLUMN_BACKENDS}"
        )
    return name


def resolve_column_backend(name: str, n_rows: int = 0) -> str:
    """Static resolution of the ``column_backend`` knob to a concrete path.

    ``numpy`` silently degrades to ``python`` when NumPy is absent (the
    engine must import and run dependency-free); ``auto`` picks numpy for
    tables from :data:`AUTO_MIN_ROWS` rows up — the only resolver of
    ``column_backend="auto"``.
    """
    validate_column_backend(name)
    if not HAVE_NUMPY:
        return COLUMN_PYTHON
    if name == COLUMN_AUTO:
        return COLUMN_NUMPY if n_rows >= AUTO_MIN_ROWS else COLUMN_PYTHON
    return name


class TypedColumn:
    """One column's cells as a typed ndarray plus a validity mask.

    ``values[i]`` holds cell ``i`` rendered in the inferred dtype and
    ``valid[i]`` whether position ``i`` is *concrete*: not ``None`` and
    not probabilistic.  Invalid positions hold a filler value and must
    never be read.  ``kind`` is one of :data:`KIND_INT` /
    :data:`KIND_FLOAT` / :data:`KIND_STR`.

    Kernel outputs never leak ndarray scalars: callers fetch result
    values from the raw Python cell list by position, so downstream
    equality/hashing sees the exact objects the oracle would produce.
    """

    __slots__ = ("kind", "values", "valid", "n_valid")

    def __init__(self, kind: str, values: Any, valid: Any, n_valid: int) -> None:
        self.kind = kind
        self.values = values
        self.valid = valid
        self.n_valid = n_valid

    @property
    def all_valid(self) -> bool:
        return self.n_valid == len(self.valid)


def _int_exact_as_float(v: int) -> bool:
    return -MAX_EXACT_FLOAT_INT <= v <= MAX_EXACT_FLOAT_INT


def _as_exact_array(cells: list[Any]) -> Any | None:
    """``np.asarray(cells)`` when the result provably compares like Python.

    The C-speed twin of the per-cell inference loops: ``asarray`` parses
    the cells in one pass, and the resulting dtype tells us what they
    were.  ``int64`` output is always exact.  ``float64`` output means
    any int cells were cast through float64, so the whole array must stay
    strictly below the 2^53 exactness bound (an int of magnitude >= 2^53+1
    can only round to a float of magnitude >= 2^53, so the vectorized
    bound check catches every lossy cast) and NaN-free.  Everything else
    — object (nulls, mixed families), ``<U`` (NumPy *stringifies* mixed
    str/number lists, which would sort columns Python refuses to sort),
    bool-only — reports "not applicable".

    ``bool`` cells mixed into numeric columns are fine here: ``True == 1``
    in Python and in int64/float64 alike, and every kernel returns
    positions/cuts or fetches result objects from the raw column, so the
    ndarray rendering never leaks.
    """
    try:
        arr = _np.asarray(cells)
    except (OverflowError, ValueError, TypeError):
        return None
    if arr.ndim != 1:
        return None
    if arr.dtype == _np.int64:
        return arr
    if arr.dtype == _np.float64:
        if _np.isnan(arr).any() or not (_np.abs(arr) < MAX_EXACT_FLOAT_INT).all():
            return None
        return arr
    return None


def build_typed_column(
    column: list[Any], invalid_positions: Any = ()
) -> TypedColumn | None:
    """Infer a :class:`TypedColumn` for one raw cell list, or ``None``.

    ``invalid_positions`` are positions to mask out a priori (the
    PValue sidecar).  On top of those, ``None`` cells are masked.  The
    column vectorizes only when the remaining concrete cells are

    * all ``int`` within the int64 range → :data:`KIND_INT`;
    * ``int``/``float`` mixes where every int passes the 2^53 exactness
      bound and no float is NaN → :data:`KIND_FLOAT` (int-vs-float
      ordering and equality are then exact in float64);
    * all ``str`` → :data:`KIND_STR` (NumPy ``<U`` comparison is the
      same code-point lexicographic order as Python's).

    Anything else — mixed families, nested values — returns ``None`` and
    the caller stays on the oracle path.  Fully-concrete numeric columns
    take the C-speed :func:`_as_exact_array` fast path, which also admits
    ``bool`` cells mixed into them (``True == 1`` compares identically in
    both domains and kernels never leak ndarray renderings — result
    objects are always fetched from the raw column); the null-masked
    slow path stays conservative and declines bools.
    """
    if not HAVE_NUMPY:
        return None
    invalid = (
        invalid_positions
        if isinstance(invalid_positions, (set, frozenset))
        else frozenset(invalid_positions)
    )
    n = len(column)
    if not invalid:
        # Fast path for fully-concrete columns: C-speed parse + vectorized
        # exactness checks.  Nulls force object dtype, so any fall-through
        # lands on the per-cell loop below.
        arr = _as_exact_array(column)
        if arr is not None:
            kind = KIND_INT if arr.dtype == _np.int64 else KIND_FLOAT
            return TypedColumn(kind, arr, _np.ones(n, dtype=bool), n)
    has_int = has_float = has_str = False
    for pos, v in enumerate(column):
        if v is None or pos in invalid:
            continue
        t = type(v)
        if t is int:
            has_int = True
        elif t is float:
            has_float = True
        elif t is str:
            has_str = True
        else:
            return None  # bool subclasses int via isinstance; type() is strict
    if has_str and (has_int or has_float):
        return None

    valid = _np.ones(n, dtype=bool)
    if has_str:
        cells: list[Any] = [""] * n
        n_valid = n
        for pos, v in enumerate(column):
            if v is None or pos in invalid:
                valid[pos] = False
                n_valid -= 1
            else:
                cells[pos] = v
        return TypedColumn(KIND_STR, _np.array(cells), valid, n_valid)

    if has_float:
        cells = [0.0] * n
        n_valid = n
        for pos, v in enumerate(column):
            if v is None or pos in invalid:
                valid[pos] = False
                n_valid -= 1
                continue
            if type(v) is int:
                if not _int_exact_as_float(v):
                    return None
            elif v != v:  # NaN: Python sort order over NaN is unreplicable
                return None
            cells[pos] = v
        return TypedColumn(
            KIND_FLOAT, _np.array(cells, dtype=_np.float64), valid, n_valid
        )

    if has_int:
        cells = [0] * n
        n_valid = n
        for pos, v in enumerate(column):
            if v is None or pos in invalid:
                valid[pos] = False
                n_valid -= 1
                continue
            if not (_INT64_MIN <= v <= _INT64_MAX):
                return None
            cells[pos] = v
        return TypedColumn(
            KIND_INT, _np.array(cells, dtype=_np.int64), valid, n_valid
        )

    return None  # all cells null/probabilistic: nothing to vectorize


# -- sort kernel --------------------------------------------------------------------


def sorted_pairs(
    typed: TypedColumn, column: list[Any]
) -> tuple[list[Any], list[int], Any | None]:
    """``(values, positions, exact)`` of the concrete cells in sorted order.

    Byte-identical to the oracle's ``sorted((value, position) for concrete
    cells)``: the stable argsort orders equal keys by ascending position,
    and values are fetched back from the raw Python ``column`` so no
    ndarray scalar escapes.  For numeric columns ``exact`` is the sorted
    int64/float64 ndarray itself — already validated exact by the typed
    build — which :func:`search_cuts` callers carry so the values side
    skips re-validation on every probe batch (``None`` for strings).
    """
    idx = _np.flatnonzero(typed.valid)
    vals = typed.values[idx]
    order = _np.argsort(vals, kind="stable")
    positions = idx[order].tolist()
    exact = None if typed.kind == KIND_STR else vals[order]
    return list(map(column.__getitem__, positions)), positions, exact


def argsort_positions(
    cells: list[Any], positions: list[int]
) -> tuple[list[int], Any] | None:
    """``positions`` reordered by stable ``sorted((cells[i], positions[i]))``.

    One-shot variant for pre-filtered subsets (the theta-join stripe sort,
    which excludes probabilistic/non-numeric rows before sorting).  The
    ``positions`` list must be ascending — then the stable argsort's tie
    order equals the oracle's ``(value, position)`` tuple sort.  Returns
    ``(reordered positions, sorted exact ndarray)`` — the array rides along
    on the stripe's :class:`SortedColumn` so later :func:`search_cuts`
    batches skip values-side re-validation — or ``None`` when the values
    do not vectorize exactly.
    """
    if not HAVE_NUMPY or not positions:
        if positions == [] and HAVE_NUMPY:
            return [], _np.empty(0, dtype=_np.int64)
        return None
    arr = _as_exact_array(cells)
    if arr is None:
        return None
    order = _np.argsort(arr, kind="stable")
    return [positions[i] for i in order.tolist()], arr[order]


# -- group kernels -------------------------------------------------------------------


def hash_groups(typed: TypedColumn, column: list[Any]) -> dict[Any, list[int]]:
    """value -> ascending positions over concrete cells, in first-occurrence
    key order — byte-identical to the oracle's ``dict.setdefault`` scan.

    The stable sort puts each distinct value's positions in ascending
    (= scan) order; group boundaries come from adjacent inequality (the
    ``np.unique`` trick, keeping positions); groups are then emitted by
    first position so dict insertion order matches the scan.  Key objects
    are fetched from the raw ``column`` at each group's first position —
    exactly the first key object the oracle dict would have kept.
    """
    idx = _np.flatnonzero(typed.valid)
    table: dict[Any, list[int]] = {}
    if idx.size == 0:
        return table
    order = _np.argsort(typed.values[idx], kind="stable")
    sidx = idx[order]
    svals = typed.values[idx][order]
    starts = _np.flatnonzero(
        _np.concatenate(([True], svals[1:] != svals[:-1]))
    )
    firsts = sidx[starts]
    bounds = _np.append(starts, sidx.size)
    # One bulk tolist, then C-speed list slices per group — much cheaper
    # than materializing a small ndarray per group.
    sidx_list = sidx.tolist()
    bounds_list = bounds.tolist()
    for g in _np.argsort(firsts, kind="stable").tolist():
        lo, hi = bounds_list[g], bounds_list[g + 1]
        positions = sidx_list[lo:hi]
        table[column[positions[0]]] = positions
    return table


def arange(n: int) -> Any:
    """``[0..n)`` as the int64 index array the group kernels consume."""
    return _np.arange(n, dtype=_np.int64)


def as_index(positions: list[int]) -> Any:
    """An ascending position list as the int64 index array kernels consume."""
    return _np.asarray(positions, dtype=_np.int64)


def grouped_positions(
    key_arrays: list[Any], index: Any
) -> list[Any] | None:
    """Group row indexes by their key-tuple, first-occurrence ordered.

    ``key_arrays`` are same-length ndarrays (one per key attribute, every
    used position valid) and ``index`` an ascending int64 ndarray of the
    original positions they describe.  Returns, per group in first-
    occurrence order, an ascending list of original positions — matching
    the oracle's ``dict.setdefault`` scan grouping exactly.
    """
    if not HAVE_NUMPY:
        return None
    n = int(index.size)
    if n == 0:
        return []
    if len(key_arrays) == 1:
        order = _np.argsort(key_arrays[0], kind="stable")
    else:
        order = _np.lexsort(tuple(reversed(key_arrays)))
    change = _np.zeros(n, dtype=bool)
    change[0] = True
    for arr in key_arrays:
        s = arr[order]
        change[1:] |= s[1:] != s[:-1]
    starts = _np.flatnonzero(change)
    bounds = _np.append(starts, n)
    sindex = index[order]
    firsts = sindex[starts]
    sindex_list = sindex.tolist()
    bounds_list = bounds.tolist()
    groups = []
    for g in _np.argsort(firsts, kind="stable").tolist():
        groups.append(sindex_list[bounds_list[g]:bounds_list[g + 1]])
    return groups


def fd_violating_groups(
    key_arrays: list[Any], rhs_array: Any, index: Any
) -> tuple[int, list[Any]]:
    """``(group_count, violating)`` for FD lhs-grouping over a row subset.

    ``key_arrays`` hold the lhs key columns, ``rhs_array`` the rhs values
    and ``index`` the ascending original positions, all gathered to the
    same subset with every cell valid.  A single lexsort by
    ``(lhs..., rhs)`` yields both the lhs groups (key-change boundaries)
    and each group's distinct-rhs count (rhs-change boundaries *within* a
    group) without any per-group ndarray call.  ``violating`` lists, per
    group holding >1 distinct rhs, the ascending original positions (as a
    plain list) — in first-occurrence group order, matching the oracle's
    dict scan.
    """
    n = int(index.size)
    if n == 0:
        return 0, []
    # lexsort makes the *last* key primary, so (rhs, last_lhs, ...,
    # first_lhs) sorts rows by (lhs..., rhs) with stable ties.
    order = _np.lexsort(tuple([rhs_array] + list(reversed(key_arrays))))
    key_change = _np.zeros(n, dtype=bool)
    key_change[0] = True
    for arr in key_arrays:
        s = arr[order]
        key_change[1:] |= s[1:] != s[:-1]
    srhs = rhs_array[order]
    rhs_change = _np.zeros(n, dtype=bool)
    rhs_change[1:] = srhs[1:] != srhs[:-1]
    within = rhs_change & ~key_change
    starts = _np.flatnonzero(key_change)
    group_count = int(starts.size)
    if not bool(within.any()):
        return group_count, []
    bounds = _np.append(starts, n)
    gid = _np.cumsum(key_change) - 1
    sindex = index[order]
    # gid is non-decreasing, so one stable lexsort by (gid, position)
    # sorts every group's members ascending at once — no per-group sort.
    sindex_list = sindex[_np.lexsort((sindex, gid))].tolist()
    bounds_list = bounds.tolist()
    violating = []
    for g in _np.unique(gid[within]).tolist():
        violating.append(sindex_list[bounds_list[g]:bounds_list[g + 1]])
    violating.sort(key=lambda members: members[0])
    return group_count, violating


# -- filter kernel -------------------------------------------------------------------

#: Operator symbol -> the (ndarray-broadcasting) comparison it denotes.
_COMPARE = MappingProxyType(
    {
        "=": operator.eq, "!=": operator.ne,
        "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    }
)


def _probe_compatible(typed: TypedColumn, value: Any) -> bool:
    t = type(value)
    if typed.kind == KIND_STR:
        return t is str
    if t is int:
        if typed.kind == KIND_INT:
            return _INT64_MIN <= value <= _INT64_MAX
        return _int_exact_as_float(value)
    if t is float:
        # int64-vs-float comparison would silently cast through float64;
        # only the float column (already 2^53-exact) compares exactly.
        return typed.kind == KIND_FLOAT and value == value
    return False


def mask_filter_positions(
    typed: TypedColumn, op: str, value: Any
) -> list[int] | None:
    """Ascending concrete positions satisfying ``cell <op> value``.

    The boolean-mask twin of the oracle's linear ``cell_compare`` scan:
    invalid (null/probabilistic) positions never match — mirroring
    ``_concrete_satisfies``'s "``None`` satisfies nothing" rule — and an
    incompatible probe type returns ``None`` so the caller falls back.
    ``value is None`` matches nothing under every operator, vectorized or
    not, so it short-circuits to the empty selection.
    """
    if value is None:
        return []
    if not _probe_compatible(typed, value):
        return None
    compare = _COMPARE.get(op)
    if compare is None:
        return None
    mask = compare(typed.values, value)
    return _np.flatnonzero(mask & typed.valid).tolist()


# -- stripe kernels ------------------------------------------------------------------


def numeric_array(numeric: list[float | None]) -> Any:
    """The stripe's plain-collapsed numeric column as float64, None -> NaN.

    (NumPy's float64 conversion renders ``None`` as NaN natively, so this
    is a single C-speed parse.)
    """
    return _np.array(numeric, dtype=_np.float64)


def numeric_mask_positions(
    arr: Any, op: str, lo: float, hi: float, empty_box: bool
) -> Any:
    """Vectorized ``_row_may_qualify`` for one predicate over one stripe.

    Returns a boolean mask over the stripe's rows.  ``None`` values (NaN
    in ``arr``) fail every comparison — which is exactly the oracle's
    "``value is None`` → ``False``" first check, so only the operators
    whose oracle returns ``True`` unconditionally (``!=`` et al.) need
    the explicit validity AND.
    """
    if empty_box:
        return _np.zeros(arr.shape[0], dtype=bool)
    if op == "<":
        return arr < hi
    if op == "<=":
        return arr <= hi
    if op == ">":
        return arr > lo
    if op == ">=":
        return arr >= lo
    if op == "=":
        return (arr >= lo) & (arr <= hi)
    return ~_np.isnan(arr)  # '!=' and friends prune only null values


def mask_to_positions(mask: Any) -> list[int]:
    """A boolean row mask as an ascending position list."""
    return _np.flatnonzero(mask).tolist()


_SEARCH_SIDE = MappingProxyType(
    {"<": "left", "<=": "right", ">": "right", ">=": "left"}
)


def subset_exact(exact: Any | None, keep: list[bool]) -> Any | None:
    """``exact[keep]`` for a Python bool list, or ``None`` when absent.

    Carries a sorted column's pre-validated exact array through the
    filtered-subset rebuild in the theta-join scan.
    """
    if exact is None or not HAVE_NUMPY:
        return None
    return exact[_np.asarray(keep, dtype=bool)]


def search_cuts(
    sorted_values: list[Any],
    probes: list[Any],
    op: str,
    values_exact: Any | None = None,
) -> Any | None:
    """Per-probe bisect cut(s) into a sorted value list, via ``searchsorted``.

    The batch twin of ``SortedColumn.range_positions``: for inequality
    ``op``, ``cuts[i]`` is the slice boundary the per-probe ``bisect``
    would compute (prefix for ``<``/``<=``, suffix start for ``>``/
    ``>=``); for ``=`` it returns the ``(lo, hi)`` cut pair.  Returns
    ``None`` unless both sides vectorize exactly (int64, or float64 with
    every int 2^53-exact and no NaN), in which case the cuts are
    bit-identical to the oracle's bisect.  ``values_exact`` is the
    already-validated ndarray of ``sorted_values`` a sorted-index build
    produced (``SortedColumn.exact``); passing it skips the values-side
    re-validation, leaving only the probe batch to prove exact.
    """
    if not HAVE_NUMPY:
        return None
    values = values_exact if values_exact is not None else _as_exact_array(sorted_values)
    if values is None:
        return None
    probe_arr = _as_exact_array(probes)
    if probe_arr is None:
        return None
    if values.dtype != probe_arr.dtype:
        # One side all-int, the other mixed: compare in float64, but only
        # when the int side stays exact there.
        int_side = values if values.dtype.kind == "i" else probe_arr
        # (range check rather than np.abs: abs(int64 min) overflows)
        if not (
            (int_side > -MAX_EXACT_FLOAT_INT) & (int_side < MAX_EXACT_FLOAT_INT)
        ).all():
            return None
        values = values.astype(_np.float64)
        probe_arr = probe_arr.astype(_np.float64)
    if op == "=":
        return (
            _np.searchsorted(values, probe_arr, side="left"),
            _np.searchsorted(values, probe_arr, side="right"),
        )
    side = _SEARCH_SIDE.get(op)
    if side is None:
        return None
    return _np.searchsorted(values, probe_arr, side=side)


#: The residual kernel gathers at most this many candidate pairs at once
#: (a few dozen scratch bytes each); longer probe lists go in chunks.
_RESIDUAL_CHUNK_PAIRS = 1 << 15


def _cut_windows(cuts: Any, op: str, n: int) -> tuple[Any, Any]:
    """:func:`search_cuts` output as per-probe ``[start, stop)`` rank windows
    into the ``n`` sorted values: a prefix for ``<``/``<=``, a suffix for
    ``>``/``>=``, the ``(lo, hi)`` pair for ``=``."""
    if op == "=":
        return cuts
    if op in ("<", "<="):
        return _np.zeros_like(cuts), cuts
    return cuts, _np.full_like(cuts, n)


def residual_window_pairs(
    cuts: Any,
    op: str,
    sorted_positions: list[int],
    probe_positions: list[int],
    comparisons: list[tuple[TypedColumn | None, str, TypedColumn | None]],
    exclude_diagonal: bool,
) -> tuple[int, list[int], list[int], list[int], list[int]] | None:
    """Verify every (probe, window row) pair against the residual predicates.

    The batch twin of the theta-join's per-pair ``_pair_violates_rest``
    loop.  Probe ``i`` sits at a-stripe position ``probe_positions[i]`` and
    its candidates are the b-stripe positions ``sorted_positions[window]``,
    the window being what ``cuts[i]`` (from :func:`search_cuts` under
    ``op``) selects — the slice ``SortedColumn.range_positions`` would
    return.  Each comparison
    ``(a_typed, op, b_typed)`` reads ``a_cell <op> b_cell`` over the two
    stripes' typed columns.  ``exclude_diagonal`` drops pairs at equal
    positions (the same row on a diagonal cell) before anything is counted.

    Returns ``(verified, hit_a, hit_b, left_a, left_b)``: ``verified``
    pairs were decided here — one ``charge_comparisons`` unit each — and
    ``hit_*`` are the positions of those satisfying every comparison;
    ``left_*`` pairs touch a cell some typed column masks out (``None``,
    probabilistic) and stay with the scalar oracle.  ``None`` — decline —
    unless every column is numeric and compares exactly: equal dtypes, or
    int64 against float64 with every int inside the 2^53 bound.
    """
    if not HAVE_NUMPY:
        return None
    arrays: list[tuple[Any, Any, Any]] = []
    a_ok: Any = None
    b_ok: Any = None
    for a_typed, rest_op, b_typed in comparisons:
        if a_typed is None or b_typed is None or rest_op not in _COMPARE:
            return None
        if KIND_STR in (a_typed.kind, b_typed.kind):
            return None
        if a_typed.kind != b_typed.kind:
            ints = (a_typed if a_typed.kind == KIND_INT else b_typed).values
            if not (
                (ints > -MAX_EXACT_FLOAT_INT) & (ints < MAX_EXACT_FLOAT_INT)
            ).all():
                return None
        arrays.append((a_typed.values, _COMPARE[rest_op], b_typed.values))
        a_ok = a_typed.valid if a_ok is None else a_ok & a_typed.valid
        b_ok = b_typed.valid if b_ok is None else b_ok & b_typed.valid

    spos = _np.asarray(sorted_positions, dtype=_np.int64)
    probes = _np.asarray(probe_positions, dtype=_np.int64)
    starts, stops = _cut_windows(cuts, op, len(sorted_positions))
    lens = stops - starts
    ends = _np.cumsum(lens)
    verified = 0
    hit_a: list[int] = []
    hit_b: list[int] = []
    left_a: list[int] = []
    left_b: list[int] = []
    lo, m = 0, len(probe_positions)
    while lo < m:
        base = int(ends[lo - 1]) if lo else 0
        hi = max(
            lo + 1,
            int(_np.searchsorted(ends, base + _RESIDUAL_CHUNK_PAIRS, side="right")),
        )
        total = int(ends[hi - 1]) - base
        if total:
            chunk_lens = lens[lo:hi]
            # Pair p of probe i has sorted rank starts[i] + (p - first pair
            # of i); one repeat spreads the per-probe constant.
            firsts = ends[lo:hi] - chunk_lens - base
            ranks = _np.arange(total) + _np.repeat(starts[lo:hi] - firsts, chunk_lens)
            a = _np.repeat(probes[lo:hi], chunk_lens)
            b = spos[ranks]
            if exclude_diagonal:
                keep = a != b
                a, b = a[keep], b[keep]
            if a_ok is not None:
                clean = a_ok[a] & b_ok[b]
                if not clean.all():
                    left_a += a[~clean].tolist()
                    left_b += b[~clean].tolist()
                    a, b = a[clean], b[clean]
            verified += int(a.size)
            for a_vals, compare, b_vals in arrays:
                hit = compare(a_vals[a], b_vals[b])
                a, b = a[hit], b[hit]
            hit_a += a.tolist()
            hit_b += b.tolist()
        lo = hi
    return verified, hit_a, hit_b, left_a, left_b


#: The kernel-oracle parity registry (checked statically by daisylint
#: DL008 and exercised dynamically by tests/test_kernels.py): every
#: public function in this module names the pure-Python computation it
#: must be byte-identical to — or declares itself a shared knob helper
#: with no vectorized twin.  Adding a kernel without registering its
#: oracle (or vice versa) fails `python -m tools.daisylint src`.
KERNEL_ORACLES: dict[str, str] = {  # daisylint: disable=DL104 - write-once oracle registry, populated here and read-only thereafter (DL008 governs its contents)
    "validate_column_backend": "knob helper (no kernel): shared by both paths",
    "resolve_column_backend": "knob helper (no kernel): shared by both paths",
    "build_typed_column": (
        "identity over the raw Python cell list; dtype inference is "
        "exact-or-decline (2^53 int bounds, NaN/bool/mixed-family rejection)"
    ),
    "sorted_pairs": (
        "sorted((value, position)) over concrete cells — "
        "repro.relation.columnview sorted-index build"
    ),
    "argsort_positions": (
        "sorted((value, position)) position list — stable argsort ties "
        "break by ascending position exactly like the tuple sort"
    ),
    "hash_groups": (
        "dict.setdefault first-occurrence scan — "
        "repro.relation.columnview.ColumnView hash-index build"
    ),
    "arange": "list(range(n))",
    "as_index": "list(positions) (identity position list)",
    "grouped_positions": (
        "dict.setdefault first-occurrence scan — "
        "repro.relation.columnview.ColumnView group-index build"
    ),
    "fd_violating_groups": (
        "repro.detection.fd_detector lhs-group dict scan (violating "
        "groups in first-occurrence order, rows in position order)"
    ),
    "mask_filter_positions": (
        "repro.probabilistic.value.cell_compare linear scan with "
        "None-cells excluded"
    ),
    "numeric_array": "the thetajoin stripe's None-padded numeric column list",
    "numeric_mask_positions": (
        "repro.detection.thetajoin per-row numeric comparison scan "
        "(None fails every comparison)"
    ),
    "mask_to_positions": "[i for i, hit in enumerate(mask) if hit]",
    "subset_exact": "[x for x, keep_it in zip(arr, keep) if keep_it]",
    "search_cuts": (
        "per-probe bisect_left/bisect_right cuts — "
        "repro.detection.thetajoin sort-based inequality scan"
    ),
    "residual_window_pairs": (
        "repro.detection.thetajoin _pair_violates_rest loop over each "
        "probe's bisect window (Predicate.evaluate -> cell_compare per pair)"
    ),
}
