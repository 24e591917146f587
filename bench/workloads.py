"""The six benchmark workloads: seeded input generation and nothing else.

Every generator takes ``(seed, scale)`` and returns an :class:`Inputs` made
of plain Python values (schemas as name/type pairs, rows as tuples, rules
as text, operations as tuples), so the program under test receives only
generated inputs and this file imports nothing from ``repro``.  The
generators are the benchmark's own, so the program's dataset package is
free to change under a later PR.

Sizes are tuned so one *pass* (fresh engine, whole operation list) lasts
1-2.5 s on the reference box; ``bench/worker.py`` repeats passes for the
requested number of seconds and reports medians over them.  ``scale``
divides row and operation counts (``--smoke`` uses 10).

Seed-independence of the *amount* of work is deliberate: a seed moves which
cells are dirty, which values they take and the order of the queries, but
the number of dirty groups, the displacement of every dirty DC cell and the
operation mix are fixed, so two seeds measure the same workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

#: The only ``DaisyConfig`` fields a workload may set (the ones ROADMAP-3 keeps).
CONFIG_FIELDS = frozenset(
    {"use_cost_model", "expected_queries", "storage", "memory_budget_mb"}
)

# An operation a client sends: ("query", sql, check) or
# ("update", table, ((tid, attr, value), ...)).  ``check`` is None or a
# ``(table, attr, low, high, projected columns or None for *)`` description
# of a single-table range query, from which ``bench/reference.py`` derives
# the rows the answer must at least contain.
Op = tuple

PRICE_DISCOUNT_DC = (
    "not(t1.extended_price < t2.extended_price & t1.discount > t2.discount)"
)

LINEORDER_SCHEMA = (
    ("orderkey", "int"),
    ("linenumber", "int"),
    ("custkey", "int"),
    ("partkey", "int"),
    ("suppkey", "int"),
    ("orderdate", "int"),
    ("quantity", "int"),
    ("extended_price", "float"),
    ("discount", "float"),
    ("revenue", "float"),
)

_NATIONS = (
    "UNITED STATES", "CHINA", "FRANCE", "GERMANY", "BRAZIL",
    "JAPAN", "INDIA", "CANADA", "EGYPT", "KENYA",
)
_CITIES = tuple(f"{nation[:6].strip()}{i}" for nation in _NATIONS for i in range(5))
_NUM_PARTS = 200
_NUM_CUSTOMERS = 200
_NUM_DATES = 365


@dataclass
class Inputs:
    """Everything one workload needs, as plain values."""

    #: ``DaisyConfig`` keyword arguments (only the fields ROADMAP-3 keeps).
    config: dict[str, Any]
    #: table name -> (schema as (column, type-name) pairs, rows as tuples).
    tables: dict[str, tuple[tuple[tuple[str, str], ...], list[tuple]]]
    #: (table, rule text) in registration order.
    rules: list[tuple[str, str]]
    #: client name -> its closed-loop operation list.
    clients: dict[str, list[Op]]
    #: True: clients talk to ``DaisyService.submit`` (one thread each);
    #: False: the single client drives a ``Session`` directly.
    via_service: bool = False
    #: The client whose query latencies are the workload's ``query_*_ms``.
    reader: str = "analyst"
    #: Free-form facts about the generated instance (row counts, dirty cells).
    facts: dict[str, Any] = field(default_factory=dict)


def _scaled(n: int, scale: int, minimum: int) -> int:
    return max(minimum, n // scale)


def _range_bounds(domain: int, parts: int) -> list[int]:
    return [round(i * domain / parts) for i in range(parts + 1)]


def _range_query(
    table: str, attr: str, low: int, high: int, projection: tuple[str, ...] | None = None,
    checked: bool = True,
) -> Op:
    columns = ", ".join(projection) if projection else "*"
    sql = f"SELECT {columns} FROM {table} WHERE {attr} >= {low} AND {attr} < {high}"
    return ("query", sql, (table, attr, low, high, projection) if checked else None)


def _range_queries(
    table: str, attr: str, domain: int, parts: int, projection: tuple[str, ...] | None = None
) -> list[Op]:
    bounds = _range_bounds(domain, parts)
    return [
        _range_query(table, attr, bounds[i], bounds[i + 1], projection)
        for i in range(parts)
        if bounds[i] < bounds[i + 1]
    ]


# -- lineorder with a dirty FD orderkey -> suppkey -----------------------------------


def _fd_lineorder(
    rng: random.Random, num_orderkeys: int, num_suppkeys: int
) -> tuple[list[tuple], int]:
    """A lineorder (10 rows per orderkey) whose every orderkey group has
    exactly one wrong suppkey, built so that the work does not depend on
    the seed:

    * every suppkey owns the same number of orderkey groups;
    * suppkeys come in pairs ``(2p, 2p+1)`` and a group's wrong suppkey is
      its right one's partner.

    A suppkey-filtered answer is relaxed along orderkey -> suppkey links, so
    whichever query first touches a pair — through either member — has the
    whole pair, and nothing else, in its repair scope: it cleans the pair,
    and every later query on the pair reads clean probabilistic data.  A
    workload that touches each pair T times therefore runs exactly one
    cleaning query and T-1 plain ones per pair in *any* order, and all
    cleaning queries cost the same.  (With uniformly random wrong values the
    scopes chain into an avalanche that cleans the table within ~6 queries
    whose sizes vary 40 % from seed to seed.)  The seed decides which
    orderkeys belong to which suppkey pair, which member of a group is
    wrong, and every non-key column.
    """
    if num_suppkeys % 2:
        raise ValueError("suppkeys come in pairs")
    # Orderkey o belongs to the suppkey that a seeded permutation — of the
    # pairs, and of the two members inside each pair — assigns to o modulo
    # the suppkey count.  Any run of orderkeys of even length starting at an
    # even key therefore covers whole pairs: orderkey-range filters, too,
    # have a repair scope whose size does not depend on the seed.
    pairs = list(range(num_suppkeys // 2))
    rng.shuffle(pairs)
    flips = [rng.randrange(2) for _ in pairs]
    right = [
        2 * pairs[base // 2] + ((base & 1) ^ flips[base // 2])
        for base in (orderkey % num_suppkeys for orderkey in range(num_orderkeys))
    ]
    rows: list[list[Any]] = []
    for i in range(num_orderkeys * 10):
        orderkey = i % num_orderkeys
        price = round(rng.uniform(100.0, 10000.0), 2)
        discount = round(rng.uniform(0.0, 0.10), 4)
        rows.append(
            [
                orderkey,
                i // num_orderkeys + 1,
                rng.randrange(_NUM_CUSTOMERS),
                rng.randrange(_NUM_PARTS),
                right[orderkey],
                20200101 + rng.randrange(_NUM_DATES),
                rng.randrange(1, 51),
                price,
                discount,
                round(price * (1 - discount), 2),
            ]
        )
    for orderkey in range(num_orderkeys):
        rows[orderkey + num_orderkeys * rng.randrange(10)][4] = right[orderkey] ^ 1
    return [tuple(r) for r in rows], num_orderkeys


def fd_sp(seed: int, scale: int = 1) -> Inputs:
    """12 suppkeys (6 pairs), 25 orderkeys each; the analyst reads every
    single-suppkey range 10 times in shuffled order: 6 cleaning queries (the
    first touch of each pair), 114 plain ones — median and 90th percentile
    sit in the plain regime, the maximum in the cleaning one.  (Few, large
    cleaning steps keep ``fd_sp_spill``, which must share these inputs and
    pays a table-sized storage rewrite per step, near 3 s a pass.)"""
    rng = random.Random(seed)
    num_suppkeys = 12
    num_orderkeys = _scaled(300, scale, 2 * num_suppkeys)
    rows, dirty = _fd_lineorder(rng, num_orderkeys, num_suppkeys)
    ops = _range_queries("lineorder", "suppkey", num_suppkeys, num_suppkeys) * _scaled(10, scale, 2)
    rng.shuffle(ops)
    return Inputs(
        config={"use_cost_model": False},
        tables={"lineorder": (LINEORDER_SCHEMA, rows)},
        rules=[("lineorder", "orderkey -> suppkey")],
        clients={"analyst": ops},
        facts={"rows": len(rows), "orderkeys": num_orderkeys, "dirty_cells": dirty},
    )


def fd_sp_spill(seed: int, scale: int = 1) -> Inputs:
    """Byte-for-byte ``fd_sp`` inputs under a 1 MiB residency budget."""
    inputs = fd_sp(seed, scale)
    inputs.config = {**inputs.config, "storage": "auto", "memory_budget_mb": 1}
    return inputs


# -- monotone price/discount table with a dirty inequality DC -------------------------


def _dc_rows(
    rng: random.Random, num_rows: int, dirty_cells: int, max_shift: int
) -> tuple[list[list[Any]], int]:
    """Rows ``(orderkey, extended_price, discount)`` with discount rising in
    price, then ``dirty_cells`` discounts moved to the value ``shift`` rows
    away.  The violating-pair count — what the theta-join finds and the
    repair pays for — follows the shifts, so they are the fixed set
    1..max_shift (at most half the table) spread evenly, the k-th going to
    the k-th equal slice of the table and pointing alternately up and down
    (towards the side with room when only one has it).  The seed draws the
    victim inside its slice and which of the two alternations is used.
    """
    rows = [
        [i, 100.0 + i * 10.0, round(0.01 + i * 0.0001, 6)] for i in range(num_rows)
    ]
    flip = rng.choice((1, -1))
    slice_rows = num_rows // dirty_cells
    for k in range(dirty_cells):
        # Slice k's victim is displaced by the k-th shift, alternately up and
        # down, so which displaced spans overlap is the same for every seed.
        shift = flip * (1 if k % 2 else -1) * (
            1 + (k * (max_shift - 1)) // max(1, dirty_cells - 1)
        )
        tid = k * slice_rows + rng.randrange(slice_rows)
        if not 0 <= tid + shift < num_rows:
            shift = -shift
        rows[tid][2] = round(0.01 + (tid + shift) * 0.0001 + 0.00005, 6)
    return rows, dirty_cells


def dc_sp(seed: int, scale: int = 1) -> Inputs:
    rng = random.Random(seed)
    num_rows = _scaled(1000, scale, 100)
    rows, dirty = _dc_rows(
        rng, num_rows, dirty_cells=max(2, num_rows // 50), max_shift=num_rows // 2
    )
    ops = _range_queries(
        "lineorder",
        "extended_price",
        int(100.0 + num_rows * 10.0),
        _scaled(100, scale, 10),
        projection=("orderkey", "extended_price", "discount"),
    )
    return Inputs(
        config={},
        tables={
            "lineorder": (
                (("orderkey", "int"), ("extended_price", "float"), ("discount", "float")),
                [tuple(r) for r in rows],
            )
        },
        rules=[("lineorder", PRICE_DISCOUNT_DC)],
        clients={"analyst": ops},
        facts={"rows": num_rows, "dirty_cells": dirty},
    )


# -- SSB star schema, SP + join + GROUP BY mix, cost model on --------------------------


def _supplier(rng: random.Random, num_suppkeys: int) -> tuple[list[tuple], int]:
    """Two entries per supplier sharing one address; one supplier in every
    ten (drawn from the seed) has an entry whose suppkey reads as its pair
    partner's, violating ``address -> suppkey``."""
    rows: list[list[Any]] = []
    for sk in range(num_suppkeys):
        nation = rng.choice(_NATIONS)
        city = rng.choice(_CITIES)
        for _copy in range(2):
            rows.append([sk, f"Supplier#{sk:05d}", f"addr_{sk:05d}", city, nation])
    dirty = 0
    for first in range(0, num_suppkeys, 10):
        victim = first + rng.randrange(min(10, num_suppkeys - first))
        rows[2 * victim][0] = victim ^ 1
        dirty += 1
    return [tuple(r) for r in rows], dirty


def _join_query(variant: str, low: int, high: int) -> str:
    span = f"lineorder.suppkey >= {low} AND lineorder.suppkey < {high}"
    if variant == "q1":
        return (
            "SELECT lineorder.orderkey, lineorder.suppkey, supplier.name "
            "FROM lineorder, supplier "
            f"WHERE lineorder.suppkey = supplier.suppkey AND {span}"
        )
    if variant == "q2":
        return (
            "SELECT date.year, part.brand, SUM(lineorder.revenue) AS revenue "
            "FROM lineorder, supplier, part, date "
            "WHERE lineorder.suppkey = supplier.suppkey "
            "AND lineorder.partkey = part.partkey "
            f"AND lineorder.orderdate = date.datekey AND {span} "
            "GROUP BY date.year, part.brand"
        )
    return (
        "SELECT date.year, customer.cnation, SUM(lineorder.revenue) AS revenue "
        "FROM lineorder, supplier, part, date, customer "
        "WHERE lineorder.suppkey = supplier.suppkey "
        "AND lineorder.partkey = part.partkey "
        "AND lineorder.orderdate = date.datekey "
        f"AND lineorder.custkey = customer.custkey AND {span} "
        "GROUP BY date.year, customer.cnation"
    )


def mixed_spj(seed: int, scale: int = 1) -> Inputs:
    """SP ranges, Q1/Q2/Q3 joins and single-table GROUP BY over an SSB
    instance, cost model on.  The analyst opens with the same 24 queries
    for every seed (the shapes in turn) and sends the rest in an order drawn
    from the seed: the strategy switch — one full clean of lineorder, the
    run's ``query_max_ms`` — is decided by what the first queries observe,
    and a fixed opening makes every seed pay it at the same point.  240
    queries keep the ~10 slowest (the switch, garbage-collection pauses)
    clear of the 90th percentile."""
    rng = random.Random(seed)
    num_suppkeys = _scaled(80, scale, 10)
    num_orderkeys = 4 * num_suppkeys
    lineorder, dirty = _fd_lineorder(rng, num_orderkeys, num_suppkeys)
    supplier, supplier_dirty = _supplier(rng, num_suppkeys)
    categories = [f"CAT#{i}" for i in range(10)]
    part = [
        (pk, f"Part#{pk:05d}", f"Brand#{rng.randrange(25)}", rng.choice(categories))
        for pk in range(_NUM_PARTS)
    ]
    date = [
        (20200101 + i, 2020 + i // 365, (i // 30) % 12 + 1) for i in range(_NUM_DATES)
    ]
    customer = [
        (ck, f"Customer#{ck:05d}", rng.choice(_CITIES), rng.choice(_NATIONS))
        for ck in range(_NUM_CUSTOMERS)
    ]
    per_shape = num_suppkeys // 2  # one supplier pair per join range
    sp = _range_queries("lineorder", "suppkey", num_suppkeys, 2 * per_shape)
    bounds = _range_bounds(num_suppkeys, per_shape)
    joins = [
        ("query", _join_query(variant, bounds[i], bounds[i + 1]), None)
        for variant in ("q1", "q2", "q3")
        for i in range(per_shape)
    ]
    bounds = _range_bounds(num_orderkeys, per_shape)
    group_bys: list[Op] = [
        (
            "query",
            "SELECT suppkey, SUM(revenue) AS revenue FROM lineorder "
            f"WHERE orderkey >= {bounds[i]} AND orderkey < {bounds[i + 1]} "
            "GROUP BY suppkey",
            None,
        )
        for i in range(per_shape)
    ]
    opening_turns = 4
    shapes = [sp[:per_shape], sp[per_shape:], *(
        joins[k * per_shape:(k + 1) * per_shape] for k in range(3)
    ), group_bys]
    opening = [shape[turn] for turn in range(opening_turns) for shape in shapes]
    rest = [op for shape in shapes for op in shape[opening_turns:]]
    rng.shuffle(rest)
    ops = opening + rest
    return Inputs(
        config={"use_cost_model": True, "expected_queries": len(ops)},
        tables={
            "lineorder": (LINEORDER_SCHEMA, lineorder),
            "supplier": (
                (
                    ("suppkey", "int"), ("name", "string"), ("address", "string"),
                    ("city", "string"), ("nation", "string"),
                ),
                supplier,
            ),
            "part": (
                (
                    ("partkey", "int"), ("pname", "string"),
                    ("brand", "string"), ("category", "string"),
                ),
                part,
            ),
            "date": ((("datekey", "int"), ("year", "int"), ("month", "int")), date),
            "customer": (
                (
                    ("custkey", "int"), ("cname", "string"),
                    ("ccity", "string"), ("cnation", "string"),
                ),
                customer,
            ),
        },
        rules=[
            ("lineorder", "orderkey -> suppkey"),
            ("supplier", "address -> suppkey"),
        ],
        clients={"analyst": ops},
        facts={
            "rows": len(lineorder),
            "dirty_cells": dirty,
            "supplier_dirty_cells": supplier_dirty,
            "queries": len(ops),
        },
    )


# -- writes beside reads ------------------------------------------------------------


def updates_interleaved(seed: int, scale: int = 1) -> Inputs:
    """DC + FD on one table; rounds of (clustered 12-cell update, 3 queries).

    Three queries per round, one of them right after the update, keep the
    median query latency inside the "plain query" regime and the 90th
    percentile inside the "first query after an update" regime; at two per
    round the median would sit on the boundary and flip from seed to seed.
    """
    rng = random.Random(seed)
    num_rows = _scaled(960, scale, 120)
    num_groups = num_rows // 8
    rounds = _scaled(40, scale, 4)
    base, dirty = _dc_rows(rng, num_rows, dirty_cells=max(1, num_rows // 1000), max_shift=8)
    group_supp = [rng.randrange(50) for _ in range(num_groups)]
    rows = [[*r, i % num_groups, group_supp[i % num_groups]] for i, r in enumerate(base)]
    ops: list[Op] = []
    domain = int(100.0 + num_rows * 10.0)
    bounds = _range_bounds(domain, 2 * rounds)
    # One 12-cell cluster per equal slice of the table, every slice written
    # once, in an order drawn from the seed.
    slices = list(range(rounds))
    rng.shuffle(slices)
    slice_rows = num_rows // rounds
    for r, start in enumerate(k * slice_rows for k in slices):
        cells = []
        for j in range(12):
            tid = start + j
            if j % 3 == 0:
                # Local re-sort: the row moves a few places in price order.
                cells.append((tid, "extended_price", 100.0 + (tid + 5) * 10.0 + 0.5))
            elif j % 3 == 1:
                # Content-only correction slightly off the trend.
                cells.append((tid, "discount", round(0.01 + tid * 0.0001 + 0.00035, 6)))
            else:
                cells.append((tid, "supp", rng.randrange(50)))
        ops.append(("update", "ledger", tuple(cells)))
        # The first query reads the region just written (it pays for
        # regaining a clean answer); the other two read this round's two
        # slices of the domain.  None is checked against the reference: a
        # cell updated after a DC repair may keep candidates that exclude
        # its new value, so "answer contains the plain filter" does not
        # hold under updates.
        low = int(100.0 + start * 10.0)
        ops.append(_range_query(
            "ledger", "extended_price", low, low + 400,
            ("orderkey", "extended_price", "discount", "supp"), checked=False,
        ))
        for k in (2 * r, 2 * r + 1):
            ops.append(_range_query(
                "ledger", "extended_price", bounds[k], bounds[k + 1],
                ("orderkey", "grp", "supp"), checked=False,
            ))
    return Inputs(
        # Always incremental: whether the strategy switch fires on the second
        # operation depends on a handful of cells and would make the workload
        # bimodal across seeds; mixed_spj is where the switch is measured.
        config={"use_cost_model": False},
        tables={
            "ledger": (
                (
                    ("orderkey", "int"), ("extended_price", "float"),
                    ("discount", "float"), ("grp", "int"), ("supp", "int"),
                ),
                [tuple(r) for r in rows],
            )
        },
        rules=[("ledger", PRICE_DISCOUNT_DC), ("ledger", "grp -> supp")],
        clients={"analyst": ops},
        facts={"rows": num_rows, "dirty_cells": dirty, "rounds": rounds},
    )


# -- two closed-loop clients through the service tier ------------------------------------


def service_mixed(seed: int, scale: int = 1) -> Inputs:
    rng = random.Random(seed)
    num_suppkeys = 24
    num_orderkeys = _scaled(192, scale, 2 * num_suppkeys)
    lineorder, dirty = _fd_lineorder(rng, num_orderkeys, num_suppkeys)
    # Every supplier pair is read equally often, in an order drawn from the
    # seed; the first read of a pair cleans it.  12 cleaning reads in 96,
    # plus the handful that coincide with a collector pause, keep the 90th
    # percentile inside the slow regime instead of on its edge.
    lows = list(range(0, num_suppkeys, 2)) * _scaled(16, scale, 2)
    rng.shuffle(lows)
    reader: list[Op] = [
        _range_query("lineorder", "suppkey", low, low + 2, ("orderkey", "suppkey", "revenue"))
        for low in lows
    ]
    ledger_rows = _scaled(600, scale, 60)
    groups = max(2, ledger_rows // 4)
    ledger = [
        (i % groups, f"item{i % 3}" if i % 7 else "typo") for i in range(ledger_rows)
    ]
    writer: list[Op] = []
    for _batch in range(_scaled(5, scale, 2)):
        tids = rng.sample(range(ledger_rows), 5)
        writer.append(
            ("update", "ledger", tuple((t, "v", f"item{rng.randrange(3)}") for t in tids))
        )
        writer.append(("query", "SELECT k, v FROM ledger WHERE k >= 0", None))
    return Inputs(
        config={"use_cost_model": False},
        tables={
            "lineorder": (LINEORDER_SCHEMA, lineorder),
            "ledger": ((("k", "int"), ("v", "string")), ledger),
        },
        rules=[("lineorder", "orderkey -> suppkey"), ("ledger", "k -> v")],
        clients={"reader0": reader, "writer": writer},
        via_service=True,
        reader="reader0",
        facts={"rows": len(lineorder), "ledger_rows": ledger_rows, "dirty_cells": dirty},
    )


#: name -> (generator, one-line reason the workload exists).
WORKLOADS: dict[str, tuple[Callable[[int, int], Inputs], str]] = {
    "fd_sp": (
        fd_sp,
        "Fig 5/9 shape, always incremental: filter, relax, FD detect/repair, apply "
        "share the time; theta-join, join, storage and service idle",
    ),
    "dc_sp": (
        dc_sp,
        "Fig 10 shape: theta-join detection and DC repair do ~95% (first query "
        "escalates to the full matrix); the FD layers idle",
    ),
    "mixed_spj": (
        mixed_spj,
        "Fig 11-13 shape: SP, 2-5 way joins and GROUP BY with the cost model on; "
        "join path, plan cache and strategy switch run here only",
    ),
    "updates_interleaved": (
        updates_interleaved,
        "writes beside reads: detection/repair reached through the patch stream, "
        "sync_matrix and stats rebuild, so a read gain that taxes writes shows",
    ),
    "fd_sp_spill": (
        fd_sp_spill,
        "fd_sp inputs under a 1 MiB residency budget: working set far above the "
        "program's own cache, so the delta to fd_sp is the storage tier",
    ),
    "service_mixed": (
        service_mixed,
        "fd_sp engine work through scheduler, turnstiles and snapshot pins with a "
        "reader and a writer thread contending for the interpreter",
    ),
}
