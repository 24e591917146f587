"""Holistic repair of general DC violations (Section 4.2).

For a violated DC ∀t1,t2 ¬(p1 ∧ … ∧ pm) and a violating pair, every atom
currently holds; a repair must invert at least one atom.  The subset of
atoms to invert is a satisfiability question: atom variables xi mean "atom i
still holds after repair", and the DC contributes the clause
(¬x1 ∨ … ∨ ¬xm).  We use the DPLL solver to enumerate subset-minimal repairs
(fewest inverted atoms), then translate each inverted atom into candidate
*range* fixes for the two cells it mentions:

    atom t1.a < t2.b  (holds)  →  either  t1.a := [t2.b, +inf)
                                or        t2.b := (-inf, t1.a]

Each affected cell receives candidates {original value, range}, weighted by
the number of possible fixes — reproducing Example 5's
``{(<2000 50%, 3000 50%), 0.2, 32}``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.constraints.dc import DenialConstraint
from repro.constraints.predicate import Predicate
from repro.detection.thetajoin import ViolationPair
from repro.engine.stats import GLOBAL_COUNTER, WorkCounter
from repro.errors import CleaningError
from repro.probabilistic.value import ValueRange, plain
from repro.relation.relation import Relation, Row
from repro.repair.fixes import CandidateFix, CellFix, RepairDelta
from repro.repair.provenance import ProvenanceStore
from repro.sat.cnf import FormulaBuilder
from repro.sat.solver import minimal_true_models


def _atom_name(index: int) -> str:
    return f"atom_{index}"


def inversion_sets(
    dc: DenialConstraint, frozen_atoms: set[int] | None = None
) -> list[tuple[int, ...]]:
    """Subset-minimal sets of atom indexes to invert, via the SAT solver.

    ``frozen_atoms`` are atoms that must keep holding (their data cannot be
    changed); they become positive unit clauses.  Returns an empty list when
    every atom is frozen (the violation is unrepairable).
    """
    builder = FormulaBuilder()
    clause = []
    for i in range(len(dc.predicates)):
        clause.append((_atom_name(i), False))
    builder.add_clause_names(clause)
    for i in frozen_atoms or set():
        builder.formula.add_unit(builder.var(_atom_name(i)))
    models = minimal_true_models(builder.formula)
    out: list[tuple[int, ...]] = []
    for model in models:
        named = builder.decode(model)
        inverted = tuple(
            sorted(
                i
                for i in range(len(dc.predicates))
                if not named.get(_atom_name(i), True)
            )
        )
        if inverted:
            out.append(inverted)
    return sorted(set(out))


def _inverted_range(op: str, pivot: float) -> ValueRange:
    """The value range that makes ``x <op> pivot`` FALSE.

    E.g. atom ``x < pivot`` holds; the fix range is ``x >= pivot``.
    """
    if op == "<":
        return ValueRange(low=pivot, low_open=False)
    if op == "<=":
        return ValueRange(low=pivot, low_open=True)
    if op == ">":
        return ValueRange(high=pivot, high_open=False)
    if op == ">=":
        return ValueRange(high=pivot, high_open=True)
    raise CleaningError(f"cannot build an inversion range for operator {op!r}")


def _mirror(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}[op]


def _concrete(row: Row, idx: int) -> Any:
    return plain(row.values[idx])


def compute_dc_fixes(
    relation: Relation,
    dc: DenialConstraint,
    violations: Sequence[ViolationPair],
    provenance: ProvenanceStore | None = None,
    counter: WorkCounter | None = None,
) -> RepairDelta:
    """Candidate fixes for a batch of DC violation pairs.

    For each violation and each minimal atom-inversion set, candidate fixes
    are produced for every cell that inverting the atom can touch.  Equality
    and disequality atoms produce value candidates (the other tuple's value);
    order atoms produce :class:`ValueRange` candidates.
    """
    counter = counter if counter is not None else GLOBAL_COUNTER
    indexes = {a: relation.schema.index_of(a) for a in dc.attributes()}
    tid_rows = relation.tid_index()
    rule_name = dc.name or str(dc)
    delta = RepairDelta()
    fixes = delta.fixes
    inversions = inversion_sets(dc)
    next_world = 1

    for violation in violations:
        row1 = tid_rows.get(violation.t1)
        row2 = tid_rows.get(violation.t2)
        if row1 is None or row2 is None:
            continue
        counter.charge_comparisons(len(dc.predicates))
        pair = (row1, row2)
        # All (cell, candidate-range) options across minimal inversions.
        options: list[tuple[int, str, Any, Any]] = []  # (tid, attr, original, fix)
        for inversion in inversions:
            for atom_idx in inversion:
                pred = dc.predicates[atom_idx]
                options.extend(_atom_fix_options(pred, pair, indexes))
        if not options:
            continue
        # Each option is one possible fix; candidates are weighted by the
        # number of possible fixes (frequency-based, Example 5).  Every
        # option lives in a world of its own, so its candidates go straight
        # onto the cell's list: the only key they can share is the option's
        # own ``fix_value == original``, which unites the two supports.
        support1 = frozenset((violation.t1,))
        support2 = frozenset((violation.t2,))
        for tid, attr, original, fix_value in options:
            world = next_world
            next_world += 1
            if tid == violation.t1:
                own, other = support1, support2
            else:
                own, other = support2, support1
            cell = fixes.get((tid, attr))
            if cell is None:
                cell = fixes[(tid, attr)] = CellFix(
                    tid=tid, attr=attr, original=original, rules={rule_name}
                )
            if original == fix_value:
                cell.candidates.append(CandidateFix(original, own | other, world))
            else:
                cell.candidates.append(CandidateFix(original, own, world))
                cell.candidates.append(CandidateFix(fix_value, other, world))
    return delta


def _atom_fix_options(
    pred: Predicate,
    pair: tuple[Row, Row],
    indexes: dict[str, int],
) -> list[tuple[int, str, Any, Any]]:
    """The (tid, attr, original, fix-value) options that invert one atom."""
    options: list[tuple[int, str, Any, Any]] = []
    left_row = pair[pred.left_tuple]
    left_val = _concrete(left_row, indexes[pred.left_attr])
    if pred.is_constant():
        if pred.op in ("<", "<=", ">", ">="):
            if isinstance(pred.constant, (int, float)):
                options.append(
                    (
                        left_row.tid,
                        pred.left_attr,
                        left_val,
                        _inverted_range(pred.op, float(pred.constant)),
                    )
                )
        elif pred.op == "=":
            # Invert equality with a constant: no principled alternative value;
            # flag with a disequality placeholder is out of scope, skip.
            pass
        return options

    right_row = pair[pred.right_tuple]  # type: ignore[index]
    right_val = _concrete(right_row, indexes[pred.right_attr])  # type: ignore[index]
    if pred.op in ("<", "<=", ">", ">="):
        if isinstance(left_val, (int, float)) and isinstance(right_val, (int, float)):
            options.append(
                (
                    left_row.tid,
                    pred.left_attr,
                    left_val,
                    _inverted_range(pred.op, float(right_val)),
                )
            )
            options.append(
                (
                    right_row.tid,
                    pred.right_attr,  # type: ignore[arg-type]
                    right_val,
                    _inverted_range(_mirror(pred.op), float(left_val)),
                )
            )
    elif pred.op == "=":
        # Invert t1.a = t2.b by changing either side to "anything else":
        # concretely, no candidate value is known, so skip (FD-shaped DCs
        # take the FD path which does produce value candidates).
        pass
    elif pred.op == "!=":
        # Invert a disequality by equating the two cells.
        options.append((left_row.tid, pred.left_attr, left_val, right_val))
        options.append(
            (right_row.tid, pred.right_attr, right_val, left_val)  # type: ignore[arg-type]
        )
    return options


def apply_dc_delta(
    relation: Relation,
    delta: RepairDelta,
    provenance: ProvenanceStore | None = None,
    counter: WorkCounter | None = None,
) -> Relation:
    """Apply DC fixes in place (same mechanics as the FD path)."""
    from repro.repair.fd_repair import apply_fd_delta

    return apply_fd_delta(relation, delta, provenance=provenance, counter=counter)
