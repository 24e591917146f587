"""Multi-rule fix merging (Section 4.3, Lemma 4).

When several rules flag the same cell, its candidate sets must be merged:
candidate values are united and probabilities adjusted to reflect the union
of the supporting (conflicting-tuple) sets — P(X | Y ∪ Z) for rules Y→X and
Z→X.  Because :class:`~repro.repair.fixes.CellFix` carries supports as tid
sets and derives probabilities from support sizes, the merge is a plain
union and is therefore commutative and associative (Lemma 4); helpers here
expose the merge over whole deltas and a verification utility used by tests.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.repair.fixes import CellFix, RepairDelta


def merge_deltas(deltas: Iterable[RepairDelta]) -> RepairDelta:
    """Merge per-rule deltas into one (order-independent by Lemma 4).

    The inputs are never mutated: several deltas are copied into a fresh
    one, a single delta — nothing to merge — is returned as it is.
    """
    deltas = list(deltas)
    if len(deltas) == 1:
        return deltas[0]
    merged = RepairDelta()
    for delta in deltas:
        merged.merge(delta)
    return merged


def normalize_fix(fix: CellFix) -> tuple:
    """A canonical, order-insensitive summary of a fix.

    Worlds coming from different rules are not comparable, so the canonical
    form collapses worlds and keys candidates by value with their united
    supports.  Two merge orders are equivalent iff their canonical forms
    match.
    """
    by_value: dict = {}
    for cand in fix.candidates:
        key = _canonical_value(cand.value)
        by_value.setdefault(key, set()).update(cand.support)
    return (
        fix.tid,
        fix.attr,
        tuple(
            sorted(
                (key, tuple(sorted(supp))) for key, supp in by_value.items()
            )
        ),
    )


def _canonical_value(value) -> str:
    return repr(value)


def deltas_equivalent(a: RepairDelta, b: RepairDelta) -> bool:
    """Are two deltas equal up to candidate order and world relabeling?"""
    if set(a.fixes) != set(b.fixes):
        return False
    for key in a.fixes:
        if normalize_fix(a.fixes[key]) != normalize_fix(b.fixes[key]):
            return False
    return True


def merge_commutes(deltas: Sequence[RepairDelta]) -> bool:
    """Check Lemma 4 on a concrete instance: forward merge == reverse merge."""
    forward = merge_deltas(deltas)
    backward = merge_deltas(list(reversed(list(deltas))))
    return deltas_equivalent(forward, backward)
