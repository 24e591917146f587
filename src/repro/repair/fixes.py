"""Fix representations shared by the FD and DC repair paths.

A :class:`CandidateFix` is one candidate value for one cell, together with
the *supporting tids* — the set Ti of conflicting/correlated tuples that
justify the candidate (Lemma 4's (ai, Ti) pairs).  A :class:`CellFix`
collects a cell's candidates across worlds; probabilities are derived from
support sizes, so merging fixes from multiple rules (union of supports)
automatically re-weights them, exactly as Section 4.3 prescribes
(P(X | Y ∪ Z)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Any, NamedTuple

from repro.probabilistic.value import PValue
from repro._ownership import session_owned


class CandidateFix(NamedTuple):
    """One candidate value with its justification set and world id.

    ``support`` may be any set type; producers on the repair hot path pass
    their (no longer mutated) working sets directly instead of copying into
    frozensets.
    """

    value: Any
    support: AbstractSet[int]
    world: int = 0

    def weight(self) -> int:
        return max(1, len(self.support))


@session_owned
@dataclass
class CellFix:
    """All candidate fixes for one cell (tid, attr).

    ``(value, world)`` is unique per fix when candidates arrive through
    :meth:`add`; the key -> slot index behind that makes accumulation O(1)
    per candidate.  Producers whose keys are unique by construction append
    to ``candidates`` directly — the index notices the length change and
    rebuilds itself on the next :meth:`add`.
    """

    tid: int
    attr: str
    original: Any
    candidates: list[CandidateFix] = field(default_factory=list)
    rules: set[str] = field(default_factory=set)
    #: (value, world) -> first slot in ``candidates`` holding that key;
    #: built by the first :meth:`add`, valid while ``_indexed ==
    #: len(candidates)``.
    _slots: dict[tuple[Any, int], int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _indexed: int = field(default=0, init=False, repr=False, compare=False)

    def add(self, candidate: CandidateFix) -> None:
        """Add a candidate, merging supports for an existing (value, world)."""
        candidates = self.candidates
        slots = self._slots
        if slots is None or self._indexed != len(candidates):
            slots = self._slots = {}
            for i, c in enumerate(candidates):
                slots.setdefault((c.value, c.world), i)
        value = candidate.value
        key = (value, candidate.world)
        slot = slots.get(key)
        # A dict also matches keys by identity; ``==`` decides here, so a
        # value unequal to itself (NaN) never merges.
        if slot is not None and (
            candidates[slot].value is not value or value == value
        ):
            existing = candidates[slot]
            candidates[slot] = CandidateFix(
                value=existing.value,
                support=existing.support | candidate.support,
                world=existing.world,
            )
        else:
            slots.setdefault(key, len(candidates))
            candidates.append(candidate)
        self._indexed = len(candidates)

    def copy(self) -> "CellFix":
        """An independent fix (candidates are immutable and stay shared)."""
        return type(self)(
            self.tid, self.attr, self.original,
            list(self.candidates), set(self.rules),
        )

    def to_pvalue(self) -> PValue:
        """Materialize as a probabilistic cell.

        Within each world, weights are support sizes; worlds are weighted by
        their total support so the PValue's global normalization preserves
        frequency-based semantics.  ``add`` keeps (value, world) keys unique,
        so the pre-merged fast constructor applies.
        """
        return PValue.from_unique_weights(
            [(c.value, c.world, len(c.support) or 1) for c in self.candidates]
        )

    def values(self) -> list[Any]:
        return [c.value for c in self.candidates]

    def world_ids(self) -> set[int]:
        return {c.world for c in self.candidates}

    def is_trivial(self) -> bool:
        """True when the only candidate is the original value itself."""
        return len(self.candidates) == 1 and self.candidates[0].value == self.original


@session_owned
@dataclass
class RepairDelta:
    """A batch of cell fixes produced by one cleaning step.

    ``fixes`` is keyed by (tid, attr).  Applying the delta to a relation
    replaces each fixed cell with the PValue of its CellFix; trivial fixes
    are skipped.
    """

    fixes: dict[tuple[int, str], CellFix] = field(default_factory=dict)

    def add_fix(self, fix: CellFix) -> None:
        key = (fix.tid, fix.attr)
        existing = self.fixes.get(key)
        if existing is None:
            self.fixes[key] = fix
            return
        existing.rules |= fix.rules
        for candidate in fix.candidates:
            existing.add(candidate)

    def merge(self, other: "RepairDelta") -> None:
        """Absorb ``other``; its fixes are copied, never aliased or mutated."""
        for key, fix in other.fixes.items():
            if key in self.fixes:
                self.add_fix(fix)
            else:
                self.fixes[key] = fix.copy()

    def nontrivial_fixes(self) -> list[CellFix]:
        return [f for f in self.fixes.values() if not f.is_trivial()]

    def cell_updates(self) -> dict[tuple[int, str], PValue]:
        """The (tid, attr) -> PValue map ready for Relation.update_cells."""
        return {
            (f.tid, f.attr): f.to_pvalue() for f in self.nontrivial_fixes()
        }

    def touched_tids(self) -> set[int]:
        return {f.tid for f in self.nontrivial_fixes()}

    def __len__(self) -> int:
        return len(self.fixes)

    def __bool__(self) -> bool:
        return bool(self.fixes)
