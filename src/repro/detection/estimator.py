"""Error estimation & the full-vs-partial cleaning decision (Algorithm 2).

``Estimate_Errors`` splits the dataset into ranges over the DC's primary
attribute and, for every overlapping pair of ranges, estimates how many
conflicting pairs the overlap of the *secondary* attribute boundaries can
produce.  Given a query answer, Daisy sums the estimated errors of the
ranges the answer overlaps, computes the estimated error rate
``errors / (|qa| + errors)``, and decides full vs partial cleaning against a
user threshold.  The *support* statistic reports which fraction of the
diagonal (same-range) cells has been checked, since boundary-overlap
estimation is uninformative there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.constraints.dc import DenialConstraint
from repro.constraints.predicate import Predicate
from repro.detection.thetajoin import BoundingBox, ThetaJoinMatrix, _numeric
from repro.engine.stats import GLOBAL_COUNTER, WorkCounter
from repro.relation.relation import Relation


@dataclass
class RangeErrorEstimate:
    """Estimated conflicts attributable to one primary-attribute range."""

    stripe: int
    low: float
    high: float
    estimated_errors: float


@dataclass
class CleaningDecision:
    """Output of Algorithm 2 for one query."""

    estimated_errors: float
    result_size: int
    error_rate: float
    support: float
    full_cleaning: bool


def _secondary_attrs(dc: DenialConstraint, primary: str) -> list[Predicate]:
    """The two-tuple predicates other than the primary-attribute one."""
    out = []
    for p in dc.predicates:
        if p.is_constant() or p.is_single_tuple():
            continue
        if p.left_attr == primary and p.right_attr == primary:
            continue
        out.append(p)
    return out


def estimate_errors(
    matrix: ThetaJoinMatrix, counter: WorkCounter | None = None
) -> list[RangeErrorEstimate]:
    """The ``Estimate_Errors`` function of Algorithm 2.

    For every ordered pair of stripes (r1, r2) whose bounding boxes admit a
    violation, the overlap width of each secondary attribute's boundary,
    relative to the boxes' extents, scales the product of the stripe sizes
    into an expected conflict count.  Per the paper, diagonal cells are
    excluded (their ranges are equivalent — the support statistic covers
    them).
    """
    counter = counter if counter is not None else GLOBAL_COUNTER
    dc = matrix.dc
    secondary = _secondary_attrs(dc, matrix.primary_attr)
    estimates = [
        RangeErrorEstimate(
            stripe=i,
            low=box.range_of(matrix.primary_attr)[0],
            high=box.range_of(matrix.primary_attr)[1],
            estimated_errors=0.0,
        )
        for i, box in enumerate(matrix.bboxes)
    ]
    s = matrix.num_stripes()
    for i in range(s):
        for j in range(s):
            if i == j:
                continue  # diagonal handled by the support statistic
            counter.charge_comparisons()
            box_i, box_j = matrix.bboxes[i], matrix.bboxes[j]
            # The primary predicate must be satisfiable between the stripes.
            primary_ok = all(
                _box_pred_possible(p, box_i, box_j)
                for p in dc.predicates
                if not p.is_constant()
                and not p.is_single_tuple()
                and p.left_attr == matrix.primary_attr
                and p.right_attr == matrix.primary_attr
            )
            if not primary_ok:
                continue
            conflict = 1.0
            for p in secondary:
                overlap = _boundary_overlap(p, box_i, box_j)
                if overlap <= 0.0:
                    conflict = 0.0
                    break
                conflict *= overlap
            if conflict <= 0.0:
                continue
            size_i = len(matrix.stripes[i])
            size_j = len(matrix.stripes[j])
            estimated = conflict * size_i * size_j
            # Attribute the estimate to the row stripe (the query side).
            estimates[i].estimated_errors += estimated / 2.0
            estimates[j].estimated_errors += estimated / 2.0
    return estimates


def _box_pred_possible(
    pred: Predicate, box_i: BoundingBox, box_j: BoundingBox
) -> bool:
    lo1, hi1 = box_i.range_of(pred.left_attr)
    lo2, hi2 = box_j.range_of(pred.right_attr)
    if lo1 is math.inf or lo2 is math.inf:
        return False
    if pred.op == "<":
        return lo1 < hi2
    if pred.op == "<=":
        return lo1 <= hi2
    if pred.op == ">":
        return hi1 > lo2
    if pred.op == ">=":
        return hi1 >= lo2
    if pred.op == "=":
        return not (hi1 < lo2 or hi2 < lo1)
    return True


def _boundary_overlap(
    pred: Predicate, box_i: BoundingBox, box_j: BoundingBox
) -> float:
    """Relative overlap of the secondary-attribute boundaries of two boxes.

    The paper's example: ranges with tax boundaries (0.3, 0.4) and
    (0.25, 0.5) conflict in the overlap (0.3, 0.4).  We return the overlap
    width divided by the union width — a [0, 1] conflict-propensity factor.
    """
    try:
        lo1, hi1 = box_i.range_of(pred.left_attr)
        lo2, hi2 = box_j.range_of(pred.right_attr)  # type: ignore[arg-type]
    except KeyError:
        return 0.0
    if lo1 is math.inf or lo2 is math.inf:
        return 0.0
    overlap = min(hi1, hi2) - max(lo1, lo2)
    if overlap < 0:
        return 0.0
    union = max(hi1, hi2) - min(lo1, lo2)
    if union <= 0:
        # Degenerate boxes (constant attribute): any overlap is total.
        return 1.0
    if overlap == 0:
        # Touching boundaries still admit conflicts at the boundary point.
        return 0.5 / max(1.0, union)
    return overlap / union


def decide_cleaning(
    matrix: ThetaJoinMatrix,
    query_tids: Sequence[int],
    relation: Relation,
    threshold: float = 0.2,
    counter: WorkCounter | None = None,
) -> CleaningDecision:
    """Algorithm 2's per-query decision: full or partial cleaning.

    ``threshold`` is the user-provided error-rate bound: if the estimated
    error rate of the ranges overlapping the query answer exceeds it, Daisy
    cleans the whole dataset (the Fig. 10 "23% accuracy → full cleaning"
    case); otherwise it cleans partially.
    """
    estimates = estimate_errors(matrix, counter=counter)
    primary_idx = relation.schema.index_of(matrix.primary_attr)
    tid_rows = relation.tid_index()
    values = [
        v
        for tid in query_tids
        if tid in tid_rows
        and (v := _numeric(tid_rows[tid].values[primary_idx])) is not None
    ]
    if values:
        stripes = matrix.stripes_overlapping_range(min(values), max(values))
    else:
        stripes = set()
    errors = sum(e.estimated_errors for e in estimates if e.stripe in stripes)
    qa = len(query_tids)
    rate = errors / (qa + errors) if (qa + errors) > 0 else 0.0
    return CleaningDecision(
        estimated_errors=errors,
        result_size=qa,
        error_rate=rate,
        support=matrix.support(),
        full_cleaning=rate > threshold,
    )
