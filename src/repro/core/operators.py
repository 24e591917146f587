"""The cleaning operators: ``clean_sigma`` and ``clean_join``.

``clean_sigma`` (Definition 2) cleans the result of a select operator:
(a) relax the result with correlated tuples, (b) detect and fix errors,
(c) update the dataset in place.  FDs use Algorithm 1 relaxation + group
repair; general DCs use the incremental partial theta-join + holistic
repair, with the Algorithm 2 estimator optionally escalating to a full
matrix check.

``clean_join`` (Definition 3) cleans a join result: extract each side's
qualifying part through lineage, clean each side with the ``clean_sigma``
machinery, then update the join incrementally with the tuples the repairs
added or changed (Lemma 5 guarantees no further checks are needed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.constraints.analysis import FilterSide, filter_side, relevant_rules
from repro.constraints.dc import DenialConstraint, FunctionalDependency, Rule, as_dc, as_fd
from repro.core.relaxation import relax_fd
from repro.core.statistics import FdStatistics
from repro.core.state import TableState, rule_key
from repro.detection.estimator import decide_cleaning
from repro.probabilistic.lineage import JoinResult, incremental_join_update
from repro.repair.dc_repair import compute_dc_fixes
from repro.repair.fd_repair import apply_fd_delta, compute_fd_fixes
from repro.repair.fixes import RepairDelta
from repro.repair.merge import merge_deltas
from repro._ownership import session_owned

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (cycle guard)
    from repro.relation.relation import Row


@session_owned
@dataclass
class CleanReport:
    """What one cleaning-operator invocation did."""

    scope_tids: set[int] = field(default_factory=set)
    extra_tuples: int = 0
    errors_fixed: int = 0
    relaxation_iterations: int = 0
    detection_cost: float = 0.0
    used_full_matrix: bool = False
    changed_tids: set[int] = field(default_factory=set)

    def merge(self, other: "CleanReport") -> None:
        self.scope_tids |= other.scope_tids
        self.extra_tuples += other.extra_tuples
        self.errors_fixed += other.errors_fixed
        self.relaxation_iterations += other.relaxation_iterations
        self.detection_cost += other.detection_cost
        self.used_full_matrix |= other.used_full_matrix
        self.changed_tids |= other.changed_tids


def clean_sigma(
    state: TableState,
    answer_tids: Iterable[int],
    where_attrs: Iterable[str] = (),
    projection: Iterable[str] = (),
    dc_error_threshold: float = 0.2,
    force_rules: Iterable[Rule] | None = None,
) -> CleanReport:
    """Clean an SP query result in place.

    ``answer_tids`` is the dirty answer; ``where_attrs`` / ``projection``
    feed the rule-overlap test (rules not accessed by the query are
    skipped).  ``force_rules`` bypasses the overlap test (used by
    ``clean_join`` and by full-table cleanup).

    The operator mutates ``state.relation`` (applying the repair delta) and
    the provenance store, and returns a :class:`CleanReport`.
    """
    answer = set(answer_tids)
    if force_rules is not None:
        rules = list(force_rules)
    else:
        rules = relevant_rules(projection, where_attrs, state.rules)

    report = CleanReport(scope_tids=set(answer))
    deltas: list[RepairDelta] = []
    fd_marks: list[tuple[str, set[int]]] = []

    where_set = set(where_attrs)
    for rule in rules:
        if state.is_fully_cleaned(rule):
            continue
        fd = as_fd(rule)
        if fd is not None:
            sub_report, delta, repaired = _clean_sigma_fd(state, answer, fd, where_set)
            report.merge(sub_report)
            if repaired:
                fd_marks.append((rule_key(rule), repaired))
            if delta:
                deltas.append(delta)
        else:
            dc = as_dc(rule)
            sub_report, delta = _clean_sigma_dc(state, answer, dc, dc_error_threshold)
            report.merge(sub_report)
            if delta:
                deltas.append(delta)

    if deltas:
        merged = merge_deltas(deltas)
        updated = apply_fd_delta(
            state.relation, merged, provenance=state.provenance, counter=state.counter
        )
        state.replace_relation(updated)
        report.changed_tids |= merged.touched_tids()
        report.errors_fixed += len(merged.nontrivial_fixes())
    for key, repaired in fd_marks:
        state.provenance.mark_checked(key, repaired)
    return report


def fd_scope_needs_cleaning(
    state: TableState,
    answer: set[int],
    fd: FunctionalDependency,
) -> bool:
    """Statistics pruning (Fig. 9) as a standalone test.

    True iff the answer overlaps a dirty group of ``fd`` — through its lhs
    keys or through rhs values that co-occur with a dirty group — or no
    statistics exist for the rule (then cleaning must look).  Shared by
    :func:`clean_sigma`'s FD path and by the batch executor, which prunes
    whole member queries out of a rule group's shared pass with it.
    """
    counter = state.counter
    stats = state.statistics.get(rule_key(fd)) or state.statistics.get(fd.name or str(fd))
    if stats is None:
        return True
    from repro.probabilistic.value import PValue

    view = state.column_view()
    if view is not None:
        from repro.repair.fd_repair import fd_grouping_keys

        pos_map = view.pos_of_tid
        lhs_keys = fd_grouping_keys(view, fd, state.provenance).lhs_keys

        def key_of(tid: int) -> tuple[Any, ...]:
            return lhs_keys[pos_map[tid]]

        present = pos_map
    else:
        lhs_idx = [state.relation.schema.index_of(a) for a in fd.lhs]
        tid_rows = state.relation.tid_index()

        def key_of(tid: int) -> tuple[Any, ...]:
            row = tid_rows[tid]
            out = []
            for i, attr in zip(lhs_idx, fd.lhs):
                original = state.provenance.original(tid, attr)
                if original is not None:
                    out.append(original)
                    continue
                cell = row.values[i]
                out.append(
                    cell.most_probable() if isinstance(cell, PValue) else cell
                )
            return tuple(out)

        present = tid_rows

    answer_keys = {key_of(tid) for tid in answer if tid in present}
    counter.charge_comparisons(len(answer_keys))
    dirty_hit = any(stats.is_dirty_key(k) for k in answer_keys)
    # rhs-filtered queries may relax into dirty groups via rhs values, so
    # only prune when the rule has no dirty group at all overlapping the
    # answer AND the answer's rhs values don't appear in dirty groups.
    return dirty_hit or _rhs_touches_dirty(state, answer, fd, stats)


def _clean_sigma_fd(
    state: TableState,
    answer: set[int],
    fd: FunctionalDependency,
    where_attrs: set[str],
) -> tuple[CleanReport, RepairDelta | None, set[int]]:
    """FD path: relaxation + group detection/repair with statistics pruning."""
    report = CleanReport()
    view = state.column_view()

    # Statistics pruning (Fig. 9): if none of the answer's lhs keys belong to
    # a dirty group, skip relaxation and repair for this rule entirely.
    if not fd_scope_needs_cleaning(state, answer, fd):
        return report, None, set()

    side = filter_side(where_attrs, fd)
    if side is FilterSide.NONE:
        # The rule was forced (join cleaning / full-table cleanup): the safe
        # general behaviour is the transitive closure.
        side = FilterSide.LHS
    seen = state.seen_for(fd)
    relaxation = relax_fd(
        state.relation, answer, fd, filter_side=side, counter=state.counter,
        skip_tids=seen, view=view,
    )
    report.extra_tuples += len(relaxation.extra_tids)
    report.relaxation_iterations += relaxation.iterations
    scope = relaxation.relaxed_tids(answer)
    report.scope_tids |= scope
    state.mark_seen(fd, scope)

    checked = state.provenance.checked(rule_key(fd))
    delta, repaired = compute_fd_fixes(
        state.relation,
        fd,
        scope,
        provenance=state.provenance,
        counter=state.counter,
        skip_group_keys=checked,  # type: ignore[arg-type]
        consult_tids=relaxation.consult_tids,
        view=view,
    )
    report.detection_cost += len(scope) + len(relaxation.consult_tids)
    return report, delta, repaired


def _rhs_touches_dirty(
    state: TableState,
    answer: set[int],
    fd: FunctionalDependency,
    stats: FdStatistics,
) -> bool:
    """Do any of the answer's rhs values co-occur with a dirty lhs group?"""
    from repro.probabilistic.value import PValue

    counter = state.counter

    dirty_rhs = stats.dirty_rhs_values
    view = state.column_view()
    if view is not None:
        pos_map = view.pos_of_tid
        rhs_col = view.columns[fd.rhs]
        for tid in answer:
            pos = pos_map.get(tid)
            if pos is None:
                continue
            cell = rhs_col[pos]
            values = cell.concrete_values() if isinstance(cell, PValue) else (cell,)
            counter.charge_comparisons()
            if any(v in dirty_rhs for v in values):
                return True
        return False

    rhs_idx = state.relation.schema.index_of(fd.rhs)
    tid_rows = state.relation.tid_index()
    for tid in answer:
        row = tid_rows.get(tid)
        if row is None:
            continue
        cell = row.values[rhs_idx]
        values = cell.concrete_values() if isinstance(cell, PValue) else (cell,)
        counter.charge_comparisons()
        if any(v in dirty_rhs for v in values):
            return True
    return False


def _clean_sigma_dc(
    state: TableState,
    answer: set[int],
    dc: DenialConstraint,
    threshold: float,
) -> tuple[CleanReport, RepairDelta | None]:
    """General-DC path: partial theta-join + Algorithm 2 + holistic repair."""
    report = CleanReport()
    matrix = state.matrix_for(dc)

    decision = decide_cleaning(
        matrix, sorted(answer), state.relation, threshold=threshold,
        counter=state.counter,
    )
    if decision.full_cleaning:
        cells = matrix.candidate_cells()
    else:
        cells = matrix.candidate_cells(answer)
    violations = matrix.check_cells(cells)
    if decision.full_cleaning:
        report.used_full_matrix = True
        state.mark_fully_cleaned(dc)
    report.detection_cost += float(len(violations))

    if not violations:
        return report, None
    delta = compute_dc_fixes(
        state.relation,
        dc,
        violations,
        provenance=state.provenance,
        counter=state.counter,
    )
    return report, delta


def clean_full_table(
    state: TableState,
    rules: Iterable[Rule] | None = None,
) -> CleanReport:
    """Clean the whole table for the given rules (the strategy-switch path).

    Equivalent to a clean_sigma whose answer is every tuple; marks rules as
    fully cleaned.
    """
    all_tids = state.relation.tids()
    rules = list(rules) if rules is not None else list(state.rules)
    report = clean_sigma(state, all_tids, force_rules=rules)
    for rule in rules:
        state.mark_fully_cleaned(rule)
    return report


def clean_join(
    left_state: TableState,
    right_state: TableState,
    join_result: JoinResult,
    left_where_attrs: Iterable[str] = (),
    right_where_attrs: Iterable[str] = (),
    dc_error_threshold: float = 0.2,
    left_filter: Callable[["Row"], bool] | None = None,
    right_filter: Callable[["Row"], bool] | None = None,
) -> tuple[JoinResult, CleanReport]:
    """Clean a join result (Definition 3).

    1. Extract the qualifying tids of each side from the lineage.
    2. Clean each side with the ``clean_sigma`` machinery (forcing the
       side's rules: the join itself accessed the join key, and callers pass
       the filter attributes of each side).
    3. Update each relation in place, then update the join incrementally
       with the changed/added tuples of both sides.

    ``left_filter`` / ``right_filter`` are optional row predicates (the
    query's side filters, evaluated with possible-worlds semantics):
    relaxation-added tuples only enter the incremental join when they
    satisfy their side's filter — in Table 4e the (10001, San Francisco)
    city does not join even though relaxation read it.
    """
    report = CleanReport()

    left_tids = join_result.lineage.left_tids()
    right_tids = join_result.lineage.right_tids()

    left_rules = relevant_rules(
        (), set(left_where_attrs) | {join_result.left_attr}, left_state.rules
    )
    right_rules = relevant_rules(
        (), set(right_where_attrs) | {join_result.right_attr}, right_state.rules
    )

    left_report = clean_sigma(
        left_state,
        left_tids,
        force_rules=left_rules,
        dc_error_threshold=dc_error_threshold,
    )
    right_report = clean_sigma(
        right_state,
        right_tids,
        force_rules=right_rules,
        dc_error_threshold=dc_error_threshold,
    )
    report.merge(left_report)
    report.merge(right_report)

    # Tuples the repairs changed, plus relaxation additions that satisfy the
    # side filter: candidates for new join pairs (Fig. 3's incremental join).
    new_left = (left_report.changed_tids | left_report.scope_tids) - left_tids
    new_left |= left_report.changed_tids
    new_right = (right_report.changed_tids | right_report.scope_tids) - right_tids
    new_right |= right_report.changed_tids
    if left_filter is not None:
        rows = left_state.relation.tid_index()
        new_left = {
            t for t in new_left if t in rows and left_filter(rows[t])
        }
    if right_filter is not None:
        rows = right_state.relation.tid_index()
        new_right = {
            t for t in new_right if t in rows and right_filter(rows[t])
        }

    # The incremental join runs over the *qualifying* parts only: the
    # original join inputs plus the filtered additions.
    left_part = left_state.relation.restrict_tids(left_tids | new_left)
    right_part = right_state.relation.restrict_tids(right_tids | new_right)
    updated = incremental_join_update(
        join_result,
        left_part,
        right_part,
        new_left,
        new_right,
    )
    left_state.counter.charge_join_probe(
        len(new_left) * max(1, len(right_state.relation))
        + len(new_right) * max(1, len(left_state.relation))
    )

    # Rebuild output rows for pairs whose underlying tuples changed, so the
    # join result reflects the repaired (probabilistic) cells.
    changed = left_report.changed_tids | right_report.changed_tids
    if changed:
        updated = _refresh_join_rows(
            updated, left_state, right_state,
            left_report.changed_tids, right_report.changed_tids,
        )
    return updated, report


def _refresh_join_rows(
    join_result: JoinResult,
    left_state: TableState,
    right_state: TableState,
    changed_left: set[int],
    changed_right: set[int],
) -> JoinResult:
    """Re-materialize join output rows whose input tuples were repaired."""
    from repro.relation.relation import Relation, Row

    left_rows = left_state.relation.tid_index()
    right_rows = right_state.relation.tid_index()
    out_rows = []
    for row in join_result.relation.rows:
        ltid, rtid = join_result.lineage.pairs.get(row.tid, (None, None))
        if ltid in changed_left or rtid in changed_right:
            lrow = left_rows.get(ltid)
            rrow = right_rows.get(rtid)
            if lrow is not None and rrow is not None:
                out_rows.append(Row(row.tid, lrow.values + rrow.values))
                continue
        out_rows.append(row)
    relation = Relation(
        join_result.relation.schema, out_rows, name=join_result.relation.name
    )
    return JoinResult(
        relation=relation,
        lineage=join_result.lineage,
        left_attr=join_result.left_attr,
        right_attr=join_result.right_attr,
        left_name=join_result.left_name,
        right_name=join_result.right_name,
    )
