"""The adaptive cost model: the strategy switch and service admission.

Three layers, bottom up:

* **Section 5.2 formulas** (:func:`offline_cost`,
  :func:`incremental_query_cost`) and the per-table :class:`CostModel` that
  evaluates the Section 5.2.3 inequality — while the workload executes,
  should Daisy keep cleaning incrementally or clean the remaining dirty
  part at once (the Fig. 7 / Fig. 12 strategy switch)?  The model works on
  observed per-query measurements plus the precomputed statistics (ε and p
  estimates from :mod:`repro.core.statistics`).
* **:class:`CostCalibration`** — a feedback loop from *observed*
  :class:`~repro.engine.stats.WorkCounter` totals back into the estimates:
  per pass kind an EWMA of the observed/estimated work ratio rescales
  every later estimate of that kind, so the planner's prices track what
  passes actually cost on this workload.
* **:class:`AdaptivePlanner`** — the arbiter that prices the two remaining
  decisions in the same work-unit currency:

  1. the strategy switch (via :meth:`AdaptivePlanner.strategy_switch`,
     wrapping :meth:`CostModel.switch_costs`),
  2. admit / delay / shed for one service request
     (:meth:`AdaptivePlanner.choose_admission`, calibrated through the
     ``"admission"`` bucket).

  ``column_backend="auto"`` and ``storage="auto"`` are *not* priced here:
  their alternatives share one calibration factor, so the verdict never
  leaves the static rules in
  :func:`repro.relation.kernels.resolve_column_backend` and
  :func:`repro.storage.modes.resolve_storage_mode`.

  Every decision is recorded as a :class:`PassDecision` (choice, the
  estimates of every alternative, and — once the pass ran — the observed
  work units) and surfaced on
  :attr:`repro.api.WorkloadReport.decisions`.

**Invariant:** a wrong price costs wall-clock time, not correctness:
admission only delays or sheds requests, and the strategy switch only
decides when the remaining dirty part is cleaned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro._ownership import session_owned


@dataclass(frozen=True)
class QueryObservation:
    """Measured quantities for one executed query."""

    result_size: int       # q_i
    extra_tuples: int      # e_i (relaxation additions)
    errors: int            # ε_i (erroneous entities repaired)
    detection_cost: float  # d_i work units


@dataclass
class CostModelConfig:
    """Tuning knobs for the cost model."""

    #: Expected number of queries in the workload (q in the inequality).
    expected_queries: int = 50
    #: Safety factor: switch only when incremental exceeds full by this much.
    hysteresis: float = 1.0


def offline_cost(
    n: int,
    errors: int,
    candidates_per_error: float,
    num_queries: int,
    is_dc: bool = False,
) -> float:
    """Total offline cost: q·n + d_full + ε·n + n + ε·p (Section 5.2.3).

    ``d_full`` is O(n) for FDs (hash grouping) and the triangular
    n·(n+1)/2 for DCs.
    """
    d_full = (n * (n + 1)) / 2.0 if is_dc else float(n)
    repair = errors * float(n)
    update = n + errors * candidates_per_error
    return num_queries * float(n) + d_full + repair + update


def incremental_query_cost(
    n: int,
    seen_tuples: int,
    result_size: int,
    extra_tuples: int,
    errors: int,
    prior_prob_values: float,
    candidates_per_error: float,
    is_dc: bool = False,
    partitions: int = 64,
) -> float:
    """Cost of cleaning one query incrementally (formula (1), Section 5.2.2).

    ``seen_tuples`` = Σ_{j<i} q_j, ``prior_prob_values`` = Σ_{j<i} ε_j·p.
    """
    relaxation = max(0, n - seen_tuples)
    if is_dc:
        detection = (n * result_size) / max(1, partitions)
    else:
        detection = result_size + extra_tuples
    repair = errors * (result_size + extra_tuples)
    update = (
        max(0, n - prior_prob_values / max(1.0, candidates_per_error))
        + prior_prob_values
        + errors * candidates_per_error
    )
    return relaxation + detection + repair + update


@session_owned
@dataclass
class CostModel:
    """Adaptive incremental-vs-full decision, updated after every query.

    Usage: construct with the dataset size and statistics estimates, call
    :meth:`observe` after each query, then :meth:`should_switch_to_full`.
    The decision compares the projected cost of finishing the workload
    incrementally against cleaning the remaining dirty part now and running
    the remaining queries plainly.
    """

    dataset_size: int
    estimated_errors: int
    candidates_per_error: float = 2.0
    is_dc: bool = False
    config: CostModelConfig = field(default_factory=CostModelConfig)

    observations: list[QueryObservation] = field(default_factory=list)
    cumulative_incremental_cost: float = 0.0
    errors_cleaned: int = 0
    tuples_seen: int = 0

    def observe(self, obs: QueryObservation) -> None:
        """Record one executed query's measurements."""
        prior_prob_values = self.errors_cleaned * self.candidates_per_error
        cost = incremental_query_cost(
            n=self.dataset_size,
            seen_tuples=self.tuples_seen,
            result_size=obs.result_size,
            extra_tuples=obs.extra_tuples,
            errors=obs.errors,
            prior_prob_values=prior_prob_values,
            candidates_per_error=self.candidates_per_error,
            is_dc=self.is_dc,
        )
        self.cumulative_incremental_cost += cost
        self.observations.append(obs)
        self.errors_cleaned += obs.errors
        self.tuples_seen += obs.result_size + obs.extra_tuples

    # -- projections ------------------------------------------------------------

    def remaining_errors(self) -> int:
        return max(0, self.estimated_errors - self.errors_cleaned)

    def _avg(self, selector: Callable[[QueryObservation], float]) -> float:
        if not self.observations:
            return 0.0
        return sum(selector(o) for o in self.observations) / len(self.observations)

    def projected_incremental_remaining(self, remaining_queries: int) -> float:
        """Projected cost of finishing the workload incrementally."""
        if remaining_queries <= 0:
            return 0.0
        avg_q = self._avg(lambda o: o.result_size) or self.dataset_size * 0.02
        avg_e = self._avg(lambda o: o.extra_tuples)
        total_remaining_err = self.remaining_errors()
        avg_err = (
            total_remaining_err / remaining_queries if remaining_queries else 0.0
        )
        total = 0.0
        seen = float(self.tuples_seen)
        cleaned = float(self.errors_cleaned)
        for _ in range(remaining_queries):
            total += incremental_query_cost(
                n=self.dataset_size,
                seen_tuples=int(seen),
                result_size=int(avg_q),
                extra_tuples=int(avg_e),
                errors=int(avg_err),
                prior_prob_values=cleaned * self.candidates_per_error,
                candidates_per_error=self.candidates_per_error,
                is_dc=self.is_dc,
            )
            seen += avg_q + avg_e
            cleaned += avg_err
        return total

    def full_clean_now_cost(self, remaining_queries: int) -> float:
        """Cost of cleaning the remaining dirty part now + plain queries.

        Cheaper than a from-scratch offline clean because only the dirty
        remainder is processed (the Fig. 7 observation that the switched
        strategy beats pure offline).
        """
        n = self.dataset_size
        remaining_err = self.remaining_errors()
        unseen = max(0, n - self.tuples_seen)
        d_full = (unseen * (unseen + 1)) / 2.0 if self.is_dc else float(unseen)
        repair = remaining_err * float(unseen if unseen > 0 else n)
        update = unseen + remaining_err * self.candidates_per_error
        queries = remaining_queries * float(n)
        return d_full + repair + update + queries

    def switch_costs(
        self, remaining_queries: int | None = None
    ) -> tuple[float, float] | None:
        """Both sides of the Section 5.2.3 inequality, or None when the
        workload is projected to be over (no remaining queries to finish
        either way).  Returns ``(incremental, full_clean_now)``."""
        if remaining_queries is None:
            remaining_queries = max(
                0, self.config.expected_queries - len(self.observations)
            )
        if remaining_queries <= 0:
            return None
        incremental = self.projected_incremental_remaining(remaining_queries)
        full = self.full_clean_now_cost(remaining_queries)
        return incremental, full

    def switch_exceeds(self, incremental: float, full: float) -> bool:
        """The Section 5.2.3 inequality over already-computed costs — the
        single definition both :meth:`should_switch_to_full` and the
        planner's recorded verdicts evaluate."""
        return incremental > full * self.config.hysteresis

    def should_switch_to_full(
        self, remaining_queries: int | None = None
    ) -> bool:
        """The Section 5.2.3 inequality, evaluated with current estimates."""
        costs = self.switch_costs(remaining_queries)
        if costs is None:
            return False
        return self.switch_exceeds(*costs)


# ---------------------------------------------------------------------------
# Adaptive planning: calibration + the unified per-pass decision layer
# ---------------------------------------------------------------------------

#: Decision families recorded on :class:`PassDecision.kind`.
DECISION_STRATEGY = "strategy_switch"
DECISION_ADMISSION = "admission"

#: Calibration bucket (``PassDecision.pass_kind``) of admission estimates.
PASS_ADMISSION = "admission"


@session_owned
@dataclass
class PassDecision:
    """One adaptive choice: what was priced, what was picked, what it cost.

    ``alternatives`` holds the modeled completion cost of every option the
    planner considered (including the chosen one, under its ``choice`` key);
    ``estimated_cost`` is the chosen option's modeled cost; ``raw_units`` is
    the uncalibrated work estimate the model started from (the quantity
    :class:`CostCalibration` learns to rescale); ``observed_cost`` is filled
    in after the pass ran with the work units it actually charged — ``None``
    for decisions whose outcome is not a measurable pass (e.g. a
    ``continue_incremental`` strategy verdict).
    """

    kind: str
    pass_kind: str
    table: str
    choice: str
    estimated_cost: float
    raw_units: float = 0.0
    alternatives: dict[str, float] = field(default_factory=dict)
    observed_cost: float | None = None


@session_owned
class CostCalibration:
    """EWMA feedback from observed work units into future estimates.

    For each pass kind the calibration tracks ``factor = EWMA(observed /
    estimated)``; :meth:`calibrated` rescales a raw estimate by the current
    factor.  With a stationary workload (constant true ratio ``r``) each
    :meth:`observe` moves the factor geometrically toward ``r`` — the
    absolute estimation error shrinks by ``(1 - alpha)`` per observation,
    which is the monotone-improvement property ``tests/test_costmodel.py``
    pins on replayed work logs.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._factors: dict[str, float] = {}
        self._samples: dict[str, int] = {}

    def factor(self, pass_kind: str) -> float:
        """Current observed/estimated ratio for one pass kind (1.0 = raw)."""
        return self._factors.get(pass_kind, 1.0)

    def samples(self, pass_kind: str) -> int:
        return self._samples.get(pass_kind, 0)

    def calibrated(self, pass_kind: str, raw_units: float) -> float:
        """``raw_units`` rescaled by the learned factor for this pass kind."""
        return raw_units * self.factor(pass_kind)

    def observe(self, pass_kind: str, raw_units: float, observed: float) -> None:
        """Feed one (estimate, observation) pair back into the factor."""
        if raw_units <= 0 or observed < 0 or not math.isfinite(observed):
            return
        ratio = observed / raw_units
        previous = self._factors.get(pass_kind)
        if previous is None:
            # First sample: adopt the observed ratio outright (an EWMA from
            # the arbitrary prior 1.0 would just slow convergence down).
            self._factors[pass_kind] = ratio
        else:
            self._factors[pass_kind] = previous + self.alpha * (ratio - previous)
        self._samples[pass_kind] = self._samples.get(pass_kind, 0) + 1


@session_owned
class AdaptivePlanner:
    """The strategy-switch and admission arbiter, with its decision log.

    One instance per :class:`repro.api.Session` (and one per
    :class:`repro.service.DaisyService` for admission).  All prices are in
    the deterministic work-unit currency of
    :class:`~repro.engine.stats.WorkCounter` (comparisons, scans, …), so
    decisions are reproducible across hosts; wall-clock enters only through
    :class:`CostCalibration`-learned ratios of observed work to raw
    estimates.
    """

    #: Decision-log cap: long-lived sessions (e.g. a service client's) must
    #: not grow memory linearly in queries executed.
    MAX_DECISIONS = 4096

    def __init__(self, calibration: CostCalibration | None = None) -> None:
        self.calibration = calibration if calibration is not None else CostCalibration()
        #: The retained decision tail, oldest first (see :attr:`MAX_DECISIONS`).
        self.decisions: list[PassDecision] = []
        #: How many old decisions the cap has discarded (monotonic).
        self.decisions_dropped = 0

    # -- decision log ------------------------------------------------------------

    def _append(self, decision: PassDecision) -> None:
        self.decisions.append(decision)
        overflow = len(self.decisions) - self.MAX_DECISIONS
        if overflow > 0:
            del self.decisions[:overflow]
            self.decisions_dropped += overflow

    def mark(self) -> int:
        """Absolute slice point for reports (stable across cap trimming)."""
        return len(self.decisions) + self.decisions_dropped

    def decisions_since(self, mark: int) -> list[PassDecision]:
        """Decisions appended since ``mark`` (minus any the cap discarded)."""
        start = max(0, mark - self.decisions_dropped)
        return list(self.decisions[start:])

    def _decide(
        self,
        kind: str,
        pass_kind: str,
        table: str,
        alternatives: dict[str, float],
        raw_units: float,
        choice: str,
    ) -> PassDecision:
        """Build and log one decision — the only place a
        :class:`PassDecision` is constructed.

        ``alternatives`` maps every option considered to its modeled cost;
        ``choice`` is the caller's verdict.
        """
        decision = PassDecision(
            kind=kind,
            pass_kind=pass_kind,
            table=table,
            choice=choice,
            estimated_cost=alternatives[choice],
            raw_units=float(raw_units),
            alternatives=alternatives,
        )
        self._append(decision)
        return decision

    def observe(self, decision: PassDecision, observed_units: float) -> None:
        """Record a pass's actual work units and feed the calibration.

        Strategy-switch verdicts only record: their estimate projects the
        remaining workload's execution while the observation is the full
        clean's counter delta — not commensurate quantities, so they must
        not contaminate a calibration bucket.
        """
        decision.observed_cost = float(observed_units)
        if decision.kind == DECISION_STRATEGY:
            return
        self.calibration.observe(
            decision.pass_kind, decision.raw_units, float(observed_units)
        )

    # -- service-tier admission control ---------------------------------------------

    def choose_admission(
        self,
        table: str,
        raw_units: float,
        queued_units: float,
        budget_units: float,
    ) -> PassDecision:
        """Price admitting one service request against the queue budget.

        ``raw_units`` is the request's uncalibrated work estimate (scope
        rows for a read, cells for an update batch), rescaled by the
        ``admission`` calibration bucket as observed work-unit deltas are
        fed back via :meth:`observe`.  ``queued_units`` is the calibrated
        work already admitted but not yet completed; ``budget_units`` the
        queue ceiling (``<= 0`` = unbounded, every request admits).

        * ``admit`` — the request fits under the ceiling now;
        * ``delay`` — it would overflow the ceiling but fits an empty
          queue: hold it until enough queued work completes;
        * ``shed`` — its own estimate exceeds the whole budget: no amount
          of draining will ever make it fit, reject outright.
        """
        est = self.calibration.calibrated(PASS_ADMISSION, max(0.0, raw_units))
        queued = max(0.0, queued_units)
        alternatives = {"admit": queued + est, "delay": queued, "shed": queued}
        if budget_units <= 0 or queued + est <= budget_units:
            choice = "admit"
        elif est > budget_units:
            choice = "shed"
        else:
            choice = "delay"
        return self._decide(
            DECISION_ADMISSION, PASS_ADMISSION, table, alternatives, raw_units, choice
        )

    # -- the Section 5.2.3 strategy switch ------------------------------------------

    def strategy_switch(
        self,
        table: str,
        model: CostModel,
        remaining_queries: int | None = None,
    ) -> PassDecision | None:
        """Evaluate the strategy-switch inequality and record the verdict.

        Returns ``None`` when the workload is projected to be over (no
        decision to take, matching :meth:`CostModel.should_switch_to_full`
        returning False).  The caller performs the full clean when
        ``choice == "full_clean_now"`` and then reports the clean's counter
        delta via :meth:`observe`; ``continue_incremental`` verdicts keep
        ``observed_cost`` as ``None`` — their outcome is the *next* queries'
        incremental costs, which the per-table :class:`CostModel` already
        accumulates.
        """
        costs = model.switch_costs(remaining_queries)
        if costs is None:
            return None
        incremental, full = costs
        choice = (
            "full_clean_now"
            if model.switch_exceeds(incremental, full)
            else "continue_incremental"
        )
        alternatives = {"continue_incremental": incremental, "full_clean_now": full}
        return self._decide(
            DECISION_STRATEGY,
            "strategy",
            table,
            alternatives,
            alternatives[choice],
            choice,
        )
