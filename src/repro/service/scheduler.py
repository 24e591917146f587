"""The concurrent service scheduler: admission, turnstiles, client workers.

One :class:`DaisyService` multiplexes many clients over one shared
:class:`~repro.daisy.Daisy` engine.  The threading model is built around a
single fact about this engine: **reads mutate** (incremental cleaning
writes ``seen_tids``, repairs cells, replaces relations), so two requests
touching the same table can never overlap — but requests on disjoint
tables can, and that is where the concurrency lives.

Three thread roles:

* the **scheduler thread** (one): owns every admission decision.  It
  drains a FIFO inbox of ``submit`` / ``complete`` / ``stop`` messages,
  prices each pending request through the service-level
  :class:`~repro.core.costmodel.AdaptivePlanner` (``choose_admission``),
  and on admit assigns the request its global admission index plus one
  turnstile ticket per touched table.  Because the planner is
  ``@session_owned``, funnelling every ``PassDecision`` write through
  this one thread is exactly its ownership contract.
* **client worker threads** (one per client): each constructs its own
  :class:`~repro.api.Session` + :class:`~repro.service.runner.RequestRunner`
  *inside* ``run()`` (so the session's single-writer ownership holds by
  construction), then processes its client's admitted requests in
  admission order: wait on every table ticket, execute, advance the
  turnstiles, report completion.
* callers: ``submit()`` returns a ``concurrent.futures.Future`` resolved
  with the :class:`~repro.service.requests.ServiceResponse`.

**Why this cannot deadlock.**  Tickets on every table are issued in
global admission order, and a client's requests are admitted in its own
submission order.  Consider the earliest-admitted uncompleted request R:
every smaller ticket on each of R's tables belongs to an earlier-admitted
request (all completed), so R's turnstiles are open; and every
earlier-admitted request of R's client is completed, so R is at its
worker's queue head.  R can always run — global progress follows by
induction.

**Why concurrent equals serial.**  Per-table engine state mutates in
admission order (turnstiles); per-client session state mutates in client
submission order, which is a subsequence of admission order.  Hence
replaying the admission log serially — one persistent session per client,
requests in admission order (:func:`repro.service.oracle.replay_serial`)
— performs the identical sequence of state transitions, and every
response is byte-identical.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro._ownership import session_owned, shared_engine_state
from repro.core.costmodel import AdaptivePlanner, PassDecision
from repro.detection.maintenance import visibility_of
from repro.service.requests import ServiceRequest, ServiceResponse
from repro.service.runner import RequestRunner

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.config import DaisyConfig
    from repro.daisy import Daisy

__all__ = ["DaisyService", "ServicePolicy", "TableTurnstile"]


@dataclass(frozen=True)
class ServicePolicy:
    """Admission knobs of one :class:`DaisyService`.

    ``budget_units <= 0`` disables admission control (every request
    admits immediately, in submission order — what the parity suite
    runs under).  With a positive budget, the scheduler keeps the total
    *calibrated* work-unit estimate of in-flight requests at or under the
    budget: over-budget requests are delayed at the queue head (FIFO
    order is never reordered), and a request whose own estimate exceeds
    the whole budget is shed outright.
    """

    budget_units: float = 0.0


@shared_engine_state
class TableTurnstile:
    """FIFO ticket lock for one table: tickets run strictly in issue order.

    The scheduler thread issues tickets (in global admission order);
    worker threads wait for their ticket and advance when done.  Shared
    across every worker, hence ``@shared_engine_state`` with both counters
    seam-declared; the condition variable serializes the actual writes.
    """

    MUTATED_UNDER = {
        "issued": ("TableTurnstile.issue",),
        "serving": ("TableTurnstile.advance",),
    }

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self.issued = 0
        self.serving = 0

    def issue(self) -> int:
        """Hand out the next ticket (scheduler thread only)."""
        with self._cond:
            ticket = self.issued
            self.issued = ticket + 1
            return ticket

    def wait_for(self, ticket: int) -> None:
        """Block until ``ticket`` is being served."""
        with self._cond:
            self._cond.wait_for(lambda: self.serving >= ticket)

    def advance(self) -> None:
        """Finish the current ticket and wake the next holder."""
        with self._cond:
            self.serving = self.serving + 1
            self._cond.notify_all()


@session_owned
@dataclass
class _WorkItem:
    """One admitted request in flight, scheduler -> worker."""

    request: ServiceRequest
    future: "Future[ServiceResponse]"
    admitted: int
    #: (turnstile, ticket) pairs in sorted-table order, tickets issued in
    #: admission order; one entry per touched table.
    tickets: list[tuple[TableTurnstile, int]] = field(default_factory=list)
    decision: PassDecision | None = None
    estimate: float = 0.0


@session_owned
class _ClientWorker:
    """One client's executor thread: a session, a runner, a FIFO queue.

    The session and runner are constructed *inside* :meth:`_run`, on the
    worker thread itself, so every post-construction write to session
    state comes from the one thread that owns it — the
    ``@session_owned`` contract holds by construction, witnessed at
    runtime when diagnostics are on.
    """

    def __init__(self, service: "DaisyService", client: str) -> None:
        self._service = service
        self.client = client
        self._queue: "queue.Queue[_WorkItem | None]" = queue.Queue()
        self._thread = threading.Thread(
            target=self._run, name=f"daisy-service-{client}", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def enqueue(self, item: "_WorkItem | None") -> None:
        self._queue.put(item)

    def join(self) -> None:
        self._thread.join()

    def _run(self) -> None:
        session = self._service.engine.connect(self._service.session_config)
        runner = RequestRunner(session)
        try:
            while True:
                item = self._queue.get()
                if item is None:
                    return
                self._execute(runner, item)
        finally:
            session.close()

    def _execute(self, runner: RequestRunner, item: _WorkItem) -> None:
        states = self._service.engine.states
        tables = [
            t for t in item.request.touched_tables() if t in states
        ]
        for turnstile, ticket in item.tickets:
            turnstile.wait_for(ticket)
        try:
            before = {t: states[t].counter.total() for t in tables}
            response = runner.run(item.request, item.admitted)
            units = float(
                sum(states[t].counter.total() - before[t] for t in tables)
            )
        finally:
            for turnstile, _ticket in item.tickets:
                turnstile.advance()
        # Completion must be enqueued *before* the future resolves: a
        # caller that saw every future done and then calls stop() is
        # guaranteed its "stop" lands behind every completion in the
        # scheduler's FIFO inbox.
        self._service.post_completion(item, units)
        item.future.set_result(response)


@shared_engine_state
class DaisyService:
    """The concurrent multi-session front end over one shared engine.

    Usable as a context manager::

        service = DaisyService(engine)
        with service:
            future = service.submit(request)
            response = future.result()

    One instance is shared by every submitting thread plus its own
    scheduler and worker threads, hence ``@shared_engine_state``: every
    mutable attribute below names the scheduler-side seams allowed to
    write it.  All seams except ``start``/``stop`` (caller thread, before
    and after the scheduler runs) execute on the scheduler thread.
    """

    MUTATED_UNDER = {
        "queued_units": ("DaisyService._launch", "DaisyService._complete"),
        "admission_log": ("DaisyService._launch",),
        "shed_log": ("DaisyService._drain", "DaisyService._reject_pending"),
        "_pending": (
            "DaisyService._enqueue",
            "DaisyService._drain",
            "DaisyService._reject_pending",
        ),
        "_workers": ("DaisyService._worker",),
        "_turnstiles": ("DaisyService._turnstile",),
        "_started": ("DaisyService.start", "DaisyService.stop"),
        "_thread": ("DaisyService.start",),
    }

    def __init__(
        self,
        engine: "Daisy",
        policy: ServicePolicy | None = None,
        session_config: "DaisyConfig | None" = None,
    ) -> None:
        self.engine = engine
        self.policy = policy if policy is not None else ServicePolicy()
        self.session_config = session_config
        #: The service-level planner pricing admission; owned by the
        #: scheduler thread (every post-init write happens there).
        self.planner = AdaptivePlanner()
        #: Requests admitted so far, in admission order — the exact log
        #: the serial oracle replays.
        self.admission_log: list[ServiceRequest] = []
        #: Requests shed (or rejected at shutdown), in decision order.
        self.shed_log: list[ServiceRequest] = []
        #: Calibrated work-unit estimate of admitted-but-uncompleted work.
        self.queued_units = 0.0
        self._inbox: "queue.Queue[tuple[Any, ...]]" = queue.Queue()
        self._pending: "list[tuple[ServiceRequest, Future[ServiceResponse]]]" = []
        self._workers: dict[str, _ClientWorker] = {}
        self._turnstiles: dict[str, TableTurnstile] = {}
        self._started = False

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "DaisyService":
        self.start()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False

    def start(self) -> None:
        """Start the scheduler thread (idempotent)."""
        if self._started:
            return
        self._thread = threading.Thread(
            target=self._run, name="daisy-service-scheduler", daemon=True
        )
        self._started = True
        self._thread.start()

    def stop(self) -> None:
        """Drain and stop: scheduler first, then every client worker.

        Callers that wait for all submitted futures before stopping get a
        clean drain — completions are enqueued before futures resolve, so
        the ``stop`` message lands behind them.  Requests still pending
        (delayed past shutdown) resolve as ``status="shed"``.
        """
        if not self._started:
            return
        self._inbox.put(("stop",))
        self._thread.join()
        for client in sorted(self._workers):
            self._workers[client].enqueue(None)
        for client in sorted(self._workers):
            self._workers[client].join()
        self._started = False

    # -- submission (any thread) ---------------------------------------------------

    def submit(self, request: ServiceRequest) -> "Future[ServiceResponse]":
        """Enqueue one request; the future resolves with its response."""
        future: "Future[ServiceResponse]" = Future()
        self._inbox.put(("submit", request, future))
        return future

    def post_completion(self, item: _WorkItem, units: float) -> None:
        """Worker-side: report one finished request to the scheduler."""
        self._inbox.put(("complete", item, units))

    # -- scheduler thread ----------------------------------------------------------

    def _run(self) -> None:
        while True:
            message = self._inbox.get()
            kind = message[0]
            if kind == "submit":
                self._enqueue(message[1], message[2])
            elif kind == "complete":
                self._complete(message[1], message[2])
            elif kind == "stop":
                self._reject_pending()
                return
            self._drain()

    def _enqueue(
        self, request: ServiceRequest, future: "Future[ServiceResponse]"
    ) -> None:
        self._pending.append((request, future))

    def _complete(self, item: _WorkItem, units: float) -> None:
        self.queued_units = max(0.0, self.queued_units - item.estimate)
        if item.decision is not None:
            self.planner.observe(item.decision, units)

    def _estimate_units(self, request: ServiceRequest) -> float:
        """The request's raw work estimate: rows touched (reads scale with
        scope; updates with invalidation over the same table)."""
        states = self.engine.states
        rows = sum(
            len(states[t].relation.rows)
            for t in request.touched_tables()
            if t in states
        )
        multiplier = len(request.queries) if request.queries else 1
        return float(max(1, rows) * multiplier)

    def _drain(self) -> None:
        """Admit from the queue head, strictly FIFO.

        A delayed head blocks everything behind it (order is part of the
        parity contract); it is re-priced once per subsequent inbox
        message, so completions steadily open the budget.
        """
        while self._pending:
            request, future = self._pending[0]
            decision = self.planner.choose_admission(
                table=",".join(request.touched_tables()) or "-",
                raw_units=self._estimate_units(request),
                queued_units=self.queued_units,
                budget_units=self.policy.budget_units,
            )
            if decision.choice == "delay":
                return
            del self._pending[0]
            if decision.choice == "shed":
                self.shed_log.append(request)
                future.set_result(self._shed_response(request))
                continue
            self._launch(request, future, decision)

    def _shed_response(self, request: ServiceRequest) -> ServiceResponse:
        return ServiceResponse(
            client=request.client,
            seq=request.seq,
            kind=request.kind,
            status="shed",
            admitted=-1,
            payload={"error": "request shed by admission control"},
        )

    def _launch(
        self,
        request: ServiceRequest,
        future: "Future[ServiceResponse]",
        decision: PassDecision,
    ) -> None:
        admitted = len(self.admission_log)
        self.admission_log.append(request)
        item = _WorkItem(
            request=request,
            future=future,
            admitted=admitted,
            decision=decision,
            estimate=decision.estimated_cost - self.queued_units,
        )
        for table in request.touched_tables():
            turnstile = self._turnstile(table)
            item.tickets.append((turnstile, turnstile.issue()))
        self.queued_units = decision.estimated_cost
        self._worker(request.client).enqueue(item)

    def _reject_pending(self) -> None:
        """Resolve still-pending futures at shutdown (as shed)."""
        for request, future in self._pending:
            self.shed_log.append(request)
            future.set_result(self._shed_response(request))
        del self._pending[:]

    def _turnstile(self, table: str) -> TableTurnstile:
        turnstile = self._turnstiles.get(table)
        if turnstile is None:
            turnstile = TableTurnstile()
            self._turnstiles[table] = turnstile
        return turnstile

    def _worker(self, client: str) -> _ClientWorker:
        worker = self._workers.get(client)
        if worker is None:
            worker = _ClientWorker(self, client)
            self._workers[client] = worker
            worker.start()
        return worker

    # -- introspection (any thread; reads only) --------------------------------------

    def status(self) -> dict[str, Any]:
        """A JSON-ready status surface: epochs, visibility, admission."""
        tables = {}
        for name in sorted(self.engine.states):
            visibility = visibility_of(self.engine.states[name])
            tables[name] = {
                "data_epoch": visibility.data_epoch,
                "min_matrix_epoch": visibility.min_matrix_epoch,
                "pending_batches": visibility.pending_batches,
                "fully_synced": visibility.fully_synced,
            }
        return {
            "budget_units": self.policy.budget_units,
            "queued_units": self.queued_units,
            "admitted": len(self.admission_log),
            "shed": len(self.shed_log),
            "clients": sorted(self._workers),
            "tables": tables,
        }
