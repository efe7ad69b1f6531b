"""The transport layer: an async front door over the serving pipeline.

:class:`ServingPipeline` composes the serving layers into the concurrent
request path::

    submit() ──► MicroBatcher ──► MemberExecutor ──► finish() ──► Ticket
    (validate,   (coalesce         (members on a      (Eq. 16 α
     admission    same-size         thread pool,       aggregate,
     control)     requests)         blocked GEMMs)     per request)

* :meth:`submit` validates the payload (the service's counters see every
  rejection), enqueues it and returns a :class:`Ticket`;
* :meth:`poll` asks whether a ticket's answer is ready;
* :meth:`result` blocks for the answer (re-raising the request's
  failure, e.g. :class:`ServiceUnavailable` when every member was lost);
* :meth:`predict` is the blocking wrapper — submit then result — with
  the same signature and semantics as
  :meth:`InferenceService.predict`.

**Bit-parity.**  A batch stacks only same-row-count requests (the
scheduler's invariant) and each member evaluates the stack under
:func:`repro.ops.batching.batch_cell`, so every request's rows travel
through exactly the GEMM geometry of a solo call; slicing the stacked
softmax rows back apart and aggregating per request through
:meth:`InferenceService.finish` therefore answers **bit-identically** to
``service.predict`` for that request alone.  The property test asserts
equality with ``==``, not ``allclose``.

**Overload.**  At saturation the pipeline degrades in two deliberate
steps instead of collapsing:

1. *Admission control* — the batcher's CoDel-style
   :class:`~repro.serving.scheduler.AdmissionController` (enabled by
   ``target_delay_ms``) sheds arrivals with
   :class:`~repro.serving.errors.Overloaded` + ``retry_after`` once the
   queue's sojourn time stands above target; the bounded queue's
   :class:`~repro.serving.errors.QueueFull` is the hard edge of the same
   taxonomy.
2. *Brownout* — a :class:`~repro.serving.pressure.PressureController`
   (enabled by ``brownout=True``) maps the same sojourn signal to a
   degrade level; at elevated levels batches are served by only the K
   healthiest members (health scores from the drift monitor + breaker
   history, α renormalised per Eq. 16 — still bit-identical to
   ``Ensemble.predict_probs`` over that subset), and the full roster
   returns with hysteresis once pressure clears.  Every answer records
   the roster that voted (``members_used``) and the level it was served
   at (``brownout_level``); the live level is surfaced in
   :meth:`ServiceHealth <repro.serving.service.InferenceService.health>`.

**Conservation.**  :meth:`stats` exposes the overload ledger — every
validated request is exactly one of admitted / shed, and every admitted
request resolves to exactly one of completed / failed
(``admitted == completed + failed`` once in-flight work drains).  The
chaos harness asserts this invariant over seeded fault schedules.

**Deadlines.**  A deadline-bearing request skips the queue: its budget
starts ticking at submit, and burning it in a batching window would be
self-defeating.  It runs immediately on the member executor (parallel
members, partial α-renormalised aggregate over whatever finished), so
``submit`` with a deadline completes the ticket synchronously.

**Consistency.**  Each batch takes one
:meth:`~InferenceService.roster_snapshot` — the copy-on-write roster
published under the swap lock — so a concurrent hot swap can never tear
a batch: it answers entirely from the pre-swap or entirely from the
post-swap ensemble.  Brownout selection happens per batch *after* the
snapshot, so a browned-out batch is a subset of one consistent roster.

Thread-safety contract: tickets are single-producer (the pump or the
submitting thread) / multi-consumer (poll/result from anywhere);
pipeline shutdown drains the queue so no ticket is left pending.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.concurrency import tracked_lock
from repro.serving.errors import (
    InvalidRequest,
    Overloaded,
    ServiceUnavailable,
)
from repro.serving.executor import MemberExecutor
from repro.serving.pressure import PressureConfig, PressureController
from repro.serving.scheduler import (
    AdmissionController,
    MicroBatcher,
    PendingRequest,
)
from repro.serving.service import InferenceService, ServedPrediction

__all__ = ["PipelineConfig", "PipelineStats", "ServingPipeline", "Ticket"]


@dataclass
class PipelineConfig:
    """Knobs for :class:`ServingPipeline`.

    ``batching=False`` degrades the pipeline to per-request execution
    (still through the member executor) — the load harness's baseline.
    ``workers=0`` runs members inline instead of on a pool.

    ``target_delay_ms`` enables CoDel-style admission control on the
    batcher queue (``None`` disables — the PR 8 behaviour);
    ``interval_ms`` is its grace interval.  ``brownout=True`` attaches a
    :class:`PressureController` (tuned via ``pressure``) that serves
    only the healthiest K members at elevated queue pressure.
    """

    max_batch_rows: int = 128
    max_wait_ms: float = 2.0
    queue_depth: int = 256
    workers: Optional[int] = None      # None: pool default; 0: inline
    batching: bool = True
    target_delay_ms: Optional[float] = None
    interval_ms: float = 100.0
    brownout: bool = False
    pressure: Optional[PressureConfig] = None


@dataclass
class PipelineStats:
    """The overload ledger: where every validated request ended up."""

    submitted: int       # validated requests that reached admission
    admitted: int        # accepted for execution (queued or solo)
    shed: int            # refused by admission control / full queue
    completed: int       # ticket resolved with an answer
    failed: int          # ticket resolved with an error
    pending: int         # admitted, not yet resolved

    @property
    def conserved(self) -> bool:
        """admitted = completed + failed (+ still pending) and every
        submission was either admitted or shed."""
        return (self.submitted == self.admitted + self.shed and
                self.admitted == self.completed + self.failed +
                self.pending)


class Ticket:
    """A submitted request's completion handle (one answer, one error)."""

    __slots__ = ("_event", "_prediction", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._prediction: Optional[ServedPrediction] = None
        self._error: Optional[BaseException] = None

    def _complete(self, prediction: ServedPrediction) -> None:
        self._prediction = prediction
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def failed(self) -> bool:
        return self._error is not None

    def wait(self, timeout: Optional[float] = None) -> ServedPrediction:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request not answered within {timeout:g}s")
        if self._error is not None:
            raise self._error
        return self._prediction


class ServingPipeline:
    """Concurrent micro-batching front end over an :class:`InferenceService`.

    Use as a context manager (or call :meth:`start`/:meth:`close`): the
    batcher's pump thread and the member pool are real resources.
    """

    def __init__(self, service: InferenceService,
                 config: Optional[PipelineConfig] = None):
        self.service = service
        self.config = config or PipelineConfig()
        self.clock = service.clock
        self.executor = MemberExecutor(workers=self.config.workers,
                                       clock=self.clock)
        self.pressure: Optional[PressureController] = None
        if self.config.brownout:
            self.pressure = PressureController(self.config.pressure)
            service.attach_pressure(self.pressure)
        admission = None
        if self.config.target_delay_ms is not None:
            admission = AdmissionController(
                target_delay_ms=self.config.target_delay_ms,
                interval_ms=self.config.interval_ms)
        self.batcher: Optional[MicroBatcher] = None
        if self.config.batching:
            self.batcher = MicroBatcher(
                process=self._process_batch,
                max_batch_rows=self.config.max_batch_rows,
                max_wait_ms=self.config.max_wait_ms,
                queue_depth=self.config.queue_depth,
                admission=admission,
                clock=self.clock)
        # The conservation ledger; counters cross thread boundaries.
        self._stats_lock = tracked_lock("transport.stats")
        self._submitted = 0
        self._admitted = 0
        self._shed = 0
        self._completed = 0
        self._failed = 0

    # ------------------------------------------------------------------
    def start(self, pump: bool = True) -> "ServingPipeline":
        """Start the background pump (``pump=False``: drive ``pump_once``
        manually — the deterministic mode)."""
        if self.batcher is not None and pump:
            self.batcher.start()
        return self

    def close(self) -> None:
        """Stop the pump (draining queued requests) and the member pool."""
        if self.batcher is not None:
            self.batcher.stop()
        self.executor.shutdown()

    def __enter__(self) -> "ServingPipeline":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def submit(self, x, deadline: Optional[float] = None) -> Ticket:
        """Validate and enqueue one request; returns its :class:`Ticket`.

        Raises :class:`InvalidRequest` for malformed payloads,
        :class:`Overloaded` (with a ``retry_after`` hint) when admission
        control sheds the request or the bounded queue is full, and
        :class:`ServiceUnavailable` after shutdown.  Deadline-bearing
        requests execute immediately (see module docstring) and return
        an already-completed ticket.
        """
        if deadline is not None and deadline <= 0:
            self.service.count_rejected()
            raise InvalidRequest(
                f"deadline must be positive, got {deadline}",
                field="deadline")
        x = self.service.validate(x)
        with self._stats_lock:
            self._submitted += 1
        ticket = Ticket()
        if deadline is not None or self.batcher is None:
            with self._stats_lock:
                self._admitted += 1
            self._execute_solo(x, ticket, deadline)
            return ticket
        try:
            self.batcher.submit(x, ticket)
        except Overloaded:
            with self._stats_lock:
                self._shed += 1
            self.service.count_shed()
            raise
        except ServiceUnavailable:
            with self._stats_lock:
                self._shed += 1
            self.service.count_unavailable()
            raise
        with self._stats_lock:
            self._admitted += 1
        return ticket

    def poll(self, ticket: Ticket) -> bool:
        """Is the ticket's answer ready?  Never blocks."""
        return ticket.done

    def result(self, ticket: Ticket,
               timeout: Optional[float] = None) -> ServedPrediction:
        """Block for the ticket's answer (re-raising its failure)."""
        return ticket.wait(timeout)

    def predict(self, x,
                deadline: Optional[float] = None) -> ServedPrediction:
        """Blocking submit+result — the :meth:`InferenceService.predict`
        signature served through the concurrent pipeline."""
        return self.result(self.submit(x, deadline=deadline))

    def stats(self) -> PipelineStats:
        """The conservation ledger (one consistent lock read)."""
        with self._stats_lock:
            return PipelineStats(
                submitted=self._submitted, admitted=self._admitted,
                shed=self._shed, completed=self._completed,
                failed=self._failed,
                pending=self._admitted - self._completed - self._failed)

    # ------------------------------------------------------------------
    def _complete_ticket(self, ticket: Ticket,
                         prediction: ServedPrediction) -> None:
        ticket._complete(prediction)
        with self._stats_lock:
            self._completed += 1

    def _fail_ticket(self, ticket: Ticket, error: BaseException) -> None:
        ticket._fail(error)
        with self._stats_lock:
            self._failed += 1

    def _brownout_roster(self, members):
        """Apply the pressure controller's healthiest-K selection."""
        if self.pressure is None:
            return members, 0
        roster, level = self.pressure.roster_for(
            members, self.service.member_health_scores(members))
        return (roster, level) if roster else (members, 0)

    def _execute_solo(self, x: np.ndarray, ticket: Ticket,
                      deadline: Optional[float]) -> None:
        """Run one request through the executor, bypassing the batcher."""
        started = self.clock()
        try:
            members, alpha_configured = self.service.roster_snapshot()
            members, level = self._brownout_roster(members)
            outputs, skipped, deadline_hit = self.executor.run(
                members, x, batch_size=self.service.config.batch_size,
                deadline=deadline, started=started)
            self._complete_ticket(ticket, self.service.finish(
                outputs, skipped, alpha_configured,
                deadline_hit=deadline_hit,
                latency=self.clock() - started,
                brownout_level=level))
        except BaseException as error:  # noqa: BLE001 — routed to waiter
            self._fail_ticket(ticket, error)

    def _process_batch(self, stacked: np.ndarray,
                       batch: List[PendingRequest]) -> None:
        """The batcher's process hook: one stacked forward, per-request
        slicing and aggregation.  Must not raise (scheduler contract):
        every failure lands on the tickets."""
        rows = batch[0].rows
        if self.pressure is not None:
            # The same sojourn signal admission control sheds on drives
            # the brownout level: the oldest request in this batch has
            # waited exactly the queue's standing delay.
            self.pressure.observe(
                self.clock() - min(pending.enqueued for pending in batch))
        try:
            members, alpha_configured = self.service.roster_snapshot()
            members, level = self._brownout_roster(members)
            outputs, skipped, _hit = self.executor.run(
                members, stacked,
                # One chunk: chunking at config.batch_size could split
                # the stack mid-request and change the GEMM geometry.
                batch_size=len(stacked),
                cell=rows if len(batch) > 1 else None)
        except BaseException as error:  # noqa: BLE001 — routed to waiters
            for pending in batch:
                self._fail_ticket(pending.ticket, error)
            return
        for position, pending in enumerate(batch):
            lo, hi = position * rows, (position + 1) * rows
            try:
                sliced = [(member, probs[lo:hi])
                          for member, probs in outputs]
                self._complete_ticket(pending.ticket, self.service.finish(
                    sliced, list(skipped), alpha_configured,
                    deadline_hit=False,
                    latency=self.clock() - pending.enqueued,
                    brownout_level=level))
            except BaseException as error:  # noqa: BLE001
                self._fail_ticket(pending.ticket, error)
