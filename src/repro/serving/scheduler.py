"""The scheduling layer: a bounded queue, a micro-batcher, admission control.

Ensemble inference is dominated by per-dispatch overhead at serving
batch sizes: a request of a few rows pays the full Python/op-dispatch
cost per member, so T members × many small requests is mostly overhead.
Coalescing K concurrent requests into one stacked forward amortises that
cost K× — the classic dynamic-batching lever of model servers.

:class:`MicroBatcher` implements it with two knobs:

* ``max_batch_rows`` — a formed batch never exceeds this many stacked
  rows (bounds memory and worst-case latency);
* ``max_wait_ms`` — how long the live pump may hold a batch open for
  company that has not arrived yet.  A request waits for company at most
  ``max_wait_ms`` after the later of its arrival and the pump becoming
  free (``0`` batches only what is already queued).

Requests are admitted to a **bounded** FIFO queue (depth
``queue_depth``); an admission beyond the bound raises
:class:`~repro.serving.errors.QueueFull` — backpressure surfaces at the
front door instead of growing an unbounded backlog.  A batch is the
*maximal FIFO prefix of equal row counts*: stacking only same-sized
requests means every block boundary of the stacked array is a request
boundary, which is what lets the batch-invariant GEMM blocking
(:mod:`repro.ops.batching`) make batched answers bit-identical to solo
ones.  Mixed-size traffic still batches — each size run drains as its
own batch — it just never mixes sizes inside one stack.

**Admission control.**  A bounded queue alone fails the saturation test:
by the time :class:`QueueFull` fires, every queued request already
carries the whole backlog's worth of latency, and the queue re-fills the
instant it drains one slot — the classic full-queue standing-latency
pathology.  :class:`AdmissionController` sheds *earlier*, CoDel style,
on the queue's *sojourn time* (how long the head of the queue has been
waiting) instead of its length: when the sojourn stays above
``target_delay_ms`` for a full ``interval_ms``, the controller enters a
shedding episode and new arrivals are refused with
:class:`~repro.serving.errors.Overloaded` — carrying a computed
``retry_after`` — while the backlog still exceeds the target; the first
batch formed with its head back under the target closes the episode.
Requests already queued are never dropped: shedding happens only at the
front door, so every admitted ticket still completes or fails, which is
what makes the chaos harness's conservation invariant
(admitted = completed + shed + failed) checkable.

Two pump modes:

* :meth:`pump_once` — synchronous: form and process at most one batch on
  the calling thread.  Deterministic under any clock; what tests and the
  load harness's open-loop replay drive.
* :meth:`start` — a background daemon thread that waits on a condition
  variable and processes batches as they form, with real timed waits.
  Requires a real (monotonic) clock.  It waits only for company that is
  actually coming: after a batch that answered ``k`` requests, with
  ``q`` already queued, it expects ``q + k`` requests — the ``q`` it
  holds plus the ``k`` senders it just woke, who may send again.  It
  dispatches as soon as that many are queued, the same-size prefix
  reaches ``max_batch_rows``, or ``max_wait_ms`` has passed since the
  later of the head's arrival and the pump becoming free.  So an idle
  pump dispatches a lone request at once, and a closed loop of clients
  batches without sitting out the window.  The window runs from the
  pump becoming free because requests queued during a long batch are
  already past an arrival-clocked window when it ends: clients then
  split into two groups that alternate half-full batches.

**Shutdown.**  :meth:`stop` closes the front door *first* (subsequent
:meth:`submit` raises :class:`~repro.serving.errors.ServiceUnavailable`
immediately), then stops the pump and drains what is already queued — so
a submit racing a concurrent stop either completes normally (it got in
before the door closed; the drain loop serves it) or raises; a ticket is
never left pending forever.

The batcher knows nothing about ensembles: it hands ``process(stacked,
requests)`` the concatenated payload and the pending entries, and the
transport layer does validation, execution and per-request slicing.
``process`` must not raise; the transport routes per-request failures
through the tickets it owns.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

import numpy as np

from repro.concurrency import check_boundary, tracked_condition
from repro.serving.errors import Overloaded, QueueFull, ServiceUnavailable

__all__ = ["AdmissionController", "MicroBatcher", "PendingRequest",
           "QueueFull"]


@dataclass
class PendingRequest:
    """One queued request: validated payload plus an opaque ticket."""

    x: np.ndarray                 # validated, shape (rows, ...)
    ticket: Any                   # transport-owned completion handle
    enqueued: float               # scheduler-clock admission time
    rows: int = field(init=False)

    def __post_init__(self) -> None:
        self.rows = int(len(self.x))


class AdmissionController:
    """CoDel-style load shedding on queue sojourn time.

    The controller watches one signal: the **sojourn** of the head of
    the queue — how long the oldest waiting request has been queued —
    observed each time a batch is formed (:meth:`observe`) and estimated
    live at each admission attempt (:meth:`admit`).  State machine:

    * **clear** — sojourns at or under ``target_delay``.  Everything is
      admitted.  The first sojourn above the target starts the
      ``interval`` grace timer (a transient burst that drains within one
      interval never sheds).
    * **shedding** — the sojourn stayed above target for a full
      interval: the backlog is *standing*, not a burst.  While the live
      sojourn estimate still exceeds the target, new arrivals are
      refused with ``retry_after = max(excess delay, interval)`` — the
      time the queue plausibly needs to drain back under target.  An
      arrival that finds the estimate back under target is admitted, and
      the next batch formed with its head under target closes the
      episode.

    Deterministic by construction (no randomness, injectable clock), so
    the chaos replays shed identically run to run.  Thread-safety: the
    batcher calls both methods under its own queue lock.
    """

    def __init__(self, target_delay_ms: float = 20.0,
                 interval_ms: float = 100.0):
        if target_delay_ms <= 0:
            raise ValueError(
                f"target_delay_ms must be positive, got {target_delay_ms}")
        if interval_ms <= 0:
            raise ValueError(
                f"interval_ms must be positive, got {interval_ms}")
        self.target = float(target_delay_ms) / 1000.0
        self.interval = float(interval_ms) / 1000.0
        self._first_above: Optional[float] = None
        self.shedding = False
        self.shed_total = 0
        self.episodes = 0

    def observe(self, sojourn: float, now: float) -> None:
        """Record the head-of-queue sojourn at batch formation time."""
        if sojourn <= self.target:
            self._first_above = None
            self.shedding = False
            return
        if self._first_above is None:
            self._first_above = now
        elif not self.shedding and now - self._first_above >= self.interval:
            self.shedding = True
            self.episodes += 1

    def admit(self, sojourn_estimate: float, now: float) -> Optional[float]:
        """``None`` to admit, else the ``retry_after`` hint for a shed."""
        if not self.shedding or sojourn_estimate <= self.target:
            return None
        self.shed_total += 1
        return max(sojourn_estimate - self.target, self.interval)


class MicroBatcher:
    """Coalesce queued requests into same-row-count stacked batches."""

    def __init__(self, process: Callable[[np.ndarray, List[PendingRequest]],
                                         None],
                 max_batch_rows: int = 128, max_wait_ms: float = 2.0,
                 queue_depth: int = 256,
                 admission: Optional[AdmissionController] = None,
                 clock: Callable[[], float] = time.monotonic):
        if max_batch_rows < 1:
            raise ValueError(
                f"max_batch_rows must be >= 1, got {max_batch_rows}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.process = process
        self.max_batch_rows = int(max_batch_rows)
        self.max_wait = float(max_wait_ms) / 1000.0
        self.queue_depth = int(queue_depth)
        self.admission = admission
        self.clock = clock
        self._queue: List[PendingRequest] = []
        self._cond = tracked_condition("scheduler.cond")
        self._pump: Optional[threading.Thread] = None
        self._running = False
        self._closed = False
        self.batches_formed = 0
        self.requests_batched = 0
        self.requests_admitted = 0
        self.requests_shed = 0

    # ------------------------------------------------------------------
    def submit(self, x: np.ndarray, ticket: Any) -> PendingRequest:
        """Admit one request.

        Raises :class:`~repro.serving.errors.Overloaded` when the
        admission controller is shedding,
        :class:`~repro.serving.errors.QueueFull` at queue capacity, and
        :class:`~repro.serving.errors.ServiceUnavailable` after
        :meth:`stop` closed the front door.
        """
        now = self.clock()
        pending = PendingRequest(x=x, ticket=ticket, enqueued=now)
        with self._cond:
            if self._closed:
                raise ServiceUnavailable(
                    "micro-batcher is stopped; no new requests admitted")
            sojourn = now - self._queue[0].enqueued if self._queue else 0.0
            if self.admission is not None:
                retry_after = self.admission.admit(sojourn, now)
                if retry_after is not None:
                    self.requests_shed += 1
                    raise Overloaded(
                        f"queue delay {sojourn * 1000:.1f}ms above the "
                        f"{self.admission.target * 1000:g}ms target",
                        retry_after=retry_after)
            if len(self._queue) >= self.queue_depth:
                self.requests_shed += 1
                raise QueueFull(
                    f"request queue at capacity ({self.queue_depth})",
                    retry_after=max(sojourn, self.max_wait) or None)
            self._queue.append(pending)
            self.requests_admitted += 1
            self._cond.notify()
        return pending

    def depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def head_enqueued(self) -> Optional[float]:
        """Admission time of the oldest queued request (``None``: empty).

        Virtual-time replay harnesses use this to know when the current
        batching window expires without reaching into the queue.
        """
        with self._cond:
            return self._queue[0].enqueued if self._queue else None

    # ------------------------------------------------------------------
    def _form_batch(self) -> List[PendingRequest]:
        """Pop the maximal same-row-count FIFO prefix (caller holds lock)."""
        if not self._queue:
            return []
        if self.admission is not None:
            now = self.clock()
            self.admission.observe(now - self._queue[0].enqueued, now)
        rows = self._queue[0].rows
        take = 0
        total = 0
        for pending in self._queue:
            if pending.rows != rows:
                break
            if take and total + pending.rows > self.max_batch_rows:
                break
            total += pending.rows
            take += 1
        batch = self._queue[:take]
        del self._queue[:take]
        # Counters bump here, not in _dispatch: this is the one site
        # that still holds the queue lock, so two pumps never interleave
        # a read-modify-write.
        if batch:
            self.batches_formed += 1
            self.requests_batched += len(batch)
        return batch

    def _dispatch(self, batch: List[PendingRequest]) -> None:
        if not batch:
            return
        # The queue lock must be released before process() runs — the
        # downstream transport/executor path takes its own locks, and a
        # slow batch must not stall submits.
        check_boundary("MicroBatcher.process")
        stacked = batch[0].x if len(batch) == 1 else \
            np.concatenate([pending.x for pending in batch], axis=0)
        self.process(stacked, batch)

    def pump_once(self) -> int:
        """Form and process one batch now; returns requests drained.

        Synchronous and clock-agnostic: ``max_wait_ms`` does not apply —
        whatever is queued right now is eligible.  The deterministic
        drive mode for tests and replay harnesses.
        """
        with self._cond:
            batch = self._form_batch()
        self._dispatch(batch)
        return len(batch)

    # ------------------------------------------------------------------
    def start(self) -> "MicroBatcher":
        """Launch the background pump (idempotent); real clock required."""
        with self._cond:
            if self._running:
                return self
            if self._closed:
                raise ServiceUnavailable(
                    "micro-batcher is stopped; cannot restart the pump")
            self._running = True
            self._pump = threading.Thread(target=self._pump_loop,
                                          name="repro-batcher", daemon=True)
            self._pump.start()
        return self

    def stop(self) -> None:
        """Close the front door, stop the pump, drain what got in.

        Ordering is the shutdown contract: ``_closed`` is published
        under the queue lock *before* the drain, so any submit that wins
        the race is in the queue when the drain loop runs (its ticket
        completes), and any submit that loses raises immediately —
        never a forever-pending ticket.
        """
        with self._cond:
            self._closed = True
            self._running = False
            pump, self._pump = self._pump, None
            self._cond.notify_all()
        if pump is not None:
            pump.join()
        while self.pump_once():
            pass

    def _pump_loop(self) -> None:
        # Pump-thread locals: how many requests the last batch answered
        # and when the pump became free again.
        answered, free_at = 0, self.clock()
        while True:
            with self._cond:
                # Company that is actually coming: what is queued now
                # plus the senders the last batch just woke.
                expected = len(self._queue) + answered
                while self._running and not self._queue:
                    self._cond.wait()
                if not self._running:
                    return
                while self._running and self._queue:
                    left = max(free_at, self._queue[0].enqueued) + \
                        self.max_wait - self.clock()
                    if len(self._queue) >= expected or left <= 0 or \
                            self._prefix_rows() >= self.max_batch_rows:
                        break
                    self._cond.wait(timeout=left)
                batch = self._form_batch()
            self._dispatch(batch)
            answered, free_at = len(batch), self.clock()

    def _prefix_rows(self) -> int:
        """Stacked rows the current same-size prefix would contribute."""
        if not self._queue:
            return 0
        rows = self._queue[0].rows
        total = 0
        for pending in self._queue:
            if pending.rows != rows:
                break
            total += pending.rows
        return total

    def __enter__(self) -> "MicroBatcher":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
