"""The member-execution layer: a roster of members for one request.

:class:`MemberExecutor` runs the per-member task of
:mod:`repro.serving.members` — :func:`~repro.serving.members.run_member`:
breaker admission at start, :meth:`ServingMember.predict`, fault
conversion, the thread-death firewall — for every member of a roster,
and collects the results **in roster order**, so the α aggregation in
:meth:`InferenceService.finish` accumulates in exactly the sequential
order.

Where the members run depends on one thing the caller states: whether
the request has a deadline.

* **No deadline** (every batched request, and every ``batching=False``
  request without one): :func:`~repro.serving.members.run_members`, the
  serial loop :meth:`InferenceService.predict` runs too, on the calling
  thread — the batcher's pump, or the client that submitted.  Handing
  GIL-bound members to a pool makes them queue for the interpreter lock
  instead: on ``serve-mlp`` (8 MLP members, 2-core Xeon) a member took
  0.29–0.31 ms on the pool against 0.11–0.12 ms back to back, and the
  whole fan-out 1.6–1.7 ms against 1.0 ms.  The price is paid by
  members whose kernels release the GIL on large inputs, which overlap
  on a pool: 8 ResNetCIFAR members (depth 8, width 8) on 32×32 images
  were 54–63 % slower inline at 32 and 128 rows, though they peaked at
  196 MB of memory instead of 949 MB.
* **A deadline**: one task per member on a shared
  :class:`ThreadPoolExecutor`, because only a pool lets a member that is
  still running be abandoned.  Members whose task has not started when
  the budget expires are cancelled and skipped (the serial rule), and a
  member still *running* at the deadline is abandoned: its result is
  discarded, the thread finishes in the background, and its breaker is
  still charged by the member itself.  Breaker admission happens when
  the task *starts*, so a member quarantined mid-request by a
  concurrent fault is still skipped, and the HALF_OPEN single-probe
  invariant holds because :meth:`CircuitBreaker.allow` is atomic.

``workers=0`` has no pool and runs deadline requests through the serial
loop as well, which keeps manual-clock tests deterministic.  The pool
starts its threads lazily, so a pipeline that never sees a deadline
starts none.

Answers are bit-identical whichever thread runs a member:
:func:`~repro.ops.batching.batch_cell` (set from the optional ``cell``
argument, making stacked micro-batches bit-identical to solo execution),
inference mode and kernel workspaces are all thread-local.  The serial
loop enters inference mode and the cell once per roster; each pool task
enters them on its own thread.

Thread-safety contract: stateless apart from the pool; every call gets
its roster snapshot from the caller, so hot swaps can never tear a
running batch.
"""

from __future__ import annotations

import time
from concurrent.futures import CancelledError, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.concurrency import check_boundary
from repro.serving.members import (
    SKIP_DEADLINE,
    MemberOutputs,
    MemberSkips,
    ServingMember,
    run_member,
    run_members,
)

__all__ = ["MemberExecutor"]


class MemberExecutor:
    """Run a roster of members: on the calling thread, or on the pool
    when the request has a deadline (see the module docstring).

    One executor is shared across all requests of a pipeline; tasks are
    per-(request, member) and carry no state between calls.
    """

    def __init__(self, workers: Optional[int] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self._pool: Optional[ThreadPoolExecutor] = None
        if workers is None or workers > 0:
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-member")

    # ------------------------------------------------------------------
    def run(self, members: Sequence[ServingMember], x: np.ndarray,
            batch_size: int, deadline: Optional[float] = None,
            started: Optional[float] = None,
            cell: Optional[int] = None,
            ) -> Tuple[MemberOutputs, MemberSkips, bool]:
        """Evaluate ``members`` on ``x``; returns (outputs, skipped, hit).

        ``outputs`` preserves roster order.  ``deadline`` is a wall-clock
        budget measured on the executor's clock from ``started``
        (defaulting to now); abandoning a running member needs a real
        clock — manual-clock determinism belongs to the serial path.
        """
        if started is None:
            started = self.clock()
        # Entering the member fan-out while holding any registered lock
        # would serialize the ensemble on that lock (and can deadlock
        # once member tasks take breaker locks of their own).
        check_boundary("MemberExecutor.run")
        if deadline is None or self._pool is None:
            return run_members(members, x, batch_size, self.clock, started,
                               deadline, cell)
        futures = [self._pool.submit(run_member, member, x, batch_size,
                                     cell)
                   for member in members]
        outputs: MemberOutputs = []
        skipped: MemberSkips = []
        deadline_hit = False
        for member, future in zip(members, futures):
            remaining = deadline - (self.clock() - started)
            try:
                if remaining <= 0:
                    # Budget spent: cancel if not started; else the task
                    # is running — give it no extra time.
                    if future.cancel():
                        raise CancelledError
                    kind, value = future.result(timeout=0)
                else:
                    kind, value = future.result(timeout=remaining)
            except CancelledError:
                deadline_hit = True
                skipped.append((member.index, SKIP_DEADLINE,
                                f"not started within the {deadline:g}s "
                                "deadline"))
                continue
            except FutureTimeout:
                # Started but unfinished at the deadline: abandon it.
                # The thread completes in the background (charging the
                # breaker as usual); the result is discarded.
                deadline_hit = True
                skipped.append((member.index, SKIP_DEADLINE,
                                f"did not finish within the {deadline:g}s "
                                "deadline"))
                continue
            if kind == "ok":
                outputs.append((member, value))
            else:
                skipped.append((member.index, kind, value))
        return outputs, skipped, deadline_hit

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "MemberExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()
