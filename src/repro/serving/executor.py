"""The member-execution layer: ensemble members on a thread pool.

Serving cost scales T× when members run one after another.
:class:`MemberExecutor` runs the per-member task of
:mod:`repro.serving.members` — :func:`~repro.serving.members.run_member`:
breaker admission at start, :meth:`ServingMember.predict`, fault
conversion, the thread-death firewall — as one task per member on a
shared :class:`ThreadPoolExecutor`.  The heavy kernels underneath (BLAS
GEMMs, the conv im2col + GEMM pipeline) release the GIL, so members
genuinely overlap on multicore hosts; on a single core the pool
degenerates gracefully to interleaved execution.

Execution semantics match the serial loop
(:func:`~repro.serving.members.run_members`):

* breaker admission happens when the member's task *starts* (not at
  submit), so a member quarantined mid-batch by a concurrent fault is
  still skipped — and the HALF_OPEN single-probe invariant holds because
  :meth:`CircuitBreaker.allow` is atomic;
* results are collected **in roster order**, so the α aggregation in
  :meth:`InferenceService.finish` accumulates in exactly the sequential
  order — bit-identical answers regardless of completion order;
* with a ``deadline``, members whose task has not started when the
  budget expires are cancelled and skipped (the serial rule), and a
  member still *running* at the deadline is abandoned: its result is
  discarded, the thread finishes in the background, and its breaker is
  still charged by the member itself.

``workers=0`` runs :func:`~repro.serving.members.run_members` inline
(no pool, no extra threads) — the loop
:meth:`InferenceService.predict` runs too, which keeps manual-clock
tests deterministic.

Thread-safety contract: stateless apart from the pool; every call gets
its roster snapshot from the caller, so hot swaps can never tear a
running batch.  The optional ``cell`` argument is handed to each member
task, which evaluates under :func:`repro.ops.batching.batch_cell`,
making stacked micro-batches bit-identical to solo execution.
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
    """Run a roster of members concurrently (or inline with ``workers=0``).

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

    @property
    def parallel(self) -> bool:
        return self._pool is not None

    # ------------------------------------------------------------------
    def run(self, members: Sequence[ServingMember], x: np.ndarray,
            batch_size: int, deadline: Optional[float] = None,
            started: Optional[float] = None,
            cell: Optional[int] = None,
            ) -> Tuple[MemberOutputs, MemberSkips, bool]:
        """Evaluate ``members`` on ``x``; returns (outputs, skipped, hit).

        ``outputs`` preserves roster order.  ``deadline`` is a wall-clock
        budget measured on the executor's clock from ``started``
        (defaulting to now); deadline enforcement needs a real clock —
        manual-clock determinism belongs to the serial path.
        """
        if started is None:
            started = self.clock()
        # Entering the member fan-out while holding any registered lock
        # would serialize the ensemble on that lock (and can deadlock
        # once member tasks take breaker locks of their own).
        check_boundary("MemberExecutor.run")
        if self._pool is None:
            return run_members(members, x, batch_size, self.clock, started,
                               deadline, cell)
        futures = [self._pool.submit(run_member, member, x, batch_size,
                                     cell)
                   for member in members]
        outputs: MemberOutputs = []
        skipped: MemberSkips = []
        deadline_hit = False
        for member, future in zip(members, futures):
            remaining = None
            if deadline is not None:
                remaining = deadline - (self.clock() - started)
            try:
                if remaining is not None and remaining <= 0:
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
