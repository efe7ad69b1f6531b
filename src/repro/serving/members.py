"""One served base model, and the per-member protocol every path runs.

A :class:`ServingMember` pairs a loaded model with its α weight, its
original archive index (reporting must name members by the index they had
at training time, not by their position after degraded loading), and a
:class:`~repro.serving.breaker.CircuitBreaker`.  Its :meth:`predict`
converts *every* way a member can misbehave on a valid request — raising,
emitting NaN/Inf probabilities, returning the wrong number of rows — into
a single :class:`~repro.serving.errors.MemberFault`, so the aggregate has
exactly one failure type to absorb and charge to the breaker.

:func:`run_member` is one member's task — breaker admission, prediction,
fault conversion, and the thread-death firewall — and :func:`run_members`
is the one serial loop over a roster.  :meth:`InferenceService.predict
<repro.serving.service.InferenceService.predict>` and the
:class:`~repro.serving.executor.MemberExecutor` both run that loop; the
executor runs :func:`run_member` as a pool task only for deadline
requests.  So a member fails the same way whichever path serves the
request.

Both run members inside one *inference scope*:
:func:`repro.tensor.inference_mode`, or, when the request declares a
batch cell, one :func:`repro.ops.modes.modes` entry that sets inference
mode and the cell (:func:`repro.ops.batching.batch_cell`'s field) at
once.  The serial loop enters it once for the whole roster; a pool task
(the executor's deadline path) enters its own, because the scope is
thread-local and the task runs on a pool thread.  Entering it once per
roster rather than once per member changes no bit: a member's failure is
caught inside the scope, and leaving the scope restores the thread's
state whichever way the roster ends.
"""

from __future__ import annotations

from typing import Callable, ContextManager, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import predict_probs
from repro.ops.modes import modes
from repro.serving.breaker import CircuitBreaker
from repro.serving.errors import MemberFault
from repro.tensor import inference_mode

#: Why a member did not contribute to one prediction.
SKIP_QUARANTINED = "quarantined"
SKIP_FAULT = "fault"
SKIP_DEADLINE = "deadline"


class ServingMember:
    """A live ensemble member behind its circuit breaker."""

    def __init__(self, index: int, model, alpha: float,
                 breaker: CircuitBreaker):
        self.index = int(index)
        self.model = model
        self.alpha = float(alpha)
        self.breaker = breaker

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Softmax rows for ``x``, or :class:`MemberFault`.

        Success and failure are both recorded on the breaker here, so the
        caller never has to remember to charge it.
        """
        try:
            probs = predict_probs(self.model, x, batch_size=batch_size)
        except Exception as error:  # noqa: BLE001 — the whole point: any
            # member crash becomes a fault, never a dead request.
            reason = error.reason if isinstance(error, MemberFault) else \
                f"{type(error).__name__}: {error}"
            fault = MemberFault(reason, member_index=self.index)
            self.breaker.record_fault(reason)
            raise fault from error
        if probs.shape[0] != len(x):
            fault = MemberFault(
                f"returned {probs.shape[0]} rows for a batch of {len(x)}",
                member_index=self.index)
            self.breaker.record_fault(fault.reason)
            raise fault
        if not np.isfinite(probs).all():
            bad = int((~np.isfinite(probs)).sum())
            fault = MemberFault(
                f"produced {bad} non-finite probability value(s)",
                member_index=self.index)
            self.breaker.record_fault(fault.reason)
            raise fault
        self.breaker.record_success()
        return probs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ServingMember(index={self.index}, alpha={self.alpha}, "
                f"breaker={self.breaker.state})")


#: (member, probs) successes in roster order; (index, kind, reason) skips.
MemberOutputs = List[Tuple[ServingMember, np.ndarray]]
MemberSkips = List[Tuple[int, str, str]]


def _inference_scope(cell: Optional[int]) -> ContextManager[None]:
    """Inference mode, with the batch cell ``cell`` when it is set."""
    if cell is None:
        return inference_mode()
    return modes(grad=False, fastpath=True, cell=cell)


def run_member(member: ServingMember, x: np.ndarray, batch_size: int,
               cell: Optional[int] = None) -> Tuple[str, object]:
    """One member as a pool task, in its own inference scope.

    Returns ``("ok", probs)`` or ``(skip kind, reason)``.  The scope
    (inference mode, and :func:`repro.ops.batching.batch_cell` when
    ``cell`` is set, which makes a stacked micro-batch bit-identical to
    solo execution) is thread-local, so a task on a pool thread — the
    executor's deadline path — must enter it itself.  The serial loop
    :func:`run_members` enters it once per roster instead.
    """
    with _inference_scope(cell):
        return _run_scoped(member, x, batch_size)


def _run_scoped(member: ServingMember, x: np.ndarray,
                batch_size: int) -> Tuple[str, object]:
    """Breaker admission, prediction and fault conversion, inside a scope.

    The final ``BaseException`` arm is the thread-death firewall:
    :meth:`ServingMember.predict` already converts every *model* failure
    into a :class:`MemberFault`, so anything else escaping here is the
    task itself dying (chaos-injected
    :class:`~repro.serving.faults.InjectedThreadDeath`, a crashed C
    extension, an interpreter-level error).  One member's dead task must
    cost the request that member's vote, never the whole request — so it
    becomes an ordinary fault skip, charged to the member's breaker like
    any other.
    """
    if not member.breaker.allow():
        return (SKIP_QUARANTINED, member.breaker.describe())
    try:
        return ("ok", member.predict(x, batch_size=batch_size))
    except MemberFault as fault:
        return (SKIP_FAULT, fault.reason)
    except BaseException as death:  # noqa: BLE001 — see docstring
        reason = f"member task died: {type(death).__name__}: {death}"
        member.breaker.record_fault(reason)
        return (SKIP_FAULT, reason)


def run_members(members: Sequence[ServingMember], x: np.ndarray,
                batch_size: int, clock: Callable[[], float], started: float,
                deadline: Optional[float] = None,
                cell: Optional[int] = None,
                ) -> Tuple[MemberOutputs, MemberSkips, bool]:
    """The serial member loop; returns (outputs, skipped, deadline hit).

    Members run one after another in roster order, all inside one
    inference scope that this call enters and leaves (see the module
    docstring).  With a ``deadline`` (seconds on ``clock`` since
    ``started``) a member is only *started* while budget remains; the
    rest are skipped as ``deadline``.  Time is read only from ``clock``,
    so the loop is deterministic under a manual clock.
    """
    outputs: MemberOutputs = []
    skipped: MemberSkips = []
    deadline_hit = False
    with _inference_scope(cell):
        for member in members:
            if deadline is not None and clock() - started >= deadline:
                deadline_hit = True
                skipped.append((member.index, SKIP_DEADLINE,
                                f"not started within the {deadline:g}s "
                                "deadline"))
                continue
            kind, value = _run_scoped(member, x, batch_size)
            if kind == "ok":
                outputs.append((member, value))
            else:
                skipped.append((member.index, kind, value))
    return outputs, skipped, deadline_hit
