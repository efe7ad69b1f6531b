"""Fault-tolerant inference serving for saved ensembles.

The α-weighted vote (paper Eq. 16) renormalises over whatever members are
present, so an ensemble degrades member-by-member instead of all at once.
This package turns that mathematical property into a production serving
contract around :class:`InferenceService`:

* resilient archive loading with a minimum-member quorum
  (:meth:`InferenceService.from_archive`, backed by
  ``load_ensemble(strict=False)``);
* request validation (:class:`InputSpec` → :class:`InvalidRequest`),
  per-request deadlines with partial α-weighted answers, and per-member
  circuit breakers (:class:`CircuitBreaker`);
* health/readiness snapshots (:class:`ServiceHealth`) and a deterministic
  fault harness (:mod:`repro.serving.faults`) shared by the test suite
  and the ``repro serve-eval --inject`` CLI.

The concurrent request path lives in sub-layers stacked *above* this
package (imported directly, never from here, to keep the layer graph
acyclic): :mod:`repro.serving.scheduler` (bounded queue + micro-batcher
+ CoDel-style admission control), :mod:`repro.serving.executor`
(members on the serving thread, or on a pool under a deadline),
:mod:`repro.serving.transport`
(:class:`ServingPipeline`, the async ``submit/poll/result`` front
door), :mod:`repro.serving.pressure` (brownout: healthiest-K serving
under queue pressure) and :mod:`repro.serving.client`
(:class:`RetryingClient`: backoff + hedging).  The drift machinery
(:mod:`repro.serving.monitor` / :mod:`repro.serving.repair`) sits beside
them the same way.  The overload branch of the error taxonomy
(:class:`Overloaded`, :class:`QueueFull` — both retryable
:class:`ServiceUnavailable` subclasses carrying ``retry_after``) *is*
re-exported here: errors are plain-serving vocabulary.

See ``docs/architecture.md`` ("Serving and graceful degradation", "The
concurrent pipeline") for the error taxonomy, the quorum/breaker state
machine and the pipeline's thread-safety contract.
"""

from repro.serving.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serving.errors import (
    InvalidRequest,
    MemberFault,
    Overloaded,
    QueueFull,
    ServiceUnavailable,
    ServingError,
)
from repro.serving.members import ServingMember
from repro.serving.service import (
    InferenceService,
    ServedPrediction,
    ServiceConfig,
    ServiceHealth,
)
from repro.serving.validation import InputSpec

__all__ = [
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "InferenceService",
    "InputSpec",
    "InvalidRequest",
    "MemberFault",
    "Overloaded",
    "QueueFull",
    "ServedPrediction",
    "ServiceConfig",
    "ServiceHealth",
    "ServiceUnavailable",
    "ServingError",
    "ServingMember",
]
