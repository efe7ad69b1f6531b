"""The fault-tolerant inference service around a loaded ensemble.

An α-weighted ensemble (paper Eq. 16) degrades gracefully by
construction: the vote ``H(x) = Σ α_t h_t(x) / Σ α_t`` stays a valid —
slightly weaker — predictor under *any* subset of members, because the
normaliser renormalises whatever α mass is actually present.
:class:`InferenceService` turns that property into production failure
semantics:

* **Resilient startup** — :meth:`InferenceService.from_archive` loads the
  archive with ``strict=False`` by default, dropping members whose arrays
  are corrupt/missing/non-finite (see
  :func:`repro.core.serialization.load_ensemble`), and then applies the
  quorum knob: fewer than ``min_members`` survivors (default
  ``ceil(T/2)``) means the service *refuses to start* with
  :class:`ServiceUnavailable` instead of silently serving a husk.
* **Request hardening** — inputs are screened by an
  :class:`~repro.serving.validation.InputSpec` (shape/dtype/NaN/range →
  :class:`InvalidRequest`); per-request ``deadline`` cuts off members
  that have not *started* once the wall-clock budget is spent and returns
  the partial α-weighted aggregate over the members that finished; every
  member runs behind a :class:`~repro.serving.breaker.CircuitBreaker`, so
  a repeatedly faulting member is quarantined (its α leaves the vote)
  and periodically re-probed.
* **Operational surface** — :meth:`health` snapshots the whole state
  machine: live/quarantined/dropped members with reasons, effective α
  mass, request/fault counters, readiness against the quorum.

Aggregation calls :func:`repro.core.ensemble.alpha_vote` — the function
behind :meth:`repro.core.ensemble.Ensemble.predict_probs` — over the
completed members, so a degraded answer is *bit-identical* to what a
freshly built ensemble of the surviving members would produce.  Tests
assert exactly that.

This module is the *policy* core of the serving stack: validation,
roster bookkeeping, aggregation and the health surface.  Running the
members is :func:`repro.serving.members.run_members` (the serial loop
:meth:`predict` uses); running them on a thread pool lives in
:mod:`repro.serving.executor`, request coalescing in
:mod:`repro.serving.scheduler`, and the async ``submit/poll/result``
front door in :mod:`repro.serving.transport` — all of which reuse
:meth:`InferenceService.roster_snapshot` / :meth:`InferenceService.finish`
so every path shares one aggregation (and one set of counters).

Thread-safety contract: roster mutation (``replace_member``) and roster
reads (``predict``/``health``/``roster_snapshot``) synchronise on the
swap lock; request counters have their own lock; breaker state is locked
inside :class:`~repro.serving.breaker.CircuitBreaker`.  ``health()``
therefore returns a mutually consistent snapshot — member list, breaker
states and swap count taken under one lock acquisition, never a torn
mid-swap mix.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.serialization import (
    CheckpointError,
    LoadReport,
    PathLike,
    load_ensemble,
)
from repro.concurrency import tracked_lock
from repro.core.ensemble import Ensemble, alpha_vote
from repro.models.factory import ModelFactory
from repro.serving.breaker import CircuitBreaker
from repro.serving.errors import InvalidRequest, ServiceUnavailable
from repro.serving.members import ServingMember, run_members
from repro.serving.validation import InputSpec


@dataclass
class ServiceConfig:
    """Knobs for :class:`InferenceService`.

    ``min_members=None`` means "majority quorum": ``ceil(T/2)`` of the
    members the archive declares.  ``clock`` is injectable so tests drive
    deadlines and breaker cooldowns with a manual clock.
    """

    min_members: Optional[int] = None
    strict: bool = False
    fault_threshold: int = 3
    breaker_cooldown: float = 30.0
    batch_size: int = 256
    input_spec: Optional[InputSpec] = None
    clock: Callable[[], float] = time.monotonic
    #: Attach each member's softmax rows to the prediction, keyed by the
    #: member's original index.  Drift monitors consume these — the
    #: per-member outputs the aggregate already computed — so monitoring
    #: costs zero extra forward passes.
    expose_member_probs: bool = False


@dataclass
class ServedPrediction:
    """One answered request: the aggregate plus who produced it."""

    probs: np.ndarray
    members_used: List[int]
    #: (original member index, skip kind, human-readable reason)
    members_skipped: List[Tuple[int, str, str]]
    alpha_mass: float              # α used / α configured (incl. dropped)
    deadline_hit: bool
    latency: float
    #: Per-member softmax rows (original index -> probs); populated only
    #: when ``ServiceConfig.expose_member_probs`` is set.
    member_probs: Optional[Dict[int, np.ndarray]] = None
    #: Brownout degrade level this answer was served at (0 = full
    #: roster).  ``members_used`` records the exact roster that voted.
    brownout_level: int = 0

    @property
    def labels(self) -> np.ndarray:
        return self.probs.argmax(axis=1)

    @property
    def degraded(self) -> bool:
        return bool(self.members_skipped) or self.alpha_mass < 1.0 or \
            self.brownout_level > 0


@dataclass
class ServiceHealth:
    """Snapshot of the service state machine for monitoring/readiness."""

    ready: bool
    members_total: int                       # declared by the archive
    members_live: List[int]
    members_quarantined: Dict[int, str]      # index -> breaker reason
    dropped_at_load: Dict[int, str]          # index -> load failure reason
    min_members: int
    effective_alpha_mass: float              # live α / configured α
    requests_served: int
    requests_rejected: int                   # InvalidRequest
    requests_unavailable: int                # ServiceUnavailable
    member_faults: Dict[int, int] = field(default_factory=dict)
    #: index -> (breaker state, seconds in that state)
    breaker_states: Dict[int, Tuple[str, float]] = field(default_factory=dict)
    #: One-line degraded-load summary ("" when the load was clean).
    load_summary: str = ""
    #: Monitor statistic name -> alarming?  Empty when no monitor attached.
    monitor_alarms: Dict[str, bool] = field(default_factory=dict)
    #: Hot swaps applied by the repair loop over the service lifetime.
    member_swaps: int = 0
    #: Requests refused by admission control (Overloaded/QueueFull).
    requests_shed: int = 0
    #: Current brownout degrade level (0 when no pressure controller is
    #: attached or pressure is clear) and the roster it would serve.
    brownout_level: int = 0
    brownout_members: Optional[List[int]] = None


class InferenceService:
    """Serve α-weighted ensemble predictions with production semantics."""

    def __init__(self, ensemble: Ensemble,
                 config: Optional[ServiceConfig] = None,
                 load_report: Optional[LoadReport] = None):
        self.config = config or ServiceConfig()
        self.clock = self.config.clock
        self.load_report = load_report or LoadReport(
            requested=len(ensemble),
            loaded_indices=list(range(len(ensemble))))
        self.members: List[ServingMember] = [
            ServingMember(
                index=original_index, model=model, alpha=alpha,
                breaker=CircuitBreaker(
                    fault_threshold=self.config.fault_threshold,
                    cooldown=self.config.breaker_cooldown,
                    clock=self.clock))
            for original_index, model, alpha in zip(
                self.load_report.loaded_indices, ensemble.models,
                ensemble.alphas)
        ]
        total = self.load_report.requested or len(self.members)
        self.min_members = self.config.min_members if \
            self.config.min_members is not None else math.ceil(total / 2)
        if self.min_members < 1:
            raise ValueError(
                f"min_members must be >= 1, got {self.min_members}")
        self._alpha_configured = sum(m.alpha for m in self.members) + \
            sum(drop.alpha for drop in self.load_report.dropped)
        self._served = 0
        self._rejected = 0
        self._unavailable = 0
        self._shed = 0
        # Hot-swap machinery: ``replace_member`` publishes a fresh member
        # list under this lock (copy-on-write); readers snapshot the list
        # once per request, so an in-flight prediction sees either the
        # full old roster or the full new one, never a torn mix.
        self._swap_lock = tracked_lock("service.swap")
        # Request counters are bumped from executor/transport threads too.
        self._stats_lock = tracked_lock("service.stats")
        self._member_swaps = 0
        #: Optional drift monitor (duck-typed: anything with
        #: ``alarm_summary() -> Dict[str, bool]``); surfaced in health().
        self.monitor = None
        #: Optional pressure controller (duck-typed: anything with
        #: ``snapshot() -> dict`` and ``roster_for``); attached by the
        #: pipeline when brownout is enabled, surfaced in health().
        self.pressure = None
        if len(self.members) < self.min_members:
            raise ServiceUnavailable(
                f"quorum not met: {len(self.members)} member(s) loaded, "
                f"min_members={self.min_members} "
                f"({len(self.load_report.dropped)} dropped at load)")

    # ------------------------------------------------------------------
    @classmethod
    def from_archive(cls, path: PathLike, factory: ModelFactory,
                     config: Optional[ServiceConfig] = None,
                     ) -> "InferenceService":
        """Load a saved ensemble and stand the service up around it.

        Every way the archive can be unusable — unreadable file, below
        quorum after degraded loading, architecture mismatch — surfaces
        as :class:`ServiceUnavailable` ("refuse to start"), with the
        underlying loader error chained for diagnostics.
        """
        config = config or ServiceConfig()
        report = LoadReport()
        try:
            ensemble = load_ensemble(path, factory, strict=config.strict,
                                     report=report)
        except (CheckpointError, ValueError) as error:
            raise ServiceUnavailable(
                f"cannot load ensemble from {path}: {error}") from error
        return cls(ensemble, config=config, load_report=report)

    # ------------------------------------------------------------------
    def predict(self, x, deadline: Optional[float] = None) -> ServedPrediction:
        """Answer one request, degrading over member faults and deadlines.

        ``deadline`` is a wall-clock budget in seconds.  Members are
        evaluated sequentially by :func:`~repro.serving.members.
        run_members`; a member is only *started* while budget remains,
        and the answer is the α-weighted average over the members that
        completed — :func:`~repro.core.ensemble.alpha_vote`, as in
        :meth:`Ensemble.predict_probs`, restricted to those members.

        Raises :class:`InvalidRequest` for malformed payloads and
        :class:`ServiceUnavailable` when not a single member produced a
        valid output.
        """
        if deadline is not None and deadline <= 0:
            self.count_rejected()
            raise InvalidRequest(
                f"deadline must be positive, got {deadline}", field="deadline")
        x = self.validate(x)
        started = self.clock()
        # Snapshot the roster and its configured α mass as one consistent
        # pair; a concurrent replace_member cannot tear this request.
        members, alpha_configured = self.roster_snapshot()
        outputs, skipped, deadline_hit = run_members(
            members, x, self.config.batch_size, self.clock, started,
            deadline)
        return self.finish(outputs, skipped, alpha_configured,
                           deadline_hit=deadline_hit,
                           latency=self.clock() - started)

    # -- shared building blocks (serial predict + concurrent pipeline) --
    def roster_snapshot(self) -> Tuple[List[ServingMember], float]:
        """The roster and its configured α mass, as one consistent pair.

        Copy-on-write makes the returned list immutable in practice: a
        concurrent :meth:`replace_member` publishes a *new* list, so a
        holder of this snapshot sees either the full old ensemble or the
        full new one, never a torn mix.
        """
        with self._swap_lock:
            return self.members, self._alpha_configured

    def finish(self, outputs: List[Tuple[ServingMember, np.ndarray]],
               skipped: List[Tuple[int, str, str]],
               alpha_configured: float, deadline_hit: bool,
               latency: float, brownout_level: int = 0) -> ServedPrediction:
        """Aggregate completed member outputs into one answer.

        Eq. 16 via :func:`~repro.core.ensemble.alpha_vote`, so the answer
        is bit-identical to :meth:`Ensemble.predict_probs` over the
        completed members whichever execution path (serial loop, thread
        pool, micro-batch) produced them.  ``outputs`` must be in roster
        order.  Raises :class:`ServiceUnavailable` (and counts it) when
        empty.
        """
        if not outputs:
            self.count_unavailable()
            reasons = "; ".join(f"member {i} {kind}: {why}"
                                for i, kind, why in skipped) or "no members"
            raise ServiceUnavailable(f"no member produced an answer "
                                     f"({reasons})")
        alphas = np.asarray([member.alpha for member, _ in outputs])
        combined = alpha_vote(alphas, [probs for _, probs in outputs])
        with self._stats_lock:
            self._served += 1
        mass = 1.0 if alpha_configured <= 0 else \
            float(alphas.sum() / alpha_configured)
        return ServedPrediction(
            probs=combined,
            members_used=[member.index for member, _ in outputs],
            members_skipped=skipped,
            alpha_mass=mass,
            deadline_hit=deadline_hit,
            latency=latency,
            member_probs={member.index: probs for member, probs in outputs}
            if self.config.expose_member_probs else None,
            brownout_level=brownout_level,
        )

    def count_rejected(self) -> None:
        with self._stats_lock:
            self._rejected += 1

    def count_unavailable(self) -> None:
        with self._stats_lock:
            self._unavailable += 1

    def count_shed(self) -> None:
        """One request refused by admission control (also unavailable —
        :class:`Overloaded` is a :class:`ServiceUnavailable`)."""
        with self._stats_lock:
            self._unavailable += 1
            self._shed += 1

    def validate(self, x) -> np.ndarray:
        """Screen one request payload; counts and raises on rejection."""
        try:
            return self._validate(x)
        except InvalidRequest:
            self.count_rejected()
            raise

    def _validate(self, x) -> np.ndarray:
        spec = self.config.input_spec
        if spec is not None:
            return spec.validate(x)
        # No spec configured: still refuse poisoned payloads.
        x = np.asarray(x)
        if np.issubdtype(x.dtype, np.floating) and \
                not np.isfinite(x).all():
            raise InvalidRequest(
                f"payload contains {int((~np.isfinite(x)).sum())} "
                "non-finite (NaN/Inf) value(s)", field="values")
        return x

    # ------------------------------------------------------------------
    def member_by_index(self, index: int) -> ServingMember:
        """The live member with original archive index ``index``."""
        for member in self.members:
            if member.index == index:
                return member
        raise ValueError(f"no live member with index {index} "
                         f"(live: {[m.index for m in self.members]})")

    def replace_member(self, index: int, model, alpha: float,
                       ) -> ServingMember:
        """Hot-swap the member with original index ``index`` for ``model``.

        The repair loop's publication step.  The new roster is built
        copy-on-write and published (together with its configured α mass,
        so ``alpha_mass`` renormalises against the *current* weights)
        under the swap lock; a prediction snapshotting the roster sees
        either the full old ensemble or the full new one.  The
        replacement gets a fresh ``CLOSED`` breaker — the retired
        member's fault history does not taint its successor — and the
        retired :class:`ServingMember` is returned intact (model, α,
        breaker) so the caller can keep it for rollback.
        """
        alpha = float(alpha)
        if not np.isfinite(alpha) or alpha <= 0:
            raise ValueError(
                f"alpha must be positive and finite, got {alpha}")
        model.eval()
        with self._swap_lock:
            positions = [i for i, m in enumerate(self.members)
                         if m.index == index]
            if not positions:
                raise ValueError(
                    f"no live member with index {index} "
                    f"(live: {[m.index for m in self.members]})")
            position = positions[0]
            retired = self.members[position]
            roster = list(self.members)
            roster[position] = ServingMember(
                index=index, model=model, alpha=alpha,
                breaker=CircuitBreaker(
                    fault_threshold=self.config.fault_threshold,
                    cooldown=self.config.breaker_cooldown,
                    clock=self.clock))
            self.members = roster
            self._alpha_configured = sum(m.alpha for m in roster) + \
                sum(drop.alpha for drop in self.load_report.dropped)
            self._member_swaps += 1
        return retired

    def attach_monitor(self, monitor) -> None:
        """Surface ``monitor.alarm_summary()`` in :meth:`health`.

        Duck-typed on purpose: the serving layer must not import
        :mod:`repro.serving.monitor` (a sub-layer above it), so any
        object with ``alarm_summary() -> Dict[str, bool]`` qualifies.
        """
        self.monitor = monitor

    def attach_pressure(self, pressure) -> None:
        """Surface a pressure controller's ``snapshot()`` in :meth:`health`.

        Duck-typed for the same layering reason as :meth:`attach_monitor`:
        the service must not import :mod:`repro.serving.pressure` (a
        sub-layer above it).
        """
        self.pressure = pressure

    def member_health_scores(self, members: Optional[List[ServingMember]]
                             = None) -> Dict[int, float]:
        """Health score per member (higher is sicker) for brownout ranking.

        The primary signal is the drift monitor's rolling
        deviation-from-consensus score (PR 7) when a monitor is attached;
        each member's lifetime breaker fault count is added on top, so a
        member that keeps faulting ranks sicker than one that never has
        even before any drift evidence accumulates.  Members absent from
        both signals score 0.0 (healthy).
        """
        if members is None:
            members, _ = self.roster_snapshot()
        scores = {member.index: 0.0 for member in members}
        if self.monitor is not None and \
                hasattr(self.monitor, "member_scores"):
            for index, score in self.monitor.member_scores().items():
                if index in scores:
                    scores[index] += float(score)
        for member in members:
            scores[member.index] += float(member.breaker.total_faults)
        return scores

    # ------------------------------------------------------------------
    def health(self) -> ServiceHealth:
        """Current liveness/readiness snapshot (cheap; no model runs).

        The roster, its configured α mass and the swap counter are read
        under the swap lock, so a snapshot racing ``replace_member``
        reports either the pre-swap or the post-swap service — member
        lists, breaker states and ``member_swaps`` stay mutually
        consistent, never a torn mid-swap mix.
        """
        with self._swap_lock:
            members = self.members
            alpha_configured = self._alpha_configured
            member_swaps = self._member_swaps
        with self._stats_lock:
            served, rejected = self._served, self._rejected
            unavailable, shed = self._unavailable, self._shed
        live, quarantined = [], {}
        alpha_live = 0.0
        for member in members:
            if member.breaker.quarantined:
                quarantined[member.index] = member.breaker.describe()
            else:
                live.append(member.index)
                alpha_live += member.alpha
        mass = 1.0 if alpha_configured <= 0 else \
            alpha_live / alpha_configured
        brownout_level = 0
        brownout_members = None
        if self.pressure is not None:
            brownout_level = int(self.pressure.snapshot().get("level", 0))
            if brownout_level > 0:
                roster, _ = self.pressure.roster_for(
                    members, self.member_health_scores(members))
                brownout_members = [member.index for member in roster]
        report = self.load_report
        load_summary = ""
        if report.degraded:
            load_summary = (
                f"{len(report.loaded_indices)}/{report.requested} members "
                f"loaded, alpha retained {report.alpha_retained:.3f}; "
                "dropped: " + "; ".join(
                    f"member {drop.index}: {drop.reason}"
                    for drop in report.dropped))
        return ServiceHealth(
            ready=len(live) >= self.min_members,
            members_total=report.requested or len(members),
            members_live=live,
            members_quarantined=quarantined,
            dropped_at_load={drop.index: drop.reason
                             for drop in report.dropped},
            min_members=self.min_members,
            effective_alpha_mass=mass,
            requests_served=served,
            requests_rejected=rejected,
            requests_unavailable=unavailable,
            member_faults={member.index: member.breaker.total_faults
                           for member in members
                           if member.breaker.total_faults},
            breaker_states={member.index: (member.breaker.state,
                                           member.breaker.state_age())
                            for member in members},
            load_summary=load_summary,
            monitor_alarms=dict(self.monitor.alarm_summary())
            if self.monitor is not None else {},
            member_swaps=member_swaps,
            requests_shed=shed,
            brownout_level=brownout_level,
            brownout_members=brownout_members,
        )
