"""The chaos suite: seeded fault schedules replayed against the pipeline.

Overload benches measure *performance* under stress; this harness checks
*correctness* under compound failure.  Each run draws a
:class:`~repro.serving.faults.ChaosSchedule` — arrival-rate storms, pump
stalls, slow-member bursts, executor-task deaths — from one seeded RNG
and replays it in virtual time through
:func:`~repro.experiments.serve_load.replay`, as the load harness and
the overload suite do, with admission control and brownout armed.  A
(config, seed) pair therefore names the entire run: every storm
arrival, every shed, every breaker transition, bit for bit.

What each replay asserts (the *invariants*, not point predictions):

* **No deadlock** — every admitted ticket resolves (completed or
  failed); the pipeline's ``pending`` count drains to zero.
* **No torn batch** — every completed answer has exactly its request's
  row count and the service's class count; a batch is never split
  mid-request, whatever died while it was forming.
* **Conservation** — the overload ledger balances:
  ``submitted = admitted + shed`` and
  ``admitted = completed + failed``.  Shedding happens only at the
  front door, so chaos can refuse work but never lose it.
* **Fault containment** — injected task deaths
  (:class:`~repro.serving.faults.InjectedThreadDeath`, a
  ``BaseException``) surface as member skips and breaker charges, never
  as an unresolved ticket.

``repro serve-chaos`` and the CI ``chaos-smoke`` job run
:func:`run_chaos_suite` over many seeds; the acceptance bar is 100
consecutive schedules with every invariant green.

With ``lock_sanitizer=True`` (``repro serve-chaos --lock-sanitizer``)
every schedule additionally replays inside
:func:`repro.concurrency.lock_order_mode`: the pipeline is *constructed*
under the mode, so its locks become rank-checked proxies and the seeded
schedules double as a race/deadlock detector — any acquisition against
the declared order surfaces as a ``lock_order`` invariant failure naming
both locks and the thread, instead of a once-in-a-blue-moon hang.  The
sanitizer never blocks or reorders anything, so a sanitized replay's
ledger is bit-identical to an unsanitized one (the test suite asserts
exactly that).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.concurrency import LockOrderError, lock_order_mode
from repro.experiments.serve_load import replay
from repro.experiments.serve_overload import (
    OverloadConfig,
    _payloads,
    _pipeline,
    analytic_capacity,
    build_overload_service,
)
from repro.serving.faults import (
    BurstySlowMember,
    ChaosSchedule,
    DyingMember,
    ManualClock,
)
from repro.serving.pressure import PressureConfig

__all__ = [
    "ChaosConfig",
    "chaos_arrivals",
    "run_chaos_schedule",
    "run_chaos_suite",
]


@dataclass
class ChaosConfig:
    """One chaos campaign: the service model plus the disturbance draw."""

    #: The virtual-time service/pipeline model (smaller than the
    #: overload bench's: chaos runs many schedules).
    service: OverloadConfig = field(default_factory=lambda: OverloadConfig(
        ensemble_size=5, input_dim=12, num_classes=6, hidden=(16,),
        rows=4, member_seconds=0.002, max_batch_rows=16, max_wait_ms=2.0,
        queue_depth=32, target_delay_ms=20.0, interval_ms=50.0,
        pressure=PressureConfig(target_delay_ms=20.0, levels=2,
                                min_members=2, enter_pressure=1.0,
                                exit_pressure=0.4, sustain=2)))
    #: Baseline arrival rate; ``None`` → 75% of analytic capacity, so
    #: storms (2–6× multipliers) push decisively past saturation.
    base_rate: Optional[float] = None
    horizon_s: float = 2.0         # arrival window per schedule
    events: int = 5                # disturbances drawn per schedule
    schedules: int = 10            # seeds replayed by the suite
    seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon_s <= 0:
            raise ValueError(
                f"horizon_s must be positive, got {self.horizon_s}")
        if self.events < 0 or self.schedules < 1:
            raise ValueError("need events >= 0 and schedules >= 1")

    def rate(self) -> float:
        if self.base_rate is not None:
            return float(self.base_rate)
        return 0.75 * analytic_capacity(self.service)


# ----------------------------------------------------------------------
def chaos_arrivals(config: ChaosConfig, schedule: ChaosSchedule,
                   rng: np.random.Generator) -> np.ndarray:
    """Storm-modulated Poisson arrivals over ``[0, horizon_s)``.

    Each inter-arrival gap is drawn at the instantaneous rate (base ×
    the stacked storm multipliers at the current instant) — the same
    per-gap construction as the load harness's ramp profile, so storms
    genuinely multiply traffic inside their windows and nowhere else.
    """
    base = config.rate()
    times: List[float] = []
    now = 0.0
    while True:
        rate = base * schedule.rate_multiplier(now)
        now += float(rng.exponential(1.0 / rate))
        if now >= config.horizon_s:
            return np.asarray(times, dtype=np.float64)
        times.append(now)


def _apply_schedule(service, schedule: ChaosSchedule,
                    clock: ManualClock) -> None:
    """Wrap live members per the schedule's slow/death windows."""
    for event in schedule.of_kind("slow"):
        member = service.members[event.member]
        member.model = BurstySlowMember(
            member.model, event.magnitude,
            windows=[(event.start, event.end)], clock=clock)
    for event in schedule.of_kind("death"):
        member = service.members[event.member]
        member.model = DyingMember(
            member.model, windows=[(event.start, event.end)], clock=clock)


def _unstall(schedule: ChaosSchedule):
    """Map a pump-due time to the earliest instant no stall covers it."""
    stalls = schedule.of_kind("stall")

    def shift(t: float) -> float:
        moved = True
        while moved:
            moved = False
            for event in stalls:
                if event.start <= t < event.end:
                    t = event.end
                    moved = True
        return t

    return shift


# ----------------------------------------------------------------------
def run_chaos_schedule(config: ChaosConfig, seed: int,
                       lock_sanitizer: bool = False) -> Dict:
    """Draw one schedule from ``seed``, replay it, check every invariant.

    ``lock_sanitizer=True`` builds and replays the pipeline inside
    :func:`~repro.concurrency.lock_order_mode`; a
    :class:`~repro.concurrency.LockOrderError` anywhere in the replay
    fails the run's ``lock_order`` invariant (instead of deadlocking).
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([0xC4A05, int(config.seed), int(seed)]))
    schedule = ChaosSchedule.draw(rng, horizon=config.horizon_s,
                                  members=config.service.ensemble_size,
                                  events=config.events)
    clock = ManualClock()
    lock_order_failure: Optional[str] = None
    with lock_order_mode(lock_sanitizer):
        service = build_overload_service(config.service, clock)
        _apply_schedule(service, schedule, clock)
        pipeline = _pipeline(config.service, service, resilient=True)
        arrivals = chaos_arrivals(config, schedule, rng)
        payloads = _payloads(config.service, len(arrivals), rng)
        try:
            record = replay(pipeline, clock, arrivals, payloads,
                            unstall=_unstall(schedule))
        except LockOrderError as violation:
            lock_order_failure = str(violation)
            record = None
        stats = pipeline.stats()
        pipeline.close()

    if record is None:
        return {
            "seed": int(seed),
            "events": [asdict(event) for event in schedule.events],
            "arrivals": int(len(arrivals)),
            "submitted": stats.submitted, "admitted": stats.admitted,
            "shed": stats.shed, "completed": stats.completed,
            "failed": stats.failed,
            "member_deaths": 0, "brownout_batches": 0,
            "invariants": {"lock_order": False},
            "lock_order_error": lock_order_failure,
            "ok": False,
        }

    completed = record.completed()
    shape = (config.service.rows, config.service.num_classes)
    deaths = sum(getattr(member.model, "deaths", 0)
                 for member in service.members)
    invariants = {
        "no_deadlock": stats.pending == 0 and
        all(ticket.done for _, _, ticket in record.tickets),
        "no_torn_batch": all(
            prediction.probs.shape == shape
            for _, _, prediction in completed),
        "conserved": bool(stats.conserved) and
        stats.submitted == stats.admitted + stats.shed and
        stats.admitted == stats.completed + stats.failed,
        "ledger_matches_replay":
        stats.shed == len(record.shed) and
        stats.completed == len(completed),
    }
    if lock_sanitizer:
        invariants["lock_order"] = True     # no LockOrderError escaped
    levels = [prediction.brownout_level for _, _, prediction in completed]
    return {
        "seed": int(seed),
        "events": [asdict(event) for event in schedule.events],
        "arrivals": int(len(arrivals)),
        "submitted": stats.submitted, "admitted": stats.admitted,
        "shed": stats.shed, "completed": stats.completed,
        "failed": stats.failed,
        "member_deaths": int(deaths),
        "brownout_batches": int(sum(1 for level in levels if level > 0)),
        "invariants": invariants,
        "ok": all(invariants.values()),
    }


def run_chaos_suite(config: Optional[ChaosConfig] = None,
                    lock_sanitizer: bool = False) -> Dict:
    """Replay ``config.schedules`` seeded schedules; all must hold."""
    config = config or ChaosConfig()
    runs = [run_chaos_schedule(config, seed, lock_sanitizer=lock_sanitizer)
            for seed in range(config.schedules)]
    failed = [run["seed"] for run in runs if not run["ok"]]
    kinds = {kind: sum(sum(1 for event in run["events"]
                           if event["kind"] == kind) for run in runs)
             for kind in ChaosSchedule.KINDS}
    return {
        "harness": "serve-chaos",
        "seed": int(config.seed),
        "schedules": int(config.schedules),
        "lock_sanitizer": bool(lock_sanitizer),
        "lock_order_violations": sum(
            1 for run in runs if run.get("lock_order_error")),
        "base_rate_rps": float(config.rate()),
        "event_kinds": kinds,
        "total_submitted": sum(run["submitted"] for run in runs),
        "total_shed": sum(run["shed"] for run in runs),
        "total_failed": sum(run["failed"] for run in runs),
        "total_member_deaths": sum(run["member_deaths"] for run in runs),
        "failed_seeds": failed,
        "runs": runs,
        "ok": not failed,
    }
