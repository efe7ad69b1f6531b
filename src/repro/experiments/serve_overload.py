"""The overload suite: capacity, goodput and tail latency under saturation.

The load harness (:mod:`repro.experiments.serve_load`) measures the
pipeline *below* saturation; this suite measures what happens *at and
past* it — the regime admission control and brownout (PR 9) exist for.
Everything runs in **virtual time** on a
:class:`~repro.serving.faults.ManualClock`:

* every member is wrapped in :class:`~repro.serving.faults.SlowMember`
  with a fixed virtual service time, and with no request carrying a
  deadline the executor runs members inline on the pumping thread, so
  serving a batch advances the clock by exactly
  ``live members × member_seconds`` — a deterministic single-server
  queueing model in which brownout (fewer members per batch) genuinely
  raises capacity;
* the load harness's :func:`~repro.experiments.serve_load.replay`
  pushes Poisson arrivals through the pipeline
  with textbook event-list mechanics: the clock jumps to each arrival,
  the batcher is pumped at every window expiry / full-prefix instant
  that precedes it, and a submission that lands while the server is
  mid-batch is back-stamped to its true arrival time so sojourn-based
  admission sees honest queue delays.

Nothing depends on host speed: a (config, seed) pair names every batch
composition, shed decision and brownout transition bit-for-bit.

The suite itself (:func:`run_overload_suite`):

1. **Capacity** — a ramp-profile cell (:func:`arrival_times`) walks the
   offered rate through saturation; measured capacity is the completion
   rate after the first shed (the server is continuously busy from
   there on).
2. **Cells** — {0.5×, 1×, 2×} measured capacity, each served twice:
   *resilient* (admission control + brownout) vs *baseline* (neither,
   deep queue).  Per cell: goodput (completions within ``slo_ms``, per
   second of makespan), p50/p99 latency, shed/brownout counters.
3. **Acceptance** — at 2× capacity the resilient pipeline must hold
   p99 ≤ 5× the 0.5×-load p99 and goodput ≥ 80% of capacity, while the
   baseline visibly collapses (standing-queue p99, goodput through the
   floor).  ``benchmarks/bench_overload.py`` asserts these booleans and
   archives ``results/BENCH_overload.json``.
4. **Brownout parity** — a browned-out answer from the 2× cell is
   replayed through a fresh :class:`~repro.core.ensemble.Ensemble` built
   from exactly ``members_used``; the bytes must match (Eq. 16
   renormalisation is the *definition* of brownout correctness).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.ensemble import Ensemble
from repro.experiments.serve_load import (
    LoadConfig,
    Replay,
    arrival_times,
    build_load_service,
    replay,
)
from repro.serving.faults import ManualClock, SlowMember
from repro.serving.pressure import PressureConfig
from repro.serving.service import InferenceService
from repro.serving.transport import PipelineConfig, ServingPipeline

__all__ = [
    "OverloadConfig",
    "build_overload_service",
    "measure_capacity",
    "run_overload_cell",
    "run_overload_suite",
]


@dataclass
class OverloadConfig:
    """The overload suite's knobs: service model, traffic, resilience."""

    ensemble_size: int = 6
    input_dim: int = 16
    num_classes: int = 10
    hidden: tuple = (32,)
    rows: int = 4                  # rows per request payload
    #: Virtual seconds each member burns per forward call — the knob
    #: that fixes the model's capacity independent of host speed.
    member_seconds: float = 0.002
    max_batch_rows: int = 32
    max_wait_ms: float = 2.0
    queue_depth: int = 64
    target_delay_ms: float = 20.0  # admission-control target sojourn
    interval_ms: float = 50.0      # admission-control grace interval
    pressure: PressureConfig = field(default_factory=lambda: PressureConfig(
        target_delay_ms=20.0, levels=2, min_members=2,
        enter_pressure=1.0, exit_pressure=0.4, sustain=2))
    #: Goodput counts only completions at or under this latency.
    slo_ms: float = 200.0
    load_factors: tuple = (0.5, 1.0, 2.0)
    horizon_s: float = 3.0         # arrival window per cell
    capacity_requests: int = 512   # ramp length for the capacity probe
    seed: int = 0

    def __post_init__(self) -> None:
        if self.member_seconds <= 0:
            raise ValueError(
                f"member_seconds must be positive, got {self.member_seconds}")
        if self.slo_ms <= 0:
            raise ValueError(f"slo_ms must be positive, got {self.slo_ms}")
        if self.horizon_s <= 0:
            raise ValueError(
                f"horizon_s must be positive, got {self.horizon_s}")


# ----------------------------------------------------------------------
def _load_config(config: OverloadConfig, requests: int, arrival: str,
                 rate: float, rate_end: Optional[float] = None) -> LoadConfig:
    return LoadConfig(
        ensemble_size=config.ensemble_size, input_dim=config.input_dim,
        num_classes=config.num_classes, hidden=tuple(config.hidden),
        rows=config.rows, requests=int(requests), arrival=arrival,
        rate=float(rate), rate_end=rate_end,
        max_batch_rows=config.max_batch_rows,
        max_wait_ms=config.max_wait_ms, queue_depth=config.queue_depth,
        seed=config.seed)


def build_overload_service(config: OverloadConfig,
                           clock: ManualClock) -> InferenceService:
    """The load harness's MLP service with virtual-time member cost."""
    service = build_load_service(
        _load_config(config, 1, "open", 1.0), clock=clock)
    for member in service.members:
        member.model = SlowMember(member.model, config.member_seconds,
                                  clock=clock)
    return service


def analytic_capacity(config: OverloadConfig) -> float:
    """Requests/second a full batch of all-T members can sustain."""
    per_batch = max(config.max_batch_rows // config.rows, 1)
    service_time = config.ensemble_size * config.member_seconds
    return per_batch / service_time


# ----------------------------------------------------------------------
def _pipeline(config: OverloadConfig, service: InferenceService,
              resilient: bool, brownout: Optional[bool] = None,
              ) -> ServingPipeline:
    brownout = resilient if brownout is None else brownout
    pipe = ServingPipeline(service, PipelineConfig(
        max_batch_rows=config.max_batch_rows,
        max_wait_ms=config.max_wait_ms,
        # The baseline has no backpressure story: an effectively
        # unbounded queue is what lets its latency collapse show.
        queue_depth=config.queue_depth if resilient else 1_000_000,
        batching=True,
        target_delay_ms=config.target_delay_ms if resilient else None,
        interval_ms=config.interval_ms,
        brownout=brownout,
        pressure=config.pressure if brownout else None))
    return pipe.start(pump=False)


def _payloads(config: OverloadConfig, count: int,
              rng: np.random.Generator) -> List[np.ndarray]:
    return [rng.normal(size=(config.rows, config.input_dim))
            .astype(np.float32) for _ in range(count)]


def run_overload_cell(config: OverloadConfig, rate: float,
                      resilient: bool, requests: Optional[int] = None,
                      arrival: str = "open",
                      rate_end: Optional[float] = None,
                      brownout: Optional[bool] = None) -> Dict:
    """One virtual-time cell at ``rate`` requests/second.

    Returns the cell's measurements plus (for browned-out resilient
    cells) one ``parity`` sample: a served answer re-computed through a
    fresh sub-ensemble of exactly ``members_used`` and compared ``==``.
    """
    if requests is None:
        requests = max(int(rate * config.horizon_s), 16)
    load = _load_config(config, requests, arrival, rate, rate_end)
    rng = np.random.default_rng(
        np.random.SeedSequence([0x0E210AD, int(config.seed)]))
    clock = ManualClock()
    service = build_overload_service(config, clock)
    pipeline = _pipeline(config, service, resilient, brownout)
    arrivals = arrival_times(load, rng)
    payloads = _payloads(config, requests, rng)
    record = replay(pipeline, clock, arrivals, payloads)
    stats = pipeline.stats()
    parity = _brownout_parity(service, record, payloads)
    pipeline.close()

    completed = record.completed()
    latencies = record.latencies()
    slo = config.slo_ms / 1000.0
    makespan = max(
        [float(arrivals[-1])] +
        [arrive + prediction.latency for _, arrive, prediction in completed])
    good = int((latencies <= slo).sum()) if latencies.size else 0
    first_shed = record.shed[0][1] if record.shed else None
    levels = [prediction.brownout_level for _, _, prediction in completed]
    return {
        "rate": float(rate), "resilient": bool(resilient),
        "arrival": arrival, "requests": int(requests),
        "submitted": stats.submitted, "admitted": stats.admitted,
        "shed": stats.shed, "completed": stats.completed,
        "failed": stats.failed, "conserved": bool(stats.conserved),
        "makespan_s": float(makespan),
        "goodput_rps": float(good / makespan) if makespan > 0 else 0.0,
        "slo_violations": int(latencies.size - good),
        "latency_ms": {
            "p50": float(np.percentile(latencies, 50) * 1000)
            if latencies.size else 0.0,
            "p99": float(np.percentile(latencies, 99) * 1000)
            if latencies.size else 0.0,
            "max": float(latencies.max() * 1000) if latencies.size else 0.0,
        },
        "first_shed_at_s": first_shed,
        "brownout_batches": int(sum(1 for level in levels if level > 0)),
        "max_brownout_level": int(max(levels) if levels else 0),
        "parity": parity,
    }


def _brownout_parity(service: InferenceService, record: Replay,
                     payloads: List[np.ndarray]) -> Optional[Dict]:
    """Re-derive one browned-out answer from first principles.

    Brownout's correctness claim is that serving the healthiest K *is*
    Eq. 16 over that subset — so a fresh :class:`Ensemble` holding
    exactly ``members_used`` (roster order, same α) must reproduce the
    served probabilities byte for byte.
    """
    for index, _arrive, prediction in record.completed():
        if prediction.brownout_level <= 0:
            continue
        by_index = {member.index: member for member in service.members}
        subset = Ensemble()
        for used in prediction.members_used:
            member = by_index[used]
            subset.add(member.model, alpha=member.alpha)
        expected = subset.predict_probs(payloads[index])
        return {
            "request": int(index),
            "level": int(prediction.brownout_level),
            "members_used": [int(m) for m in prediction.members_used],
            "ok": bool(np.array_equal(expected, prediction.probs)),
        }
    return None


# ----------------------------------------------------------------------
def measure_capacity(config: OverloadConfig) -> Dict:
    """Walk a ramp through saturation; capacity = post-shed completion rate.

    The ramp sweeps 0.2×→3× the analytic capacity estimate.  From the
    first shed onward the server is continuously busy, so the completion
    rate over that span is the measured capacity; if the ramp never
    sheds (a mis-tuned model), the analytic estimate is returned and
    flagged.
    """
    guess = analytic_capacity(config)
    cell = run_overload_cell(
        config, rate=0.2 * guess, rate_end=3.0 * guess,
        requests=config.capacity_requests, arrival="ramp",
        resilient=True, brownout=False)
    measured = None
    if cell["first_shed_at_s"] is not None:
        t_sat = cell["first_shed_at_s"]
        span = cell["makespan_s"] - t_sat
        served_after = cell["completed"] * \
            max(0.0, 1.0 - t_sat / cell["makespan_s"])
        if span > 0:
            # Completions are near-uniform past saturation; the pro-rata
            # count over the busy span is exact enough for a load knob.
            measured = served_after / span
    return {
        "analytic_rps": float(guess),
        "measured_rps": float(measured if measured else guess),
        "from_ramp": measured is not None,
        "ramp_cell": cell,
    }


def run_overload_suite(config: Optional[OverloadConfig] = None) -> Dict:
    """Capacity probe + the {0.5×, 1×, 2×} × {resilient, baseline} grid.

    Returns the ``BENCH_overload.json`` payload, acceptance booleans
    included.
    """
    config = config or OverloadConfig()
    capacity = measure_capacity(config)
    rps = capacity["measured_rps"]
    cells = []
    by_key: Dict[Tuple[float, bool], Dict] = {}
    for factor in config.load_factors:
        for resilient in (True, False):
            cell = run_overload_cell(config, rate=factor * rps,
                                     resilient=resilient)
            cell["load_factor"] = float(factor)
            cells.append(cell)
            by_key[(float(factor), resilient)] = cell

    low, high = min(config.load_factors), max(config.load_factors)
    p99_low = by_key[(low, True)]["latency_ms"]["p99"]
    resilient_high = by_key[(high, True)]
    baseline_high = by_key[(high, False)]
    p99_bound = 5.0 * p99_low
    goodput_floor = 0.8 * rps
    acceptance = {
        "p99_bounded": resilient_high["latency_ms"]["p99"] <= p99_bound,
        "goodput_held": resilient_high["goodput_rps"] >= goodput_floor,
        "baseline_collapsed":
            baseline_high["latency_ms"]["p99"] > p99_bound and
            baseline_high["goodput_rps"] <
            resilient_high["goodput_rps"],
        "conserved": all(cell["conserved"] for cell in cells),
        "brownout_engaged": resilient_high["brownout_batches"] > 0,
        "brownout_parity_ok":
            resilient_high["parity"] is None or
            bool(resilient_high["parity"]["ok"]),
    }
    return {
        "harness": "serve-overload",
        "seed": int(config.seed),
        "config": asdict(config),
        "capacity": {key: value for key, value in capacity.items()
                     if key != "ramp_cell"},
        "capacity_ramp": capacity["ramp_cell"],
        "cells": cells,
        "p99_bound_ms": float(p99_bound),
        "goodput_floor_rps": float(goodput_floor),
        "acceptance": acceptance,
        "ok": all(acceptance.values()),
    }
