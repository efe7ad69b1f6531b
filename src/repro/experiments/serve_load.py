"""The serving load harness: arrival processes, tail latency, QPS.

EDDE's efficiency claim is about *training* cost; the serving cost of an
ensemble is T forward passes per request, and the ROADMAP's north star
("heavy traffic … as fast as the hardware allows") demands that the
serving stack amortise it.  This harness measures exactly that, Locust
style but deterministic, against the concurrent pipeline
(:mod:`repro.serving.transport`):

* **Closed loop** — C client threads in a submit→wait→repeat cycle over
  pre-generated payloads, released together once all C are running.
  Real wall-clock timing (``perf_counter``) from that release: this is
  where QPS and the p50/p95/p99 latency percentiles come from.
* **Open loop** — a Poisson arrival replay on a
  :class:`~repro.serving.faults.ManualClock` through :func:`replay`
  (the overload suite and the chaos harness run it too): arrivals are
  drawn from the run's seeded RNG, the clock advances to each arrival,
  and each batch is pumped when its head's window expires, so no
  simulated queueing delay exceeds ``max_wait_ms``.  Nothing here
  depends on host speed — same seed, same batch compositions, same
  simulated queueing delays — so batching *policy* (batch-size
  distribution, window-induced waiting) is a reproducible, testable
  quantity.
  Three arrival profiles (:func:`arrival_times`): ``open`` (homogeneous
  Poisson), ``ramp`` (rate sweeps ``rate`` → ``rate_end``; the overload
  bench's saturation finder) and ``burst`` (on/off duty cycle).

Every run also answers a probe set twice — solo through
``service.predict`` and batched through the pipeline — and records
byte-for-byte equality: the throughput win must never cost bit-parity.

Members are freshly initialised MLPs (deterministic per seed): serving
cost depends on architecture and member count, not on the weights'
training history, and skipping training keeps the harness seconds-fast
at CI scale.

``repro serve-load`` and ``benchmarks/bench_serving.py`` both drive
:func:`run_load_suite` — a T × {batching on, off} sweep — and archive
``results/BENCH_serving.json``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ensemble import Ensemble
from repro.models.factory import ModelFactory
from repro.models.mlp import MLP
from repro.serving.errors import ServiceUnavailable
from repro.serving.faults import ManualClock
from repro.serving.service import InferenceService, ServiceConfig
from repro.serving.transport import PipelineConfig, ServingPipeline

__all__ = [
    "LoadConfig",
    "LoadResult",
    "Replay",
    "arrival_times",
    "build_load_service",
    "replay",
    "run_load_suite",
    "run_serve_load",
]


@dataclass
class LoadConfig:
    """One load-harness cell: ensemble, traffic shape, pipeline knobs."""

    ensemble_size: int = 8         # T — members serving each request
    input_dim: int = 16
    num_classes: int = 10
    hidden: tuple = (32,)
    requests: int = 256            # total timed requests (closed loop)
    rows: int = 8                  # rows per request payload
    clients: int = 16              # closed-loop concurrency
    warmup: int = 16               # untimed warmup requests
    arrival: str = "closed"        # "closed" | "open" | "ramp" | "burst"
    rate: float = 2000.0           # open-loop mean arrivals/second
    #: ``arrival="ramp"``: the mean rate sweeps linearly from ``rate``
    #: to ``rate_end`` across the run (the saturation-finding profile).
    rate_end: Optional[float] = None
    #: ``arrival="burst"``: arrivals come only during the on-phase of a
    #: ``burst_period_s`` duty cycle; ``burst_duty`` is the on fraction.
    burst_period_s: float = 0.05
    burst_duty: float = 0.5
    batching: bool = True
    max_batch_rows: int = 128
    max_wait_ms: float = 5.0
    queue_depth: int = 1024
    probe_requests: int = 16       # bit-parity probe set size
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival not in ("closed", "open", "ramp", "burst"):
            raise ValueError(f"arrival must be one of 'closed', 'open', "
                             f"'ramp', 'burst', got {self.arrival!r}")
        if self.requests < 1 or self.rows < 1 or self.clients < 1:
            raise ValueError("requests, rows and clients must be >= 1")
        if self.arrival == "burst" and not 0 < self.burst_duty <= 1:
            raise ValueError(f"burst_duty must be in (0, 1], "
                             f"got {self.burst_duty}")
        if self.arrival == "burst" and self.burst_period_s <= 0:
            raise ValueError(f"burst_period_s must be positive, "
                             f"got {self.burst_period_s}")


@dataclass
class LoadResult:
    """One cell's measurements, JSON-able."""

    config: Dict
    seed: int
    arrival: str
    batching: bool
    requests: int
    seconds: float                 # timed-phase wall seconds (closed loop)
    qps: float
    latency_ms: Dict[str, float]   # p50/p95/p99/mean
    batches_formed: int
    requests_batched: int
    mean_batch_requests: float
    parity_ok: bool                # batched == solo, byte for byte
    #: Open-loop only: simulated queueing-delay stats on the manual clock.
    open_loop: Dict = field(default_factory=dict)

    def to_payload(self) -> Dict:
        return asdict(self)


# ----------------------------------------------------------------------
def build_load_service(config: LoadConfig,
                       clock=time.monotonic) -> InferenceService:
    """A T-member MLP service, deterministic in ``config.seed``."""
    root = np.random.SeedSequence([0x5E24E10AD, int(config.seed)])
    streams = root.spawn(config.ensemble_size + 1)
    alpha_rng = np.random.default_rng(streams[-1])
    factory = ModelFactory(MLP, input_dim=config.input_dim,
                           num_classes=config.num_classes,
                           hidden=tuple(config.hidden))
    ensemble = Ensemble()
    for member in range(config.ensemble_size):
        ensemble.add(factory.build(rng=np.random.default_rng(
            streams[member])),
            alpha=float(alpha_rng.uniform(0.5, 1.5)))
    return InferenceService(ensemble, ServiceConfig(clock=clock))


def _payloads(config: LoadConfig, count: int,
              rng: np.random.Generator) -> List[np.ndarray]:
    return [rng.normal(size=(config.rows, config.input_dim))
            .astype(np.float32) for _ in range(count)]


def _pipeline_config(config: LoadConfig) -> PipelineConfig:
    return PipelineConfig(max_batch_rows=config.max_batch_rows,
                          max_wait_ms=config.max_wait_ms,
                          queue_depth=config.queue_depth,
                          batching=config.batching)


def arrival_times(config: LoadConfig,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw the open-loop arrival timeline for ``config``'s profile.

    * ``open``  — homogeneous Poisson at ``rate``;
    * ``ramp``  — inhomogeneous Poisson whose mean rate sweeps linearly
      from ``rate`` to ``rate_end`` across the run (each inter-arrival
      gap is drawn at the instantaneous rate) — the profile the overload
      bench uses to walk a service into saturation;
    * ``burst`` — an on/off duty cycle: gaps are drawn at ``rate`` and
      any arrival landing in an off-phase is shifted to the start of the
      next on-phase (arrival order and count are preserved).
    """
    n = config.requests
    if config.arrival == "ramp":
        end = config.rate_end if config.rate_end is not None else config.rate
        rates = np.linspace(config.rate, float(end), n, dtype=np.float64)
        gaps = rng.exponential(1.0 / np.maximum(rates, 1e-9))
        return np.cumsum(gaps)
    gaps = rng.exponential(1.0 / config.rate, size=n)
    times = np.cumsum(gaps)
    if config.arrival == "burst":
        period = config.burst_period_s
        on = period * config.burst_duty
        # Compress the timeline: only on-phase time accrues arrivals,
        # then map each arrival back to absolute (on+off) time.
        compressed = times * config.burst_duty
        cycle, offset = np.divmod(compressed, on)
        times = cycle * period + offset
    return times


def _percentiles(latencies: Sequence[float]) -> Dict[str, float]:
    sample = np.asarray(latencies, dtype=np.float64) * 1000.0
    return {"p50": float(np.percentile(sample, 50)),
            "p95": float(np.percentile(sample, 95)),
            "p99": float(np.percentile(sample, 99)),
            "mean": float(sample.mean())}


def _check_parity(config: LoadConfig, service: InferenceService,
                  rng: np.random.Generator) -> bool:
    """Solo vs micro-batched answers on a probe set, compared with ``==``."""
    probes = _payloads(config, config.probe_requests, rng)
    solo = [service.predict(x).probs.copy() for x in probes]
    pipeline = ServingPipeline(service, PipelineConfig(
        max_batch_rows=config.max_batch_rows,
        queue_depth=max(config.queue_depth, len(probes)))
    ).start(pump=False)
    tickets = [pipeline.submit(x) for x in probes]
    while any(not ticket.done for ticket in tickets):
        pipeline.batcher.pump_once()
    batched = [pipeline.result(ticket).probs for ticket in tickets]
    pipeline.close()
    return all(np.array_equal(a, b) for a, b in zip(solo, batched))


# ----------------------------------------------------------------------
def _run_closed_loop(config: LoadConfig, service: InferenceService,
                     rng: np.random.Generator):
    """C threads in submit→wait→repeat; real-time QPS and percentiles."""
    payloads = _payloads(config, config.requests + config.warmup, rng)
    warmup, timed = payloads[:config.warmup], payloads[config.warmup:]
    latencies: List[float] = []
    lock = threading.Lock()
    shares = np.array_split(np.arange(len(timed)), config.clients)

    with ServingPipeline(service, _pipeline_config(config)) as pipeline:
        for x in warmup:
            pipeline.predict(x)

        go = threading.Event()

        def client(indices) -> None:
            go.wait()
            mine = []
            for i in indices:
                begin = time.perf_counter()
                pipeline.predict(timed[i])
                mine.append(time.perf_counter() - begin)
            with lock:
                latencies.extend(mine)

        threads = [threading.Thread(target=client, args=(share,),
                                    name=f"load-client-{n}")
                   for n, share in enumerate(shares) if len(share)]
        # The clock starts once every client exists: each spawn waits
        # for the GIL held by whichever client is serving, which in a
        # short run would otherwise be most of the timed wall time.
        try:
            for thread in threads:
                thread.start()
        finally:
            started = time.perf_counter()
            go.set()                   # a failed spawn strands no client
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - started
        stats = (pipeline.batcher.batches_formed,
                 pipeline.batcher.requests_batched) \
            if pipeline.batcher else (0, 0)
    return latencies, seconds, stats


def _run_open_loop(config: LoadConfig, rng: np.random.Generator):
    """Poisson replay on a manual clock: deterministic batching policy."""
    clock = ManualClock()
    service = build_load_service(config, clock=clock)
    pipeline = ServingPipeline(service, _pipeline_config(config))
    pipeline.start(pump=False)   # replay pumps at exact window expiries
    arrivals = arrival_times(config, rng)
    payloads = _payloads(config, config.requests, rng)
    record = replay(pipeline, clock, arrivals, payloads)
    pipeline.close()
    sizes = np.asarray(record.batches or [1], dtype=np.float64)
    delay_ms = record.latencies() * 1000.0
    return {
        "profile": config.arrival,
        "simulated_seconds": float(arrivals[-1]),
        "batch_size_mean": float(sizes.mean()),
        "batch_size_max": int(sizes.max()),
        "queueing_delay_ms": {
            "p50": float(np.percentile(delay_ms, 50)),
            "p99": float(np.percentile(delay_ms, 99)),
            "max": float(delay_ms.max()),
        },
    }


# ----------------------------------------------------------------------
@dataclass
class Replay:
    """What one virtual-time replay did, ticket by ticket."""

    #: (request index, arrival time, ticket) for every admitted request.
    tickets: List[Tuple[int, float, object]] = field(default_factory=list)
    #: (request index, arrival time, error code, retry_after) per shed.
    shed: List[Tuple[int, float, str, Optional[float]]] = field(
        default_factory=list)
    #: Requests drained by each pumped batch, in pump order.
    batches: List[int] = field(default_factory=list)

    def completed(self):
        return [(index, arrive, ticket.wait(0))
                for index, arrive, ticket in self.tickets
                if ticket.done and not ticket.failed]

    def latencies(self) -> np.ndarray:
        return np.asarray(
            [prediction.latency for _, _, prediction in self.completed()],
            dtype=np.float64)


def replay(pipeline: ServingPipeline, clock: ManualClock,
           arrivals: np.ndarray, payloads: List[np.ndarray],
           unstall: Callable[[float], float] = lambda t: t) -> Replay:
    """Drive arrivals through the pipeline in virtual time.

    The open loop here, the overload suite and the chaos harness all
    run it.  Single-server event mechanics: before each arrival, every
    batch whose window has expired (its head was enqueued
    ``max_wait_ms`` ago) or whose prefix is full is pumped at its due
    instant — ``unstall`` may push a due time later (the chaos
    harness's pump-stall windows).  With members that take no virtual
    time, no request therefore waits longer than the window.
    Serving may advance the clock (:class:`~repro.serving.faults.
    SlowMember`-wrapped members), so a batch that runs past the next
    arrival leaves the clock there: that arrival is then *back-stamped*
    — submitted with the clock rewound to its true arrival time so its
    ``enqueued`` stamp, and every sojourn computed from it, matches the
    timeline — and the clock restored.

    The pipeline must be built on ``clock`` and started with
    ``pump=False``.  Arrivals carry no deadline, so every member runs on
    the thread that pumps (or, without batching, submits): serving
    never leaves virtual time.  Without batching every request is
    answered at submit and nothing is pumped.
    """
    batcher = pipeline.batcher
    window = pipeline.config.max_wait_ms / 1000.0
    max_rows = pipeline.config.max_batch_rows
    payload_rows = int(len(payloads[0]))
    record = Replay()

    def next_due() -> Optional[float]:
        head = batcher.head_enqueued() if batcher is not None else None
        if head is None:
            return None
        due = head + window
        if batcher.depth() * payload_rows >= max_rows:
            due = min(due, max(clock.now, head))   # prefix full: form now
        return unstall(due)

    def pump_at(due: float) -> int:
        clock.now = max(clock.now, due)
        drained = batcher.pump_once()
        if drained:
            record.batches.append(drained)
        return drained

    for index, (arrive, x) in enumerate(zip(arrivals, payloads)):
        arrive = float(arrive)
        while clock.now < arrive:
            due = next_due()
            if due is None or due > arrive:
                break
            pump_at(due)
        resume = clock.now
        clock.now = arrive
        try:
            record.tickets.append((index, arrive, pipeline.submit(x)))
        except ServiceUnavailable as error:
            record.shed.append((index, arrive,
                                getattr(error, "code", "unavailable"),
                                getattr(error, "retry_after", None)))
        clock.now = max(resume, arrive)
    while True:
        due = next_due()
        if due is None or not pump_at(due):
            break                      # drained (or, defensively, stuck)
    return record


def run_serve_load(config: LoadConfig) -> LoadResult:
    """Run one load cell; pure function of ``config`` (incl. its seed),
    up to the wall-clock timings the closed loop exists to measure."""
    rng = np.random.default_rng(
        np.random.SeedSequence([0x10AD5EED, int(config.seed)]))
    service = build_load_service(config)
    parity_ok = _check_parity(config, service, rng)

    open_stats: Dict = {}
    if config.arrival != "closed":
        open_stats = _run_open_loop(config, rng)

    latencies, seconds, (batches, batched) = _run_closed_loop(
        config, service, rng)
    return LoadResult(
        config=asdict(config), seed=config.seed, arrival=config.arrival,
        batching=config.batching, requests=len(latencies),
        seconds=float(seconds),
        qps=float(len(latencies) / seconds) if seconds > 0 else 0.0,
        latency_ms=_percentiles(latencies),
        batches_formed=batches, requests_batched=batched,
        mean_batch_requests=float(batched / batches) if batches else 0.0,
        parity_ok=bool(parity_ok),
        open_loop=open_stats,
    )


# ----------------------------------------------------------------------
def run_load_suite(ensemble_sizes: Sequence[int] = (1, 4, 8),
                   seed: int = 0, **overrides) -> Dict:
    """The benchmark sweep: T × {batching on, off} (+ one open-loop cell).

    Returns the ``BENCH_serving.json`` payload: per-cell QPS and latency
    percentiles, the batched-vs-solo speedup per T, and the aggregate
    bit-parity verdict.
    """
    cells = []
    speedups: Dict[str, float] = {}
    for size in ensemble_sizes:
        by_batching = {}
        for batching in (False, True):
            result = run_serve_load(LoadConfig(
                ensemble_size=int(size), batching=batching, seed=seed,
                **overrides))
            cells.append(result.to_payload())
            by_batching[batching] = result
        off, on = by_batching[False], by_batching[True]
        speedups[str(size)] = float(on.qps / off.qps) if off.qps else 0.0
    open_loop = run_serve_load(LoadConfig(
        ensemble_size=int(ensemble_sizes[-1]), arrival="open",
        batching=True, seed=seed, **overrides))
    cells.append(open_loop.to_payload())
    return {
        "harness": "serve-load",
        "seed": int(seed),
        "ensemble_sizes": [int(size) for size in ensemble_sizes],
        "cells": cells,
        "qps_speedup_batched": speedups,
        "parity_ok": bool(all(cell["parity_ok"] for cell in cells)),
    }
