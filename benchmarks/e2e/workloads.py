"""The benchmark's two workloads, their correctness checks and traces.

Every workload repeats a fixed *job* and reports the same end-to-end
metrics; ``README.md`` defines them per workload.

A traced run (``trace=True``) measures once untraced and once under the
outside-in :class:`~layertrace.LayerTrace`, asserts that both produce
bit-identical outputs, and reports per-layer metrics, the share of the
end-to-end total no layer accounts for, and the tracing overhead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import resource
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from calibration import Calibration
from layertrace import LayerTrace

from repro import nn
# The tracer wraps the training seams of repro.core, so these imports
# reach past the experiments layer on purpose.
from repro.core import edde as core_edde  # repro-lint: disable=RL001 (outside-in tracer wraps core seams)
from repro.core import engine as core_engine  # repro-lint: disable=RL001 (outside-in tracer wraps core seams)
from repro.data.loader import DataLoader
from repro.data.synthetic_images import make_cifar100_like
from repro.experiments.protocol import build_scenario
from repro.experiments.runner import make_edde_config
from repro.experiments.serve_load import LoadConfig, build_load_service
from repro.models.resnet import ResNetCIFAR
from repro.ops.profiler import profile_ops
from repro.optim import SGD
from repro.serving.members import ServingMember
from repro.serving.service import InferenceService
from repro.serving.transport import PipelineConfig, ServingPipeline, Ticket
from repro.tensor import Tensor

__all__ = ["E2E_METRICS", "LAYER_METRICS", "Outcome", "PRESETS",
           "DIAGNOSTICS", "WORKLOADS", "run_workload"]

#: End-to-end metrics: name -> unit.  Every workload reports each one.
E2E_METRICS: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "job_s": "s",
    "time_to_target_s": "s",
    "lat_p50_ms": "ms",
    "accuracy": "fraction",
}

#: The end-to-end metrics that are times; they are reported at the
#: reference host speed (see calibration.py).
CALIBRATED = ("setup_s", "job_s", "time_to_target_s", "lat_p50_ms")

#: Printed and kept in the history with every run, but without a bound:
#: the calibrated times as wall times, CPU times and tail latencies, whose
#: run-to-run spread on a shared host is too wide for one (see
#: README.md), and the run's reference time.
DIAGNOSTICS: Dict[str, str] = {
    **{f"raw_{name}": E2E_METRICS[name] for name in CALIBRATED},
    "job_cpu_s": "s",
    "target_cpu_s": "s",
    "lat_p90_ms": "ms",
    "lat_p99_ms": "ms",
    "calibration_s": "s",
}

#: The ops that together cover >= 90 % of op time in train-resnet.
#: (ResNetCIFAR has no max-pool; ``sub`` is the next op by time.)
TRACED_OPS = ("conv2d", "pad2d", "relu", "mul", "div", "sum", "add", "sub",
              "edde_loss")

_CORE = {
    "core.train_member_s": "core.train_member",
    "core.member_eval_s": "core.member_eval",
    "core.cache_add_s": "core.cache_add",
    "core.boost_s": "core.boost",
    "core.transfer_s": "core.transfer",
    "core.loss_s": "core.loss",
    "data.batch_wait_s": "data.batch_wait",
    "nn.forward_s": "nn.forward",
    "tensor.backward_s": "tensor.backward",
    "optim.step_s": "optim.step",
    "nn.conv_fwd_s": "nn.conv_fwd",
    "nn.bn_fwd_s": "nn.bn_fwd",
    "nn.head_fwd_s": "nn.head_fwd",
}

_SERVING = {
    "transport.submit_ms": "ms", "service.validate_ms": "ms",
    "scheduler.queue_wait_p50_ms": "ms", "scheduler.queue_wait_p99_ms": "ms",
    "scheduler.batch_requests": "req/batch",
    "scheduler.batch_rows": "rows/batch", "scheduler.batches": "count",
    "executor.run_ms": "ms", "executor.member_ms": "ms",
    "executor.overhead_ms": "ms", "service.finish_ms": "ms",
    "transport.wake_ms": "ms", "transport.submitted": "count",
    "transport.completed": "count", "transport.failed": "count",
    "transport.shed": "count",
}


def _layer_units() -> Dict[str, str]:
    units = {name: "s" for name in _CORE}
    units.update({"core.rounds": "count", "core.round_s": "s",
                  "trainer.steps": "count", "trainer.samples": "count"})
    for op in TRACED_OPS:
        units.update({f"ops.{op}.fwd_s": "s", f"ops.{op}.bwd_s": "s",
                      f"ops.{op}.calls": "count", f"ops.{op}.out_mb": "MB"})
    units["ops.covered_share"] = "fraction"
    units.update(_SERVING)
    units.update({"trace.unattributed_share": "fraction",
                  "trace.overhead_share": "fraction"})
    return units


#: Per-layer metrics: name -> unit.  Every workload reports each one; a
#: layer a workload does not exercise reads 0.
LAYER_METRICS: Dict[str, str] = _layer_units()

#: ``setup_s`` is the median set-up time of this many fresh processes: the
#: run's own and ones that only set up (``run.py --setup-only``).
SETUP_PROCESSES = 5

#: EDDE rounds per fit: enough for β-transfer, the Eq. 10 diversity loss
#: and the Eq. 15 α to run.
ROUNDS = 3
#: Whole fits per untraced run, at least, so that one slow stretch of the
#: host does not decide a run on its own.
MIN_FITS = 2
#: SGD steps between two calibration samples in a fit (~0.25 s of work,
#: ~6 % of it spent sampling).
SAMPLE_EVERY = 8

ROWS = 8          # rows per serving request
CLIENTS = 2       # closed-loop client threads (the host's vCPU count)


@dataclasses.dataclass(frozen=True)
class TrainPreset:
    """train-resnet: an EDDE fit on c100-resnet at its default protocol."""

    #: Ensemble test predictions that are correct after each round, as
    #: recorded for this protocol (its data and model seed are fixed).
    recorded_correct: Tuple[int, ...]
    target_accuracy: float
    #: ``None`` keeps the scenario's default sizes and epoch budgets.
    sizes: Optional[Tuple[int, int]] = None
    epochs: Optional[Tuple[int, int]] = None


@dataclasses.dataclass(frozen=True)
class ServePreset:
    """serve-mlp: a pipeline over freshly built MLP members."""

    members: int
    job_requests: int          # requests per closed-loop session
    payloads: int              # distinct payloads, answered solo once each
    warmup: int


PRESETS = {
    "full": {
        # Ensemble test accuracy per round is 0.548, 0.642, 0.647: the
        # 0.60 target is first met in round 2 with ~4 points of margin
        # on either side, so a last-ulp change cannot move the crossing.
        "train-resnet": TrainPreset(recorded_correct=(329, 385, 388),
                                    target_accuracy=0.60),
        "serve-mlp": ServePreset(members=8, job_requests=256, payloads=512,
                                 warmup=32),
    },
    "smoke": {
        "train-resnet": TrainPreset(recorded_correct=(2, 2, 2),
                                    target_accuracy=0.04,
                                    sizes=(96, 48), epochs=(1, 1)),
        "serve-mlp": ServePreset(members=3, job_requests=16, payloads=16,
                                 warmup=2),
    },
}


@dataclasses.dataclass(frozen=True)
class Setup:
    """Wall seconds from process start to the first timed operation, and
    how much of that the program spent in its configured timed waits."""

    seconds: float
    fixed_s: float = 0.0


@dataclasses.dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    ``times`` holds the calibrated metrics: name -> (wall time, the
    same at reference speed); :func:`run_workload` puts them into
    ``metrics`` and the wall times into ``diagnostics``.
    """

    times: Dict[str, Tuple[float, float]]
    metrics: Dict[str, float]
    diagnostics: Dict[str, float]
    layers: Dict[str, float]
    attempted: int
    failed: int
    notes: List[str]
    setup: Setup


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _percentile_ms(seconds: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds, dtype=np.float64), q)
                 * 1e3)


def _clocks() -> Tuple[float, float]:
    """(wall, process CPU) now; CPU time sums every thread's."""
    return time.perf_counter(), time.process_time()


def _since(start: Tuple[float, float]) -> Tuple[float, float]:
    wall, cpu = _clocks()
    return wall - start[0], cpu - start[1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ======================================================================
# train-resnet
# ======================================================================
class _FitProbe:
    """Round ends, ensemble correctness and SGD step times, through the
    engine's callback hooks (duck-typed ``repro.core`` ``Callback``).

    The fit's work is kept as *pieces*: (wall seconds, calibration
    segment) of each stretch between two cuts.  A cut falls at every
    round end and, with a ``calibration``, after every ``SAMPLE_EVERY``
    steps, where it takes a calibration sample; the time samples take is
    kept out of the fit's times (``paused``).
    """

    def __init__(self, calibration: Optional[Calibration] = None) -> None:
        self.calibration = calibration
        self.started = (0.0, 0.0)
        self.pieces: List[Tuple[float, int]] = []
        # (pieces so far, CPU seconds, correct test predictions) per round
        self.rounds: List[Tuple[int, float, int]] = []
        self.round_seconds: List[float] = []
        # (wall seconds, calibration segment) per SGD step
        self.steps: List[Tuple[float, int]] = []
        self.paused = 0.0
        self._resumed = 0.0
        self._round_started = 0.0
        self._last_batch: Optional[float] = None
        self._batches = 0

    def _segment(self) -> int:
        return 0 if self.calibration is None else self.calibration.segment

    def _cut(self) -> float:
        """End the current piece, take a sample if calibrating, and
        return when the next piece starts."""
        self.pieces.append((time.perf_counter() - self._resumed,
                            self._segment()))
        if self.calibration is not None:
            self.paused += self.calibration.sample()
        self._resumed = time.perf_counter()
        return self._resumed

    def on_fit_start(self, engine) -> None:
        self.started = _clocks()
        self._resumed = self.started[0]

    def on_round_start(self, engine, round_index: int) -> None:
        self._round_started = time.perf_counter()

    def on_epoch_end(self, engine, model, epoch: int, logger) -> None:
        self._last_batch = None

    def on_batch_end(self, engine, model, batch_index: int,
                     loss: float) -> None:
        now = time.perf_counter()
        if self._last_batch is not None:
            self.steps.append((now - self._last_batch, self._segment()))
        self._batches += 1
        if self.calibration is not None and \
                self._batches % SAMPLE_EVERY == 0:
            now = self._cut()
        self._last_batch = now

    def on_fit_end(self, engine) -> None:
        pass

    def on_round_end(self, engine, outcome) -> None:
        _, labels = engine.cache.split("test")
        probs = engine.cache.ensemble_probs("test")
        correct = int((probs.argmax(axis=1) == labels).sum())
        self.round_seconds.append(time.perf_counter() - self._round_started)
        self._cut()
        self.rounds.append((len(self.pieces), _since(self.started)[1],
                            correct))
        self._last_batch = None

    def until(self, rounds: int) -> Tuple[float, float, float]:
        """(wall, calibrated wall, CPU) seconds of the first ``rounds``
        rounds: each piece is scaled by the host's speed around it."""
        pieces, cpu, _ = self.rounds[rounds - 1]
        done = self.pieces[:pieces]
        return (sum(wall for wall, _ in done),
                sum(self.calibration.scale(wall, segment=segment)
                    for wall, segment in done),
                cpu)


@dataclasses.dataclass
class _Fit:
    seconds: float
    probe: _FitProbe
    alphas: List[float]
    test_probs: np.ndarray
    ops: Optional[dict] = None          # op table of a traced fit
    ops_seconds: float = 0.0


def _train_setup(preset: TrainPreset):
    scenario = build_scenario("c100-resnet", rng=0)
    if preset.sizes is not None:
        train_size, test_size = preset.sizes
        scenario = dataclasses.replace(scenario, split=make_cifar100_like(
            rng=0, train_size=train_size, test_size=test_size))
    config = make_edde_config(scenario)
    config.num_models = ROUNDS
    if preset.epochs is not None:
        config.first_epochs, config.later_epochs = preset.epochs
    return scenario, config


def _fit(scenario, config, calibration: Optional[Calibration] = None,
         tracer: Optional[LayerTrace] = None) -> _Fit:
    """One fit; under ``tracer`` (wrappers installed) also profile ops,
    then restore the wrappers before the outputs are read back."""
    probe = _FitProbe(calibration)
    trainer = core_edde.EDDETrainer(scenario.factory, config)
    split = scenario.split
    with profile_ops() if tracer else contextlib.nullcontext() as ops:
        started = time.perf_counter()
        result = trainer.fit(split.train, split.test, rng=0,
                             callbacks=[probe])
        seconds = time.perf_counter() - started
    if tracer is not None:
        tracer.restore()
    return _Fit(seconds=seconds - probe.paused, probe=probe,
                alphas=list(result.ensemble.alphas),
                test_probs=result.ensemble.predict_probs(split.test.x),
                ops=ops.summary() if tracer else None,
                ops_seconds=ops.total_seconds() if tracer else 0.0)


def _trace_training(trace: LayerTrace) -> Dict[str, int]:
    """Wrap the training-side seams; returns the sample counter."""
    counter = {"samples": 0}
    trace.wrap(core_engine.EnsembleEngine, "train_member",
               "core.train_member")
    trace.wrap(core_engine.PredictionCache, "add_member", "core.cache_add")
    trace.wrap(core_engine, "predict_probs", "core.member_eval")
    trace.wrap(core_edde, "predict_probs", "core.member_eval")
    for name in ("similarity_per_sample", "bias_per_sample",
                 "update_sample_weights", "model_weight",
                 "initial_model_weight"):
        trace.wrap(core_edde, name, "core.boost")
    trace.wrap(core_edde, "transfer_parameters", "core.transfer")
    trace.wrap(core_edde, "diversity_driven_loss", "core.loss")
    trace.wrap(Tensor, "backward", "tensor.backward")
    trace.wrap(SGD, "step", "optim.step")
    trace.wrap(ResNetCIFAR, "__call__",
               lambda *a, **k: "nn.forward"
               if trace.current() == "core.train_member" else "nn.eval")
    _trace_modules(trace)

    iterate = DataLoader.__iter__

    def timed_iter(loader):
        batches = iterate(loader)
        while True:
            try:
                batch = trace.call("data.batch_wait", next, batches)
            except StopIteration:
                return
            counter["samples"] += len(batch[1])
            yield batch

    trace.replace(DataLoader, "__iter__", timed_iter)
    return counter


def _trace_modules(trace: LayerTrace) -> None:
    trace.wrap(nn.Conv2d, "__call__", "nn.conv_fwd")
    trace.wrap(nn.BatchNorm2d, "__call__", "nn.bn_fwd")
    trace.wrap(nn.Linear, "__call__", "nn.head_fwd")


def _check_fit(preset: TrainPreset, fit: _Fit, test_n: int
               ) -> Tuple[int, List[str]]:
    """(rounds until the target was reached, all if never; failed
    checks)."""
    observed = [correct for _, _, correct in fit.probe.rounds]
    failures = [f"round {index + 1}: {got} correct test predictions, "
                f"recorded {want}"
                for index, (got, want) in enumerate(itertools.zip_longest(
                    observed, preset.recorded_correct)) if got != want]
    reached = next((index + 1 for index, correct in enumerate(observed)
                    if correct / test_n >= preset.target_accuracy), None)
    if reached is None:
        failures.append(f"ensemble never reached the "
                        f"{preset.target_accuracy:.2f} target")
    return reached or len(observed), failures


def _train_resnet(preset: TrainPreset, seconds: float, trace: bool,
                  started: float, calibration: Calibration) -> Outcome:
    scenario, config = _train_setup(preset)
    setup = Setup(time.perf_counter() - started)
    test_n = len(scenario.split.test)
    # Whole fits until the window has passed, at least MIN_FITS.
    fits: List[_Fit] = []
    deadline = time.perf_counter() + (seconds / 2 if trace else seconds)
    calibration.sample()
    while len(fits) < (1 if trace else MIN_FITS) or \
            time.perf_counter() < deadline:
        fits.append(_fit(scenario, config, calibration))
    jobs, targets, failures = [], [], []
    for fit in fits:
        reached, failed = _check_fit(preset, fit, test_n)
        jobs.append(fit.probe.until(len(fit.probe.rounds)))
        targets.append(fit.probe.until(reached))
        failures += failed
    steps = [step for fit in fits for step in fit.probe.steps]
    scaled_steps = [calibration.scale(wall, segment=segment)
                    for wall, segment in steps]
    steps = [wall for wall, _ in steps]
    # (wall, calibrated); training has no configured waits, so every
    # second of it is work and is scaled.
    times = {
        "job_s": (_median([wall for wall, _, _ in jobs]),
                  _median([scaled for _, scaled, _ in jobs])),
        "time_to_target_s": (_median([wall for wall, _, _ in targets]),
                             _median([scaled for _, scaled, _ in targets])),
        "lat_p50_ms": (_percentile_ms(steps, 50),
                       _percentile_ms(scaled_steps, 50)),
    }
    metrics = {"accuracy": fits[-1].probe.rounds[-1][-1] / test_n}
    diagnostics = {
        "job_cpu_s": _median([cpu for _, _, cpu in jobs]),
        "target_cpu_s": _median([cpu for _, _, cpu in targets]),
        "lat_p90_ms": _percentile_ms(steps, 90),
        "lat_p99_ms": _percentile_ms(steps, 99),
    }
    notes = [f"{len(fits)} fits of {ROUNDS} rounds: "
             + ", ".join(f"{wall:.2f} s" for wall, _, _ in jobs)
             + f"; step latency over {len(steps)} SGD steps "
             f"({len(steps) // 100} beyond p99)"]
    layers: Dict[str, float] = {}
    if trace:
        layers, identical = _traced_fit(scenario, config, fits[0])
        if not identical:
            failures.append("traced fit is not bit-identical to the "
                            "untraced fit")
    metrics["peak_rss_mb"] = _peak_rss_mb()
    # Checks per fit: each round's accuracy and the target crossing;
    # traced, one more: bit-identity with the wrappers restored.
    return Outcome(times=times, metrics=metrics, diagnostics=diagnostics,
                   layers=layers,
                   attempted=len(fits) * (ROUNDS + 1) + int(trace),
                   failed=len(failures), notes=notes + failures, setup=setup)


def _traced_fit(scenario, config, untraced: _Fit):
    tracer = LayerTrace()
    counter = _trace_training(tracer)
    fit = _fit(scenario, config, tracer=tracer)
    identical = (
        tracer.is_restored()
        and fit.probe.rounds and
        [r[-1] for r in fit.probe.rounds] ==
        [r[-1] for r in untraced.probe.rounds]
        and fit.alphas == untraced.alphas
        and np.array_equal(fit.test_probs, untraced.test_probs))
    spans = tracer.stats()
    layers = {name: spans.get(span, {}).get("total_s", 0.0)
              for name, span in _CORE.items()}
    layers["core.rounds"] = len(fit.probe.rounds)
    layers["core.round_s"] = statistics.fmean(fit.probe.round_seconds)
    layers["trainer.steps"] = spans.get("optim.step", {}).get("calls", 0)
    layers["trainer.samples"] = counter["samples"]
    table = fit.ops
    listed = 0.0
    for op in TRACED_OPS:
        row = table.get(op, {})
        layers[f"ops.{op}.fwd_s"] = row.get("forward_seconds", 0.0)
        layers[f"ops.{op}.bwd_s"] = row.get("backward_seconds", 0.0)
        layers[f"ops.{op}.calls"] = row.get("forward_calls", 0)
        layers[f"ops.{op}.out_mb"] = row.get("output_bytes", 0) / 1e6
        listed += row.get("total_seconds", 0.0)
    layers["ops.covered_share"] = listed / max(fit.ops_seconds, 1e-12)
    covered = sum(span["self_s"] for span in spans.values())
    layers["trace.unattributed_share"] = (fit.seconds - covered) / fit.seconds
    layers["trace.overhead_share"] = fit.seconds / untraced.seconds - 1.0
    return layers, bool(identical)


# ======================================================================
# serve-mlp
# ======================================================================
def _mlp_service(preset: ServePreset, seed: int) -> InferenceService:
    """T freshly initialised 16 -> 32 -> 10 MLP members, α's from ``seed``."""
    return build_load_service(LoadConfig(
        ensemble_size=preset.members, input_dim=16, hidden=(32,),
        num_classes=10, rows=ROWS, seed=seed))


def _payloads(preset: ServePreset, seed: int) -> List[np.ndarray]:
    """The distinct request payloads, drawn from ``seed`` alone."""
    rng = np.random.default_rng(np.random.SeedSequence([0xE2E, int(seed)]))
    return [rng.normal(size=(ROWS, 16)).astype(np.float32)
            for _ in range(preset.payloads)]


@dataclasses.dataclass
class _Served:
    """Answers of one measured phase, checked against solo afterwards."""

    # (wall, CPU, batches formed) of each job, and from its start to its
    # target; every batch waits out the batcher's window once.
    jobs: List[Tuple[float, float, int]] = dataclasses.field(
        default_factory=list)
    targets: List[Tuple[float, float, int]] = dataclasses.field(
        default_factory=list)
    latencies: List[float] = dataclasses.field(default_factory=list)
    # Per payload: its first answer and how many answers equalled it.
    # Later answers are compared with == on arrival and only those that
    # differ are kept, so memory does not grow with the run.
    first_answers: Dict[int, list] = dataclasses.field(default_factory=dict)
    differing: List[Tuple[int, np.ndarray]] = dataclasses.field(
        default_factory=list)
    answered: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)


def _closed_loop_session(pipe: ServingPipeline, payloads, preset: ServePreset,
                         offset: int, served: _Served) -> None:
    """CLIENTS threads share one session of ``job_requests`` requests,
    each sending its next request only after the previous one answered.
    The session's target is half of its requests answered."""
    clients = CLIENTS
    per_client = preset.job_requests // clients
    target = served.answered + preset.job_requests // 2
    lock = threading.Lock()

    def client(index: int) -> None:
        latencies, errors = [], []
        for step in range(per_client):
            which = (offset + index + step * clients) % len(payloads)
            sent = time.perf_counter()
            try:
                probs = pipe.submit(payloads[which]).wait().probs
            except Exception as error:  # noqa: BLE001 — counted as failed
                errors.append(f"{type(error).__name__}: {error}")
                continue
            latencies.append(time.perf_counter() - sent)
            with lock:
                first = served.first_answers.setdefault(which, [probs, 0])
                if np.array_equal(probs, first[0]):
                    first[1] += 1
                else:
                    served.differing.append((which, probs))
                served.answered += 1
                if served.answered == target:
                    served.targets.append(_since(started) + (
                        pipe.batcher.batches_formed - batches,))
        with lock:
            served.latencies.extend(latencies)
            served.errors.extend(errors)

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(clients)]
    batches, started = pipe.batcher.batches_formed, _clocks()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    served.jobs.append(_since(started) + (
        pipe.batcher.batches_formed - batches,))


def _measure(pipe, payloads, preset: ServePreset, seconds: float,
             calibration: Calibration, offset: int = 0) -> _Served:
    """Repeat closed-loop sessions until ``seconds`` have passed (>= 1),
    taking a calibration sample after every session."""
    served = _Served()
    deadline = time.perf_counter() + seconds
    while True:
        _closed_loop_session(pipe, payloads, preset, offset, served)
        offset += preset.job_requests
        calibration.sample()
        if time.perf_counter() >= deadline:
            return served


def _serve_setup(preset: ServePreset, seed: int, started: float):
    """Payloads and a started, warmed-up pipeline, and the set-up time."""
    payloads = _payloads(preset, seed)
    pipe = ServingPipeline(_mlp_service(preset, seed),
                           PipelineConfig()).start()
    for payload in payloads[:preset.warmup]:
        pipe.predict(payload)
    setup = Setup(time.perf_counter() - started,
                  pipe.batcher.batches_formed * pipe.batcher.max_wait)
    return payloads, pipe, setup


def _serve_mlp(preset: ServePreset, seed: int, seconds: float, trace: bool,
               started: float, calibration: Calibration) -> Outcome:
    payloads, pipe, setup = _serve_setup(preset, seed, started)
    window = pipe.batcher.max_wait
    calibration.sample()
    try:
        if trace:
            served = _measure(pipe, payloads, preset, seconds / 2,
                              calibration)
            probe = _ServingProbe(pipe)
            try:
                traced = _measure(pipe, payloads, preset, seconds / 2,
                                  calibration, offset=served.answered)
            finally:
                probe.trace.restore()
        else:
            served = _measure(pipe, payloads, preset, seconds, calibration)
    finally:
        pipe.close()
    ledger = pipe.stats()

    # Correctness, after the timed phase: every answer == a solo predict
    # (later answers to a payload already equal its first answer).
    solo = [pipe.service.predict(payload).probs for payload in payloads]
    phases = [served] + ([traced] if trace else [])
    requests = sum(p.answered + len(p.errors) for p in phases)
    notes = [error for p in phases for error in p.errors]
    wrong = sum(
        sum(count for index, (first, count) in p.first_answers.items()
            if not np.array_equal(first, solo[index])) +
        sum(not np.array_equal(probs, solo[index])
            for index, probs in p.differing)
        for p in phases)
    if wrong:
        notes.append(f"{wrong} answer(s) differ from a solo predict")
    failed = requests - sum(p.answered for p in phases) + wrong
    good = requests - failed
    # Two more checks: the ledger, and (traced) that wrappers came off.
    if not ledger.conserved or ledger.failed or ledger.shed:
        notes.append(f"ledger not clean: {ledger}")
        failed += 1
    if trace and not probe.trace.is_restored():
        notes.append("a tracing wrapper was not restored")
        failed += 1
    # (wall, calibrated).  Scaled by the run's median sample, not by the
    # samples around each session: the host's spells outlast a serving
    # run, and in quiet runs local windows only added their own jitter.
    # The fixed part of a time is the batcher's window once per batch
    # (each request waits in one batch).
    def timed(spans):
        wall = _median([wall for wall, _, _ in spans])
        return wall, calibration.scale(
            wall, _median([n * window for _, _, n in spans]))

    latency = _percentile_ms(served.latencies, 50)
    times = {
        "job_s": timed(served.jobs),
        "time_to_target_s": timed(served.targets),
        "lat_p50_ms": (latency, calibration.scale(latency, window * 1e3)),
    }
    metrics = {"accuracy": good / requests}
    diagnostics = {
        "job_cpu_s": _median([cpu for _, cpu, _ in served.jobs]),
        "target_cpu_s": _median([cpu for _, cpu, _ in served.targets]),
        "lat_p90_ms": _percentile_ms(served.latencies, 90),
        "lat_p99_ms": _percentile_ms(served.latencies, 99),
    }
    notes.insert(0, f"{len(served.jobs)} jobs of {preset.job_requests} "
                 f"requests; latency over {len(served.latencies)} requests "
                 f"({len(served.latencies) // 100} beyond p99); "
                 f"{preset.job_requests / times['job_s'][0]:.1f} req/s")
    layers: Dict[str, float] = {}
    if trace:
        layers = probe.layers(ledger)
        layers["trace.overhead_share"] = _median(
            [wall for wall, _, _ in traced.jobs]) / times["job_s"][0] - 1.0
    metrics["peak_rss_mb"] = _peak_rss_mb()
    return Outcome(times=times, metrics=metrics, diagnostics=diagnostics,
                   layers=layers, attempted=requests + 1 + int(trace),
                   failed=failed, notes=notes, setup=setup)


class _ServingProbe:
    """Per-request and per-batch timestamps from the serving seams.

    All timestamps are on ``time.monotonic``, the pipeline's own clock,
    so they line up with :attr:`PendingRequest.enqueued`.
    """

    def __init__(self, pipe: ServingPipeline):
        self.trace = trace = LayerTrace(clock=time.monotonic)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.requests: Dict[int, Dict[str, float]] = {}
        self.batches: List[Dict] = []
        self._by_stack: Dict[int, Dict] = {}
        self._tickets: List[Ticket] = []
        clock = time.monotonic
        submit, process = pipe.submit, pipe.batcher.process
        run, finish = pipe.executor.run, pipe.service.finish
        predict, wait = ServingMember.predict, Ticket.wait

        def traced_submit(x, deadline=None):
            started = clock()
            ticket = submit(x, deadline=deadline)
            self._request(ticket).update(submit=started, submitted=clock())
            return ticket

        def traced_process(stacked, batch):
            record = {"start": clock(), "batch": batch, "position": 0,
                      "members": [], "rows": len(stacked)}
            for pending in batch:
                self._request(pending.ticket)["enqueued"] = pending.enqueued
            with self._lock:
                self.batches.append(record)
                self._by_stack[id(stacked)] = record
            self._local.batch = record
            try:
                return process(stacked, batch)
            finally:
                self._local.batch = None
                with self._lock:
                    self._by_stack.pop(id(stacked), None)

        def traced_run(members, x, *args, **kwargs):
            started = clock()
            try:
                return run(members, x, *args, **kwargs)
            finally:
                batch = getattr(self._local, "batch", None)
                if batch is not None:
                    batch["run"] = clock() - started

        def traced_predict(member, x, *args, **kwargs):
            started = clock()
            try:
                return predict(member, x, *args, **kwargs)
            finally:
                elapsed = clock() - started
                with self._lock:
                    batch = self._by_stack.get(id(x))
                    if batch is not None:
                        batch["members"].append(elapsed)

        def traced_finish(*args, **kwargs):
            batch = getattr(self._local, "batch", None)
            started = clock()
            try:
                return finish(*args, **kwargs)
            finally:
                if batch is not None:
                    pending = batch["batch"][batch["position"]]
                    batch["position"] += 1
                    self._request(pending.ticket).update(
                        finish=started, finished=clock())

        def traced_wait(ticket, timeout=None):
            try:
                return wait(ticket, timeout)
            finally:
                self._request(ticket)["woke"] = clock()

        for owner, attribute, replacement in (
                (pipe, "submit", traced_submit),
                (pipe.batcher, "process", traced_process),
                (pipe.executor, "run", traced_run),
                (pipe.service, "finish", traced_finish),
                (ServingMember, "predict", traced_predict),
                (Ticket, "wait", traced_wait)):
            trace.replace(owner, attribute, replacement)
        trace.wrap(pipe.service, "validate", "service.validate")

    def _request(self, ticket: Ticket) -> Dict[str, float]:
        with self._lock:
            record = self.requests.get(id(ticket))
            if record is None:
                record = self.requests[id(ticket)] = {}
                self._tickets.append(ticket)   # keeps ids unique
            return record

    # ------------------------------------------------------------------
    def layers(self, ledger) -> Dict[str, float]:
        batches = [b for b in self.batches if "run" in b]
        run_of = {}
        for batch in batches:
            for pending in batch["batch"]:
                run_of[id(pending.ticket)] = (batch["start"], batch["run"])
        stages = {"submit": [], "queue": [], "run": [], "finish": [],
                  "wake": [], "latency": []}
        keys = ("submit", "submitted", "enqueued", "finish", "finished",
                "woke")
        for key, request in self.requests.items():
            if key not in run_of or not all(k in request for k in keys):
                continue
            start, run = run_of[key]
            stages["submit"].append(request["submitted"] - request["submit"])
            stages["queue"].append(start - request["enqueued"])
            stages["run"].append(run)
            stages["finish"].append(request["finished"] - request["finish"])
            stages["wake"].append(request["woke"] - request["finished"])
            stages["latency"].append(request["woke"] - request["submit"])

        def mean_ms(values):
            return float(np.mean(values)) * 1e3 if values else 0.0

        spans = self.trace.stats()
        validate = spans.get("service.validate", {})
        members = [m for batch in batches for m in batch["members"]]
        overheads = [batch["run"] - max(batch["members"])
                     for batch in batches if batch["members"]]
        layers = {
            "transport.submit_ms": mean_ms(stages["submit"]),
            "service.validate_ms": validate.get("total_s", 0.0) * 1e3 /
            max(validate.get("calls", 0), 1),
            "scheduler.queue_wait_p50_ms": _percentile_ms(
                stages["queue"], 50) if stages["queue"] else 0.0,
            "scheduler.queue_wait_p99_ms": _percentile_ms(
                stages["queue"], 99) if stages["queue"] else 0.0,
            "scheduler.batch_requests": float(np.mean(
                [len(b["batch"]) for b in batches])) if batches else 0.0,
            "scheduler.batch_rows": float(np.mean(
                [b["rows"] for b in batches])) if batches else 0.0,
            "scheduler.batches": len(batches),
            "executor.run_ms": mean_ms([b["run"] for b in batches]),
            "executor.member_ms": mean_ms(members),
            "executor.overhead_ms": mean_ms(overheads),
            "service.finish_ms": mean_ms(stages["finish"]),
            "transport.wake_ms": mean_ms(stages["wake"]),
            "transport.submitted": ledger.submitted,
            "transport.completed": ledger.completed,
            "transport.failed": ledger.failed,
            "transport.shed": ledger.shed,
        }
        latency = mean_ms(stages["latency"])
        attributed = sum(mean_ms(stages[k]) for k in
                         ("submit", "queue", "run", "finish", "wake"))
        layers["trace.unattributed_share"] = \
            (latency - attributed) / latency if latency else 0.0
        return layers


# ======================================================================
WORKLOADS = ("train-resnet", "serve-mlp")


def setup_only(workload: str, seed: int, preset: str,
               started: float) -> Setup:
    """Set a workload up as a run would, release it and return the
    set-up time (``started``: when the process started)."""
    settings = PRESETS[preset][workload]
    if workload == "train-resnet":
        _train_setup(settings)
        return Setup(time.perf_counter() - started)
    _, pipe, setup = _serve_setup(settings, seed, started)
    pipe.close()
    return setup


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 preset: str, started: float,
                 fresh_setup: Callable[[], Setup]) -> Outcome:
    """Run one workload in this process and return its outcome.

    ``started`` is when this process started; ``fresh_setup`` sets the
    workload up in another fresh process and returns its set-up time.
    """
    settings = PRESETS[preset][workload]
    calibration = Calibration(hand_offs=workload == "serve-mlp")
    if workload == "train-resnet":
        # The fit's data and weights are seeded by the protocol, not by
        # ``seed``: the recorded per-round accuracies and the round in
        # which the target is crossed belong to that one protocol.
        outcome = _train_resnet(settings, seconds, trace, started,
                                calibration)
    else:
        outcome = _serve_mlp(settings, seed, seconds, trace, started,
                             calibration)
    # After the measured phase, so that it runs on a quiet process.
    setups = [outcome.setup] + [
        fresh_setup() for _ in range(0 if trace else SETUP_PROCESSES - 1)]
    # Set-ups run at both ends of the run, so the whole run's speed.
    wall = _median([setup.seconds for setup in setups])
    outcome.times["setup_s"] = (wall, calibration.scale(
        wall, _median([setup.fixed_s for setup in setups])))
    for name in CALIBRATED:
        wall, scaled = outcome.times[name]
        outcome.diagnostics[f"raw_{name}"] = wall
        outcome.metrics[name] = scaled
    outcome.diagnostics["calibration_s"] = calibration.seconds
    quartiles = statistics.quantiles(calibration.samples, n=4) \
        if len(calibration.samples) > 1 else calibration.samples * 3
    outcome.notes.append(
        f"{len(calibration.samples)} calibration samples (ms), quartiles: "
        + ", ".join(f"{value * 1e3:.2f}" for value in quartiles))
    outcome.notes.append("set-up times of fresh processes (s): " + ", ".join(
        f"{setup.seconds:.3f}" for setup in setups))
    if trace:
        full = {name: 0.0 for name in LAYER_METRICS}
        full.update(outcome.layers)
        outcome.layers = full
    return outcome
