"""Run executors: how one cell of the run table turns into metrics.

A *runner* is a registered callable ``fn(run, context) -> RunOutput``.
The default ``"method"`` runner resolves the run's scenario, fits the
run's ensemble method via :func:`repro.experiments.runner.run_method`
under PR 2's fault tolerance (per-run round checkpoints, engine-level
resume after a kill) and hands the :class:`~repro.core.results.FitResult`
to the run's metric collector.  ``"beta_probe"`` reproduces Fig. 5's
teacher/probe protocol one β per run, and the two beyond-paper ablation
variants from :mod:`repro.experiments.variants` are registered so Table
VI's extended cases are plain grid cells.

Per-run RNG derivation is the crux of shard-independence: every run's
generator is seeded from a :class:`numpy.random.SeedSequence` built out
of the grid name, the run's ``seed`` factor and its non-seed factor
assignment — never from the shard, worker or execution order — so a run
produces bit-identical results wherever and whenever it executes.
"""

from __future__ import annotations

import contextlib
import pathlib
import shutil
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional, Sequence

import numpy as np

from repro.core.checkpointing import (
    CheckpointError,
    CheckpointManager,
    FaultTolerance,
    RetryPolicy,
)
from repro.experiments.grid.collectors import resolve_collector
from repro.experiments.grid.spec import GridSpec, RunSpec, stable_digest
from repro.experiments.protocol import Scenario, build_scenario
from repro.experiments.runner import run_method
from repro.experiments.variants import (
    run_edde_correlate_previous_model,
    run_edde_cumulative_weights,
)


@dataclass
class RunContext:
    """Execution environment the executor hands to a runner."""

    spec: GridSpec
    run_dir: Optional[pathlib.Path] = None   # per-run state (checkpoints)
    resume: bool = False                     # honour on-disk round checkpoints


@dataclass
class RunOutput:
    """What a runner returns for one run."""

    metrics: Dict[str, Any]
    meta: Dict[str, Any] = field(default_factory=dict)


RunnerFn = Callable[[RunSpec, RunContext], RunOutput]

_RUNNERS: Dict[str, RunnerFn] = {}
_SCENARIOS: Dict[str, Callable[[int], Scenario]] = {}


def register_runner(name: str, fn: RunnerFn, replace: bool = False) -> None:
    if name in _RUNNERS and not replace:
        raise ValueError(f"runner {name!r} is already registered")
    _RUNNERS[name] = fn


def resolve_runner(name: str) -> RunnerFn:
    if name not in _RUNNERS:
        raise KeyError(f"unknown runner {name!r}; registered: "
                       f"{', '.join(sorted(_RUNNERS))}")
    return _RUNNERS[name]


@contextlib.contextmanager
def scenario_scope(name: str, scenario: Scenario) -> Iterator[None]:
    """Temporarily serve a prebuilt scenario object under ``name``.

    The seam for gridding over a caller-constructed scenario (tests use
    it to substitute a tiny one).  Forked pool workers inherit the
    substitution; workers of a spawning start method do not.
    """
    previous = _SCENARIOS.get(name)
    _SCENARIOS[name] = lambda _seed: scenario
    try:
        yield
    finally:
        if previous is None:
            _SCENARIOS.pop(name, None)
        else:
            _SCENARIOS[name] = previous


def resolve_scenario(name: str, data_seed: int = 0) -> Scenario:
    """A registered provider if one exists, else the protocol's builder."""
    if name in _SCENARIOS:
        return _SCENARIOS[name](data_seed)
    return build_scenario(name, rng=data_seed)


# ----------------------------------------------------------------------
# Per-run RNG derivation.

def _entropy_words(run: RunSpec, salt: str = "",
                   exclude: Sequence[str] = ()) -> list:
    skip = {"seed", *exclude}
    cell = {name: value for name, value in run.factors if name not in skip}
    words = [int(stable_digest({"grid": run.grid, "cell": cell,
                                "salt": salt}, length=8), 16),
             int(run.seed) & 0xFFFFFFFF]
    return words


def run_rng(run: RunSpec, salt: str = "",
            exclude: Sequence[str] = ()) -> np.random.Generator:
    """The run's deterministic generator (shard- and order-independent).

    ``salt`` derives auxiliary streams for a run; ``exclude`` drops the
    named factors from the stream's cell so runs differing only in those
    factors share it (e.g. the β-probe's teacher, whose stream must not
    depend on the ``beta`` factor — see :func:`beta_teacher_rng`).
    """
    return np.random.default_rng(np.random.SeedSequence(
        _entropy_words(run, salt=salt, exclude=exclude)))


# Factors the beta_probe runner consumes itself (they never reach
# run_method); the teacher stream is derived from a cell without them.
BETA_PROBE_CONSUMED = ("beta", "n_folds", "probe_epochs", "teacher_epochs")


def beta_teacher_rng(run: RunSpec) -> np.random.Generator:
    """The β-probe teacher's generator, shared across one (scenario, seed).

    Derived from a cell that excludes every runner-consumed factor
    (:data:`BETA_PROBE_CONSUMED`), so grid cells differing only in β —
    or in probe length — retrain a bit-identical teacher on an identical
    fold split, as one shared teacher would.
    """
    return run_rng(run, salt="beta-teacher", exclude=BETA_PROBE_CONSUMED)


# ----------------------------------------------------------------------
# The default method runner.

def _fault_tolerance(run: RunSpec, context: RunContext,
                     scenario: Scenario) -> Optional[FaultTolerance]:
    spec = context.spec
    retry = (RetryPolicy(max_retries=spec.max_retries)
             if spec.max_retries is not None else None)
    if not spec.checkpoint or context.run_dir is None:
        if retry is None:
            return None
        return FaultTolerance(retry=retry)
    manager = CheckpointManager(context.run_dir / "checkpoints",
                                keep_last=spec.keep_last)
    state = None
    if context.resume and manager.latest_round() is not None:
        try:
            state = manager.load(scenario.factory)
        except CheckpointError:
            state = None    # unusable round files -> train from scratch
    return FaultTolerance(checkpoint=manager, resume_from=state, retry=retry)


def _discard_checkpoints(context: RunContext) -> None:
    if context.run_dir is not None:
        shutil.rmtree(context.run_dir / "checkpoints", ignore_errors=True)


def method_runner(run: RunSpec, context: RunContext) -> RunOutput:
    """Fit ``run.method`` on ``run.scenario`` and collect its metrics."""
    if not run.method:
        raise ValueError(f"run {run.run_id} has no method "
                         f"(factor or case bundle must set one)")
    scenario = resolve_scenario(run.scenario, context.spec.data_seed)
    fault_tolerance = _fault_tolerance(run, context, scenario)
    resumed = bool(fault_tolerance is not None
                   and fault_tolerance.resume_from is not None)
    result = run_method(run.method, scenario, rng=run_rng(run),
                        fault_tolerance=fault_tolerance,
                        profile_ops=context.spec.profile_ops,
                        **run.override_dict)
    # The run finished: its round checkpoints only matter for mid-run
    # kills, so drop them to bound grid disk usage.
    _discard_checkpoints(context)
    metrics = resolve_collector(run.collect)(run, result, scenario)
    meta = {"method_label": result.method, "resumed_from_round": resumed}
    for key in ("round_seconds", "faults", "op_profile"):
        if key in result.metadata:
            meta[key] = result.metadata[key]
    return RunOutput(metrics=metrics, meta=meta)


# ----------------------------------------------------------------------
# Fig. 5: one β probe per run, sharing a deterministic teacher.

def beta_probe_runner(run: RunSpec, context: RunContext) -> RunOutput:
    """Train the fold teacher and probe one β (paper Sec. IV-B / Fig. 5)."""
    from repro.core.trainer import TrainingConfig, train_model
    from repro.core.transfer import beta_probe
    from repro.data.folds import merge_folds, split_folds

    overrides = run.override_dict
    # A declared ``beta`` factor lands in overrides too; consume it here.
    beta = float(overrides.pop("beta", run.factor_dict.get("beta", 1.0)))
    n_folds = int(overrides.pop("n_folds", 6))
    probe_epochs = int(overrides.pop("probe_epochs", 5))
    teacher_epochs = overrides.pop("teacher_epochs", None)
    if overrides:
        raise ValueError(f"beta_probe runner got unknown overrides: "
                         f"{sorted(overrides)}")

    scenario = resolve_scenario(run.scenario, context.spec.data_seed)
    # The teacher's stream is β-free by construction: every β cell of one
    # (scenario, seed) group retrains the *same* teacher on the same fold
    # split, as one shared teacher would, yet stays parallelizable.
    teacher_rng = beta_teacher_rng(run)
    folds = split_folds(scenario.split.train, n_folds, rng=teacher_rng)
    train_folds, seen_fold, unseen_fold = folds[:-2], folds[-2], folds[-1]

    teacher = scenario.factory.build(rng=teacher_rng)
    teacher_set = merge_folds(train_folds + [seen_fold],
                              name=f"{run.grid}-teacher")
    teacher_epochs = teacher_epochs or max(2, scenario.epochs_per_model)
    config = TrainingConfig(epochs=int(teacher_epochs), lr=scenario.lr,
                            batch_size=scenario.batch_size,
                            augment=scenario.augment)
    train_model(teacher, teacher_set, config, rng=teacher_rng)

    probe = beta_probe(
        scenario.factory, scenario.split.train, beta, teacher,
        train_folds, seen_fold, unseen_fold,
        probe_epochs=probe_epochs, lr=scenario.lr,
        batch_size=scenario.batch_size, rng=run_rng(run, salt="beta-probe"))
    metrics = {
        "beta": probe.beta,
        "accuracy_seen_fold": float(probe.accuracy_seen_fold),
        "accuracy_unseen_fold": float(probe.accuracy_unseen_fold),
        "gap": float(probe.gap),
    }
    return RunOutput(metrics=metrics)


# ----------------------------------------------------------------------
# Drift-aware serving: replay a drift schedule through the closed
# detect -> repair loop (repro.experiments.drift), one replay per cell.

#: DriftReplayConfig fields a grid cell may override.
SERVE_DRIFT_OVERRIDES = (
    "ensemble_size", "baseline_size", "pretrain_epochs", "lr",
    "batch_size", "label_delay", "max_repairs",
)


def serve_drift_runner(run: RunSpec, context: RunContext) -> RunOutput:
    """One drift replay per cell: schedule in, repair metrics out.

    The schedule comes from (in precedence order) a ``schedule``
    override/factor — a preset name or a JSON schedule payload — or the
    run's ``scenario`` when it names a preset, so drift scenarios ride
    the ordinary scenario axis of a grid.
    """
    from repro.experiments.drift import (
        DRIFT_SCHEDULES,
        DriftReplayConfig,
        run_drift_replay,
    )

    overrides = run.override_dict
    schedule = overrides.pop("schedule",
                             run.factor_dict.get("schedule", None))
    if schedule is None:
        if run.scenario not in DRIFT_SCHEDULES:
            raise ValueError(
                f"run {run.run_id} declares no drift schedule: set a "
                f"'schedule' factor or use a preset scenario name "
                f"({', '.join(sorted(DRIFT_SCHEDULES))})")
        schedule = run.scenario
    kwargs = {name: overrides.pop(name)
              for name in SERVE_DRIFT_OVERRIDES if name in overrides}
    if overrides:
        raise ValueError(f"serve_drift runner got unknown overrides: "
                         f"{sorted(overrides)}")
    result = run_drift_replay(DriftReplayConfig(schedule=schedule, **kwargs),
                              seed=run.seed)
    payload = result.to_payload()
    meta = {"schedule": payload.pop("schedule"),
            "repair_events": payload.pop("repair_events"),
            "accuracy_curve": payload.pop("accuracy_curve"),
            "detection_statistics": payload.pop("detection_statistics")}
    payload.pop("seed")
    return RunOutput(metrics=payload, meta=meta)


# ----------------------------------------------------------------------
# Beyond-paper EDDE variants (Table VI, REPRO_EXTENDED_ABLATION=1).

def _variant_runner(variant_fn) -> RunnerFn:
    def runner(run: RunSpec, context: RunContext) -> RunOutput:
        scenario = resolve_scenario(run.scenario, context.spec.data_seed)
        result = variant_fn(scenario, rng=run_rng(run), **run.override_dict)
        metrics = resolve_collector(run.collect)(run, result, scenario)
        return RunOutput(metrics=metrics,
                         meta={"method_label": result.method})
    return runner


register_runner("method", method_runner)
register_runner("beta_probe", beta_probe_runner)
register_runner("serve_drift", serve_drift_runner)
register_runner("edde_cumulative_weights",
                _variant_runner(run_edde_cumulative_weights))
register_runner("edde_correlate_previous_model",
                _variant_runner(run_edde_correlate_previous_model))
