"""Fit one method on a scenario under the scenario's protocol.

:func:`run_method` is the single dispatch from a method name to its
trainer; the grid's ``method`` runner, the CLI and the examples all call
it.  :func:`run_effectiveness` fits several methods at the scenario's
equal budget (Tables II/III).  The paper's other tables and figures are
grid specs over registered runners and collectors
(:mod:`repro.experiments.grid`), rendered by ``benchmarks/bench_*.py``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.baselines import (
    AdaBoostM1,
    AdaBoostNC,
    AdaBoostNCConfig,
    BANs,
    BANsConfig,
    Bagging,
    BaselineConfig,
    NCLConfig,
    NegativeCorrelationLearning,
    SingleModel,
    SnapshotConfig,
    SnapshotEnsemble,
)
from repro.core import EDDEConfig, EDDETrainer
from repro.core.checkpointing import (
    CheckpointManager,
    FaultTolerance,
    RetryPolicy,
)
from repro.core.results import FitResult
from repro.experiments.protocol import Scenario
from repro.utils.rng import RngLike, new_rng, spawn_rng

ALL_METHODS = ("single", "bans", "bagging", "adaboost_m1", "adaboost_nc",
               "snapshot", "edde")


def _baseline_config(scenario: Scenario, cls=BaselineConfig, **overrides):
    config = cls(
        num_models=scenario.ensemble_size,
        epochs_per_model=scenario.epochs_per_model,
        lr=scenario.lr,
        batch_size=scenario.batch_size,
        weight_decay=scenario.weight_decay,
        augment=scenario.augment,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def make_edde_config(scenario: Scenario, budget: Optional[int] = None,
                     **overrides) -> EDDEConfig:
    """EDDE configuration matching the scenario's protocol.

    On NLP scenarios the paper gives EDDE only *half* the group budget
    (Table III) — honoured via the scenario's ``edde_half_budget`` note.
    """
    budget = budget or scenario.total_budget
    if scenario.notes.get("edde_half_budget"):
        budget = max(scenario.edde_first_epochs, budget // 2)
    config = EDDEConfig(
        num_models=scenario.edde_num_models(budget),
        gamma=scenario.gamma,
        beta=scenario.beta,
        first_epochs=scenario.edde_first_epochs,
        later_epochs=scenario.edde_later_epochs,
        lr=scenario.lr,
        batch_size=scenario.batch_size,
        weight_decay=scenario.weight_decay,
        augment=scenario.augment,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def make_fault_tolerance(scenario: Scenario,
                         checkpoint_dir=None,
                         resume: bool = False,
                         keep_last: int = 3,
                         max_retries: Optional[int] = None,
                         retry_lr_decay: float = 0.5) -> FaultTolerance:
    """Build the fault-tolerance bundle a ``fit`` call expects.

    ``checkpoint_dir`` enables per-round checkpoints (retaining the last
    ``keep_last``); ``resume=True`` additionally loads the latest round
    from that directory (raising
    :class:`~repro.core.checkpointing.CheckpointError` when it is missing
    or corrupt); ``max_retries`` enables divergence recovery.
    """
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires a checkpoint_dir")
    manager = None
    state = None
    if checkpoint_dir is not None:
        manager = CheckpointManager(checkpoint_dir, keep_last=keep_last)
        if resume:
            state = manager.load(scenario.factory)
    retry = None
    if max_retries is not None:
        retry = RetryPolicy(max_retries=max_retries, lr_decay=retry_lr_decay)
    return FaultTolerance(checkpoint=manager, resume_from=state, retry=retry)


def run_method(method: str, scenario: Scenario, rng: RngLike = 0,
               callbacks: Optional[Sequence] = None,
               fault_tolerance: Optional[FaultTolerance] = None,
               checkpoint_dir=None, resume: bool = False,
               keep_last: int = 3, max_retries: Optional[int] = None,
               profile_ops: bool = False,
               **overrides) -> FitResult:
    """Fit one method on a scenario; ``overrides`` adjust its config.

    ``callbacks`` are extra :class:`~repro.core.callbacks.Callback`
    instances forwarded to the method's
    :class:`~repro.core.engine.EnsembleEngine` — every method runs through
    the same engine, so the same callbacks work across all of them.  The
    same holds for fault tolerance: pass a prebuilt
    :class:`~repro.core.checkpointing.FaultTolerance`, or let the
    convenience keywords (``checkpoint_dir``/``resume``/``keep_last``/
    ``max_retries``) build one via :func:`make_fault_tolerance`.

    ``profile_ops=True`` wraps the whole fit in the op profiler
    (:func:`repro.ops.profile_ops`) and stores the per-op summary in
    ``result.metadata["op_profile"]``.
    """
    if fault_tolerance is None:
        fault_tolerance = make_fault_tolerance(
            scenario, checkpoint_dir=checkpoint_dir, resume=resume,
            keep_last=keep_last, max_retries=max_retries)
    rng = new_rng(rng)
    train, test = scenario.split.train, scenario.split.test

    def dispatch() -> FitResult:
        if method == "edde":
            config = make_edde_config(scenario, **overrides)
            return EDDETrainer(scenario.factory, config).fit(
                train, test, rng=rng, callbacks=callbacks,
                fault_tolerance=fault_tolerance)
        if method == "ncl":
            config = _baseline_config(scenario, cls=NCLConfig, **overrides)
            return NegativeCorrelationLearning(scenario.factory, config).fit(
                train, test, rng=rng, callbacks=callbacks,
                fault_tolerance=fault_tolerance)
        baseline_classes = {
            "single": (SingleModel, BaselineConfig),
            "bagging": (Bagging, BaselineConfig),
            "adaboost_m1": (AdaBoostM1, BaselineConfig),
            "adaboost_nc": (AdaBoostNC, AdaBoostNCConfig),
            "snapshot": (SnapshotEnsemble, SnapshotConfig),
            "bans": (BANs, BANsConfig),
        }
        if method not in baseline_classes:
            raise ValueError(
                f"unknown method '{method}'; known: {ALL_METHODS + ('ncl',)}")
        method_cls, config_cls = baseline_classes[method]
        config = _baseline_config(scenario, cls=config_cls, **overrides)
        return method_cls(scenario.factory, config).fit(
            train, test, rng=rng, callbacks=callbacks,
            fault_tolerance=fault_tolerance)

    if not profile_ops:
        return dispatch()
    from repro.ops import profile_ops as _profile_ops

    with _profile_ops() as profiler:
        result = dispatch()
    result.metadata["op_profile"] = profiler.summary()
    return result


def run_effectiveness(scenario: Scenario,
                      methods: Sequence[str] = ALL_METHODS,
                      rng: RngLike = 0) -> Dict[str, FitResult]:
    """Tables II/III: every method at the scenario's equal budget."""
    rng = new_rng(rng)
    return {method: run_method(method, scenario, rng=spawn_rng(rng))
            for method in methods}
