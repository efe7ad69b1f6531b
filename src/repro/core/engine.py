"""The unified ensemble training engine.

Every method in this repository — EDDE and all seven baselines — grows an
ensemble one member at a time and needs the same bookkeeping around each
member: evaluate it, fold it into the running ensemble prediction, record
a :class:`~repro.core.results.MemberRecord` and a Fig. 7 curve point, and
time the round.  :class:`EnsembleEngine` owns that loop once; the methods
keep only what genuinely differs (how a member is initialised, what loss
it trains under, how its α is computed).

The engine threads a :class:`PredictionCache` through the loop.  The cache
memoizes each member's softmax outputs per split at the moment the member
joins, so everything downstream — ``H_{t-1}(x)`` soft targets (Eq. 10),
``Sim_t``/``Bias_t`` (Eq. 12/13), the running Fig. 7 curve, and the final
ensemble accuracy — costs **one model evaluation per member for the whole
fit** instead of re-running every prior member each round.  That turns the
O(T²) model-evaluation hot path of the naive round loop into O(T).

Aggregation over the cached arrays goes through the same
:func:`repro.core.ensemble.alpha_vote` as
:meth:`repro.core.ensemble.Ensemble.predict_probs`, so fixed-seed results
are bit-identical to evaluating the ensemble directly; the aggregate is
memoized per member count, making repeated queries within a round free.

The engine is also where fault tolerance lives (see
:mod:`repro.core.checkpointing`): a :class:`~repro.core.checkpointing.
CheckpointManager` snapshots the fit after every completed round,
:meth:`EnsembleEngine.run` resumes from such a snapshot bit-identically,
and a :class:`~repro.core.checkpointing.RetryPolicy` turns a diverging
member (non-finite loss, collapsed accuracy) into a reseeded retry — or,
once retries are exhausted, a recorded skip — instead of a dead fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.callbacks import (
    Callback,
    CallbackList,
    CurveRecorder,
    RoundTimer,
    VerboseRounds,
)
from repro.core.checkpointing import MemberDiverged, RetryPolicy
from repro.core.ensemble import Ensemble, alpha_vote
from repro.core.results import FitResult, MemberRecord
from repro.core.trainer import LossFn, TrainingConfig, train_model
from repro.data.dataset import Dataset
from repro.nn import accuracy, predict_probs
from repro.nn.module import Module
from repro.utils.rng import RngLike
from repro.utils.run_log import RunLogger, get_logger


class PredictionCache:
    """Incremental member-prediction store over named data splits.

    ``add_member`` evaluates a new member once per registered split (or
    accepts outputs the caller already computed) and caches the softmax
    rows; ``ensemble_probs`` maintains the α-weighted aggregate over the
    cached outputs, recomputed only when the member list changes.  No model
    is ever re-evaluated.
    """

    def __init__(self, batch_size: int = 256):
        self.batch_size = batch_size
        self.alphas: List[float] = []
        self._splits: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._member_probs: Dict[str, List[np.ndarray]] = {}
        self._aggregate: Dict[str, Tuple[int, np.ndarray]] = {}

    # ------------------------------------------------------------------
    def add_split(self, name: str, x: np.ndarray, y: np.ndarray) -> None:
        """Register a split *before* any member is added."""
        if self.alphas:
            raise RuntimeError("cannot register splits once members exist")
        self._splits[name] = (x, y)
        self._member_probs[name] = []

    def split(self, name: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        return self._splits.get(name)

    def __len__(self) -> int:
        return len(self.alphas)

    # ------------------------------------------------------------------
    def add_member(self, model: Module, alpha: float,
                   precomputed: Optional[Dict[str, np.ndarray]] = None) -> None:
        """Cache ``model``'s outputs on every split; one evaluation each.

        ``precomputed`` lets the caller hand over outputs it already needed
        (EDDE evaluates the new member on the train set to compute α_t
        before the member joins) so they are not computed twice.
        """
        precomputed = precomputed or {}
        for name, (x, _) in self._splits.items():
            probs = precomputed.get(name)
            if probs is None:
                probs = predict_probs(model, x, batch_size=self.batch_size)
            self._member_probs[name].append(probs)
        self.alphas.append(float(alpha))
        self._aggregate.clear()

    # ------------------------------------------------------------------
    def member_probs(self, name: str, index: int = -1) -> np.ndarray:
        """Cached softmax outputs of one member on ``name``."""
        return self._member_probs[name][index]

    def member_probs_list(self, name: str) -> List[np.ndarray]:
        """Cached outputs of every member on ``name`` (do not mutate)."""
        return self._member_probs[name]

    def member_accuracy(self, name: str, index: int = -1) -> float:
        """Top-1 accuracy of one member; nan when the split is absent."""
        if name not in self._splits:
            return float("nan")
        _, y = self._splits[name]
        return accuracy(self._member_probs[name][index], y)

    def ensemble_probs(self, name: str) -> np.ndarray:
        """Eq. 16 over the cached member outputs on ``name``."""
        if not self.alphas:
            raise RuntimeError("prediction cache is empty")
        cached = self._aggregate.get(name)
        if cached is not None and cached[0] == len(self.alphas):
            return cached[1]
        combined = alpha_vote(self.alphas, self._member_probs[name])
        self._aggregate[name] = (len(self.alphas), combined)
        return combined

    def ensemble_accuracy(self, name: str) -> float:
        """Ensemble top-1 accuracy; nan when the split is absent or empty."""
        if name not in self._splits or not self.alphas:
            return float("nan")
        _, y = self._splits[name]
        return accuracy(self.ensemble_probs(name), y)


@dataclass
class RoundOutcome:
    """What one training round hands back to the engine.

    ``precomputed`` carries any split outputs the round already evaluated
    (keyed like the cache splits) so the cache does not recompute them;
    ``test_accuracy`` is filled in by the engine from the cache.
    """

    model: Module
    alpha: float
    epochs: int
    train_accuracy: float
    extras: dict = field(default_factory=dict)
    precomputed: Dict[str, np.ndarray] = field(default_factory=dict)
    index: int = -1
    test_accuracy: float = float("nan")


# round_fn(engine, round_index) -> RoundOutcome
RoundFn = Callable[["EnsembleEngine", int], RoundOutcome]


class EnsembleEngine:
    """Drives the member-by-member round loop shared by every method.

    Two usage patterns:

    * **Per-round methods** (EDDE, Bagging, the AdaBoosts, BANs) call
      :meth:`run` with a ``round_fn`` that trains one member and returns a
      :class:`RoundOutcome`; the engine does everything else.
    * **Continuous methods** (Snapshot, Single Model, NCL) train however
      they like via :meth:`train_member` and call :meth:`complete_round`
      whenever a member materialises, then :meth:`finish`.

    Events flow to the callback pipeline (see
    :mod:`repro.core.callbacks`); the default pipeline installs a
    :class:`~repro.core.callbacks.RoundTimer` (per-round seconds under
    ``FitResult.metadata["round_seconds"]``) and, when a test split exists
    and ``record_curve`` is on, a
    :class:`~repro.core.callbacks.CurveRecorder`.

    Fault tolerance is engine policy: pass a
    :class:`~repro.core.checkpointing.CheckpointManager` as ``checkpoint=``
    to snapshot after every round, a
    :class:`~repro.core.checkpointing.RetryPolicy` as ``retry_policy=`` to
    recover diverging members inside :meth:`run`, and a
    :class:`~repro.core.checkpointing.CheckpointState` as
    :meth:`run`'s ``resume_from=`` to continue a killed fit.  Methods that
    draw from an RNG should hand it to :meth:`track_rng` so checkpoints
    capture its state (what makes resume bit-identical), and may publish
    per-round state arrays in :attr:`checkpoint_extra` (restored into the
    same attribute on resume).
    """

    def __init__(
        self,
        method: str,
        train_set: Dataset,
        test_set: Optional[Dataset] = None,
        callbacks: Optional[Sequence[Callback]] = None,
        cache_train: bool = False,
        record_curve: bool = True,
        verbose: bool = False,
        batch_size: int = 256,
        metadata: Optional[dict] = None,
        retry_policy: Optional[RetryPolicy] = None,
        checkpoint: Optional[Callback] = None,
    ):
        self.train_set = train_set
        self.test_set = test_set
        self.ensemble = Ensemble()
        self.result = FitResult(method=method, ensemble=self.ensemble,
                                metadata=dict(metadata or {}))
        self.cache = PredictionCache(batch_size=batch_size)
        if cache_train:
            self.cache.add_split("train", train_set.x, train_set.y)
        if test_set is not None:
            self.cache.add_split("test", test_set.x, test_set.y)
        self.cumulative_epochs = 0
        self._started = False
        self.retry_policy = retry_policy
        self.checkpoint = checkpoint
        self.rng = None
        self.checkpoint_extra: Dict[str, np.ndarray] = {}
        self.retry_attempt = 0
        self._retryable = False
        self.resumed_round = 0

        pipeline: List[Callback] = [RoundTimer()]
        if record_curve and test_set is not None:
            pipeline.append(CurveRecorder())
        if verbose:
            pipeline.append(VerboseRounds())
        pipeline.extend(callbacks or [])
        if checkpoint is not None:
            # Last, so a snapshot sees what every other callback recorded.
            pipeline.append(checkpoint)
        self.callbacks = CallbackList(pipeline)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Emit ``fit_start`` once; later calls are no-ops."""
        if not self._started:
            self._started = True
            self.callbacks.on_fit_start(self)

    def track_rng(self, rng) -> None:
        """Register the method's generator for checkpointing and resume.

        Its bit-generator state is saved with every checkpoint and put
        back by :meth:`restore`, so a resumed fit draws the exact sequence
        an uninterrupted fit would have.
        """
        self.rng = rng

    def run(self, num_rounds: int, round_fn: RoundFn,
            resume_from=None) -> FitResult:
        """The standard loop: ``num_rounds`` members, one per round.

        ``resume_from`` (a :class:`~repro.core.checkpointing.
        CheckpointState`) restores every completed round first, then the
        loop continues at the next one.  When a retry policy is active, a
        round whose member keeps diverging is skipped rather than fatal;
        the fit continues with the remaining members.
        """
        self.start()
        if resume_from is not None:
            self.restore(resume_from)
        for index in range(len(self.ensemble), num_rounds):
            self.callbacks.on_round_start(self, index)
            outcome = self._attempt_round(round_fn, index)
            if outcome is None:
                continue
            self.complete_round(outcome)
        return self.finish()

    def restore(self, state) -> None:
        """Re-adopt a :class:`~repro.core.checkpointing.CheckpointState`.

        Members re-enter the prediction cache through the same
        ``add_member`` path as live training — their softmax outputs are
        deterministic functions of the restored weights, so the cache (and
        everything downstream of it) is bit-identical to the original
        fit's.  Wall-clock entries (``round_seconds``) are the original
        run's; they are the one part of a resumed result that cannot be
        identical.
        """
        if len(self.ensemble):
            raise RuntimeError(
                "cannot restore a checkpoint into an engine that already "
                "has members")
        for model, alpha in zip(state.ensemble.models, state.ensemble.alphas):
            self.cache.add_member(model, alpha)
            self.ensemble.add(model, alpha)
        self.result.members = list(state.members)
        self.result.curve = list(state.curve)
        self.result.metadata.update(state.metadata)
        self.result.metadata["resumed_from_round"] = state.round
        self.cumulative_epochs = state.cumulative_epochs
        self.checkpoint_extra = dict(state.arrays)
        self.resumed_round = state.round
        if self.rng is not None and state.rng_state is not None:
            self.rng.bit_generator.state = state.rng_state

    # ------------------------------------------------------------------
    def _attempt_round(self, round_fn: RoundFn, index: int):
        """Run one round under the retry policy; ``None`` means skipped."""
        policy = self.retry_policy
        attempts = 1 + (policy.max_retries if policy is not None else 0)
        for attempt in range(attempts):
            self.retry_attempt = attempt
            self._retryable = policy is not None
            try:
                outcome = round_fn(self, index)
                if policy is not None and not np.isfinite(outcome.alpha):
                    raise MemberDiverged(
                        f"non-finite model weight ({outcome.alpha!r})",
                        round_index=index)
                return outcome
            except MemberDiverged as fault:
                self._record_fault(index, attempt, fault)
            finally:
                self._retryable = False
        faults = self.result.metadata.setdefault("faults", [])
        faults.append({"event": "skipped", "round": index,
                       "attempts": attempts})
        get_logger().warning(
            "%s round %d: member diverged in all %d attempts; skipping it "
            "(ensemble continues with %d members so far)",
            self.result.method, index, attempts, len(self.ensemble))
        return None

    def _record_fault(self, index: int, attempt: int,
                      fault: MemberDiverged) -> None:
        faults = self.result.metadata.setdefault("faults", [])
        faults.append({
            "event": "diverged", "round": index, "attempt": attempt,
            "reason": fault.reason, "epoch": fault.epoch,
            "batch": fault.batch,
        })
        get_logger().warning(
            "%s round %d attempt %d: %s — retrying with a reseeded member",
            self.result.method, index, attempt, fault.reason)

    # ------------------------------------------------------------------
    def train_member(
        self,
        model: Module,
        dataset: Dataset,
        config: TrainingConfig,
        loss_fn: Optional[LossFn] = None,
        rng: RngLike = None,
        on_epoch_end=None,
        logger: Optional[RunLogger] = None,
    ) -> RunLogger:
        """Train one member, counting epochs and emitting engine events.

        ``on_epoch_end(model, epoch)`` (a method-level hook, e.g. Snapshot's
        cycle boundary) runs *after* the callback pipeline saw the epoch.

        Under an active :class:`~repro.core.checkpointing.RetryPolicy`
        (inside :meth:`run`'s round loop), training is watched: a
        non-finite batch or epoch loss — or an epoch training accuracy
        below the policy's collapse floor — aborts the member with
        :class:`~repro.core.checkpointing.MemberDiverged`, and retry
        attempts train with the policy's decayed learning rate.
        """
        self.start()
        policy = self.retry_policy if self._retryable else None
        if policy is not None and self.retry_attempt and policy.lr_decay != 1.0:
            config = replace(
                config, lr=config.lr * policy.lr_decay ** self.retry_attempt)
        logger = logger or RunLogger(verbose=config.verbose)

        def epoch_hook(trained_model, epoch):
            self.cumulative_epochs += 1
            self.callbacks.on_epoch_end(self, trained_model, epoch, logger)
            if policy is not None:
                self._check_epoch(policy, logger, epoch)
            if on_epoch_end is not None:
                on_epoch_end(trained_model, epoch)

        def batch_hook(trained_model, batch_index, loss):
            self.callbacks.on_batch_end(self, trained_model, batch_index, loss)
            if policy is not None and not np.isfinite(loss):
                raise MemberDiverged(
                    f"non-finite training loss ({loss!r})",
                    round_index=len(self.ensemble), batch=batch_index)

        return train_model(model, dataset, config, loss_fn=loss_fn, rng=rng,
                           on_epoch_end=epoch_hook, on_batch_end=batch_hook,
                           logger=logger)

    def _check_epoch(self, policy: RetryPolicy, logger: RunLogger,
                     epoch: int) -> None:
        """Epoch-level divergence checks for :meth:`train_member`."""
        loss = logger.last("loss")
        if not np.isfinite(loss):
            raise MemberDiverged(
                f"non-finite epoch loss ({loss!r})",
                round_index=len(self.ensemble), epoch=epoch)
        floor = policy.min_train_accuracy
        if floor is not None and epoch >= policy.grace_epochs:
            train_accuracy = logger.last("train_accuracy")
            if train_accuracy < floor:
                raise MemberDiverged(
                    f"training accuracy collapsed "
                    f"({train_accuracy:.4f} < {floor:.4f})",
                    round_index=len(self.ensemble), epoch=epoch)

    # ------------------------------------------------------------------
    def complete_round(self, outcome: RoundOutcome) -> RoundOutcome:
        """Fold a freshly trained member into the ensemble.

        Caches its predictions (one evaluation per split not already
        supplied), fills in its test accuracy, appends the
        :class:`MemberRecord`, and emits ``round_end`` — where the curve
        recorder and the timer do their work.
        """
        self.start()
        if outcome.index < 0:
            outcome.index = len(self.ensemble)
        self.cache.add_member(outcome.model, outcome.alpha,
                              precomputed=outcome.precomputed)
        self.ensemble.add(outcome.model, outcome.alpha)
        outcome.test_accuracy = self.cache.member_accuracy("test")
        self.result.members.append(MemberRecord(
            index=outcome.index, alpha=outcome.alpha, epochs=outcome.epochs,
            train_accuracy=outcome.train_accuracy,
            test_accuracy=outcome.test_accuracy,
            extras=outcome.extras,
        ))
        self.callbacks.on_round_end(self, outcome)
        return outcome

    def finish(self, total_epochs: Optional[int] = None) -> FitResult:
        """Seal the result: totals, final accuracy, ``fit_end`` event."""
        self.result.total_epochs = (self.cumulative_epochs
                                    if total_epochs is None else total_epochs)
        self.result.final_accuracy = self.cache.ensemble_accuracy("test")
        self.callbacks.on_fit_end(self)
        return self.result
