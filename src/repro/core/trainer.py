"""The shared single-model training loop.

Every method in the paper — EDDE and all six baselines — trains base models
with SGD under some learning-rate schedule; they differ only in the loss,
the sample weights, the initialisation, and when snapshots are taken.  This
module factors out the common loop so those differences stay local to each
method's module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.data.dataset import Dataset
from repro.data.loader import DataLoader
from repro.nn import cross_entropy
from repro.nn.module import Module
from repro.ops import workspace
from repro.optim import (
    ConstantLR,
    CosineAnnealingLR,
    SGD,
    SnapshotCyclicLR,
    StepLR,
)
from repro.tensor import Tensor
from repro.utils.rng import RngLike, new_rng
from repro.utils.run_log import RunLogger

# loss_fn(logits, labels, dataset_indices) -> scalar Tensor
LossFn = Callable[[Tensor, np.ndarray, np.ndarray], Tensor]
EpochCallback = Callable[[Module, int], None]
BatchCallback = Callable[[Module, int, float], None]


@dataclass
class TrainingConfig:
    """Hyperparameters of one base-model training run.

    Defaults follow the paper's protocol (Sec. V-A): SGD, momentum 0.9,
    and the step schedule that divides the LR by 10 at 50% and 75% of the
    epoch budget.
    """

    epochs: int = 10
    lr: float = 0.1
    batch_size: int = 64
    momentum: float = 0.9
    weight_decay: float = 1e-4
    nesterov: bool = False
    schedule: str = "step"            # step | cosine | snapshot | constant
    cycle_length: int = 0             # for schedule="snapshot"
    milestones: tuple = (0.5, 0.75)   # for schedule="step"
    grad_clip: float = 5.0            # max gradient L2 norm, 0 disables
    augment: Optional[Callable] = None
    drop_last: bool = False
    verbose: bool = False
    extra: dict = field(default_factory=dict)

    def build_schedule(self):
        if self.schedule == "step":
            return StepLR(self.lr, self.epochs, milestones=self.milestones)
        if self.schedule == "cosine":
            return CosineAnnealingLR(self.lr, self.epochs)
        if self.schedule == "snapshot":
            if self.cycle_length <= 0:
                raise ValueError("schedule='snapshot' requires cycle_length > 0")
            return SnapshotCyclicLR(self.lr, self.cycle_length)
        if self.schedule == "constant":
            return ConstantLR(self.lr)
        raise ValueError(f"unknown schedule '{self.schedule}'")


def _clip_gradients(model: Module, max_norm: float) -> None:
    total = 0.0
    for param in model.parameters():
        if param.grad is not None:
            total += float((param.grad ** 2).sum())
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for param in model.parameters():
            if param.grad is not None:
                param.grad *= scale


def default_loss(sample_weights: Optional[np.ndarray] = None,
                 dataset_size: Optional[int] = None) -> LossFn:
    """Weighted cross-entropy loss factory.

    ``sample_weights`` are boosting weights over the *whole dataset*
    (summing to 1); they are rescaled by ``dataset_size`` so a uniform
    weighting reproduces the plain mean loss at any batch size.
    """
    if sample_weights is not None:
        sample_weights = np.asarray(sample_weights, dtype=np.float64)
        if dataset_size is None:
            dataset_size = len(sample_weights)
        relative = sample_weights * dataset_size

    def loss_fn(logits: Tensor, labels: np.ndarray, indices: np.ndarray) -> Tensor:
        batch = len(labels)
        if sample_weights is None:
            return cross_entropy(logits, labels)
        return cross_entropy(logits, labels, weights=relative[indices] / batch)

    return loss_fn


def train_model(
    model: Module,
    dataset: Dataset,
    config: TrainingConfig,
    loss_fn: Optional[LossFn] = None,
    rng: RngLike = None,
    on_epoch_end: Optional[EpochCallback] = None,
    on_batch_end: Optional[BatchCallback] = None,
    logger: Optional[RunLogger] = None,
) -> RunLogger:
    """Train ``model`` in place; returns the per-epoch log.

    Parameters
    ----------
    model / dataset / config:
        What to train, on what, and how.
    loss_fn:
        ``(logits, labels, dataset_indices) -> scalar Tensor``.  Defaults
        to plain mean cross-entropy.  EDDE passes its diversity-driven
        loss here; boosting baselines pass weighted cross-entropy.
    rng:
        Controls shuffling and augmentation.
    on_epoch_end:
        Called as ``callback(model, epoch)`` after each epoch — snapshot
        methods save state here, probes measure fold accuracy here.
    on_batch_end:
        Called as ``callback(model, batch_index, loss)`` after each
        optimiser step — the engine's callback pipeline listens here.
    """
    rng = new_rng(rng)
    loss_fn = loss_fn or default_loss()
    logger = logger or RunLogger(verbose=config.verbose)
    schedule = config.build_schedule()
    optimizer = SGD(model.parameters(), lr=config.lr, momentum=config.momentum,
                    weight_decay=config.weight_decay, nesterov=config.nesterov)
    loader = DataLoader(dataset, batch_size=config.batch_size, shuffle=True,
                        augment=config.augment, rng=rng, drop_last=config.drop_last)

    model.train()
    try:
        for epoch in range(config.epochs):
            optimizer.set_lr(schedule.lr_at(epoch))
            epoch_loss = 0.0
            epoch_correct = 0
            seen = 0
            for batch_index, (x_batch, y_batch, indices) in enumerate(loader):
                optimizer.zero_grad()
                logits = model(x_batch)
                loss = loss_fn(logits, y_batch, indices)
                loss.backward()
                if config.grad_clip:
                    _clip_gradients(model, config.grad_clip)
                optimizer.step()
                epoch_loss += loss.item() * len(y_batch)
                epoch_correct += int((logits.data.argmax(axis=1) == y_batch).sum())
                seen += len(y_batch)
                if on_batch_end is not None:
                    on_batch_end(model, batch_index, loss.item())
            logger.log(epoch=epoch, loss=epoch_loss / max(1, seen),
                       train_accuracy=epoch_correct / max(1, seen),
                       lr=optimizer.lr)
            if on_epoch_end is not None:
                on_epoch_end(model, epoch)
            model.train()
    finally:
        # Only this loop's taped steps take the pooled patch buffers:
        # do not keep them under the evaluation that follows.
        workspace.clear()
    model.eval()
    return logger
