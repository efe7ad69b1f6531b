"""Experimental protocol: the paper's settings, scaled to CPU budgets.

Every benchmark builds a :class:`Scenario` by name ("c10-resnet",
"c100-densenet", "imdb-textcnn", ...).  A scenario bundles the synthetic
dataset, the model factory and the per-method epoch budgets, keeping the
paper's *ratios* intact:

* all multi-model baselines and Snapshot get the same total budget, split
  evenly into ``ensemble_size`` models/cycles (Sec. V-A's "methods in the
  same group are trained for 200 epochs");
* EDDE trains its first model for one Snapshot-cycle worth of epochs and
  later models for a shorter cycle, so the same budget buys more base
  models (paper: ResNet 40→30, DenseNet 50→25, TextCNN 20→10, i.e. later
  cycles are 50-75% of the first);
* the paper's γ/β defaults per architecture are preserved (γ=0.1, β=0.7
  for ResNet; γ=0.2, β=0.5 for DenseNet; TextCNN transfers embedding +
  convolutions).

``REPRO_SCALE`` (float env var, default 1) multiplies all epoch budgets,
and ``REPRO_TRAIN_SIZE``/``REPRO_TEST_SIZE`` override dataset sizes, so the
same benches scale from smoke-test to paper-scale runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.data import (
    cifar_augment,  # noqa: F401 - re-exported for Scenario users (see below)
    make_cifar10_like,
    make_cifar100_like,
    make_imdb_like,
    make_mr_like,
)
from repro.data.dataset import TrainTestSplit
from repro.models import DenseNetCIFAR, ModelFactory, ResNetCIFAR, TextCNN
from repro.models.textcnn import textcnn_conv_beta
from repro.tensor import default_dtype
from repro.utils.rng import RngLike


def scale() -> float:
    """Global budget multiplier from the ``REPRO_SCALE`` env var."""
    return float(os.environ.get("REPRO_SCALE", "1"))


def _scaled(epochs: int) -> int:
    return max(1, int(round(epochs * scale())))


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def resolved_settings() -> dict:
    """What ``REPRO_SCALE``, ``REPRO_TRAIN_SIZE``, ``REPRO_TEST_SIZE`` and
    ``REPRO_DTYPE`` resolve to now: every one of them changes results.

    The size overrides read ``None`` when unset.  A grid records this in
    its state directory, so a resume under other values cannot reuse runs
    of another protocol.
    """
    def size(name: str) -> Optional[int]:
        value = os.environ.get(name)
        return None if value is None else int(value)

    return {"scale": scale(), "train_size": size("REPRO_TRAIN_SIZE"),
            "test_size": size("REPRO_TEST_SIZE"),
            "dtype": default_dtype().name}


@dataclass
class Scenario:
    """One dataset/model pairing with its full training protocol."""

    name: str
    split: TrainTestSplit
    factory: ModelFactory
    ensemble_size: int
    epochs_per_model: int       # baselines: per model; Snapshot: per cycle
    edde_first_epochs: int
    edde_later_epochs: int
    lr: float
    batch_size: int
    gamma: float
    beta: Optional[float]
    augment: Optional[Callable] = None
    weight_decay: float = 1e-4
    notes: dict = field(default_factory=dict)

    @property
    def total_budget(self) -> int:
        return self.ensemble_size * self.epochs_per_model

    def edde_num_models(self, budget: Optional[int] = None) -> int:
        """How many EDDE rounds fit in the (same) total budget."""
        budget = budget or self.total_budget
        remaining = budget - self.edde_first_epochs
        return max(1, 1 + remaining // self.edde_later_epochs)


def _cv_split(maker, rng: RngLike, **overrides) -> TrainTestSplit:
    train_size = _env_int("REPRO_TRAIN_SIZE", 1200)
    test_size = _env_int("REPRO_TEST_SIZE", 600)
    return maker(rng=rng, train_size=train_size, test_size=test_size, **overrides)


def _nlp_split(maker, rng: RngLike) -> TrainTestSplit:
    train_size = _env_int("REPRO_TRAIN_SIZE", 1200)
    test_size = _env_int("REPRO_TEST_SIZE", 600)
    return maker(rng=rng, train_size=train_size, test_size=test_size)


def build_scenario(name: str, rng: RngLike = 0) -> Scenario:
    """Construct a named scenario.

    Names: ``{c10,c100}-{resnet,densenet}`` and ``{imdb,mr}-textcnn``.
    """
    parts = name.split("-")
    if len(parts) != 2:
        raise ValueError(f"scenario name must be '<dataset>-<model>', got '{name}'")
    dataset_name, model_name = parts

    if dataset_name in ("c10", "c100"):
        maker = make_cifar10_like if dataset_name == "c10" else make_cifar100_like
        split = _cv_split(maker, rng)
        num_classes = split.num_classes
        # No train-time augmentation at benchmark scale: with crop+flip the
        # synthetic task never saturates within CPU budgets, which hides the
        # overfitting plateau the paper's ensemble comparisons live in.
        # (Pass augment=cifar_augment(2) to a Scenario manually to restore
        # the paper's preprocessing at larger REPRO_SCALE.)
        if model_name == "resnet":
            factory = ModelFactory(ResNetCIFAR, depth=8, num_classes=num_classes,
                                   base_width=8)
            # Paper protocol: lr 0.1, gamma 0.1; EDDE's later cycles are
            # 75% of the first (40 -> 30).  The paper's beta=0.7 was tuned
            # on real CIFAR; on this synthetic substrate the adaptive
            # procedure of Sec. IV-B selects a beta that re-initialises
            # roughly the classifier head (~0.97 by parameter fraction) —
            # see bench_fig5_beta_selection.py.
            return Scenario(
                name=name, split=split, factory=factory,
                ensemble_size=5, epochs_per_model=_scaled(8),
                edde_first_epochs=_scaled(8), edde_later_epochs=_scaled(6),
                lr=0.1, batch_size=32, gamma=0.1, beta=0.97,
            )
        if model_name == "densenet":
            factory = ModelFactory(DenseNetCIFAR, depth=10, num_classes=num_classes,
                                   growth=5)
            # Paper protocol: lr 0.2, gamma 0.2; EDDE's later cycles are
            # 50% of the first (50 -> 25).  beta as for ResNet (see above).
            return Scenario(
                name=name, split=split, factory=factory,
                ensemble_size=5, epochs_per_model=_scaled(8),
                edde_first_epochs=_scaled(8), edde_later_epochs=_scaled(4),
                lr=0.2, batch_size=32, gamma=0.2, beta=0.9,
            )
        raise ValueError(f"unknown CV model '{model_name}'")

    if dataset_name in ("imdb", "mr"):
        if model_name != "textcnn":
            raise ValueError(f"NLP scenarios use 'textcnn', got '{model_name}'")
        maker = make_imdb_like if dataset_name == "imdb" else make_mr_like
        split = _nlp_split(maker, rng)
        factory = ModelFactory(TextCNN, vocab_size=split.vocab_size,
                               num_classes=2, embedding_dim=16,
                               filters_per_width=8)
        # NLP transfer: embedding + all convolutions (paper Sec. V-A).
        beta = textcnn_conv_beta(factory.build(rng=0))
        # The paper uses batches of 128 (IMDB) / 50 (MR) on 25k/10k-doc
        # corpora; at the synthetic corpus size that leaves too few SGD
        # steps per epoch, so the batch scales down with the data.
        batch_size = 32
        # Paper: 20 epochs/model baselines, EDDE 20 first / 10 later and
        # only *half* the group budget (Table III) — ratios preserved.
        return Scenario(
            name=name, split=split, factory=factory,
            ensemble_size=5, epochs_per_model=_scaled(8),
            edde_first_epochs=_scaled(8), edde_later_epochs=_scaled(4),
            lr=0.1, batch_size=batch_size, gamma=0.1, beta=beta,
            notes={"edde_half_budget": True},
        )

    raise ValueError(f"unknown dataset '{dataset_name}'")
