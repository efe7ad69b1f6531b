"""Datasets, loaders, synthetic generators, augmentation and fold splits."""

from repro.data.dataset import Dataset, TrainTestSplit
from repro.data.drift import (
    DriftBatch,
    DriftPhase,
    DriftSchedule,
    DriftStream,
)
from repro.data.loader import DataLoader, bootstrap_sample, weighted_sample
from repro.data.synthetic_images import (
    ImageConfig,
    build_prototypes,
    make_cifar10_like,
    make_cifar100_like,
    make_image_dataset,
    rotate_prototypes,
)
from repro.data.synthetic_text import (
    TextConfig,
    make_imdb_like,
    make_mr_like,
    make_text_dataset,
)
from repro.data.augment import cifar_augment, random_crop, random_flip
from repro.data.folds import merge_folds, split_folds

__all__ = [
    "Dataset",
    "TrainTestSplit",
    "DataLoader",
    "bootstrap_sample",
    "weighted_sample",
    "DriftBatch",
    "DriftPhase",
    "DriftSchedule",
    "DriftStream",
    "ImageConfig",
    "TextConfig",
    "build_prototypes",
    "rotate_prototypes",
    "make_image_dataset",
    "make_cifar10_like",
    "make_cifar100_like",
    "make_text_dataset",
    "make_imdb_like",
    "make_mr_like",
    "cifar_augment",
    "random_crop",
    "random_flip",
    "split_folds",
    "merge_folds",
]
