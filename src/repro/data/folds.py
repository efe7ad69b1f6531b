"""Fold splitting used by the adaptive β-selection procedure (Fig. 4).

The paper splits the training set into ``n`` folds, trains ``h_{t-1}`` on
the first ``n-1``, trains the candidate ``h_t`` on the first ``n-2``, and
compares its accuracy on fold ``n-1`` (seen only by the teacher) versus
fold ``n`` (seen by nobody).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.data.dataset import Dataset
from repro.utils.rng import RngLike, new_rng


def split_folds(dataset: Dataset, n_folds: int, rng: RngLike = None) -> List[Dataset]:
    """Partition ``dataset`` into ``n_folds`` near-equal disjoint folds."""
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    if n_folds > len(dataset):
        raise ValueError("more folds than samples")
    rng = new_rng(rng)
    order = rng.permutation(len(dataset))
    chunks = np.array_split(order, n_folds)
    return [dataset.subset(chunk, name=f"{dataset.name}[fold {i}]")
            for i, chunk in enumerate(chunks)]


def merge_folds(folds: List[Dataset], name: str = "merged") -> Dataset:
    """Concatenate folds back into one dataset."""
    if not folds:
        raise ValueError("no folds to merge")
    return Dataset(
        x=np.concatenate([f.x for f in folds], axis=0),
        y=np.concatenate([f.y for f in folds], axis=0),
        num_classes=folds[0].num_classes,
        name=name,
    )
