"""Augmentation and fold-splitting invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    Dataset,
    cifar_augment,
    merge_folds,
    random_crop,
    random_flip,
    split_folds,
)


def images(n=6, size=8):
    return np.random.default_rng(0).normal(size=(n, 3, size, size))


class TestAugment:
    def test_crop_preserves_shape(self):
        x = images()
        out = random_crop(x, 2, np.random.default_rng(0))
        assert out.shape == x.shape

    def test_crop_zero_padding_identity(self):
        x = images()
        np.testing.assert_array_equal(random_crop(x, 0, np.random.default_rng(0)), x)

    def test_flip_preserves_shape_and_values(self):
        x = images()
        out = random_flip(x, np.random.default_rng(0))
        assert out.shape == x.shape
        # each image is either identical or exactly mirrored
        for original, maybe_flipped in zip(x, out):
            same = np.array_equal(original, maybe_flipped)
            mirrored = np.array_equal(original[:, :, ::-1], maybe_flipped)
            assert same or mirrored

    def test_flip_probability_one(self):
        x = images()
        out = random_flip(x, np.random.default_rng(0), probability=1.0)
        np.testing.assert_array_equal(out, x[:, :, :, ::-1])

    def test_flip_does_not_mutate_input(self):
        x = images()
        copy = x.copy()
        random_flip(x, np.random.default_rng(0), probability=1.0)
        np.testing.assert_array_equal(x, copy)

    def test_cifar_augment_closure(self):
        augment = cifar_augment(padding=2)
        out = augment(images(), np.random.default_rng(0))
        assert out.shape == (6, 3, 8, 8)


def make_dataset(n=20):
    rng = np.random.default_rng(1)
    return Dataset(rng.normal(size=(n, 4)), rng.integers(0, 3, n), num_classes=3)


class TestFolds:
    def test_partition_covers_everything(self):
        dataset = make_dataset(23)
        folds = split_folds(dataset, 5, rng=0)
        total = sum(len(f) for f in folds)
        assert total == 23
        all_x = np.concatenate([f.x for f in folds])
        assert sorted(map(tuple, all_x)) == sorted(map(tuple, dataset.x))

    def test_folds_near_equal(self):
        folds = split_folds(make_dataset(23), 5, rng=0)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_merge_restores_size(self):
        dataset = make_dataset(20)
        folds = split_folds(dataset, 4, rng=0)
        merged = merge_folds(folds)
        assert len(merged) == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            split_folds(make_dataset(5), 1)
        with pytest.raises(ValueError):
            split_folds(make_dataset(3), 10)
        with pytest.raises(ValueError):
            merge_folds([])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 8), st.integers(10, 60))
    def test_property_partition(self, n_folds, n_samples):
        dataset = make_dataset(n_samples)
        folds = split_folds(dataset, n_folds, rng=0)
        assert len(folds) == n_folds
        assert sum(len(f) for f in folds) == n_samples
