"""Synthetic image generator: shapes, determinism, difficulty structure."""

import numpy as np
import pytest

from repro.data.synthetic_images import (
    ImageConfig,
    make_cifar10_like,
    make_cifar100_like,
    make_image_dataset,
)


class TestShapes:
    def test_split_shapes(self):
        config = ImageConfig(num_classes=5, image_size=8, train_size=50,
                             test_size=20, label_noise=0.0)
        split = make_image_dataset(config, rng=0)
        assert split.train.x.shape == (50, 3, 8, 8)
        assert split.test.x.shape == (20, 3, 8, 8)
        assert split.num_classes == 5

    def test_cifar10_like_defaults(self):
        split = make_cifar10_like(rng=0, train_size=40, test_size=20)
        assert split.num_classes == 10
        assert split.train.x.shape[1] == 3

    def test_cifar100_like_class_count(self):
        split = make_cifar100_like(rng=0, train_size=40, test_size=20)
        assert split.num_classes == 20


class TestStatistics:
    def test_train_normalised(self):
        split = make_cifar10_like(rng=0, train_size=200, test_size=50)
        means = split.train.x.mean(axis=(0, 2, 3))
        stds = split.train.x.std(axis=(0, 2, 3))
        np.testing.assert_allclose(means, 0.0, atol=1e-8)
        np.testing.assert_allclose(stds, 1.0, atol=1e-6)

    def test_labels_balanced(self):
        split = make_cifar10_like(rng=0, train_size=200, test_size=100)
        counts = split.train.class_counts()
        assert counts.min() >= 15  # 10 classes x 20 each, minus label noise

    def test_deterministic_given_seed(self):
        a = make_cifar10_like(rng=123, train_size=30, test_size=10)
        b = make_cifar10_like(rng=123, train_size=30, test_size=10)
        np.testing.assert_array_equal(a.train.x, b.train.x)
        np.testing.assert_array_equal(a.train.y, b.train.y)

    def test_different_seeds_differ(self):
        a = make_cifar10_like(rng=1, train_size=30, test_size=10)
        b = make_cifar10_like(rng=2, train_size=30, test_size=10)
        assert not np.array_equal(a.train.x, b.train.x)


class TestLabelNoise:
    def test_fraction_flipped(self):
        config = ImageConfig(num_classes=10, train_size=2000, test_size=10,
                             label_noise=0.3)
        clean = ImageConfig(num_classes=10, train_size=2000, test_size=10,
                            label_noise=0.0)
        noisy_split = make_image_dataset(config, rng=5)
        clean_split = make_image_dataset(clean, rng=5)
        flipped = (noisy_split.train.y != clean_split.train.y).mean()
        assert 0.2 < flipped < 0.4

    def test_test_labels_stay_clean(self):
        config = ImageConfig(num_classes=10, train_size=50, test_size=500,
                             label_noise=0.5)
        clean = ImageConfig(num_classes=10, train_size=50, test_size=500,
                            label_noise=0.0)
        np.testing.assert_array_equal(make_image_dataset(config, rng=3).test.y,
                                      make_image_dataset(clean, rng=3).test.y)


class TestSuperclassStructure:
    def test_sibling_classes_more_similar(self):
        """Classes sharing a superclass must be closer than unrelated ones."""
        config = ImageConfig(num_classes=8, superclasses=4, train_size=800,
                             test_size=10, noise_std=0.0, jitter=0,
                             occlusion_prob=0.0, mix_prob=0.0,
                             label_noise=0.0, prototypes_per_class=1)
        split = make_image_dataset(config, rng=0)
        means = np.stack([split.train.x[split.train.y == c].mean(axis=0)
                          for c in range(8)])
        # class c and c+4 share a base (c % superclasses); c and c+1 do not.
        sibling = np.linalg.norm(means[0] - means[4])
        unrelated = np.linalg.norm(means[0] - means[1])
        assert sibling < unrelated


class TestLearnability:
    def test_mlp_beats_chance(self, tiny_image_split):
        from repro.core.trainer import TrainingConfig, train_model
        from repro.models import MLP
        from repro.nn import accuracy, predict_probs

        train = tiny_image_split.train
        model = MLP(input_dim=int(np.prod(train.x.shape[1:])),
                    num_classes=train.num_classes, hidden=(32,), rng=0)
        train_model(model, train, TrainingConfig(epochs=5, lr=0.05,
                                                 schedule="constant"), rng=0)
        test = tiny_image_split.test
        assert accuracy(predict_probs(model, test.x), test.y) \
            > 2.0 / train.num_classes
