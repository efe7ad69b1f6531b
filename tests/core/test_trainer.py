"""The shared training loop."""

import numpy as np
import pytest

from repro.core.trainer import (
    TrainingConfig,
    default_loss,
    train_model,
)
from repro.models import MLP
from repro.nn import accuracy, predict_probs


class TestTrainingConfig:
    def test_schedule_construction(self):
        assert TrainingConfig(schedule="step").build_schedule() is not None
        assert TrainingConfig(schedule="cosine").build_schedule() is not None
        assert TrainingConfig(schedule="constant").build_schedule() is not None
        snapshot = TrainingConfig(schedule="snapshot", cycle_length=5)
        assert snapshot.build_schedule().lr_at(0) == pytest.approx(0.1)

    def test_snapshot_requires_cycle_length(self):
        with pytest.raises(ValueError):
            TrainingConfig(schedule="snapshot").build_schedule()

    def test_unknown_schedule(self):
        with pytest.raises(ValueError):
            TrainingConfig(schedule="warmup-cooldown").build_schedule()


class TestTrainModel:
    def test_learns_separable_data(self, toy_dataset):
        model = MLP(input_dim=2, num_classes=3, hidden=(16,), rng=0)
        config = TrainingConfig(epochs=30, lr=0.05, batch_size=16,
                                schedule="constant", weight_decay=0.0)
        train_model(model, toy_dataset, config, rng=0)
        assert accuracy(predict_probs(model, toy_dataset.x),
                        toy_dataset.y) > 0.95

    def test_logger_records_every_epoch(self, toy_dataset):
        model = MLP(input_dim=2, num_classes=3, hidden=(8,), rng=0)
        logger = train_model(model, toy_dataset,
                             TrainingConfig(epochs=4, lr=0.01), rng=0)
        assert len(logger.records) == 4
        assert all("loss" in r and "lr" in r for r in logger.records)

    def test_callback_invoked(self, toy_dataset):
        model = MLP(input_dim=2, num_classes=3, hidden=(8,), rng=0)
        epochs_seen = []
        train_model(model, toy_dataset, TrainingConfig(epochs=3, lr=0.01),
                    rng=0, on_epoch_end=lambda m, e: epochs_seen.append(e))
        assert epochs_seen == [0, 1, 2]

    def test_custom_loss_receives_dataset_indices(self, toy_dataset):
        from repro.nn import cross_entropy

        model = MLP(input_dim=2, num_classes=3, hidden=(8,), rng=0)
        seen = []

        def loss_fn(logits, labels, indices):
            seen.extend(indices.tolist())
            np.testing.assert_array_equal(labels, toy_dataset.y[indices])
            return cross_entropy(logits, labels)

        train_model(model, toy_dataset, TrainingConfig(epochs=1, lr=0.01),
                    loss_fn=loss_fn, rng=0)
        assert sorted(seen) == list(range(len(toy_dataset)))

    def test_model_left_in_eval_mode(self, toy_dataset):
        model = MLP(input_dim=2, num_classes=3, hidden=(8,), rng=0)
        train_model(model, toy_dataset, TrainingConfig(epochs=1, lr=0.01), rng=0)
        assert not model.training

    def test_reproducible_given_seed(self, toy_dataset):
        results = []
        for _ in range(2):
            model = MLP(input_dim=2, num_classes=3, hidden=(8,), rng=4)
            train_model(model, toy_dataset,
                        TrainingConfig(epochs=2, lr=0.05), rng=11)
            results.append(next(model.parameters()).data.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_lr_schedule_applied(self, toy_dataset):
        model = MLP(input_dim=2, num_classes=3, hidden=(8,), rng=0)
        logger = train_model(model, toy_dataset,
                             TrainingConfig(epochs=4, lr=0.1, schedule="step"),
                             rng=0)
        rates = logger.column("lr")
        assert rates[0] == pytest.approx(0.1)
        assert rates[-1] == pytest.approx(0.001)


class TestDefaultLoss:
    def test_uniform_weights_match_plain(self, toy_dataset):
        from repro.nn import cross_entropy
        from repro.tensor import Tensor

        n = len(toy_dataset)
        weighted = default_loss(np.full(n, 1.0 / n), n)
        logits = Tensor(np.random.default_rng(0).normal(size=(5, 3)))
        labels = toy_dataset.y[:5]
        indices = np.arange(5)
        plain = cross_entropy(logits, labels).item()
        assert weighted(logits, labels, indices).item() == pytest.approx(plain)
