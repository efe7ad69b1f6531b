"""Cross-entropy, distillation, and evaluation helper tests."""

import threading

import numpy as np
import pytest

from repro import nn
from repro.models import MLP
from repro.nn.losses import (
    accuracy,
    cross_entropy,
    distillation_loss,
    predict_probs,
)
from repro.tensor import Tensor, gradcheck, inference_mode

RNG = np.random.default_rng(9)


class TestCrossEntropy:
    def test_matches_manual(self):
        logits = Tensor(np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]]))
        labels = np.array([0, 1])
        loss = cross_entropy(logits, labels).item()
        probs = np.exp(logits.numpy())
        probs /= probs.sum(axis=1, keepdims=True)
        expected = -np.log(probs[[0, 1], [0, 1]]).mean()
        assert loss == pytest.approx(expected, rel=1e-9)

    def test_perfect_prediction_near_zero(self):
        logits = Tensor(np.array([[50.0, 0.0], [0.0, 50.0]]))
        assert cross_entropy(logits, np.array([0, 1])).item() < 1e-6

    def test_weights_scale_contributions(self):
        logits = Tensor(RNG.normal(size=(4, 3)))
        labels = np.array([0, 1, 2, 0])
        uniform = cross_entropy(logits, labels).item()
        manual = cross_entropy(logits, labels,
                               weights=np.full(4, 0.25)).item()
        assert uniform == pytest.approx(manual)

    def test_weight_shape_validation(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1]),
                          weights=np.ones(3))

    def test_gradcheck(self):
        logits = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        labels = np.array([1, 0, 3])
        assert gradcheck(lambda l: cross_entropy(l, labels), [logits])


class TestDistillation:
    def test_alpha_zero_is_hard_loss(self):
        logits = Tensor(RNG.normal(size=(4, 3)))
        labels = np.array([0, 1, 2, 1])
        teacher = np.full((4, 3), 1 / 3)
        soft = distillation_loss(logits, labels, teacher, alpha=0.0).item()
        hard = cross_entropy(logits, labels).item()
        assert soft == pytest.approx(hard, rel=1e-9)

    def test_matching_teacher_minimises_soft_term(self):
        labels = np.array([0, 1])
        teacher = np.array([[0.9, 0.1], [0.2, 0.8]])
        matched = Tensor(np.log(teacher))
        mismatched = Tensor(np.log(teacher[::-1].copy()))
        l_match = distillation_loss(matched, labels, teacher, alpha=1.0).item()
        l_miss = distillation_loss(mismatched, labels, teacher, alpha=1.0).item()
        assert l_match < l_miss

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            distillation_loss(Tensor(np.zeros((1, 2))), np.array([0]),
                              np.array([[0.5, 0.5]]), alpha=1.5)

    def test_gradcheck(self):
        logits = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
        labels = np.array([0, 1, 2])
        teacher = RNG.dirichlet(np.ones(3), size=3)
        assert gradcheck(
            lambda l: distillation_loss(l, labels, teacher, alpha=0.5,
                                        temperature=2.0),
            [logits])


class TestEvaluationHelpers:
    def test_accuracy(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert accuracy(probs, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_predict_probs_rows_sum_to_one(self):
        model = MLP(input_dim=6, num_classes=3, hidden=(8,), rng=0)
        probs = predict_probs(model, RNG.normal(size=(10, 6)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_predict_probs_batching_consistent(self):
        model = MLP(input_dim=4, num_classes=2, hidden=(8,), rng=0)
        data = RNG.normal(size=(30, 4))
        full = predict_probs(model, data, batch_size=256)
        chunked = predict_probs(model, data, batch_size=7)
        np.testing.assert_allclose(full, chunked, atol=1e-12)

    def test_predict_probs_restores_training_mode(self):
        model = MLP(input_dim=4, num_classes=2, hidden=(8,), rng=0)
        model.train()
        predict_probs(model, RNG.normal(size=(5, 4)))
        assert model.training

    def test_predict_probs_never_flips_the_shared_training_flag(self):
        """Eval mode is thread-local: while one thread is inside
        predict_probs, another thread still sees the model in training
        mode, and the predicting thread still gets eval-mode answers."""

        class Probe(nn.Module):
            def __init__(self):
                super().__init__()
                self.entered = threading.Event()
                self.release = threading.Event()

            def forward(self, x):
                self.entered.set()
                assert self.release.wait(timeout=10.0)
                return x

        probe, norm = Probe(), nn.BatchNorm1d(6)
        model = nn.Sequential(nn.Linear(4, 6, rng=0), norm,
                              nn.Dropout(0.5, rng=1), probe,
                              nn.Linear(6, 3, rng=2))
        norm._buffers["running_mean"][...] = 0.25
        data = RNG.normal(size=(5, 4))
        model.eval()
        probe.release.set()
        expected = predict_probs(model, data)
        probe.release.clear()
        model.train()
        running = {key: value.copy()
                   for key, value in norm._buffers.items()}

        result = {}
        worker = threading.Thread(
            target=lambda: result.setdefault(
                "probs", predict_probs(model, data)))
        worker.start()
        try:
            assert probe.entered.wait(timeout=10.0)
            seen = [module.training for module in model.modules()]
        finally:
            probe.release.set()
            worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert all(seen)
        assert model.training
        assert np.array_equal(result["probs"], expected)
        for key, value in norm._buffers.items():
            assert np.array_equal(value, running[key])

    def test_inference_mode_is_eval_mode(self):
        layer = nn.BatchNorm1d(3)
        layer._buffers["running_var"][...] = 4.0
        x = Tensor(RNG.normal(size=(6, 3)))
        with inference_mode():
            inside = layer(x).data.copy()
        layer.eval()
        assert np.array_equal(inside, layer(x).data)
        layer.train()
        outside = layer(x).data
        assert not np.allclose(outside, inside)
