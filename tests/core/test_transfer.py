"""Knowledge transfer: β-prefix copying and the adaptive β search."""

import numpy as np
import pytest

from repro.core.transfer import (
    leaf_modules,
    select_beta,
    transfer_parameters,
)
from repro.models import MLP, ModelFactory, ResNetCIFAR


def make_pair(seed_a=0, seed_b=1):
    teacher = MLP(input_dim=6, num_classes=3, hidden=(8, 8), rng=seed_a)
    student = MLP(input_dim=6, num_classes=3, hidden=(8, 8), rng=seed_b)
    return teacher, student


class TestTransferParameters:
    def test_beta_one_copies_everything(self):
        teacher, student = make_pair()
        transferred = transfer_parameters(teacher, student, 1.0, rng=0)
        assert transferred == teacher.num_parameters()
        for (_, p1), (_, p2) in zip(teacher.named_parameters(),
                                    student.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_beta_zero_copies_nothing(self):
        teacher, student = make_pair()
        before = {n: p.data.copy() for n, p in teacher.named_parameters()}
        transferred = transfer_parameters(teacher, student, 0.0, rng=99)
        assert transferred == 0
        first_name = next(iter(before))
        student_params = dict(student.named_parameters())
        assert not np.allclose(before[first_name],
                               student_params[first_name].data)

    def test_prefix_exactly_transferred(self):
        teacher, student = make_pair()
        counts = [sum(p.data.size for p in leaf.parameters())
                  for leaf in leaf_modules(teacher)]
        # pick beta exactly at the first module boundary
        beta = counts[0] / sum(counts) + 1e-6
        transfer_parameters(teacher, student, beta, rng=0)
        teacher_leaves = leaf_modules(teacher)
        student_leaves = leaf_modules(student)
        # first leaf equal, last leaf different
        np.testing.assert_array_equal(
            next(iter(teacher_leaves[0]._parameters.values())).data,
            next(iter(student_leaves[0]._parameters.values())).data)
        assert not np.allclose(
            next(iter(teacher_leaves[-1]._parameters.values())).data,
            next(iter(student_leaves[-1]._parameters.values())).data)

    def test_upper_layers_reinitialised_from_rng(self):
        teacher, _ = make_pair()
        student_a = MLP(input_dim=6, num_classes=3, hidden=(8, 8), rng=5)
        student_b = MLP(input_dim=6, num_classes=3, hidden=(8, 8), rng=5)
        transfer_parameters(teacher, student_a, 0.5, rng=7)
        transfer_parameters(teacher, student_b, 0.5, rng=7)
        for (_, p1), (_, p2) in zip(student_a.named_parameters(),
                                    student_b.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_invalid_beta(self):
        teacher, student = make_pair()
        with pytest.raises(ValueError):
            transfer_parameters(teacher, student, 1.5)

    def test_architecture_mismatch(self):
        teacher = MLP(input_dim=6, num_classes=3, hidden=(8,), rng=0)
        student = MLP(input_dim=6, num_classes=3, hidden=(8, 8), rng=0)
        with pytest.raises(ValueError):
            transfer_parameters(teacher, student, 0.5)

    def test_batchnorm_buffers_travel_with_module(self):
        teacher = ResNetCIFAR(depth=8, num_classes=3, base_width=4, rng=0)
        from repro.tensor import Tensor
        teacher.train()
        teacher(np.random.default_rng(0).normal(size=(8, 3, 8, 8)))
        student = ResNetCIFAR(depth=8, num_classes=3, base_width=4, rng=1)
        transfer_parameters(teacher, student, 1.0, rng=0)
        teacher_bn = [m for m in teacher.modules() if hasattr(m, "_buffers")][0]
        student_bn = [m for m in student.modules() if hasattr(m, "_buffers")][0]
        np.testing.assert_array_equal(teacher_bn._buffers["running_mean"],
                                      student_bn._buffers["running_mean"])

    def test_monotone_in_beta(self):
        teacher, _ = make_pair()
        counts = []
        for beta in (0.0, 0.3, 0.6, 1.0):
            _, student = make_pair()
            counts.append(transfer_parameters(teacher, student, beta, rng=0))
        assert counts == sorted(counts)


class TestSelectBeta:
    def test_runs_and_returns_valid_beta(self, tiny_image_split, mlp_factory):
        selection = select_beta(
            mlp_factory, tiny_image_split.train, n_folds=4,
            betas=(1.0, 0.5), tolerance=0.5,  # generous: picks quickly
            teacher_epochs=1, probe_epochs=1, lr=0.05, batch_size=32, rng=0)
        assert 0.0 <= selection.beta <= 1.0
        assert len(selection.probes) >= 1
        probe = selection.probes[0]
        assert 0.0 <= probe.accuracy_seen_fold <= 1.0
        assert 0.0 <= probe.accuracy_unseen_fold <= 1.0

    def test_gap_definition(self):
        from repro.core.transfer import BetaProbeResult
        probe = BetaProbeResult(beta=0.5, accuracy_seen_fold=0.8,
                                accuracy_unseen_fold=0.7)
        assert probe.gap == pytest.approx(0.1)
