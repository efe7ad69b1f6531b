"""Finite-difference verification of every differentiable op."""

import numpy as np
import pytest

from repro.tensor import Tensor, gradcheck
from repro.tensor.ops import (
    concatenate,
    l2norm,
    log_softmax,
    softmax,
    stack,
    where,
)

RNG = np.random.default_rng(42)


def t(shape, scale=1.0, positive=False):
    data = RNG.normal(size=shape) * scale
    if positive:
        data = np.abs(data) + 0.5
    return Tensor(data, requires_grad=True)


class TestArithmeticGrads:
    def test_add(self):
        assert gradcheck(lambda a, b: a + b, [t((3, 4)), t((3, 4))])

    def test_add_broadcast(self):
        assert gradcheck(lambda a, b: a + b, [t((3, 4)), t((4,))])

    def test_sub(self):
        assert gradcheck(lambda a, b: a - b, [t((2, 3)), t((2, 3))])

    def test_mul(self):
        assert gradcheck(lambda a, b: a * b, [t((3, 2)), t((3, 2))])

    def test_mul_broadcast(self):
        assert gradcheck(lambda a, b: a * b, [t((3, 4)), t((3, 1))])

    def test_div(self):
        assert gradcheck(lambda a, b: a / b, [t((2, 2)), t((2, 2), positive=True)])

    def test_neg(self):
        assert gradcheck(lambda a: -a, [t((5,))])

    def test_pow(self):
        assert gradcheck(lambda a: a ** 3, [t((4,))])

    def test_sqrt(self):
        assert gradcheck(lambda a: a.sqrt(), [t((4,), positive=True)])

    def test_matmul(self):
        assert gradcheck(lambda a, b: a @ b, [t((3, 4)), t((4, 2))])

    def test_matmul_batched(self):
        assert gradcheck(lambda a, b: a @ b, [t((2, 3, 4)), t((2, 4, 2))])


class TestNonlinearityGrads:
    def test_exp(self):
        assert gradcheck(lambda a: a.exp(), [t((3,), scale=0.5)])

    def test_log(self):
        assert gradcheck(lambda a: a.log(), [t((3,), positive=True)])

    def test_tanh(self):
        assert gradcheck(lambda a: a.tanh(), [t((4,))])

    def test_sigmoid(self):
        assert gradcheck(lambda a: a.sigmoid(), [t((4,))])

    def test_relu_away_from_kink(self):
        data = RNG.normal(size=(10,))
        data[np.abs(data) < 0.1] = 0.5
        assert gradcheck(lambda a: a.relu(), [Tensor(data, requires_grad=True)])


class TestReductionGrads:
    def test_sum_all(self):
        assert gradcheck(lambda a: a.sum(), [t((3, 4))])

    def test_sum_axis(self):
        assert gradcheck(lambda a: a.sum(axis=0), [t((3, 4))])

    def test_sum_negative_axis(self):
        assert gradcheck(lambda a: a.sum(axis=-1), [t((3, 4))])

    def test_mean(self):
        assert gradcheck(lambda a: a.mean(axis=1), [t((3, 4))])

    def test_max(self):
        # Distinct values so the max is differentiable.
        data = np.arange(12.0).reshape(3, 4)
        RNG.shuffle(data.reshape(-1))
        assert gradcheck(lambda a: a.max(axis=1),
                         [Tensor(data, requires_grad=True)])


class TestStructuralGrads:
    def test_reshape(self):
        assert gradcheck(lambda a: a.reshape(6, 2), [t((3, 4))])

    def test_transpose(self):
        assert gradcheck(lambda a: a.transpose(1, 0), [t((3, 4))])

    def test_getitem_slice(self):
        assert gradcheck(lambda a: a[1:3], [t((5, 2))])

    def test_concatenate(self):
        assert gradcheck(lambda a, b: concatenate([a, b], axis=1),
                         [t((2, 3)), t((2, 2))])

    def test_stack(self):
        assert gradcheck(lambda a, b: stack([a, b], axis=0),
                         [t((2, 3)), t((2, 3))])

    def test_where(self):
        condition = RNG.random((3, 3)) > 0.5
        assert gradcheck(lambda a, b: where(condition, a, b),
                         [t((3, 3)), t((3, 3))])


class TestSoftmaxFamilyGrads:
    def test_softmax(self):
        assert gradcheck(lambda a: softmax(a, axis=1), [t((3, 5))])

    def test_softmax_axis0(self):
        assert gradcheck(lambda a: softmax(a, axis=0), [t((4, 2))])

    def test_log_softmax(self):
        assert gradcheck(lambda a: log_softmax(a, axis=1), [t((3, 5))])

    def test_l2norm(self):
        assert gradcheck(lambda a: l2norm(a, axis=1), [t((4, 6))])

    def test_l2norm_finite_gradient_at_zero(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        l2norm(x, axis=1).sum().backward()
        assert np.all(np.isfinite(x.grad))


class TestCompositeGrads:
    def test_mlp_like_composition(self):
        w1, w2 = t((4, 8), scale=0.5), t((8, 3), scale=0.5)
        x = t((5, 4))

        def network(x_in, a, b):
            return softmax((x_in @ a).relu() @ b, axis=1)

        assert gradcheck(network, [x, w1, w2])

    def test_residual_composition(self):
        x = t((3, 4))
        w = t((4, 4), scale=0.3)
        assert gradcheck(lambda a, b: ((a @ b).relu() + a).sum(axis=1), [x, w])
