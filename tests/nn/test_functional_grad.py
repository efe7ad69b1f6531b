"""Gradient checks for the fused conv/pool primitives."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.tensor import Tensor, gradcheck

RNG = np.random.default_rng(11)


def t(shape, scale=0.5):
    return Tensor(RNG.normal(size=shape) * scale, requires_grad=True)


class TestConv2dGrad:
    def test_basic(self):
        assert gradcheck(lambda a, w, b: F.conv2d(a, w, b),
                         [t((2, 2, 5, 5)), t((3, 2, 3, 3)), t((3,))])

    def test_with_padding(self):
        assert gradcheck(lambda a, w, b: F.conv2d(a, w, b, padding=1),
                         [t((2, 2, 4, 4)), t((3, 2, 3, 3)), t((3,))])

    def test_with_stride(self):
        assert gradcheck(lambda a, w, b: F.conv2d(a, w, b, stride=2, padding=1),
                         [t((1, 2, 6, 6)), t((2, 2, 3, 3)), t((2,))])

    def test_wide_padding(self):
        # Padding wider than half the input: every output cell touches zeros,
        # so the backward's un-pad slice is exercised across the full width.
        assert gradcheck(lambda a, w: F.conv2d(a, w, None, padding=3),
                         [t((1, 1, 3, 3)), t((2, 1, 3, 3))])

    def test_no_bias(self):
        assert gradcheck(lambda a, w: F.conv2d(a, w, None, padding=1),
                         [t((1, 3, 4, 4)), t((2, 3, 3, 3))])

    def test_1x1_kernel(self):
        assert gradcheck(lambda a, w, b: F.conv2d(a, w, b),
                         [t((2, 3, 3, 3)), t((4, 3, 1, 1)), t((4,))])


class TestConv1dGrad:
    def test_basic(self):
        assert gradcheck(lambda a, w, b: F.conv1d(a, w, b),
                         [t((2, 3, 8)), t((4, 3, 3)), t((4,))])

    def test_with_padding(self):
        assert gradcheck(lambda a, w, b: F.conv1d(a, w, b, padding=2),
                         [t((2, 2, 6)), t((3, 2, 3)), t((3,))])

    def test_with_stride(self):
        assert gradcheck(lambda a, w: F.conv1d(a, w, None, stride=2),
                         [t((1, 2, 9)), t((2, 2, 3))])

    def test_with_stride_and_padding(self):
        # stride > 1 leaves trailing padded columns unconsumed; their
        # gradient must come back exactly zero through the unpadding slice.
        assert gradcheck(lambda a, w, b: F.conv1d(a, w, b, stride=2, padding=2),
                         [t((2, 2, 7)), t((3, 2, 3)), t((3,))])

    def test_wide_padding(self):
        assert gradcheck(lambda a, w: F.conv1d(a, w, None, padding=4),
                         [t((1, 2, 3)), t((2, 2, 3))])

    def test_padding_backward_is_unpadded_slice(self):
        # Direct check of the hand-derived pad path: d(sum(conv))/dx for a
        # kernel of ones counts how many output windows each input cell
        # feeds, which for full padding is the same for every cell.
        x = Tensor(RNG.normal(size=(1, 1, 5)), requires_grad=True)
        w = Tensor(np.ones((1, 1, 3)))
        F.conv1d(x, w, padding=2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 5), 3.0))


@pytest.mark.parametrize("stride", [1, 2], ids=["stride1", "stride2"])
@pytest.mark.parametrize("padding", [1, 2], ids=["pad1", "pad2"])
class TestPaddedConvGrad:
    """Float64 gradchecks of the zero padding the conv kernels apply."""

    def test_conv1d(self, padding, stride):
        assert gradcheck(
            lambda a, w, b: F.conv1d(a, w, b, stride=stride, padding=padding),
            [t((2, 2, 5)), t((3, 2, 3)), t((3,))])

    def test_conv2d(self, padding, stride):
        assert gradcheck(
            lambda a, w, b: F.conv2d(a, w, b, stride=stride, padding=padding),
            [t((2, 2, 5, 5)), t((3, 2, 3, 3)), t((3,))])


class TestPoolingGrad:
    def test_max_pool(self):
        # Use well-separated values so the argmax is stable under eps.
        data = np.arange(32.0).reshape(1, 2, 4, 4)
        RNG.shuffle(data.reshape(-1))
        assert gradcheck(lambda a: F.max_pool2d(a, 2),
                         [Tensor(data, requires_grad=True)])

    def test_avg_pool(self):
        assert gradcheck(lambda a: F.avg_pool2d(a, 2), [t((2, 2, 4, 4))])

    def test_avg_pool_stride(self):
        assert gradcheck(lambda a: F.avg_pool2d(a, 2, stride=1),
                         [t((1, 2, 4, 4))])

    def test_global_avg_pool(self):
        assert gradcheck(lambda a: F.global_avg_pool2d(a), [t((2, 3, 4, 4))])

    def test_max_over_time(self):
        data = np.arange(24.0).reshape(2, 3, 4)
        RNG.shuffle(data.reshape(-1))
        assert gradcheck(lambda a: F.max_over_time(a),
                         [Tensor(data, requires_grad=True)])


class TestEmbeddingGrad:
    def test_lookup(self):
        weight = t((10, 4))
        ids = np.array([[0, 3, 3], [7, 1, 0]])
        assert gradcheck(lambda w: F.embedding_lookup(w, ids), [weight])
