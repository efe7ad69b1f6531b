"""The ``batch_norm`` op and the conv kernels: bitwise parity, then grads.

``batch_norm`` replaces a composed chain of primitive ops, the conv
kernels took over the zero padding a separate pad op used to do,
``_col2im`` folds in an (H, W, N, C) layout, and stride-1 same-padded
convs unfold by shifted flat copies instead of padding first.  Each
claims to repeat the old float operations in the old order, so — as for
the fused losses — these tests compare exact bits against the code they
replaced (kept here or in ``repro.ops.conv`` as references), then
gradcheck the new paths in float64.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.ops import conv as conv_ops
from repro.ops.conv import _col2im, _conv_output_size
from repro.tensor import Tensor, apply, dtype_scope, gradcheck
from repro.tensor.ops import concatenate

RNG = np.random.default_rng(23)

DTYPES = [np.float32, np.float64]


# ----------------------------------------------------------------------
# batch_norm
# ----------------------------------------------------------------------
def _chain_batch_norm(bn, x):
    """The composed BatchNorm chain the ``batch_norm`` op replaced."""
    axes = bn._reduce_axes()
    shape = tuple(1 if axis in axes else size
                  for axis, size in enumerate(x.shape))
    buffers = bn._buffers
    if bn.training:
        batch_mean = x.data.mean(axis=axes)
        batch_var = x.data.var(axis=axes)
        m = bn.momentum
        buffers["running_mean"] = (m * buffers["running_mean"]
                                   + (1 - m) * batch_mean)
        buffers["running_var"] = (m * buffers["running_var"]
                                  + (1 - m) * batch_var)
        mean = x.mean(axis=axes, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=axes, keepdims=True)
        x_hat = centered / ((var + bn.eps) ** 0.5)
    else:
        mean = buffers["running_mean"].reshape(shape)
        std = np.sqrt(buffers["running_var"].reshape(shape) + bn.eps)
        x_hat = (x - Tensor(mean)) / Tensor(std)
    return x_hat * bn.gamma.reshape(shape) + bn.beta.reshape(shape)


def _make_bn(shape, dtype):
    bn = (nn.BatchNorm2d if len(shape) == 4 else nn.BatchNorm1d)(shape[1])
    bn.gamma.data[...] = RNG.uniform(0.5, 1.5, size=shape[1])
    bn.beta.data[...] = RNG.normal(size=shape[1])
    bn._buffers["running_mean"] = RNG.normal(size=shape[1]).astype(dtype)
    bn._buffers["running_var"] = RNG.uniform(0.5, 2.0,
                                             size=shape[1]).astype(dtype)
    return bn


def _run(forward, bn, x_data, upstream, concat):
    """Output, grads and running buffers of one forward/backward.

    ``concat`` also feeds the input to a concatenation, as DenseNet does,
    so the input's gradient has a third contribution to order against.
    """
    bn.zero_grad()
    producer = Tensor(x_data.copy(), requires_grad=True)
    x = producer * 1.0          # a non-leaf input, like a conv output
    out = forward(bn, x)
    if concat:
        out = concatenate([x, out], axis=1)
    out.backward(upstream)
    return [out.data, producer.grad, bn.gamma.grad, bn.beta.grad,
            bn._buffers["running_mean"], bn._buffers["running_var"]]


# The train-resnet fit's three stages (batch 32, widths 8/16/32), the
# 1x1-spatial / batch-2 corner, and BatchNorm1d on (N, F).
SHAPES = [(32, 8, 10, 10), (32, 16, 5, 5), (32, 32, 3, 3), (2, 4, 1, 1),
          (16, 5)]


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
@pytest.mark.parametrize("shape", SHAPES,
                         ids=["x".join(map(str, s)) for s in SHAPES])
class TestBatchNormParity:
    @pytest.mark.parametrize("training", [True, False],
                             ids=["train", "eval"])
    @pytest.mark.parametrize("concat", [False, True],
                             ids=["alone", "concat"])
    def test_bitwise_matches_chain(self, shape, dtype, training, concat):
        with dtype_scope(dtype):
            x_data = (RNG.normal(size=shape) * 2.0 + 0.5).astype(dtype)
            out_shape = ((shape[0], 2 * shape[1]) + shape[2:] if concat
                         else shape)
            upstream = RNG.normal(size=out_shape).astype(dtype)
            op_bn = _make_bn(shape, dtype)
            chain_bn = _make_bn(shape, dtype)
            chain_bn.load_state_dict(op_bn.state_dict())
            op_bn.train(training)
            chain_bn.train(training)
            got = _run(lambda bn, x: bn(x), op_bn, x_data, upstream, concat)
            want = _run(_chain_batch_norm, chain_bn, x_data, upstream,
                        concat)
        names = ["output", "x grad", "gamma grad", "beta grad",
                 "running_mean", "running_var"]
        for name, a, b in zip(names, got, want):
            assert a.dtype == b.dtype == dtype, name
            assert np.array_equal(a, b), name

    def test_running_stats_rebound_not_mutated(self, shape, dtype):
        with dtype_scope(dtype):
            bn = _make_bn(shape, dtype)
            before = dict(bn._buffers)
            snapshot = {k: v.copy() for k, v in before.items()}
            bn(Tensor(RNG.normal(size=shape).astype(dtype)))
        for name, array in before.items():
            assert bn._buffers[name] is not array
            assert np.array_equal(array, snapshot[name])


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("shape", [(4, 3, 3, 3), (6, 3)],
                         ids=["2d", "1d"])
def test_batch_norm_gradcheck(shape, training):
    axes = (0, 2, 3) if len(shape) == 4 else (0,)
    running = {"running_mean": RNG.normal(size=shape[1]),
               "running_var": RNG.uniform(0.5, 2.0, size=shape[1])}

    def op(x, gamma, beta):
        return apply("batch_norm", (x, x, gamma, beta), axes=axes, eps=1e-5,
                     momentum=0.9, running=dict(running), training=training)

    assert gradcheck(op, [
        Tensor(RNG.normal(size=shape), requires_grad=True, dtype=np.float64),
        Tensor(RNG.uniform(0.5, 1.5, size=shape[1]), requires_grad=True,
               dtype=np.float64),
        Tensor(RNG.normal(size=shape[1]), requires_grad=True,
               dtype=np.float64),
    ], atol=1e-4)


# ----------------------------------------------------------------------
# col2im and conv padding
# ----------------------------------------------------------------------
def _loop_col2im(cols, x_shape, kh, kw, stride):
    """The NCHW fold ``_col2im`` replaced."""
    n, c, h, w = x_shape
    out_h = _conv_output_size(h, kh, stride)
    out_w = _conv_output_size(w, kw, stride)
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    x = np.zeros(x_shape, dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            x[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j]
    return x


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
@pytest.mark.parametrize("x_shape,kernel,stride", [
    ((32, 8, 12, 12), 3, 1),      # overlapping windows
    ((32, 8, 12, 12), 3, 2),      # strided windows
    ((4, 3, 7, 9), 2, 2),         # non-overlapping, ragged edge
    ((4, 5, 6, 6), 1, 2),         # 1x1 projection shortcut
], ids=["k3s1", "k3s2", "k2s2", "k1s2"])
def test_col2im_matches_loop(x_shape, kernel, stride, dtype):
    n, c, h, w = x_shape
    length = (_conv_output_size(h, kernel, stride)
              * _conv_output_size(w, kernel, stride))
    cols = RNG.normal(size=(n, c * kernel * kernel, length)).astype(dtype)
    got = _col2im(cols, x_shape, kernel, kernel, stride)
    assert got.shape == x_shape
    assert np.array_equal(got, _loop_col2im(cols, x_shape, kernel, kernel,
                                            stride))


def _pad(data, padding):
    width = ((0, 0), (0, 0)) + ((padding, padding),) * (data.ndim - 2)
    return np.pad(data, width)


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
@pytest.mark.parametrize("conv,x_shape,w_shape", [
    (F.conv2d, (8, 3, 6, 6), (4, 3, 3, 3)),
    (F.conv1d, (8, 3, 9), (4, 3, 3)),
    # the train-resnet fit's stride-1 convs, and an eval-sized batch
    (F.conv2d, (32, 3, 10, 10), (8, 3, 3, 3)),
    (F.conv2d, (32, 8, 10, 10), (8, 8, 3, 3)),
    (F.conv2d, (32, 16, 5, 5), (16, 16, 3, 3)),
    (F.conv2d, (32, 32, 3, 3), (32, 32, 3, 3)),
    (F.conv2d, (256, 8, 10, 10), (8, 8, 3, 3)),
    (F.conv2d, (4, 6, 5, 5), (3, 6, 1, 1)),
    (F.conv2d, (4, 3, 6, 6), (4, 3, 5, 5)),
    (F.conv2d, (3, 2, 7, 6), (4, 2, 3, 3)),
], ids=["conv2d", "conv1d", "3to8x10x10", "8x10x10", "16x5x5", "32x3x3",
        "eval256x8x10x10", "1x1", "5x5", "nonsquare"])
@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (1, 2), (1, 0)])
def test_padded_conv_matches_np_pad(conv, x_shape, w_shape, stride, padding,
                                    dtype):
    """Padding inside the kernel == ``np.pad`` first, forward and backward."""
    x_data = RNG.normal(size=x_shape).astype(dtype)
    w_data = RNG.normal(size=w_shape).astype(dtype)

    def run(inner_padding, x_in):
        x = Tensor(x_in, requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        out = conv(x, w, stride=stride, padding=inner_padding)
        out.backward(np.ones_like(out.data))
        return out.data, x.grad, w.grad

    out, x_grad, w_grad = run(padding, x_data.copy())
    ref_out, ref_x_grad, ref_w_grad = run(0, _pad(x_data, padding))
    interior = (slice(None), slice(None)) + \
        (slice(padding, -padding or None),) * (len(x_shape) - 2)
    assert np.array_equal(out, ref_out)
    assert np.array_equal(x_grad, ref_x_grad[interior])
    assert np.array_equal(w_grad, ref_w_grad)


def _same_bits(a, b):
    """Equal values, nan where nan, and the same sign bit everywhere."""
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _padded_slices(x, k, *rest):
    """The strided-slice unfold of a ``_pad`` copy: the reference."""
    return conv_ops._im2col_pooled(conv_ops._pad(x, k // 2), k, k, 1, *rest)


@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
@pytest.mark.parametrize("x_shape,k", [
    ((32, 8, 10, 10), 3),
    ((3, 2, 7, 6), 3),
    ((4, 3, 6, 5), 1),
    ((3, 2, 7, 6), 5),
    ((2, 3, 3, 2), 7),            # the window is wider than the image
], ids=["k3", "k3-nonsquare", "k1", "k5", "k7-wide"])
def test_shifted_unfold_matches_padded_slices(x_shape, k, dtype,
                                              monkeypatch):
    """The flat shifted-copy unfold == ``_pad`` + strided slices, bit for
    bit — signed zeros, infinities and nans included — and so are the
    conv's forward and both gradients."""
    x_data = RNG.normal(size=x_shape).astype(dtype)
    flat = x_data.reshape(-1)
    picks = RNG.choice(flat.size, size=flat.size // 3, replace=False)
    flat[picks] = RNG.choice([0.0, -0.0, np.inf, -np.inf, np.nan],
                             size=picks.size)
    w_data = RNG.normal(size=(4, x_shape[1], k, k)).astype(dtype)
    upstream = RNG.normal(size=(x_shape[0], 4) + x_shape[2:]).astype(dtype)

    got, _ = conv_ops._im2col_same(x_data, k)
    want, _ = _padded_slices(x_data, k)
    assert _same_bits(got, want)

    def run():
        x = Tensor(x_data.copy(), requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        out = F.conv2d(x, w, stride=1, padding=k // 2)
        out.backward(upstream)
        return out.data, x.grad, w.grad

    with np.errstate(invalid="ignore"):       # inf - inf in the GEMMs
        shifted = run()
        monkeypatch.setattr(conv_ops, "_im2col_same", _padded_slices)
        reference = run()
    for name, a, b in zip(["output", "x grad", "w grad"], shifted,
                          reference):
        assert _same_bits(a, b), name


@pytest.mark.parametrize("kernel,stride,padding,shifted", [
    (3, 1, 1, True), (1, 1, 0, True), (5, 1, 2, True),
    (3, 2, 1, False), (1, 2, 0, False), (3, 1, 0, False), (3, 1, 2, False),
    (1, 1, 1, False),
])
def test_unfold_choice_follows_stride_kernel_padding(kernel, stride, padding,
                                                     shifted, monkeypatch):
    calls = []

    def spy(x, k, *rest):
        calls.append(k)
        return _padded_slices(x, k, *rest)

    monkeypatch.setattr(conv_ops, "_im2col_same", spy)
    F.conv2d(Tensor(RNG.normal(size=(2, 3, 6, 6))),
             Tensor(RNG.normal(size=(4, 3, kernel, kernel))),
             stride=stride, padding=padding)
    assert calls == ([kernel] if shifted else [])
