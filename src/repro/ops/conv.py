"""Convolution and pooling kernels with pooled im2col workspaces.

The convolutions own their zero padding, so a padded convolution is one
dispatch and one graph node.  The im2col patch matrix — the hottest
allocation in training — is sized by whether the op is taped
(``ctx.taped``):

* a **taped** forward unfolds the whole batch into one buffer checked out
  of :mod:`repro.ops.workspace`, records it in ``ctx.workspaces`` and keeps
  the patch matrix for the backward; the tensor dispatcher returns the
  buffer to the pool after backward;
* an **untaped** forward (``no_grad``, ``inference_mode``, evaluation,
  serving) keeps nothing, so ``conv2d`` unfolds and multiplies at most
  :data:`_UNTAPED_BLOCK` images at a time, each block into its own
  ``np.empty`` buffer, writing each block's product into its slice of
  the output.  It never touches the pool.

Blocking is bit-identical: numpy runs ``w_mat @ cols`` as one GEMM per
image, so grouping the images changes no GEMM's shape.

``conv2d`` fills its (N, C, KH, KW, OH, OW) patch buffer one of two
ways, chosen from the op's own stride, kernel and padding:

* **Shifted runs** (:func:`_im2col_same`), when ``stride == 1`` and
  ``kh == kw == 2 * padding + 1`` — the same-padded convs of ResNet and
  DenseNet (3×3 with padding 1, 1×1 with padding 0).  The output then has
  the input's width, so tap ``(i, j)`` is the flattened H·W image
  shifted by ``(i - p)·W + (j - p)``, with the columns that wrap across
  a row edge reading zero.  Each image is copied once into a run with
  ``p·W + p`` zeros at both ends; the k taps of each column ``j`` are
  then one copy of N·C·k contiguous H·W runs, made while the columns
  that column's reads wrap onto are zeroed (and restored after).
* **Strided slices** (:func:`_im2col_pooled` on a :func:`_pad` copy),
  for everything else (strided convs, other paddings) and for
  ``conv1d``: each tap copies N·C·OH rows of OW values out of a
  zero-bordered buffer.

Both copy the same values into the same places and write ``+0.0``
(what ``np.zeros`` gives) wherever the window hangs over the border, so
the patch matrix is byte for byte the same; the GEMM, ``ctx`` and the
backward do not know which path ran.  The backward folds the patch
gradient over the padded shape and slices the interior out.
"""

from __future__ import annotations

import numpy as np

from repro.ops import workspace
from repro.ops.registry import register

# An untaped conv2d unfolds and multiplies at most this many images at a
# time.  It is the training batch of every scenario, so evaluation's
# patch matrix is no larger than a training step's: 0.9 MB at ResNet's
# first stage (32 × 8·3·3 × 10·10 float32), where one 256-row evaluation
# chunk unfolded whole took 7.4 MB.
_UNTAPED_BLOCK = 32


def _conv_output_size(size: int, kernel: int, stride: int) -> int:
    return (size - kernel) // stride + 1


def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad both sides of each spatial axis of an (N, C, ...) array."""
    if not padding:
        return x
    padded = np.zeros(x.shape[:2] + tuple(size + 2 * padding
                                          for size in x.shape[2:]),
                      dtype=x.dtype)
    padded[_interior(x.ndim, padding)] = x
    return padded


def _interior(ndim: int, padding: int) -> tuple:
    """Index of the unpadded region of a :func:`_pad` result."""
    return (slice(None), slice(None)) + \
        (slice(padding, -padding),) * (ndim - 2)


def _patch_buffer(shape: tuple, dtype, taped: bool = False) -> np.ndarray:
    """A patch buffer: pooled in a taped forward, the caller's own if not.

    Only a taped forward's buffer comes back to the pool, after its
    backward; an untaped forward taking one would pop a training buffer
    of the same shape and drop it.
    """
    if taped:
        return workspace.acquire(shape, dtype)
    return np.empty(shape, dtype=dtype)


def _im2col_pooled(x: np.ndarray, kh: int, kw: int, stride: int,
                   taped: bool = False):
    """Unfold (N, C, H, W) into (N, C*kh*kw, L) using a :func:`_patch_buffer`.

    Returns ``(cols, buffer)`` where ``cols`` is a reshaped view of
    ``buffer``; a taped caller owns the buffer until it is released.
    """
    n, c, h, w = x.shape
    out_h = _conv_output_size(h, kh, stride)
    out_w = _conv_output_size(w, kw, stride)
    buffer = _patch_buffer((n, c, kh, kw, out_h, out_w), x.dtype, taped)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            buffer[:, :, i, j] = x[:, :, i:i_max:stride, j:j_max:stride]
    return buffer.reshape(n, c * kh * kw, out_h * out_w), buffer


def _im2col_same(x: np.ndarray, k: int, taped: bool = False):
    """Unfold (N, C, H, W) for a stride-1 k×k conv padded by ``k // 2``.

    The result equals ``_im2col_pooled(_pad(x, k // 2), k, k, 1)`` bit
    for bit, without the padded copy: every tap is one shifted copy of
    the flattened images (see the module docstring).
    """
    n, c, h, w = x.shape
    p = k // 2
    hw = h * w
    edge = p * w + p
    buffer = _patch_buffer((n, c, k, k, h, w), x.dtype, taped)
    taps = buffer.reshape(n * c, k, k, hw)
    images = x.reshape(n * c, h, w)
    flat = images.reshape(n * c, hw)
    if edge:
        flat = np.zeros((n * c, hw + 2 * edge), dtype=x.dtype)
        flat[:, edge:edge + hw] = images.reshape(n * c, hw)
    rows = flat[:, edge:edge + hw].reshape(n * c, h, w)
    row_stride, step = flat.strides
    for j in range(k):
        # Tap column j reads |j - p| columns past a row's edge: the
        # columns those reads wrap onto are zero while its taps copy.
        wrap = slice(max(w - (p - j), 0), None) if j < p \
            else slice(0, j - p)
        if j != p:
            rows[:, :, wrap] = 0
        # Taps (0..k-1, j) start at j, j + W, ..., j + (k - 1)·W, so they
        # are one strided view; as j <= 2p its last read, at
        # j + (k - 1)·W + H·W - 1, stays inside the H·W + 2·edge run.
        taps[:, :, j] = np.lib.stride_tricks.as_strided(
            flat[:, j:], (n * c, k, hw), (row_stride, w * step, step))
        if j != p:
            rows[:, :, wrap] = images[:, :, wrap]
    return buffer.reshape(n, c * k * k, hw), buffer


def _col2im(cols, x_shape, kh, kw, stride):
    """Fold patch columns back onto the input, summing overlaps.

    One transposing copy puts the columns in a (KH, KW, OH, OW, N, C)
    layout; the shifted adds then run over an (H, W, N, C) image, where
    each one covers long contiguous runs of N*C values instead of short
    strided rows.  Every element still receives the same additions in the
    same (i, j) order, so the result is bit-identical to folding in NCHW.
    Returns an (N, C, H, W) view.
    """
    n, c, h, w = x_shape
    out_h = _conv_output_size(h, kh, stride)
    out_w = _conv_output_size(w, kw, stride)
    cols = np.ascontiguousarray(
        cols.reshape(n, c, kh, kw, out_h, out_w).transpose(2, 3, 4, 5, 0, 1))
    x = np.zeros((h, w, n, c), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            x[i:i_max:stride, j:j_max:stride] += cols[i, j]
    return x.transpose(2, 3, 0, 1)


def _unfold(x, kh, kw, stride, padding, taped):
    """``(cols, buffer)`` of ``x`` for a conv2d: shifted runs or slices."""
    if stride == 1 and kh == kw == 2 * padding + 1:
        return _im2col_same(x, kh, taped)              # (N, C*KH*KW, L)
    return _im2col_pooled(_pad(x, padding), kh, kw, stride, taped)


def _conv2d_forward(ctx, x, weight, *rest, stride, padding):
    bias = rest[0] if rest else None
    f, _, kh, kw = weight.shape
    n, c, h, w = x.shape
    h, w = h + 2 * padding, w + 2 * padding            # the padded shape
    out_h = _conv_output_size(h, kh, stride)
    out_w = _conv_output_size(w, kw, stride)
    w_mat = weight.reshape(f, -1)                      # (F, C*KH*KW)

    if ctx.taped:
        cols, buffer = _unfold(x, kh, kw, stride, padding, True)
        out = w_mat @ cols                             # (N, F, L) via BLAS
        ctx.workspaces = (buffer,)
        ctx.cols = cols
        ctx.w_mat = w_mat
        ctx.weight_shape = weight.shape
        ctx.x_shape = (n, c, h, w)
        ctx.dims = (n, f, out_h, out_w, kh, kw, stride)
        ctx.padding = padding
    else:
        out = np.empty((n, f, out_h * out_w),
                       dtype=np.result_type(w_mat.dtype, x.dtype))
        for start in range(0, n, _UNTAPED_BLOCK):
            block = slice(start, start + _UNTAPED_BLOCK)
            cols = _unfold(x[block], kh, kw, stride, padding, False)[0]
            np.matmul(w_mat, cols, out=out[block])
            del cols                     # before the next block's unfold
    if bias is not None:
        out += bias.reshape(1, f, 1)
    return out.reshape(n, f, out_h, out_w)


def _conv2d_backward(ctx, g):
    n, f, out_h, out_w, kh, kw, stride = ctx.dims
    needs = ctx.needs
    g_mat = np.ascontiguousarray(g.reshape(n, f, out_h * out_w))
    grad_b = g_mat.sum(axis=(0, 2)) if len(needs) > 2 and needs[2] else None
    grad_w = None
    if needs[1]:
        grad_w = (g_mat @ ctx.cols.transpose(0, 2, 1)).sum(axis=0)
        grad_w = grad_w.reshape(ctx.weight_shape)
    grad_x = None
    if needs[0]:
        grad_cols = ctx.w_mat.T @ g_mat
        grad_x = _col2im(grad_cols, ctx.x_shape, kh, kw, stride)
        if ctx.padding:
            grad_x = grad_x[_interior(4, ctx.padding)]
    if len(needs) > 2:
        return (grad_x, grad_w, grad_b)
    return (grad_x, grad_w)


def _conv1d_forward(ctx, x, weight, *rest, stride, padding):
    bias = rest[0] if rest else None
    x = _pad(x, padding)
    n, c, length = x.shape
    f, _, k = weight.shape
    out_l = _conv_output_size(length, k, stride)

    buffer = _patch_buffer((n, c, k, out_l), x.dtype, ctx.taped)
    for i in range(k):
        buffer[:, :, i] = x[:, :, i:i + stride * out_l:stride]
    cols = buffer.reshape(n, c * k, out_l)
    w_mat = weight.reshape(f, -1)
    out = w_mat @ cols                                 # (N, F, L) via BLAS
    if bias is not None:
        out = out + bias.reshape(1, f, 1)

    ctx.workspaces = (buffer,)
    ctx.cols = cols
    ctx.w_mat = w_mat
    ctx.weight_shape = weight.shape
    ctx.dims = (n, c, length, f, k, out_l, stride)
    ctx.padding = padding
    return out


def _conv1d_backward(ctx, g):
    n, c, length, f, k, out_l, stride = ctx.dims
    needs = ctx.needs
    g = np.ascontiguousarray(g)
    grad_b = g.sum(axis=(0, 2)) if len(needs) > 2 and needs[2] else None
    grad_w = None
    if needs[1]:
        grad_w = (g @ ctx.cols.transpose(0, 2, 1)).sum(axis=0)
        grad_w = grad_w.reshape(ctx.weight_shape)
    grad_x = None
    if needs[0]:
        grad_cols = (ctx.w_mat.T @ g).reshape(n, c, k, out_l)
        grad_x = np.zeros((n, c, length), dtype=g.dtype)
        for i in range(k):
            grad_x[:, :, i:i + stride * out_l:stride] += grad_cols[:, :, i]
        if ctx.padding:
            grad_x = grad_x[_interior(3, ctx.padding)]
    if len(needs) > 2:
        return (grad_x, grad_w, grad_b)
    return (grad_x, grad_w)


def _max_pool2d_forward(ctx, x, kernel, stride):
    n, c, h, w = x.shape
    out_h = _conv_output_size(h, kernel, stride)
    out_w = _conv_output_size(w, kernel, stride)

    # Backward needs only the argmax and shapes, so the patch buffer is a
    # one-shot allocation, not a pooled workspace.
    cols = np.empty((n, c, kernel * kernel, out_h, out_w), dtype=x.dtype)
    for i in range(kernel):
        for j in range(kernel):
            cols[:, :, i * kernel + j] = x[
                :, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride
            ]
    argmax = cols.argmax(axis=2)
    out = np.take_along_axis(cols, argmax[:, :, None], axis=2)[:, :, 0]

    ctx.argmax = argmax
    ctx.cols_shape = (n, c, kernel * kernel, out_h, out_w)
    ctx.x_shape = x.shape
    ctx.dtype = x.dtype
    ctx.dims = (kernel, stride, out_h, out_w)
    return out


def _max_pool2d_backward(ctx, g):
    kernel, stride, out_h, out_w = ctx.dims
    grad_cols = np.zeros(ctx.cols_shape, dtype=ctx.dtype)
    np.put_along_axis(grad_cols, ctx.argmax[:, :, None], g[:, :, None], axis=2)
    grad_x = np.zeros(ctx.x_shape, dtype=ctx.dtype)
    for i in range(kernel):
        for j in range(kernel):
            grad_x[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride] += (
                grad_cols[:, :, i * kernel + j]
            )
    return (grad_x,)


def _avg_pool2d_forward(ctx, x, kernel, stride):
    n, c, h, w = x.shape
    out_h = _conv_output_size(h, kernel, stride)
    out_w = _conv_output_size(w, kernel, stride)
    scale = 1.0 / (kernel * kernel)

    out = np.zeros((n, c, out_h, out_w), dtype=x.dtype)
    for i in range(kernel):
        for j in range(kernel):
            out += x[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride]
    out *= scale

    ctx.x_shape = x.shape
    ctx.dtype = x.dtype
    ctx.dims = (kernel, stride, out_h, out_w, scale)
    return out


def _avg_pool2d_backward(ctx, g):
    kernel, stride, out_h, out_w, scale = ctx.dims
    grad_x = np.zeros(ctx.x_shape, dtype=ctx.dtype)
    scaled = g * scale
    for i in range(kernel):
        for j in range(kernel):
            grad_x[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride] += scaled
    return (grad_x,)


register("conv2d", _conv2d_forward, _conv2d_backward)
register("conv1d", _conv1d_forward, _conv1d_backward)
register("max_pool2d", _max_pool2d_forward, _max_pool2d_backward)
register("avg_pool2d", _avg_pool2d_forward, _avg_pool2d_backward)
