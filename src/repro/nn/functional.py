"""Differentiable layer primitives implemented as fused autograd ops.

Convolution and pooling are single registry ops (rather than compositions
of Tensor primitives) because they dominate training time; their backward
kernels are hand-derived and covered by finite-difference tests.  The
kernels live in :mod:`repro.ops.conv`: the convolutions take ``padding``
themselves (no separate pad op or graph node) and reuse pooled im2col
workspaces (:mod:`repro.ops.workspace`), so in training the hot
patch-matrix allocation is made once per shape rather than once per
step.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.tensor import Tensor, apply


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2D convolution over NCHW input with an (F, C, KH, KW) kernel,
    zero-padded by ``padding`` on each side."""
    c = x.shape[1]
    c_w = weight.shape[1]
    if c != c_w:
        raise ValueError(f"channel mismatch: input has {c}, kernel expects {c_w}")
    inputs = (x, weight) if bias is None else (x, weight, bias)
    return apply("conv2d", inputs, stride=stride, padding=padding)


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """1D convolution over (N, C, L) input — the TextCNN workhorse —
    zero-padded by ``padding`` on each side."""
    c = x.shape[1]
    c_w = weight.shape[1]
    if c != c_w:
        raise ValueError(f"channel mismatch: input has {c}, kernel expects {c_w}")
    inputs = (x, weight) if bias is None else (x, weight, bias)
    return apply("conv1d", inputs, stride=stride, padding=padding)


def max_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over NCHW input."""
    return apply("max_pool2d", (x,), kernel=kernel, stride=stride or kernel)


def avg_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling over NCHW input (ResNet's downsampling shortcut)."""
    return apply("avg_pool2d", (x,), kernel=kernel, stride=stride or kernel)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Global average pooling: (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


def max_over_time(x: Tensor) -> Tensor:
    """Max-over-time pooling for TextCNN: (N, F, L) -> (N, F)."""
    return x.max(axis=2)


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of an embedding matrix; gradients scatter-add back."""
    indices = np.asarray(indices, dtype=np.int64)
    return weight[indices]


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: identity in eval mode."""
    if not training or p <= 0.0:
        return x
    return apply("dropout", (x,), p=p, rng=rng)
