"""Concrete layers: Linear, Conv1d/2d, pooling, activation, dropout, embedding.

Every layer takes an explicit RNG for weight initialisation and exposes a
``reinitialize(rng)`` method.  ``reinitialize`` is what EDDE's knowledge
transfer uses on the upper, task-specific layers of a freshly hatched base
model (paper Fig. 3: transfer the first β fraction, re-draw the rest).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.ops.modes import fastpath_enabled
from repro.tensor import Tensor, apply
from repro.utils.rng import RngLike, new_rng


class Linear(Module):
    """Fully connected layer: ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: RngLike = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self._has_bias = bias
        self.weight = Parameter(init.zeros((out_features, in_features)))
        self.bias = Parameter(init.zeros(out_features)) if bias else None
        self.reinitialize(new_rng(rng))

    def reinitialize(self, rng: np.random.Generator) -> None:
        self.weight.data[...] = init.he_normal(self.weight.shape, self.in_features, rng)
        if self.bias is not None:
            self.bias.data[...] = 0.0

    def forward(self, x: Tensor) -> Tensor:
        # One registry op, bit-identical to ``x @ W.transpose() + b``.
        inputs = (x, self.weight) if self.bias is None else \
            (x, self.weight, self.bias)
        return apply("linear", inputs)


class Conv2d(Module):
    """3x3-style 2D convolution (square kernels, same stride both dims)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: RngLike = None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.zeros(shape))
        self.bias = Parameter(init.zeros(out_channels)) if bias else None
        self.reinitialize(new_rng(rng))

    def reinitialize(self, rng: np.random.Generator) -> None:
        fan_in = self.in_channels * self.kernel_size ** 2
        self.weight.data[...] = init.he_normal(self.weight.shape, fan_in, rng)
        if self.bias is not None:
            self.bias.data[...] = 0.0

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class Conv1d(Module):
    """1D convolution over (N, C, L) sequences (TextCNN filters)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: RngLike = None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(init.zeros((out_channels, in_channels, kernel_size)))
        self.bias = Parameter(init.zeros(out_channels)) if bias else None
        self.reinitialize(new_rng(rng))

    def reinitialize(self, rng: np.random.Generator) -> None:
        fan_in = self.in_channels * self.kernel_size
        self.weight.data[...] = init.he_normal(self.weight.shape, fan_in, rng)
        if self.bias is not None:
            self.bias.data[...] = 0.0

    def forward(self, x: Tensor) -> Tensor:
        return F.conv1d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class Embedding(Module):
    """Token-id to dense-vector lookup table."""

    def __init__(self, num_embeddings: int, embedding_dim: int, rng: RngLike = None):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.zeros((num_embeddings, embedding_dim)))
        self.reinitialize(new_rng(rng))

    def reinitialize(self, rng: np.random.Generator) -> None:
        self.weight.data[...] = init.glorot_uniform(
            self.weight.shape, self.num_embeddings, self.embedding_dim, rng
        )

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding_lookup(self.weight, indices)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Flatten(Module):
    """Collapse all non-batch dimensions."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Dropout(Module):
    """Inverted dropout with its own reproducible RNG stream; identity in
    eval mode and inside :func:`repro.tensor.inference_mode`."""

    def __init__(self, p: float = 0.5, rng: RngLike = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = new_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self._rng,
                         self.training and not fastpath_enabled())


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self._layers = []
        for index, layer in enumerate(layers):
            self.add_module(str(index), layer)
            self._layers.append(layer)

    def __iter__(self):
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)

    def forward(self, x):
        for layer in self._layers:
            x = layer(x)
        return x
