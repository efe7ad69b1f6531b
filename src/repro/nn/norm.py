"""Batch normalisation (1D and 2D), with running statistics buffers.

Both layers dispatch the single ``batch_norm`` registry op
(:mod:`repro.ops.norm`), whose hand-written backward is covered by
finite-difference and bitwise-parity tests.  Running mean/variance live in
``_buffers`` so they ride along with ``state_dict``/``load_state_dict``
(snapshots must capture them or evaluation-time accuracy collapses); the
op rebinds them in training mode.  Inside
:func:`repro.tensor.inference_mode` the layers normalise with the running
statistics whatever their ``training`` flag says.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter
from repro.ops.modes import fastpath_enabled
from repro.tensor import Tensor, apply, default_dtype


class _BatchNorm(Module):
    def __init__(self, num_features: int, momentum: float = 0.9, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features, dtype=default_dtype()))
        self.beta = Parameter(np.zeros(num_features, dtype=default_dtype()))
        object.__setattr__(self, "_buffers", {
            "running_mean": np.zeros(num_features, dtype=default_dtype()),
            "running_var": np.ones(num_features, dtype=default_dtype()),
        })

    def reinitialize(self, rng: np.random.Generator) -> None:
        self.gamma.data[...] = 1.0
        self.beta.data[...] = 0.0
        self._buffers["running_mean"][...] = 0.0
        self._buffers["running_var"][...] = 1.0

    def _reduce_axes(self):
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        return apply("batch_norm", (x, x, self.gamma, self.beta),
                     axes=self._reduce_axes(), eps=self.eps,
                     momentum=self.momentum, running=self._buffers,
                     training=self.training and not fastpath_enabled())


class BatchNorm1d(_BatchNorm):
    """Normalise over the batch axis of (N, F) activations."""

    def _reduce_axes(self):
        return (0,)


class BatchNorm2d(_BatchNorm):
    """Normalise over batch and spatial axes of (N, C, H, W) activations."""

    def _reduce_axes(self):
        return (0, 2, 3)
