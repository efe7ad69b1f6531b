"""Free-function differentiable operations on :class:`~repro.tensor.Tensor`.

These complement the method-style ops on ``Tensor`` with the structural and
normalisation operations the paper's models need:

* ``concatenate`` — DenseNet's dense connectivity.
* ``softmax`` / ``log_softmax`` — soft targets (the paper's `h_t(x)`).
* ``l2norm`` — per-sample ``||h_t(x) - H_{t-1}(x)||_2``, the penalty in the
  diversity-driven loss (paper Eq. 9/10) whose gradient is Eq. 11.

All of them are thin wrappers dispatching registry kernels (see
:mod:`repro.ops`) through :func:`repro.tensor.tensor.apply`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.tensor import Tensor, apply


def concatenate(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Differentiably concatenate tensors along ``axis``."""
    return apply("concat", tuple(Tensor.ensure(t) for t in tensors), axis=axis)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return apply("softmax", (x,), axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    return apply("log_softmax", (x,), axis=axis)


def l2norm(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Euclidean norm along ``axis`` with a smooth-at-zero epsilon.

    The paper's Eq. 11 divides by ``||h_t(x) - H_{t-1}(x)||_2``; ``eps``
    keeps the gradient finite when a base model exactly matches the
    ensemble output (it happens on one-hot saturated predictions).
    """
    return apply("l2norm", (x,), axis=axis, eps=eps)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiably stack tensors along a new axis."""
    return apply("stack", tuple(Tensor.ensure(t) for t in tensors), axis=axis)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable elementwise selection; ``condition`` is constant."""
    condition = np.asarray(condition, dtype=bool)
    return apply("where", (Tensor.ensure(a), Tensor.ensure(b)),
                 condition=condition)
