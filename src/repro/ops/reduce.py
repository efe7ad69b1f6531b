"""Reduction and normalisation kernels: sum, max, softmax, log_softmax, l2norm.

Also home of :func:`sum_to_shape`, the one broadcast-undoing reduction:
the tensor layer's gradient accumulation and the ``batch_norm`` backward
both call it, so their reductions agree bit for bit by construction.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.ops.registry import register


def sum_to_shape(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (produced under broadcasting) back to ``shape``."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _sum_forward(ctx, x, axis, keepdims):
    ctx.shape = x.shape
    ctx.ndim = x.ndim
    ctx.axis = axis
    ctx.keepdims = keepdims
    return x.sum(axis=axis, keepdims=keepdims)


def _sum_backward(ctx, g):
    grad = np.asarray(g)
    axis = ctx.axis
    if axis is not None and not ctx.keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        for ax in sorted(a % ctx.ndim for a in axes):
            grad = np.expand_dims(grad, ax)
    return (np.broadcast_to(grad, ctx.shape),)


def _max_forward(ctx, x, axis, keepdims):
    out = x.max(axis=axis, keepdims=keepdims)
    ctx.x = x
    ctx.out = out
    ctx.axis = axis
    ctx.keepdims = keepdims
    return out


def _max_backward(ctx, g):
    axis = ctx.axis
    grad = np.asarray(g)
    expanded = ctx.out
    if not ctx.keepdims:
        grad = np.expand_dims(grad, axis)
        expanded = np.expand_dims(ctx.out, axis)
    mask = (ctx.x == expanded).astype(ctx.x.dtype)
    # Split gradient evenly across ties so gradcheck stays exact.
    mask /= mask.sum(axis=axis, keepdims=True)
    return (mask * grad,)


def _softmax_forward(ctx, x, axis):
    shifted = x - x.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out = exps / exps.sum(axis=axis, keepdims=True)
    ctx.out = out
    ctx.axis = axis
    return out


def _softmax_backward(ctx, g):
    out = ctx.out
    dot = (g * out).sum(axis=ctx.axis, keepdims=True)
    return (out * (g - dot),)


def _log_softmax_forward(ctx, x, axis):
    shifted = x - x.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_norm
    ctx.out = out
    ctx.axis = axis
    return out


def _log_softmax_backward(ctx, g):
    # exp(out) is recomputed here instead of being retained from forward;
    # bit-identical, and inference never pays for it.
    probs = np.exp(ctx.out)
    return (g - probs * g.sum(axis=ctx.axis, keepdims=True),)


def _l2norm_forward(ctx, x, axis, eps):
    norm = np.sqrt((x ** 2).sum(axis=axis) + eps)
    ctx.x = x
    ctx.norm = norm
    ctx.axis = axis
    return norm


def _l2norm_backward(ctx, g):
    return (np.expand_dims(g / ctx.norm, ctx.axis) * ctx.x,)


register("sum", _sum_forward, _sum_backward)
register("max", _max_forward, _max_backward)
register("softmax", _softmax_forward, _softmax_backward)
register("log_softmax", _log_softmax_forward, _log_softmax_backward)
register("l2norm", _l2norm_forward, _l2norm_backward)
