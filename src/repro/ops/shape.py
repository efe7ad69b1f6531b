"""Shape/structure kernels: reshape, transpose, getitem, concat, stack."""

from __future__ import annotations

import numpy as np

from repro.ops.registry import register


def _reshape_forward(ctx, x, shape):
    ctx.original = x.shape
    return x.reshape(shape)


def _reshape_backward(ctx, g):
    return (g.reshape(ctx.original),)


def _transpose_forward(ctx, x, axes):
    ctx.inverse = np.argsort(axes)
    return x.transpose(axes)


def _transpose_backward(ctx, g):
    return (g.transpose(ctx.inverse),)


def _getitem_forward(ctx, x, index):
    ctx.x = x
    ctx.index = index
    return x[index]


def _getitem_backward(ctx, g):
    full = np.zeros_like(ctx.x)
    np.add.at(full, ctx.index, g)
    return (full,)


def _concat_forward(ctx, *arrays, axis):
    sizes = [a.shape[axis] for a in arrays]
    ctx.axis = axis
    ctx.offsets = np.cumsum([0] + sizes)
    return np.concatenate(arrays, axis=axis)


def _concat_backward(ctx, g):
    axis = ctx.axis
    offsets = ctx.offsets
    grads = []
    for position, (start, stop) in enumerate(zip(offsets[:-1], offsets[1:])):
        if not ctx.needs[position]:
            grads.append(None)
            continue
        index = [slice(None)] * g.ndim
        index[axis] = slice(start, stop)
        grads.append(g[tuple(index)])
    return tuple(grads)


def _stack_forward(ctx, *arrays, axis):
    ctx.axis = axis
    return np.stack(arrays, axis=axis)


def _stack_backward(ctx, g):
    axis = ctx.axis
    return tuple(np.take(g, position, axis=axis) if needed else None
                 for position, needed in enumerate(ctx.needs))


register("reshape", _reshape_forward, _reshape_backward)
register("transpose", _transpose_forward, _transpose_backward)
register("getitem", _getitem_forward, _getitem_backward)
register("concat", _concat_forward, _concat_backward)
register("stack", _stack_forward, _stack_backward)
