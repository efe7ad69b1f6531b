"""Arithmetic kernels: add/sub/mul/div/neg/pow/matmul, and linear.

Backward arithmetic mirrors the pre-registry closure implementations
operation-for-operation — golden-run parity depends on it.  Broadcasting
is resolved by the caller's gradient accumulation
(:func:`repro.ops.reduce.sum_to_shape`), so kernels return gradients in
the *output* shape.

``linear`` is ``nn.Linear``'s whole forward, ``x @ w.T + b``, as one
dispatch instead of the three-node ``transpose``/``matmul``/``add``
chain.  Its forward and backward repeat that chain's float operations
in the chain's order, so outputs and gradients are bit-identical to it.
"""

from __future__ import annotations

import numpy as np

from repro.ops.batching import cell_matmul
from repro.ops.reduce import sum_to_shape
from repro.ops.registry import register


def _add_forward(ctx, x, y):
    return x + y


def _add_backward(ctx, g):
    return (g, g)


def _neg_forward(ctx, x):
    return -x


def _neg_backward(ctx, g):
    return (-g,)


def _sub_forward(ctx, x, y):
    return x - y


def _sub_backward(ctx, g):
    return (g, -g)


def _mul_forward(ctx, x, y):
    ctx.x, ctx.y = x, y
    return x * y


def _mul_backward(ctx, g):
    needs = ctx.needs
    return (g * ctx.y if needs[0] else None,
            g * ctx.x if needs[1] else None)


def _div_forward(ctx, x, y):
    ctx.x, ctx.y = x, y
    return x / y


def _div_backward(ctx, g):
    needs = ctx.needs
    return (g / ctx.y if needs[0] else None,
            -g * ctx.x / (ctx.y ** 2) if needs[1] else None)


def _pow_forward(ctx, x, exponent):
    ctx.x, ctx.exponent = x, exponent
    return x ** exponent


def _pow_backward(ctx, g):
    exponent = ctx.exponent
    return (g * exponent * ctx.x ** (exponent - 1),)


def _matmul_forward(ctx, x, y):
    ctx.x, ctx.y = x, y
    # Micro-batched serving declares a request-cell size: 2-D GEMMs then
    # run block-by-block at that row count so each coalesced request sees
    # the exact BLAS geometry of a solo call (see repro.ops.batching).
    return cell_matmul(x, y)


def _matmul_backward(ctx, g):
    needs = ctx.needs
    return (g @ np.swapaxes(ctx.y, -1, -2) if needs[0] else None,
            np.swapaxes(ctx.x, -1, -2) @ g if needs[1] else None)


def _linear_forward(ctx, x, w, b=None):
    ctx.x, ctx.w = x, w
    out = cell_matmul(x, w.T)
    return out if b is None else out + b


def _linear_backward(ctx, g):
    needs = ctx.needs
    x, w = ctx.x, ctx.w
    # The chain's matmul backward with y = w.T: swapaxes(w.T) is w
    # itself (same strides), and w.T's gradient is reduced to w.T's
    # shape before its transpose node hands it to w.
    grad_x = g @ w if needs[0] else None
    grad_w = (sum_to_shape(np.swapaxes(x, -1, -2) @ g, w.T.shape).T
              if needs[1] else None)
    # The bias gradient is the add node's, g; the dispatcher reduces it.
    return (grad_x, grad_w, g)[:len(needs)]


# The "elementwise" tag declares the output shape to be the broadcast of
# the input shapes — the runtime sanitizer (repro.tensor.sanitize)
# verifies exactly that for tagged ops.
register("add", _add_forward, _add_backward, tags=("elementwise",))
register("neg", _neg_forward, _neg_backward, tags=("elementwise",))
register("sub", _sub_forward, _sub_backward, tags=("elementwise",))
register("mul", _mul_forward, _mul_backward, tags=("elementwise",))
register("div", _div_forward, _div_backward, tags=("elementwise",))
register("pow", _pow_forward, _pow_backward, tags=("elementwise",))
register("matmul", _matmul_forward, _matmul_backward)
register("linear", _linear_forward, _linear_backward)
