"""The ``batch_norm`` kernel: BatchNorm1d/2d as one registry op.

It replaces the chain of about twelve primitive ops (sum, mul, sub, pow,
div, add, reshape) that :mod:`repro.nn.norm` used to compose per layer.
Forward and backward repeat that chain's arithmetic operation for
operation: ``Tensor.mean``'s ``* (1 / count)``, the axis-by-axis
reductions of :func:`~repro.ops.reduce.sum_to_shape`, and the order in
which the centred term and the input accumulate their gradients.  As
with the fused losses (:mod:`repro.ops.fused`), outputs, gradients and
running statistics are therefore bit-identical to the chain for inputs in
the default float dtype.

Inputs are ``(x, x, gamma, beta)``: the input is listed twice.  In the
chain, ``x`` received two gradient contributions one after the other —
first through ``x - mean``, then through the batch sum behind ``mean`` —
and the backward returns them in those two slots, so the dispatcher adds
them in that order too.  An input with another consumer (DenseNet feeds
it to a concatenation as well) thus accumulates exactly as before.

In training mode the forward also rebinds ``running["running_mean"]`` and
``running["running_var"]`` to new arrays; it never updates them in place,
because snapshots and serving hot swaps hold references to the old ones.
The batch statistics come from the kernel's own sum: the mean as
``s1 / count`` and the variance by ``np.var``'s recipe, both bitwise equal
to ``np.mean``/``np.var``.

In eval mode the forward normalises with the running statistics.  When
the op is untaped (``ctx.taped`` false: evaluation, ``predict_probs``,
serving) it divides, scales and shifts its fresh ``x - running_mean``
array in place instead of allocating ``x_hat``, ``x_hat * gamma`` and
their sum — the same ufuncs on the same values, so the same bits.  Only a
call whose operands would promote past that array's dtype (say float32
activations with float64 ``gamma``) keeps the allocating expression, so
its output dtype does not change.
"""

from __future__ import annotations

import numpy as np

from repro.ops.reduce import sum_to_shape
from repro.ops.registry import register


def _batch_norm_forward(ctx, x, _x, gamma, beta, axes, eps, momentum,
                        running, training):
    shape = tuple(1 if axis in axes else size
                  for axis, size in enumerate(x.shape))
    if training:
        count = int(np.prod([x.shape[axis] for axis in axes]))
        inv_count = 1.0 / count
        s1 = x.sum(axis=axes, keepdims=True)
        centered = x - s1 * inv_count
        var_eps = (centered * centered).sum(axis=axes, keepdims=True) \
            * inv_count + eps
        std = var_eps ** 0.5

        batch_mean = s1 / count
        deviation = x - batch_mean
        deviation *= deviation
        batch_var = deviation.sum(axis=axes) / count
        m = momentum
        running["running_mean"] = (m * running["running_mean"]
                                   + (1 - m) * batch_mean.reshape(-1))
        running["running_var"] = (m * running["running_var"]
                                  + (1 - m) * batch_var)

        ctx.centered = centered
        ctx.var_eps = var_eps
        ctx.inv_count = inv_count
    else:
        centered = x - running["running_mean"].reshape(shape)
        std = np.sqrt(running["running_var"].reshape(shape) + eps)
    gamma = gamma.reshape(shape)
    beta = beta.reshape(shape)
    if not (training or ctx.taped) and \
            np.result_type(centered, std, gamma, beta) == centered.dtype:
        # Untaped eval: no backward reads x_hat, so the fresh ``centered``
        # is divided, scaled and shifted in place.  The ufuncs and dtypes
        # are the expression's below, so the values are too.
        np.divide(centered, std, out=centered)
        centered *= gamma
        centered += beta
        return centered
    x_hat = centered / std

    ctx.training = training
    ctx.shape = shape
    ctx.x_hat = x_hat
    ctx.std = std
    ctx.gamma = gamma
    return x_hat * gamma + beta


def _batch_norm_backward(ctx, g):
    needs = ctx.needs
    shape = ctx.shape
    grad_gamma = (sum_to_shape(g * ctx.x_hat, shape).reshape(-1)
                  if needs[2] else None)
    grad_beta = sum_to_shape(g, shape).reshape(-1) if needs[3] else None
    if not needs[0]:
        return (None, None, grad_gamma, grad_beta)
    g_hat = g * ctx.gamma
    std = ctx.std
    grad_centered = g_hat / std
    if not ctx.training:
        return (grad_centered, None, grad_gamma, grad_beta)

    centered = ctx.centered
    inv_count = ctx.inv_count
    # x_hat = centered / std, std = var_eps ** 0.5
    grad_std = sum_to_shape(-g_hat * centered / (std ** 2), shape)
    grad_var = grad_std * 0.5 * ctx.var_eps ** -0.5
    # var = sum(centered * centered) * inv_count; both factors are centered
    grad_square = np.broadcast_to(grad_var * inv_count, centered.shape) \
        * centered
    grad_centered += grad_square
    grad_centered += grad_square
    # centered = x - mean, mean = sum(x) * inv_count
    grad_sum = sum_to_shape(-grad_centered, shape) * inv_count
    return (grad_centered, np.broadcast_to(grad_sum, centered.shape),
            grad_gamma, grad_beta)


register("batch_norm", _batch_norm_forward, _batch_norm_backward)
