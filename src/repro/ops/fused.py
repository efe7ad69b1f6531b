"""Fused loss kernels: softmax cross-entropy and the EDDE loss (Eq. 10/11).

Each fused kernel collapses a chain of primitive ops (5 graph nodes for
cross-entropy, 10+ for the diversity-driven loss) into a single registry
op.  The arithmetic replicates the unfused chains operation-for-operation
— same intermediate expressions, in the same order — so results are
bit-identical for fixed seeds; the win is fewer graph nodes, closures and
temporaries per training step, not different math.

``edde_loss``'s backward *is* the paper's closed-form Eq. 11 evaluated at
the softmax output, followed by the standard softmax vector-Jacobian
product.  The module-level toggle (:func:`use_fused`) lets tests and
benchmarks run the unfused chains for comparison.
"""

from __future__ import annotations

import numpy as np

from repro.ops.modes import modes, state as _modes
from repro.ops.registry import register

_EPS = 1e-12


def fused_enabled() -> bool:
    """Whether the loss wrappers should dispatch the fused kernels."""
    return _modes.fused


def use_fused(enabled: bool = True):
    """Force fused kernels on/off within a block (tests, benchmarks)."""
    return modes(fused=enabled)


# ----------------------------------------------------------------------
# softmax_cross_entropy: log_softmax -> pick -> weight -> sum -> neg
# ----------------------------------------------------------------------
def _softmax_ce_forward(ctx, logits, labels, weights):
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - log_norm
    batch = logits.shape[0]
    picked = logp[np.arange(batch), labels]
    ctx.logp = logp
    ctx.labels = labels
    ctx.weights = weights
    ctx.batch = batch
    return -(picked * weights).sum()


def _softmax_ce_backward(ctx, g):
    batch = ctx.batch
    g_picked = np.broadcast_to(-g, (batch,)) * ctx.weights
    full = np.zeros_like(ctx.logp)
    np.add.at(full, (np.arange(batch), ctx.labels), g_picked)
    probs = np.exp(ctx.logp)
    return (full - probs * full.sum(axis=1, keepdims=True),)


# ----------------------------------------------------------------------
# edde_loss: softmax -> pick(+eps) -> -log -> [- gamma*l2norm(probs-H)]
#            -> weight -> sum -> /batch        (paper Eq. 10)
# backward:  Eq. 11 at the softmax output, then the softmax VJP
# ----------------------------------------------------------------------
def _edde_loss_forward(ctx, logits, labels, targets, gamma, weights):
    batch = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    probs = exps / exps.sum(axis=1, keepdims=True)

    picked = probs[np.arange(batch), labels] + _EPS
    per_sample = -np.log(picked)

    has_penalty = targets is not None and gamma != 0.0
    if has_penalty:
        diff = probs - targets
        norm = np.sqrt((diff ** 2).sum(axis=1) + _EPS)
        per_sample = per_sample - norm * gamma
        ctx.diff = diff
        ctx.norm = norm

    ctx.probs = probs
    ctx.picked = picked
    ctx.labels = labels
    ctx.weights = weights
    ctx.gamma = gamma
    ctx.batch = batch
    ctx.inv_batch = 1.0 / batch
    ctx.has_penalty = has_penalty
    return (per_sample * weights).sum() * ctx.inv_batch


def _edde_loss_backward(ctx, g):
    batch = ctx.batch
    probs = ctx.probs
    # Chain through the mean/weight scaling to the per-sample losses.
    gper = np.broadcast_to(g * ctx.inv_batch, (batch,)) * ctx.weights

    # Eq. 11, CE term: -W(x) * y_c / (h_c + eps), scattered at the labels.
    grad_out = np.zeros_like(probs)
    np.add.at(grad_out, (np.arange(batch), ctx.labels), -gper / ctx.picked)

    if ctx.has_penalty:
        # Eq. 11, diversity term: -W(x)*gamma * (h - H) / ||h - H||.
        g_norm = -gper * ctx.gamma
        grad_out = grad_out + np.expand_dims(g_norm / ctx.norm, 1) * ctx.diff

    # Softmax vector-Jacobian product back to the logits.
    dot = (grad_out * probs).sum(axis=1, keepdims=True)
    return (probs * (grad_out - dot),)


register("softmax_cross_entropy", _softmax_ce_forward, _softmax_ce_backward,
         tags=("fused",))
register("edde_loss", _edde_loss_forward, _edde_loss_backward,
         tags=("fused",))
