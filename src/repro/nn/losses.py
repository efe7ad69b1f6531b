"""Standard loss functions on logits.

The diversity-driven loss of the paper (Eq. 10) lives in
:mod:`repro.core.losses`; this module holds the generic pieces it is built
from, plus the distillation loss used by the BANs baseline.

All losses accept an optional per-sample weight vector because every
boosting-family method in the paper (AdaBoost.M1/.NC, EDDE) re-weights the
training set each round and folds the weight into the loss (Eq. 10 has the
``W_{t-1}(x)`` prefactor).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ops.fused import fused_enabled
from repro.tensor import (
    ArrayView,
    Tensor,
    apply,
    default_dtype,
    inference_mode,
)
from repro.tensor.ops import log_softmax, softmax


def _sample_weights(weights: Optional[np.ndarray], batch: int) -> np.ndarray:
    if weights is None:
        return np.full(batch, 1.0 / batch, dtype=default_dtype())
    weights = np.asarray(weights, dtype=default_dtype())
    if weights.shape != (batch,):
        raise ValueError(f"expected weights of shape ({batch},), got {weights.shape}")
    return weights


def cross_entropy(logits: Tensor, labels: np.ndarray,
                  weights: Optional[np.ndarray] = None) -> Tensor:
    """Weighted categorical cross-entropy from raw logits.

    ``weights`` are *absolute* per-sample weights: the returned loss is
    ``sum_i w_i * CE_i``.  With the default uniform ``1/N`` weights this
    is the ordinary mean cross-entropy.

    Dispatches the fused ``softmax_cross_entropy`` kernel (one graph node
    instead of five; bit-identical arithmetic) unless fused kernels are
    toggled off via :func:`repro.ops.fused.use_fused`.
    """
    labels = np.asarray(labels, dtype=np.int64)
    batch = logits.shape[0]
    weights = _sample_weights(weights, batch)
    if fused_enabled():
        return apply("softmax_cross_entropy", (logits,),
                     labels=labels, weights=weights)
    log_probs = log_softmax(logits, axis=1)
    picked = log_probs[np.arange(batch), labels]
    return -(picked * Tensor(weights)).sum()


def distillation_loss(logits: Tensor, labels: np.ndarray,
                      teacher_probs: np.ndarray,
                      alpha: float = 0.5,
                      temperature: float = 1.0,
                      weights: Optional[np.ndarray] = None) -> Tensor:
    """Knowledge-distillation loss used by the BANs baseline.

    A convex combination of the hard-label cross-entropy and the
    cross-entropy against the teacher's (temperature-softened) soft target
    (Hinton et al., 2015; Furlanello et al., 2018).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    batch = logits.shape[0]
    weights = _sample_weights(weights, batch)
    hard = cross_entropy(logits, labels, weights)
    teacher = np.asarray(teacher_probs, dtype=default_dtype())
    if temperature != 1.0:
        sharpened = teacher ** (1.0 / temperature)
        teacher = sharpened / sharpened.sum(axis=1, keepdims=True)
    log_probs = log_softmax(logits / temperature, axis=1)
    soft = -((log_probs * Tensor(teacher)).sum(axis=1) * Tensor(weights)).sum()
    return hard * (1.0 - alpha) + soft * alpha


def accuracy(probs_or_logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy; accepts raw logits or probability rows."""
    predictions = np.asarray(probs_or_logits).argmax(axis=1)
    return float((predictions == np.asarray(labels)).mean())


def predict_probs(model, x, batch_size: int = 256) -> np.ndarray:
    """Run ``model`` in eval/no-grad mode and return softmax rows.

    ``x`` may be a numpy array (images: NCHW floats, text: int token ids).
    Batched so ensembles of many models stay memory-bounded; a request of
    at most ``batch_size`` rows is one chunk, returned as is, and longer
    ones are concatenated chunk by chunk.

    Runs under :func:`repro.tensor.inference_mode`: registry forwards
    execute on raw arrays wrapped in graph-free ``ArrayView`` tensors, so
    no autograd bookkeeping (closures, parent links, contexts) is built.
    Ensemble evaluation calls this for every member every round, which is
    why the fast path exists.  Inside a caller's inference mode (the
    serving member loop enters it once per roster) the nested entry is
    free.

    Inference mode is also this thread's eval mode: ``BatchNorm`` and
    ``Dropout`` behave as in eval mode without any module's ``training``
    flag changing, so concurrent calls on a shared model (the serving
    executor's) need no lock and leave the model's mode as it was.
    """
    outputs = []
    with inference_mode():
        for start in range(0, len(x), batch_size):
            chunk = np.asarray(x[start:start + batch_size])
            inputs = chunk if np.issubdtype(chunk.dtype, np.integer) else ArrayView(chunk)
            logits = model(inputs)
            outputs.append(softmax(logits, axis=1).data)
    if len(outputs) == 1:
        return outputs[0]
    return np.concatenate(outputs, axis=0)
