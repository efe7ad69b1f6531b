"""Diversity measures (paper Sec. IV-C).

Implements the paper's soft-target diversity (Eq. 2), the similarity dual
(Eq. 3), the ensemble-level mean pairwise diversity (Eq. 7), and — for the
AdaBoost.NC baseline and for contrast — the coarse correct/incorrect
ambiguity (Eq. 1) the paper argues against.

All functions operate on *probability row matrices*: shape ``(N, k)``
arrays whose rows are softmax outputs.  By the bound in the paper's Eq. 6,
``||h_j(x) - h_k(x)||_2 <= sqrt(2)`` for any two distributions, so the
``sqrt(2)/2`` prefactor keeps every measure in ``[0, 1]``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

SQRT2_OVER_2 = np.sqrt(2.0) / 2.0


def _check_probs(probs: np.ndarray, name: str) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError(f"{name} must be a 2-D (N, k) probability matrix")
    return probs


def pairwise_distance(probs_j: np.ndarray, probs_k: np.ndarray) -> np.ndarray:
    """Per-sample scaled L2 distance ``(sqrt(2)/2)·||h_j(x_i) − h_k(x_i)||₂``.

    This is the per-sample integrand of Eq. 2; each entry lies in [0, 1].
    """
    probs_j = _check_probs(probs_j, "probs_j")
    probs_k = _check_probs(probs_k, "probs_k")
    if probs_j.shape != probs_k.shape:
        raise ValueError(
            f"shape mismatch: {probs_j.shape} vs {probs_k.shape}"
        )
    return SQRT2_OVER_2 * np.linalg.norm(probs_j - probs_k, axis=1)


def pairwise_diversity(probs_j: np.ndarray, probs_k: np.ndarray) -> float:
    """Eq. 2: ``Div_{h_j,h_k}``, the mean scaled L2 soft-target distance."""
    return float(pairwise_distance(probs_j, probs_k).mean())


def pairwise_similarity(probs_j: np.ndarray, probs_k: np.ndarray) -> float:
    """Eq. 3: ``Sim = 1 − Div``."""
    return 1.0 - pairwise_diversity(probs_j, probs_k)


def ensemble_diversity(member_probs: Sequence[np.ndarray]) -> float:
    """Eq. 7: mean pairwise diversity over all model pairs, ``Div_H``.

    ``member_probs`` holds one ``(N, k)`` softmax matrix per base model,
    all evaluated on the same samples.  Requires at least two members.
    """
    count = len(member_probs)
    if count < 2:
        raise ValueError("ensemble diversity needs at least two base models")
    total = 0.0
    for j in range(count):
        for k in range(j + 1, count):
            total += pairwise_diversity(member_probs[j], member_probs[k])
    return 2.0 * total / (count * (count - 1))


def similarity_matrix(member_probs: Sequence[np.ndarray]) -> np.ndarray:
    """Pairwise ``Sim`` matrix across base models (Fig. 8's heatmap data).

    Diagonal entries are exactly 1 (a model is identical to itself).
    """
    count = len(member_probs)
    matrix = np.ones((count, count), dtype=np.float64)
    for j in range(count):
        for k in range(j + 1, count):
            sim = pairwise_similarity(member_probs[j], member_probs[k])
            matrix[j, k] = matrix[k, j] = sim
    return matrix


def correctness_sign(predictions: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Map hard predictions to the {+1, −1} correct/incorrect coding of Eq. 1."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    return np.where(predictions == labels, 1.0, -1.0)


def hard_ambiguity(member_predictions: Sequence[np.ndarray],
                   ensemble_predictions: np.ndarray,
                   labels: np.ndarray,
                   alphas: Sequence[float]) -> np.ndarray:
    """Eq. 1: AdaBoost.NC's per-sample ambiguity from correct/incorrect signs.

    ``amb_i = ½ Σ_t α_t (H_i − h_{t,i})`` with ``H_i, h_{t,i} ∈ {+1, −1}``.
    The paper criticises this measure for discarding the softmax structure
    and admitting no gradient; it is kept here to drive the AdaBoost.NC
    baseline's penalty.
    """
    if len(member_predictions) != len(alphas):
        raise ValueError("one alpha per member prediction is required")
    ensemble_sign = correctness_sign(ensemble_predictions, labels)
    amb = np.zeros(len(labels), dtype=np.float64)
    for predictions, alpha in zip(member_predictions, alphas):
        member_sign = correctness_sign(predictions, labels)
        amb += alpha * (ensemble_sign - member_sign)
    return 0.5 * amb
