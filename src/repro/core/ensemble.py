"""The weighted-average ensemble container (paper Eq. 16).

``H_T(x) = Σ_t α_t h_t(x)`` over softmax outputs.  Because the paper also
*uses* ``H_t(x)`` as a probability vector (inside Div/Sim, whose [0,1]
bounds require ``||H||₁ = 1``), the weighted sum is normalised by ``Σ α_t``
— i.e. an α-weighted average — which leaves the argmax of Eq. 16 unchanged
and keeps every downstream formula well-defined.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.errors import InvalidRequest
from repro.nn import accuracy, predict_probs
from repro.nn.module import Module


def alpha_vote(alphas: Sequence[float],
               member_probs: Sequence[np.ndarray]) -> np.ndarray:
    """Eq. 16 (normalised): the α-weighted average of member softmax rows.

    The one implementation of the vote.  Weights are the α's normalised
    by their sum, folded left to right in member order; every caller —
    :meth:`Ensemble.predict_probs`, the engine's prediction cache, the
    serving aggregate, AdaBoost.NC's penalty — goes through here, so
    their answers agree bit for bit by construction.
    """
    if not len(member_probs):
        raise ValueError("no member predictions")
    alphas = np.asarray(alphas)
    if len(alphas) != len(member_probs):
        raise ValueError("one alpha per member required")
    weights = alphas / alphas.sum()
    combined = np.zeros_like(member_probs[0])
    for weight, probs in zip(weights, member_probs):
        combined += weight * probs
    return combined


class Ensemble:
    """An α-weighted ensemble of base models.

    Supports the operations Algorithm 1 needs: ``add`` a fitted base model
    with its weight, compute soft targets ``H_t(x)``, and evaluate.
    """

    def __init__(self) -> None:
        self.models: List[Module] = []
        self.alphas: List[float] = []
        #: Bumped on every membership mutation (``add`` / ``replace_member``).
        #: Anything that caches member outputs keyed on this ensemble — the
        #: engine's ``PredictionCache``, a serving-side memo — must compare
        #: the version it cached under and drop its state on mismatch.
        self.membership_version: int = 0

    def __len__(self) -> int:
        return len(self.models)

    @staticmethod
    def _check_alpha(alpha: float) -> float:
        alpha = float(alpha)
        if not np.isfinite(alpha) or alpha <= 0:
            raise ValueError(
                f"alpha must be positive and finite, got {alpha}; a "
                "non-positive alpha means the base model is worse than "
                "chance and should be discarded"
            )
        return alpha

    def add(self, model: Module, alpha: float = 1.0) -> None:
        """Add a fitted base model with ensemble weight ``alpha``."""
        alpha = self._check_alpha(alpha)
        model.eval()
        self.models.append(model)
        self.alphas.append(alpha)
        self.membership_version += 1

    def replace_member(self, index: int, model: Module, alpha: float) -> Module:
        """Atomically swap member ``index`` for ``model`` with weight ``alpha``.

        The live-repair path (:mod:`repro.serving.repair`): the weighted
        average of Eq. 16 renormalises by ``Σ α``, so the swapped ensemble
        is immediately a proper vote — no further bookkeeping.  Validation
        happens *before* any state changes, so a rejected swap leaves the
        ensemble untouched; on success ``membership_version`` is bumped,
        invalidating any cached member outputs keyed on it.  Returns the
        retired model so callers can keep it for rollback.
        """
        alpha = self._check_alpha(alpha)
        if not -len(self.models) <= index < len(self.models):
            raise IndexError(
                f"member index {index} out of range for {len(self.models)} "
                "member(s)")
        model.eval()
        retired = self.models[index]
        self.models[index] = model
        self.alphas[index] = alpha
        self.membership_version += 1
        return retired

    def member_probs(self, x: np.ndarray, batch_size: int = 256) -> List[np.ndarray]:
        """Softmax outputs of each base model (the ``h_t(x)`` soft targets)."""
        return [predict_probs(model, x, batch_size=batch_size) for model in self.models]

    def predict_probs(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Eq. 16 (normalised): α-weighted average of member softmax rows.

        Rejects non-finite inputs with
        :class:`~repro.core.errors.InvalidRequest`: softmax maps a NaN
        row to a NaN (or, after the exp, a confidently wrong) distribution
        *silently*, so a poisoned batch must die here rather than surface
        as a garbage prediction downstream.
        """
        if not self.models:
            raise RuntimeError("ensemble is empty")
        x = np.asarray(x)
        if np.issubdtype(x.dtype, np.floating) and not np.isfinite(x).all():
            bad = int((~np.isfinite(x)).sum())
            raise InvalidRequest(
                f"input contains {bad} non-finite (NaN/Inf) value(s)",
                field="values")
        return alpha_vote(self.alphas, self.member_probs(x, batch_size))

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        return self.predict_probs(x, batch_size=batch_size).argmax(axis=1)

    def evaluate(self, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> float:
        """Ensemble top-1 accuracy."""
        return accuracy(self.predict_probs(x, batch_size=batch_size), y)
