"""AdaBoost.NC baseline (Wang, Chen & Yao, 2010).

AdaBoost.NC augments AdaBoost with an *ambiguity* penalty: samples on
which the ensemble and its members disagree get their boosting weight
modulated by a diversity term, so later models are pushed toward samples
where the ensemble is confidently unanimous-and-wrong.

The per-sample ambiguity follows the paper's Eq. 1 (correct/incorrect
coding): ``amb_t(i) = ½ Σ_{k≤t} α_k (H_i − h_{k,i})`` with signs in
{+1, −1}, normalised to [0, 1] by the total α mass.  The penalty is
``p_t(i) = 1 − |amb_t(i)|`` and the weight update is

``w_{t+1}(i) ∝ w_t(i) · p_t(i)^λ · exp(α_t · 1[h_t(x_i) ≠ y_i])``

with λ controlling the diversity pressure (the original paper sweeps λ;
2 is a common setting and our default).  Like AdaBoost.M1, each round
trains a fresh randomly-initialised network on a ``D_t`` resample; the
``transfer`` flag reproduces Table VI's "AdaBoost.NC (transfer)" variant
by initialising each new model with *all* of the previous model's weights.

The penalty needs every member's train-set outputs — they come straight
from the engine's prediction cache, so each member is still evaluated on
the training set exactly once over the whole fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.baselines.base import BaselineConfig, EnsembleMethod
from repro.core.callbacks import Callback
from repro.core.checkpointing import FaultTolerance
from repro.core.diversity import correctness_sign
from repro.core.engine import EnsembleEngine, RoundOutcome
from repro.core.ensemble import alpha_vote
from repro.core.results import FitResult
from repro.data.dataset import Dataset
from repro.data.loader import weighted_sample
from repro.nn import predict_probs
from repro.utils.rng import RngLike, new_rng, spawn_rng

_EPS = 1e-10


@dataclass
class AdaBoostNCConfig(BaselineConfig):
    """AdaBoost.NC hyperparameters: λ (diversity pressure) and transfer."""

    penalty_lambda: float = 2.0
    transfer: bool = False


class AdaBoostNC(EnsembleMethod):
    name = "AdaBoost.NC"

    def __init__(self, factory, config: Optional[AdaBoostNCConfig] = None):
        super().__init__(factory, config or AdaBoostNCConfig())

    def fit(self, train_set: Dataset, test_set: Optional[Dataset] = None,
            rng: RngLike = None,
            callbacks: Optional[Sequence[Callback]] = None,
            fault_tolerance: Optional[FaultTolerance] = None) -> FitResult:
        fault = fault_tolerance or FaultTolerance()
        rng = new_rng(rng)
        config: AdaBoostNCConfig = self.config
        n = len(train_set)
        # Boosting weights stay float64 (multiplicative replay precision).
        state = {"weights": np.full(n, 1.0 / n, dtype=np.float64), "previous_model": None}
        if fault.resume_from is not None and fault.resume_from.round:
            saved = fault.resume_from.arrays.get("sample_weights")
            if saved is not None:
                state["weights"] = np.array(saved)
            state["previous_model"] = fault.resume_from.ensemble.models[-1]

        def round_fn(engine: EnsembleEngine, index: int) -> RoundOutcome:
            member_rng = spawn_rng(rng)
            model = self.factory.build(rng=member_rng)
            if config.transfer and state["previous_model"] is not None:
                model.load_state_dict(state["previous_model"].state_dict())
            sample = weighted_sample(train_set, state["weights"],
                                     rng=member_rng)
            logger = engine.train_member(model, sample,
                                         self.config.training_config(),
                                         rng=member_rng)

            train_probs = predict_probs(model, train_set.x)
            misclassified = train_probs.argmax(axis=1) != train_set.y
            weights = state["weights"]
            epsilon = float(np.clip(weights[misclassified].sum(),
                                    _EPS, 1 - _EPS))
            alpha = float(0.5 * np.log((1 - epsilon) / epsilon)
                          + 0.5 * np.log(train_set.num_classes - 1))
            alpha = max(alpha, 1e-3)

            # All prior members' train outputs are cached; only the new
            # member's (computed above) completes the penalty inputs.
            member_train_probs = engine.cache.member_probs_list("train") \
                + [train_probs]
            alphas = engine.cache.alphas + [alpha]
            penalty = self._penalty(member_train_probs, alphas, train_set.y)
            weights = weights * (penalty ** config.penalty_lambda) \
                * np.exp(alpha * misclassified)
            weights = np.clip(weights, _EPS, None)
            state["weights"] = weights / weights.sum()
            state["previous_model"] = model
            engine.checkpoint_extra["sample_weights"] = state["weights"]

            return RoundOutcome(model=model, alpha=alpha,
                                epochs=self.config.epochs_per_model,
                                train_accuracy=logger.last("train_accuracy"),
                                extras={"epsilon": epsilon,
                                        "mean_penalty": float(penalty.mean())},
                                precomputed={"train": train_probs})

        engine = self.engine(
            train_set, test_set, callbacks, cache_train=True,
            method=self.name if not config.transfer
            else "AdaBoost.NC (transfer)", fault_tolerance=fault)
        engine.track_rng(rng)
        return engine.run(self.config.num_models, round_fn,
                          resume_from=fault.resume_from)

    @staticmethod
    def _penalty(member_train_probs, alphas, labels) -> np.ndarray:
        """``p_t(i) = 1 − |amb_t(i)|`` from the hard correct/incorrect coding."""
        ensemble_predictions = alpha_vote(alphas, member_train_probs).argmax(axis=1)
        ensemble_sign = correctness_sign(ensemble_predictions, labels)
        alpha_total = float(np.sum(alphas)) + _EPS
        amb = np.zeros(len(labels), dtype=np.float64)
        for probs, alpha in zip(member_train_probs, alphas):
            member_sign = correctness_sign(probs.argmax(axis=1), labels)
            amb += alpha * (ensemble_sign - member_sign)
        amb = 0.5 * amb / alpha_total        # now in [-1, 1]
        return 1.0 - np.abs(amb)
