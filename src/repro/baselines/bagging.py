"""Bagging baseline: independent models on bootstrap resamples.

Each base model is randomly initialised and trained on a bootstrap sample
of the training set; predictions are combined by (unweighted) softmax
averaging — the "Averaging" combiner the paper attributes to bagging-style
deep ensembles.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines.base import EnsembleMethod
from repro.core.callbacks import Callback
from repro.core.checkpointing import FaultTolerance
from repro.core.engine import EnsembleEngine, RoundOutcome
from repro.core.results import FitResult
from repro.data.dataset import Dataset
from repro.data.loader import bootstrap_sample
from repro.utils.rng import RngLike, new_rng, spawn_rng


class Bagging(EnsembleMethod):
    name = "Bagging"

    def fit(self, train_set: Dataset, test_set: Optional[Dataset] = None,
            rng: RngLike = None,
            callbacks: Optional[Sequence[Callback]] = None,
            fault_tolerance: Optional[FaultTolerance] = None) -> FitResult:
        fault = fault_tolerance or FaultTolerance()
        rng = new_rng(rng)

        def round_fn(engine: EnsembleEngine, index: int) -> RoundOutcome:
            member_rng = spawn_rng(rng)
            model = self.factory.build(rng=member_rng)
            sample = bootstrap_sample(train_set, rng=member_rng)
            logger = engine.train_member(model, sample,
                                         self.config.training_config(),
                                         rng=member_rng)
            return RoundOutcome(model=model, alpha=1.0,
                                epochs=self.config.epochs_per_model,
                                train_accuracy=logger.last("train_accuracy"))

        engine = self.engine(train_set, test_set, callbacks,
                             fault_tolerance=fault)
        # Members are independent given the RNG stream, so resuming only
        # needs the restored generator state (and the cached members).
        engine.track_rng(rng)
        return engine.run(self.config.num_models, round_fn,
                          resume_from=fault.resume_from)
