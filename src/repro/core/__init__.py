"""The paper's contribution: diversity measures, the diversity-driven loss,
adaptive knowledge transfer, the boosting framework, and the EDDE trainer."""

from repro.core.config import EDDEConfig
from repro.core.errors import InvalidRequest
from repro.core.diversity import (
    ensemble_diversity,
    hard_ambiguity,
    pairwise_distance,
    pairwise_diversity,
    pairwise_similarity,
    similarity_matrix,
)
from repro.core.losses import diversity_driven_loss, diversity_loss_grad_reference
from repro.core.ensemble import Ensemble, alpha_vote
from repro.core.boosting import (
    bias_per_sample,
    initial_model_weight,
    model_weight,
    similarity_per_sample,
    update_sample_weights,
)
from repro.core.transfer import (
    BetaProbeResult,
    BetaSelection,
    beta_probe,
    leaf_modules,
    select_beta,
    transfer_parameters,
)
from repro.core.trainer import TrainingConfig, default_loss, train_model
from repro.core.results import CurvePoint, FitResult, MemberRecord
from repro.core.callbacks import (
    Callback,
    CallbackList,
    CurveRecorder,
    PerEpochCurve,
    RoundTimer,
    VerboseRounds,
)
from repro.core.checkpointing import (
    CheckpointError,
    CheckpointManager,
    CheckpointState,
    FaultTolerance,
    MemberDiverged,
    RetryPolicy,
)
from repro.core.engine import EnsembleEngine, PredictionCache, RoundOutcome
from repro.core.serialization import (
    DroppedMember,
    LoadReport,
    load_ensemble,
    save_ensemble,
)
from repro.core.edde import EDDETrainer

__all__ = [
    "EDDEConfig",
    "EDDETrainer",
    "Ensemble",
    "InvalidRequest",
    "EnsembleEngine",
    "PredictionCache",
    "RoundOutcome",
    "Callback",
    "CallbackList",
    "CurveRecorder",
    "PerEpochCurve",
    "RoundTimer",
    "VerboseRounds",
    "CheckpointError",
    "CheckpointManager",
    "CheckpointState",
    "FaultTolerance",
    "MemberDiverged",
    "RetryPolicy",
    "FitResult",
    "CurvePoint",
    "MemberRecord",
    "TrainingConfig",
    "train_model",
    "default_loss",
    "pairwise_distance",
    "pairwise_diversity",
    "pairwise_similarity",
    "ensemble_diversity",
    "similarity_matrix",
    "hard_ambiguity",
    "diversity_driven_loss",
    "diversity_loss_grad_reference",
    "alpha_vote",
    "similarity_per_sample",
    "bias_per_sample",
    "update_sample_weights",
    "model_weight",
    "initial_model_weight",
    "transfer_parameters",
    "leaf_modules",
    "select_beta",
    "beta_probe",
    "BetaProbeResult",
    "BetaSelection",
    "save_ensemble",
    "load_ensemble",
    "LoadReport",
    "DroppedMember",
]
