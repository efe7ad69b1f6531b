"""Adaptive knowledge transfer (paper Sec. IV-B, Figs. 3-5).

Two halves:

* :func:`transfer_parameters` — copy the lowest ``β`` fraction of a
  teacher's parameters into a freshly built student and re-initialise the
  rest (Fig. 3).  "Lowest" follows the model's construction order, which in
  :mod:`repro.models` always runs input-stem → stages → classifier head.
  The cut is made at *module* granularity (a conv and its batch norm move
  together, with their running statistics) at the largest prefix whose
  scalar-parameter share does not exceed β.
* :func:`beta_probe` / :func:`select_beta` — the fold-based procedure of
  Fig. 4: train a teacher on folds 1..n−1, hatch students at decreasing β
  trained on folds 1..n−2, and compare their early accuracy on fold n−1
  (seen only by the teacher — inherited specific knowledge shows up here)
  versus fold n (seen by nobody).  β is chosen as the largest value whose
  accuracy gap falls below a tolerance (paper: "start from β = 1 and
  gradually reduce it until h_t performs similarly on the two datasets").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.nn.module import Module
from repro.utils.rng import RngLike, new_rng


def leaf_modules(model: Module) -> List[Module]:
    """Ordered list of modules that directly own parameters.

    Order equals construction order (input to output) because module
    registration happens in ``__init__`` body order.
    """
    return [m for m in model.modules() if getattr(m, "_parameters", None)]


def _module_param_count(module: Module) -> int:
    return sum(p.size for p in module._parameters.values())


def transfer_parameters(teacher: Module, student: Module, beta: float,
                        rng: RngLike = None) -> int:
    """Copy the first β fraction of parameters from teacher to student.

    Parameters
    ----------
    teacher / student:
        Two models of the *same architecture* (checked structurally).
    beta:
        Fraction of scalar parameters to transfer, in [0, 1].  β = 1
        reproduces Snapshot Ensemble's transfer-everything; β = 0 is an
        independent re-initialisation.
    rng:
        Generator used to re-draw the non-transferred layers.

    Returns
    -------
    int
        Number of scalar parameters actually transferred.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    rng = new_rng(rng)
    teacher_leaves = leaf_modules(teacher)
    student_leaves = leaf_modules(student)
    if len(teacher_leaves) != len(student_leaves):
        raise ValueError(
            "teacher and student architectures differ "
            f"({len(teacher_leaves)} vs {len(student_leaves)} parameterised modules)"
        )

    total = sum(_module_param_count(m) for m in teacher_leaves)
    budget = beta * total
    transferred = 0
    for teacher_module, student_module in zip(teacher_leaves, student_leaves):
        count = _module_param_count(teacher_module)
        if transferred + count <= budget + 1e-9:
            for name, param in teacher_module._parameters.items():
                target = student_module._parameters.get(name)
                if target is None or target.data.shape != param.data.shape:
                    raise ValueError(
                        f"parameter mismatch at '{name}' during transfer"
                    )
                target.data[...] = param.data
            teacher_buffers = getattr(teacher_module, "_buffers", None)
            student_buffers = getattr(student_module, "_buffers", None)
            if teacher_buffers and student_buffers is not None:
                for name, buffer in teacher_buffers.items():
                    student_buffers[name] = np.array(buffer, copy=True)
            transferred += count
        else:
            if hasattr(student_module, "reinitialize"):
                student_module.reinitialize(rng)
            # Modules without a reinitialize hook keep their fresh
            # construction-time weights, which are already random.
    return transferred


@dataclass
class BetaProbeResult:
    """Outcome of probing one β value (one point on Fig. 5)."""

    beta: float
    accuracy_seen_fold: float    # fold n-1: seen by the teacher only
    accuracy_unseen_fold: float  # fold n: seen by nobody

    @property
    def gap(self) -> float:
        """Inherited-knowledge signal: positive when the student still
        carries the teacher's specific knowledge of fold n−1."""
        return self.accuracy_seen_fold - self.accuracy_unseen_fold


@dataclass
class BetaSelection:
    """Full β-search outcome returned by :func:`select_beta`."""

    beta: float
    probes: List[BetaProbeResult] = field(default_factory=list)


def beta_probe(
    factory,
    dataset,
    beta: float,
    teacher: Module,
    train_folds,
    seen_fold,
    unseen_fold,
    probe_epochs: int = 5,
    lr: float = 0.1,
    batch_size: int = 64,
    rng: RngLike = None,
) -> BetaProbeResult:
    """Evaluate one β: hatch a student, train briefly, compare fold accuracy.

    Follows Fig. 4 exactly: the teacher saw ``train_folds + [seen_fold]``;
    the student trains on ``train_folds`` only and is scored on
    ``seen_fold`` versus ``unseen_fold`` — using the *mean accuracy of the
    first ``probe_epochs`` epochs* as in the paper's Fig. 5 protocol.
    """
    from repro.core.trainer import TrainingConfig, train_model
    from repro.data.folds import merge_folds
    from repro.nn import accuracy, predict_probs

    rng = new_rng(rng)
    student = factory.build(rng=rng)
    transfer_parameters(teacher, student, beta, rng=rng)
    train_set = merge_folds(list(train_folds), name="beta-probe-train")

    seen_curve: List[float] = []
    unseen_curve: List[float] = []

    def on_epoch_end(model, epoch):
        seen_curve.append(accuracy(predict_probs(model, seen_fold.x), seen_fold.y))
        unseen_curve.append(accuracy(predict_probs(model, unseen_fold.x), unseen_fold.y))

    config = TrainingConfig(epochs=probe_epochs, lr=lr, batch_size=batch_size,
                            schedule="constant")
    train_model(student, train_set, config, rng=rng, on_epoch_end=on_epoch_end)
    return BetaProbeResult(
        beta=beta,
        accuracy_seen_fold=float(np.mean(seen_curve)),
        accuracy_unseen_fold=float(np.mean(unseen_curve)),
    )


def select_beta(
    factory,
    dataset,
    n_folds: int = 6,
    betas: Optional[Sequence[float]] = None,
    tolerance: float = 0.02,
    teacher_epochs: int = 10,
    probe_epochs: int = 5,
    lr: float = 0.1,
    batch_size: int = 64,
    rng: RngLike = None,
) -> BetaSelection:
    """Run the full adaptive β search of Sec. IV-B.

    Splits ``dataset`` into ``n_folds``; trains a teacher on folds
    ``1..n−1``; probes each β from largest to smallest and returns the
    first whose seen/unseen accuracy gap is below ``tolerance`` (falling
    back to the smallest probed β).  The paper tunes β once, with the
    first base model, then reuses it for all later rounds — callers should
    do the same.
    """
    from repro.core.trainer import TrainingConfig, train_model
    from repro.data.folds import merge_folds, split_folds

    rng = new_rng(rng)
    if betas is None:
        betas = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3)
    betas = sorted(set(betas), reverse=True)

    folds = split_folds(dataset, n_folds, rng=rng)
    train_folds, seen_fold, unseen_fold = folds[:-2], folds[-2], folds[-1]
    teacher = factory.build(rng=rng)
    teacher_set = merge_folds(train_folds + [seen_fold], name="beta-teacher-train")
    config = TrainingConfig(epochs=teacher_epochs, lr=lr, batch_size=batch_size)
    train_model(teacher, teacher_set, config, rng=rng)

    probes: List[BetaProbeResult] = []
    chosen = betas[-1]
    for beta in betas:
        probe = beta_probe(factory, dataset, beta, teacher, train_folds,
                           seen_fold, unseen_fold, probe_epochs=probe_epochs,
                           lr=lr, batch_size=batch_size, rng=rng)
        probes.append(probe)
        if probe.gap <= tolerance:
            chosen = beta
            break
    return BetaSelection(beta=chosen, probes=probes)
