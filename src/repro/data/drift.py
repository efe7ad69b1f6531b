"""Streaming distribution drift over the synthetic image substrate.

The drift-aware serving scenario (ROADMAP: "online serving with drift
detection and live ensemble repair") needs a data source whose
distribution moves *on a declared schedule*, deterministically, so
detection latency and repair efficacy are measurable quantities rather
than anecdotes.  This module provides it on top of
:mod:`repro.data.synthetic_images`:

* **Covariate drift** blends the class prototype bank toward its 90°
  rotation: at severity ``s`` a batch is rendered from
  ``(1 − s)·P + s·rot90(P)``.  Class semantics are untouched — the same
  label still names the same texture family — but every spatial feature
  moves, so models trained pre-drift degrade smoothly with ``s`` and a
  replacement trained on recent drifted data genuinely recovers.  A
  per-phase ``jitter`` override additionally widens the translation
  envelope (the paper's per-sample geometric noise, scheduled).
* **Label drift** tilts the class priors: at skew ``κ`` class ``c`` is
  drawn with probability ``∝ exp(−κ·rank(c))`` under a fixed per-stream
  class ordering, moving the stream from uniform priors toward a
  head-heavy mixture.
* **Timestamps**: every batch carries ``index`` and a synthetic
  ``timestamp = index · interval`` so monitors driven by a
  :class:`~repro.serving.faults.ManualClock` replay the stream with
  bit-identical timing.

A :class:`DriftSchedule` is a list of constant-parameter
:class:`DriftPhase` segments and is JSON-able (``to_payload`` /
``from_payload``), which is what makes drift runs grid-declarable: a
schedule literal is a legal factor level in a
:class:`~repro.experiments.grid.GridSpec`.

Determinism contract: a :class:`DriftStream` consumes a single seeded
generator in a fixed call order — ``baseline_dataset`` first (if used),
then batches in index order — so one (config, schedule, seed) triple
always produces the identical byte stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

import numpy as np

from repro.data.dataset import Dataset
from repro.data.synthetic_images import (
    ImageConfig,
    _sample_images,
    build_prototypes,
    rotate_prototypes,
)
from repro.tensor import default_dtype
from repro.utils.rng import RngLike, new_rng


@dataclass(frozen=True)
class DriftPhase:
    """One constant-parameter segment of a drift schedule."""

    batches: int
    covariate: float = 0.0       # prototype blend toward the rotated bank
    label_skew: float = 0.0      # exponential class-prior tilt (0 = uniform)
    jitter: Optional[int] = None  # per-phase translation override

    def __post_init__(self) -> None:
        if self.batches < 1:
            raise ValueError(f"phase needs >= 1 batch, got {self.batches}")
        if not 0.0 <= self.covariate <= 1.0:
            raise ValueError(
                f"covariate severity must be in [0, 1], got {self.covariate}")
        if self.label_skew < 0.0:
            raise ValueError(
                f"label_skew must be >= 0, got {self.label_skew}")


@dataclass
class DriftSchedule:
    """A sequence of drift phases plus the stream's batch geometry."""

    phases: List[DriftPhase]
    batch_size: int = 32
    interval: float = 1.0        # synthetic seconds between batches

    def __post_init__(self) -> None:
        self.phases = [phase if isinstance(phase, DriftPhase)
                       else DriftPhase(**phase) for phase in self.phases]
        if not self.phases:
            raise ValueError("a drift schedule needs at least one phase")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.interval <= 0:
            raise ValueError(f"interval must be positive, got {self.interval}")

    @property
    def total_batches(self) -> int:
        return sum(phase.batches for phase in self.phases)

    def phase_at(self, index: int) -> DriftPhase:
        """The phase governing batch ``index``."""
        if not 0 <= index < self.total_batches:
            raise IndexError(f"batch {index} outside the schedule "
                             f"({self.total_batches} batches)")
        remaining = index
        for phase in self.phases:
            if remaining < phase.batches:
                return phase
            remaining -= phase.batches
        raise AssertionError("unreachable")  # pragma: no cover

    def drift_onset(self) -> Optional[int]:
        """First batch index with any drift, or ``None`` if stationary."""
        offset = 0
        for phase in self.phases:
            if phase.covariate > 0 or phase.label_skew > 0 \
                    or phase.jitter is not None:
                return offset
            offset += phase.batches
        return None

    # -- declarative form (grid factor levels, CLI flags) ---------------
    def to_payload(self) -> dict:
        phases = []
        for phase in self.phases:
            entry = {"batches": phase.batches}
            if phase.covariate:
                entry["covariate"] = phase.covariate
            if phase.label_skew:
                entry["label_skew"] = phase.label_skew
            if phase.jitter is not None:
                entry["jitter"] = phase.jitter
            phases.append(entry)
        return {"phases": phases, "batch_size": self.batch_size,
                "interval": self.interval}

    @classmethod
    def from_payload(cls, payload: dict) -> "DriftSchedule":
        if not isinstance(payload, dict) or "phases" not in payload:
            raise ValueError("drift schedule payload needs a 'phases' list")
        return cls(phases=[DriftPhase(**dict(entry))
                           for entry in payload["phases"]],
                   batch_size=int(payload.get("batch_size", 32)),
                   interval=float(payload.get("interval", 1.0)))

    @classmethod
    def step(cls, pre_batches: int, drift_batches: int, covariate: float,
             label_skew: float = 0.0, batch_size: int = 32,
             interval: float = 1.0, jitter: Optional[int] = None,
             ) -> "DriftSchedule":
        """The canonical two-phase schedule: stationary, then drifted."""
        return cls(phases=[
            DriftPhase(batches=pre_batches),
            DriftPhase(batches=drift_batches, covariate=covariate,
                       label_skew=label_skew, jitter=jitter),
        ], batch_size=batch_size, interval=interval)


@dataclass
class DriftBatch:
    """One timestamped batch of the stream, with its generating state."""

    index: int
    timestamp: float
    x: np.ndarray
    y: np.ndarray
    covariate: float
    label_skew: float
    priors: np.ndarray = field(repr=False, default=None)


class DriftStream:
    """Deterministic batch stream over a drifting image distribution.

    The prototype bank, its rotated drift target, the label-skew class
    ordering and the normalisation statistics are all fixed at
    construction from one seeded generator; batches are then drawn
    sequentially from the same generator, so the stream is a pure
    function of ``(config, schedule, seed)``.

    Normalisation uses *pre-drift* reference statistics (the analogue of
    training-set normalisation in :func:`make_image_dataset`), so drift
    reaches the models as a genuine input-distribution shift rather than
    being washed out by per-batch re-standardisation.
    """

    def __init__(self, config: ImageConfig, schedule: DriftSchedule,
                 rng: RngLike = None, reference_size: int = 256):
        self.config = config
        self.schedule = schedule
        self._rng = new_rng(rng)
        self.prototypes = build_prototypes(config, self._rng)
        self.rotated = rotate_prototypes(self.prototypes)
        self.class_order = self._rng.permutation(config.num_classes)
        reference_labels = np.arange(reference_size) % config.num_classes
        reference = _sample_images(self.prototypes, reference_labels,
                                   config, self._rng)
        self.mean = reference.mean(axis=(0, 2, 3), keepdims=True)
        self.std = reference.std(axis=(0, 2, 3), keepdims=True) + 1e-8
        self._cursor = 0

    # -- distribution pieces -------------------------------------------
    def priors(self, label_skew: float) -> np.ndarray:
        """Class priors at skew κ: ``p(c) ∝ exp(−κ·rank(c))``."""
        ranks = np.empty(self.config.num_classes, dtype=np.float64)
        ranks[self.class_order] = np.arange(self.config.num_classes)
        weights = np.exp(-float(label_skew) * ranks)
        return weights / weights.sum()

    def _blended(self, covariate: float) -> np.ndarray:
        if covariate <= 0:
            return self.prototypes
        return (1.0 - covariate) * self.prototypes + covariate * self.rotated

    def _render(self, labels: np.ndarray, covariate: float,
                jitter: Optional[int]) -> np.ndarray:
        images = _sample_images(self._blended(covariate), labels,
                                self.config, self._rng, jitter=jitter)
        images = (images - self.mean) / self.std
        return images.astype(default_dtype(), copy=False)

    # -- pre-drift training data ---------------------------------------
    def baseline_dataset(self, size: int, name: str = "drift-baseline",
                         ) -> Dataset:
        """A labelled severity-0 dataset for pre-training the ensemble.

        Draw it *before* iterating the stream: it consumes the stream's
        generator, and the determinism contract fixes the call order.
        """
        labels = np.arange(size) % self.config.num_classes
        self._rng.shuffle(labels)
        return Dataset(self._render(labels, 0.0, None), labels,
                       self.config.num_classes, name=name)

    # -- the stream -----------------------------------------------------
    def next_batch(self) -> DriftBatch:
        """Render the next scheduled batch (advances the stream cursor)."""
        index = self._cursor
        phase = self.schedule.phase_at(index)
        self._cursor += 1
        priors = self.priors(phase.label_skew)
        labels = self._rng.choice(self.config.num_classes,
                                  size=self.schedule.batch_size, p=priors)
        x = self._render(labels, phase.covariate, phase.jitter)
        return DriftBatch(
            index=index, timestamp=index * self.schedule.interval,
            x=x, y=labels, covariate=phase.covariate,
            label_skew=phase.label_skew, priors=priors)

    def __iter__(self) -> Iterator[DriftBatch]:
        while self._cursor < self.schedule.total_batches:
            yield self.next_batch()
