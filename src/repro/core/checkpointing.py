"""Fault tolerance for ensemble training: checkpoints, resume, retries.

Training ``T`` base models sequentially (Algorithm 1) means a crash or a
diverged member in round ``t`` would throw away every round before it.
This module makes the :class:`~repro.core.engine.EnsembleEngine` survive
all three failure classes:

* **Process death** — :class:`CheckpointManager` atomically persists the
  full fit state after every completed round; ``EnsembleEngine.run``
  accepts ``resume_from=`` and continues at round ``t`` with bit-identical
  results to an uninterrupted run.
* **Divergence** — :class:`RetryPolicy` tells the engine to abort a member
  whose loss goes non-finite (or whose training accuracy collapses),
  retry it with a reseeded initialisation and an optionally decayed
  learning rate, and — once retries are exhausted — skip the member,
  renormalise the remaining α's (the ensemble average always normalises by
  ``Σ α``), and record the fault instead of dying.
* **Bad state on disk** — every loader failure surfaces as a
  :class:`CheckpointError` with the offending path, so callers (the CLI in
  particular) can report it instead of tracebacking.

Checkpoint layout
-----------------
``<directory>/manifest.json`` lists the retained rounds; each round is one
self-contained ``round_NNNN.npz`` written via the same atomic
write-to-temp + rename path as :func:`repro.core.serialization.
save_ensemble`, and holding:

* the member ``state_dict``s, α's and architecture tag (the exact
  :mod:`~repro.core.serialization` payload — one weights format);
* method state arrays from ``engine.checkpoint_extra`` (e.g. EDDE's sample
  weights ``W_t``) under ``extra/<name>``;
* a JSON blob with the :class:`~repro.core.results.MemberRecord`s, curve
  points, cumulative epochs, result metadata, and the tracked RNG's
  bit-generator state.

Retention is ``keep_last``: older round files are pruned as new ones land,
and only after the manifest that stops naming them is published, so a kill
at any point of a save leaves a manifest whose rounds all exist.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.callbacks import Callback
from repro.core.ensemble import Ensemble
from repro.core.results import CurvePoint, MemberRecord
from repro.core.serialization import (
    CheckpointError,
    PathLike,
    atomic_savez,
    atomic_write,
    ensemble_payload,
    restore_ensemble,
)
from repro.models.factory import ModelFactory

__all__ = [
    "CheckpointError",  # re-export; lives in repro.core.serialization now
    "CheckpointManager",
    "CheckpointState",
    "FaultTolerance",
    "MemberDiverged",
    "RetryPolicy",
]

_MANIFEST = "manifest.json"
_CHECKPOINT_FORMAT = 1


class MemberDiverged(RuntimeError):
    """Raised mid-round when a training member is beyond saving.

    The engine raises it from its batch/epoch hooks when a
    :class:`RetryPolicy` is active; anything else that can decide a member
    is lost (a custom callback, a fault injector) may raise it too — the
    engine's retry loop treats every ``MemberDiverged`` the same way.
    """

    def __init__(self, reason: str, round_index: Optional[int] = None,
                 epoch: Optional[int] = None, batch: Optional[int] = None):
        super().__init__(reason)
        self.reason = reason
        self.round_index = round_index
        self.epoch = epoch
        self.batch = batch


@dataclass
class RetryPolicy:
    """Engine-level divergence recovery (replaces the passive guard).

    Attributes
    ----------
    max_retries:
        How many fresh attempts a diverged member gets.  Each retry draws
        a new child RNG from the method's generator, so the member is
        reseeded — re-running an init that produced NaNs verbatim would
        just reproduce them.
    lr_decay:
        Multiplier applied to the learning rate per retry attempt
        (``lr · lr_decay**attempt``); 1.0 keeps the LR unchanged.
    min_train_accuracy:
        Optional collapse floor: a member whose epoch training accuracy is
        below this after ``grace_epochs`` is aborted like a NaN loss.
        ``None`` disables the check.
    grace_epochs:
        Epochs a member may spend below the accuracy floor before the
        collapse check applies (fresh inits start near chance).
    """

    max_retries: int = 2
    lr_decay: float = 0.5
    min_train_accuracy: Optional[float] = None
    grace_epochs: int = 1


@dataclass
class CheckpointState:
    """Everything needed to continue a fit from a completed round."""

    round: int
    ensemble: Ensemble
    members: List[MemberRecord]
    curve: List[CurvePoint]
    cumulative_epochs: int
    metadata: dict
    rng_state: Optional[dict]
    arrays: Dict[str, np.ndarray]
    method: str = ""


@dataclass
class FaultTolerance:
    """The fault-tolerance configuration threaded through every ``fit``."""

    checkpoint: Optional["CheckpointManager"] = None
    resume_from: Optional[CheckpointState] = None
    retry: Optional[RetryPolicy] = None


def _jsonable(value):
    """Recursively coerce numpy scalars/arrays so ``json.dumps`` accepts them."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


class CheckpointManager(Callback):
    """Persists the engine's state after every completed round.

    Install it via ``FaultTolerance(checkpoint=...)`` (or the engine's
    ``checkpoint=`` argument); it subscribes to ``round_end`` at the very
    end of the callback pipeline, so the snapshot includes everything the
    other callbacks recorded for the round (curve point, timing).
    """

    def __init__(self, directory: PathLike, keep_last: int = 3):
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.directory = pathlib.Path(directory)
        self.keep_last = int(keep_last)

    # -- engine hook ---------------------------------------------------
    def on_round_end(self, engine, outcome) -> None:
        self.save(engine)

    # -- writing -------------------------------------------------------
    def save(self, engine) -> pathlib.Path:
        """Snapshot ``engine`` (after round ``len(engine.ensemble)``)."""
        completed = len(engine.ensemble)
        payload = ensemble_payload(engine.ensemble)
        for name, value in engine.checkpoint_extra.items():
            payload[f"extra/{name}"] = np.asarray(value)
        state = {
            "round": completed,
            "cumulative_epochs": engine.cumulative_epochs,
            "members": [asdict(member) for member in engine.result.members],
            "curve": [asdict(point) for point in engine.result.curve],
            "metadata": _jsonable(engine.result.metadata),
            "rng_state": engine.rng.bit_generator.state
            if engine.rng is not None else None,
            "method": engine.result.method,
        }
        return self._write_round(completed, payload, state,
                                 engine.result.method)

    def snapshot_ensemble(self, ensemble: Ensemble, round_index: int,
                          method: str = "repair",
                          metadata: Optional[dict] = None) -> pathlib.Path:
        """Checkpoint a bare ensemble outside any engine fit.

        The live-repair loop (:mod:`repro.serving.repair`) snapshots the
        ensemble after every accepted member swap; the archive uses the
        exact engine-checkpoint layout (same atomic write, manifest and
        ``keep_last`` retention), so :meth:`load` restores it with the
        usual :class:`ModelFactory` and ``metadata`` carries the repair
        provenance.
        """
        state = {
            "round": int(round_index),
            "cumulative_epochs": 0,
            "members": [],
            "curve": [],
            "metadata": _jsonable(metadata or {}),
            "rng_state": None,
            "method": method,
        }
        return self._write_round(int(round_index), ensemble_payload(ensemble),
                                 state, method)

    def _write_round(self, completed: int, payload: Dict[str, np.ndarray],
                     state: dict, method: str) -> pathlib.Path:
        payload["__engine_state__"] = np.array(json.dumps(state))
        self.directory.mkdir(parents=True, exist_ok=True)
        path = atomic_savez(self.directory / f"round_{completed:04d}.npz",
                            payload)
        self._update_manifest(completed, path.name, method)
        return path

    def _update_manifest(self, completed: int, filename: str,
                         method: str) -> None:
        manifest = self._read_manifest(strict=False) or {
            "checkpoint_format": _CHECKPOINT_FORMAT,
            "method": method,
            "rounds": [],
        }
        # Rounds >= the one just written belong to an abandoned timeline
        # (a re-run over an old directory); drop them.
        rounds = [entry for entry in manifest.get("rounds", [])
                  if entry["round"] < completed]
        rounds.append({"round": completed, "file": filename})
        rounds.sort(key=lambda entry: entry["round"])
        manifest["rounds"] = rounds[-self.keep_last:]
        manifest["method"] = method
        manifest["keep_last"] = self.keep_last
        with atomic_write(self.directory / _MANIFEST) as handle:
            handle.write(json.dumps(manifest, indent=2).encode())
        # Prune only once the published manifest no longer names them.
        for stale in rounds[:-self.keep_last]:
            (self.directory / stale["file"]).unlink(missing_ok=True)

    # -- reading -------------------------------------------------------
    def _read_manifest(self, strict: bool = True) -> Optional[dict]:
        path = self.directory / _MANIFEST
        if not path.is_file():
            if strict:
                raise CheckpointError(
                    f"no checkpoint manifest at {path} — nothing to resume")
            return None
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            if strict:
                raise CheckpointError(
                    f"corrupt checkpoint manifest at {path}: {error}"
                ) from error
            return None
        if not isinstance(manifest, dict) or "rounds" not in manifest:
            if strict:
                raise CheckpointError(
                    f"corrupt checkpoint manifest at {path}: missing 'rounds'")
            return None
        return manifest

    def latest_round(self) -> Optional[int]:
        """The newest checkpointed round, or ``None`` when there is none."""
        manifest = self._read_manifest(strict=False)
        if not manifest or not manifest["rounds"]:
            return None
        return max(entry["round"] for entry in manifest["rounds"])

    def available_rounds(self) -> List[int]:
        manifest = self._read_manifest(strict=False)
        if not manifest:
            return []
        return sorted(entry["round"] for entry in manifest["rounds"])

    def load(self, factory: ModelFactory,
             round_index: Optional[int] = None) -> CheckpointState:
        """Load the latest (or a specific) round into a :class:`CheckpointState`.

        Raises :class:`CheckpointError` for every way the directory can be
        unusable: missing, no manifest, unreadable archive, or an archive
        whose contents fail validation.
        """
        if not self.directory.is_dir():
            raise CheckpointError(
                f"checkpoint directory {self.directory} does not exist")
        manifest = self._read_manifest(strict=True)
        rounds = {entry["round"]: entry["file"]
                  for entry in manifest["rounds"]}
        if not rounds:
            raise CheckpointError(
                f"checkpoint directory {self.directory} has no saved rounds")
        if round_index is None:
            round_index = max(rounds)
        if round_index not in rounds:
            raise CheckpointError(
                f"round {round_index} is not in {self.directory} "
                f"(available: {sorted(rounds)})")
        path = self.directory / rounds[round_index]
        try:
            with np.load(path) as archive:
                ensemble = restore_ensemble(archive, factory)
                state = json.loads(str(archive["__engine_state__"].item()))
                arrays = {key[len("extra/"):]: np.array(archive[key])
                          for key in archive.files
                          if key.startswith("extra/")}
        except CheckpointError:
            raise
        except (OSError, KeyError, ValueError, json.JSONDecodeError) as error:
            raise CheckpointError(
                f"corrupt checkpoint archive at {path}: {error}") from error
        return CheckpointState(
            round=int(state["round"]),
            ensemble=ensemble,
            members=[MemberRecord(**record) for record in state["members"]],
            curve=[CurvePoint(**point) for point in state["curve"]],
            cumulative_epochs=int(state["cumulative_epochs"]),
            metadata=state.get("metadata", {}),
            rng_state=state.get("rng_state"),
            arrays=arrays,
            method=state.get("method", ""),
        )
