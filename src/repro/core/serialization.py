"""Persisting fitted ensembles to disk.

An ensemble is stored as a single ``.npz`` archive holding every member's
``state_dict`` (parameters *and* BatchNorm running statistics), the α
weights, and a tag identifying the architecture.  Loading rebuilds the
members from a :class:`~repro.models.factory.ModelFactory`, so the
architecture hyperparameters live in code, not in the archive — the same
contract as the rest of the library (weights are data, topology is code).

Writes are atomic *and durable* (:func:`atomic_write`): the archive is
written to a sibling temporary file, fsynced, renamed into place, and the
directory entry is fsynced (best-effort), so neither an interrupted save
nor a crash right after it can leave a truncated or missing archive.
The same payload layout (and the same atomic-write path) backs the
per-round training checkpoints in :mod:`repro.core.checkpointing` — there
is exactly one member-weights format in the library — and every JSON
manifest or artifact the library writes goes through the same helper.

Loading has two modes.  **Strict** (the default) raises on the first
problem: archive-level damage (unreadable zip, missing α vector,
member-count/α-length mismatch) surfaces as :class:`CheckpointError`
naming the offending key, architecture/version mismatches keep raising
``ValueError``.  **Non-strict** (``strict=False``) restores every member
it can: a member whose arrays are corrupt, missing, mis-shaped, or
non-finite is *dropped* and recorded in the optional :class:`LoadReport`,
and the surviving members keep their α weights (the ensemble average
normalises by ``Σ α``, so dropping a member implicitly renormalises the
vote).  This is the degraded-load path the serving layer
(:mod:`repro.serving`) builds its quorum decision on.

Format history
--------------
* **v1** — members + alphas, no architecture tag.
* **v2** — adds ``__arch_tag__`` (the member class name), validated on
  load.  v1 archives still load, with a warning instead of validation.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import re
import warnings
import zipfile
import zlib
from dataclasses import dataclass, field
from typing import BinaryIO, Dict, Iterator, List, Optional, Union

import numpy as np

from repro.core.ensemble import Ensemble
from repro.models.factory import ModelFactory

_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)

PathLike = Union[str, pathlib.Path]

#: Exceptions a damaged archive entry can raise while being decoded.
_READ_ERRORS = (KeyError, ValueError, OSError, EOFError,
                zipfile.BadZipFile, zlib.error)


class CheckpointError(RuntimeError):
    """A saved archive/checkpoint is missing, incomplete, or corrupt.

    Home of the error since the serving PR (it is raised by the
    serialization layer itself, not just by checkpoint directories);
    :mod:`repro.core.checkpointing` re-exports it, so both import paths
    keep working.
    """


@dataclass
class DroppedMember:
    """One member a non-strict load had to discard, and why."""

    index: int
    alpha: float
    reason: str


@dataclass
class LoadReport:
    """What a (possibly degraded) ensemble load actually restored."""

    requested: int = 0                      # members the archive declares
    loaded_indices: List[int] = field(default_factory=list)
    dropped: List[DroppedMember] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.dropped)

    @property
    def alpha_retained(self) -> float:
        """Fraction of the archive's total α mass that survived the load."""
        lost = sum(drop.alpha for drop in self.dropped)
        kept = self._kept_alpha
        total = kept + lost
        return 1.0 if total <= 0 else kept / total

    # populated by restore_ensemble; survivors' α values in index order.
    _kept_alpha: float = 0.0


def _npz_path(path: PathLike) -> pathlib.Path:
    """The path ``np.savez`` would actually write (it appends ``.npz``)."""
    path = pathlib.Path(path)
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    return path


def _fsync_directory(directory: pathlib.Path) -> None:
    """Best-effort fsync of a directory entry after a rename.

    The rename makes the swap atomic, but only a directory fsync makes
    it *durable* — without it a crash can roll the rename back and leave
    no archive at all.  Some filesystems (and non-POSIX platforms) refuse
    to open directories; that costs durability, not atomicity, so errors
    are swallowed.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextlib.contextmanager
def atomic_write(path: pathlib.Path) -> Iterator[BinaryIO]:
    """Write ``path`` atomically and durably through a binary handle.

    The block writes to a sibling temporary file, which is flushed,
    fsynced and moved into place with ``os.replace``; the parent
    directory is then fsynced (best-effort).  Readers only ever see the
    old file or the complete new one, and a crash right after the block
    cannot lose the rename.  If the block raises, the temporary file is
    removed and ``path`` is left as it was.
    """
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_directory(path.parent)


def atomic_savez(path: PathLike, payload: Dict[str, np.ndarray]) -> pathlib.Path:
    """Write an ``.npz`` archive with :func:`atomic_write`; returns the path.

    Writing through a file object also sidesteps ``np.savez``'s automatic
    ``.npz`` suffixing, which would otherwise break the rename.
    """
    path = _npz_path(path)
    with atomic_write(path) as handle:
        np.savez(handle, **payload)
    return path


def ensemble_payload(ensemble: Ensemble) -> Dict[str, np.ndarray]:
    """The archive entries describing ``ensemble`` (members, alphas, tag)."""
    if not len(ensemble):
        raise ValueError("refusing to save an empty ensemble")
    payload = {
        "__format_version__": np.array(_FORMAT_VERSION),
        "__num_models__": np.array(len(ensemble)),
        "__alphas__": np.asarray(ensemble.alphas),
        "__arch_tag__": np.array(type(ensemble.models[0]).__name__),
    }
    for index, model in enumerate(ensemble.models):
        for name, value in model.state_dict().items():
            payload[f"model{index}/{name}"] = value
    return payload


def _required_entry(archive, key: str) -> np.ndarray:
    """Read a mandatory archive key, or raise a clean :class:`CheckpointError`."""
    try:
        return archive[key]
    except KeyError:
        raise CheckpointError(
            f"archive is missing required key '{key}'") from None


def _member_state(archive, index: int) -> Dict[str, np.ndarray]:
    """Decode one member's arrays; any damage raises with the key named."""
    prefix = f"model{index}/"
    state = {}
    for key in archive.files:
        if not key.startswith(prefix):
            continue
        try:
            value = archive[key]
        except _READ_ERRORS as error:
            raise CheckpointError(
                f"cannot decode array '{key}': {error}") from error
        if not isinstance(value, np.ndarray):
            # NpzFile hands back raw bytes for an entry whose npy header
            # is gone — the signature of a torn write.
            raise CheckpointError(
                f"cannot decode array '{key}': not a valid npy entry")
        if np.issubdtype(value.dtype, np.floating) and \
                not np.isfinite(value).all():
            raise CheckpointError(f"array '{key}' contains non-finite values")
        state[key[len(prefix):]] = value
    if not state:
        raise CheckpointError(f"no arrays stored under '{prefix}*'")
    return state


def restore_ensemble(archive, factory: ModelFactory, strict: bool = True,
                     report: Optional[LoadReport] = None) -> Ensemble:
    """Rebuild an ensemble from an open ``.npz`` archive.

    Shared by :func:`load_ensemble` and the checkpoint loader; validates
    the format version and the architecture tag before touching weights.

    With ``strict=False``, members whose arrays are corrupt, missing,
    mis-shaped, or non-finite are skipped instead of fatal; the survivors
    keep their α values (Eq. 16 renormalises by ``Σ α``) and every drop is
    recorded in ``report``.  Archive-level damage — an unreadable α
    vector, a member-count/α-length mismatch, or zero restorable members —
    is unrecoverable in either mode and raises :class:`CheckpointError`.
    """
    version = int(_required_entry(archive, "__format_version__"))
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported ensemble format version {version}")
    probe = factory.build(rng=0)
    if "__arch_tag__" in archive.files:
        tag = str(archive["__arch_tag__"].item())
        built = type(probe).__name__
        if tag != built:
            raise ValueError(
                f"architecture mismatch: archive was saved from '{tag}' "
                f"but the factory builds '{built}'")
    elif version == 1:
        warnings.warn(
            "ensemble archive predates architecture tags (format v1); "
            "skipping architecture validation", stacklevel=3)
    else:
        raise ValueError("archive is missing the architecture tag")

    count = int(_required_entry(archive, "__num_models__"))
    alphas = np.asarray(_required_entry(archive, "__alphas__")).reshape(-1)
    if len(alphas) != count:
        raise CheckpointError(
            f"member-count mismatch: '__num_models__' declares {count} "
            f"member(s) but '__alphas__' has {len(alphas)} entr"
            f"{'y' if len(alphas) == 1 else 'ies'}")
    stored = {int(match.group(1))
              for match in (re.match(r"model(\d+)/", key)
                            for key in archive.files) if match}
    extra = sorted(index for index in stored if index >= count)
    if extra and strict:
        raise CheckpointError(
            f"member-count mismatch: '__num_models__' declares {count} "
            f"member(s) but the archive holds extra key(s) under "
            f"'model{extra[0]}/'")

    if report is None:
        report = LoadReport()
    report.requested = count

    ensemble = Ensemble()
    for index in range(count):
        alpha = float(alphas[index])
        try:
            if not np.isfinite(alpha) or alpha <= 0:
                raise CheckpointError(
                    f"alpha[{index}] = {alpha} is not a positive finite weight")
            state = _member_state(archive, index)
            # A fresh model per member: a failed partial load must never
            # leak stale parameters/buffers into the next member's build.
            model = probe if not ensemble.models and index == 0 else \
                factory.build(rng=0)
            try:
                model.load_state_dict(state)
            except KeyError as error:
                raise CheckpointError(
                    f"missing key in state dict: {error.args[0]}") from error
            except ValueError as error:
                if strict:
                    # A parameter-shape mismatch keeps its historical
                    # ValueError contract (same class as the arch-tag
                    # check — the factory builds the wrong topology).
                    raise ValueError(f"member {index}: {error}") from error
                raise CheckpointError(str(error)) from error
        except CheckpointError as error:
            if strict:
                raise CheckpointError(f"member {index}: {error}") from error
            report.dropped.append(DroppedMember(index, alpha, str(error)))
            continue
        model.eval()
        ensemble.add(model, alpha)
        report.loaded_indices.append(index)
        report._kept_alpha += alpha
    if not len(ensemble):
        raise CheckpointError(
            f"no members could be restored (all {count} dropped: "
            f"{report.dropped[0].reason})")
    return ensemble


def save_ensemble(ensemble: Ensemble, path: PathLike) -> None:
    """Serialise ``ensemble`` to ``path`` (a ``.npz`` archive), atomically."""
    atomic_savez(path, ensemble_payload(ensemble))


def load_ensemble(path: PathLike, factory: ModelFactory, strict: bool = True,
                  report: Optional[LoadReport] = None) -> Ensemble:
    """Rebuild an ensemble saved by :func:`save_ensemble`.

    ``factory`` must construct the same architecture the ensemble was
    trained with; an architecture-tag or parameter-shape mismatch raises
    ``ValueError``.  An archive that cannot be opened at all (missing
    file, truncated/torn zip) raises :class:`CheckpointError` naming the
    path.  ``strict=False`` degrades over per-member damage instead of
    raising — see :func:`restore_ensemble`.
    """
    path = _npz_path(path)
    try:
        archive = np.load(path)
    except FileNotFoundError:
        raise CheckpointError(f"no ensemble archive at {path}") from None
    except _READ_ERRORS as error:
        raise CheckpointError(
            f"cannot read ensemble archive {path}: {error}") from error
    with archive:
        return restore_ensemble(archive, factory, strict=strict, report=report)
