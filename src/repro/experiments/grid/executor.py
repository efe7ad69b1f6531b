"""Sharded grid execution with an atomic per-run manifest.

The executor partitions the run table round-robin across ``num_shards``
(run ``i`` belongs to shard ``i % num_shards``) and executes its shard's
runs either in-process or across a ``multiprocessing`` pool.  Every
completed run is recorded as one atomically-written JSON file under
``<out>/<grid>/manifest/<run_id>.json`` — the unit of resumability: a
killed grid re-invoked with ``resume=True`` skips every run whose
manifest entry is already ``done`` (and, for the run that died mid-fit,
continues from its last round checkpoint via PR 2's
:class:`~repro.core.checkpointing.CheckpointManager`).

Because runs seed their RNG from the run table alone (see
:mod:`~repro.experiments.grid.runners`) and aggregation folds records in
run-table order, the aggregate of any shard/worker/resume combination is
bit-identical to an uninterrupted single-shard execution.

State directory layout::

    <out>/<grid_name>/
      grid.json                  # spec payload, spec_hash and the resolved
                                 # REPRO_* settings (resume guard)
      manifest/<run_id>.json     # one atomic entry per completed run
      runs/<run_id>/checkpoints/ # per-round training state (mid-run kills)
"""

from __future__ import annotations

import json
import multiprocessing
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.serialization import atomic_write
from repro.experiments.grid.aggregate import (
    aggregate_records,
    jsonable,
    significance_matrix,
)
from repro.experiments.grid.runners import RunContext, resolve_runner
from repro.experiments.grid.spec import GridSpec, RunSpec
from repro.experiments.protocol import resolved_settings

_GRID_HEADER = "grid.json"
_PRIMARY_METRIC = "final_accuracy"


class GridStateError(RuntimeError):
    """An out-directory that cannot be (re)used for this spec."""


@dataclass
class RunRecord:
    """One manifest entry: a run's outcome, metrics and metadata."""

    index: int
    run_id: str
    grid: str
    factors: Dict[str, Any]
    method: str
    scenario: str
    seed: int
    status: str                      # "done" | "failed"
    metrics: Dict[str, Any] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)
    seconds: float = 0.0
    error: str = ""

    def to_payload(self) -> dict:
        return {
            "index": self.index, "run_id": self.run_id, "grid": self.grid,
            "factors": jsonable(self.factors), "method": self.method,
            "scenario": self.scenario, "seed": self.seed,
            "status": self.status, "metrics": jsonable(self.metrics),
            "meta": jsonable(self.meta), "seconds": self.seconds,
            "error": self.error,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RunRecord":
        fields = dict(payload)
        fields.pop("spec_hash", None)
        return cls(**fields)


def _atomic_write_json(path: pathlib.Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as handle:
        handle.write((json.dumps(payload, indent=2, sort_keys=True)
                      + "\n").encode())


def _read_json(path: pathlib.Path) -> Optional[dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


# ----------------------------------------------------------------------
# Single-run execution (shared by the serial path and pool workers).

def execute_run(spec: GridSpec, run: RunSpec,
                out_dir: Optional[pathlib.Path],
                resume: bool) -> Tuple[RunRecord, bool]:
    """Execute (or skip) one run; returns ``(record, executed)``.

    With an out directory, a ``done`` manifest entry for this spec hash
    short-circuits the run — that single check is what makes a killed
    grid resumable without re-running finished work.
    """
    manifest_path = run_dir = None
    if out_dir is not None:
        grid_dir = pathlib.Path(out_dir) / spec.name
        manifest_path = grid_dir / "manifest" / f"{run.run_id}.json"
        run_dir = grid_dir / "runs" / run.run_id
        entry = _read_json(manifest_path)
        if entry is not None and entry.get("status") == "done" \
                and entry.get("spec_hash") == spec.spec_hash:
            return RunRecord.from_payload(entry), False

    context = RunContext(spec=spec, run_dir=run_dir, resume=resume)
    runner = resolve_runner(run.runner)
    start = time.perf_counter()
    try:
        output = runner(run, context)
    except KeyboardInterrupt:
        raise                        # a kill is a kill: leave no manifest
    except Exception as error:       # noqa: BLE001 - isolate per-run faults
        record = RunRecord(
            index=run.index, run_id=run.run_id, grid=run.grid,
            factors=run.factor_dict, method=run.method,
            scenario=run.scenario, seed=run.seed, status="failed",
            seconds=time.perf_counter() - start,
            error=f"{type(error).__name__}: {error}")
    else:
        record = RunRecord(
            index=run.index, run_id=run.run_id, grid=run.grid,
            factors=run.factor_dict, method=run.method,
            scenario=run.scenario, seed=run.seed, status="done",
            metrics=output.metrics, meta=output.meta,
            seconds=time.perf_counter() - start)
    if manifest_path is not None:
        payload = record.to_payload()
        payload["spec_hash"] = spec.spec_hash
        _atomic_write_json(manifest_path, payload)
    return record, True


def _pool_execute(args: tuple) -> dict:
    spec_payload, run_payload, out_dir, resume = args
    spec = GridSpec.from_payload(spec_payload)
    run = RunSpec.from_payload(run_payload)
    record, _ = execute_run(
        spec, run, pathlib.Path(out_dir) if out_dir else None, resume)
    return record.to_payload()


# ----------------------------------------------------------------------
# The sharded executor.

class GridExecutor:
    """Executes one shard of a grid's run table."""

    def __init__(self, spec: GridSpec, out_dir=None,
                 shard_index: int = 0, num_shards: int = 1,
                 workers: int = 1, resume: bool = False):
        if num_shards < 1 or not 0 <= shard_index < num_shards:
            raise ValueError(f"bad shard {shard_index}/{num_shards}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if out_dir is None and workers > 1:
            raise ValueError("parallel workers need an out_dir for their "
                             "manifest (in-memory grids run serially)")
        self.spec = spec
        self.out_dir = pathlib.Path(out_dir) if out_dir is not None else None
        self.shard_index = shard_index
        self.num_shards = num_shards
        self.workers = workers
        self.resume = resume
        self.runs = spec.expand()
        if self.out_dir is not None:
            self._check_state_dir()

    @property
    def grid_dir(self) -> Optional[pathlib.Path]:
        if self.out_dir is None:
            return None
        return self.out_dir / self.spec.name

    def shard_runs(self) -> List[RunSpec]:
        return [run for run in self.runs
                if run.index % self.num_shards == self.shard_index]

    # -- state-directory guards ---------------------------------------
    def _check_state_dir(self) -> None:
        header_path = self.grid_dir / _GRID_HEADER
        header = _read_json(header_path)
        if header is not None and header.get("spec_hash") != self.spec.spec_hash:
            raise GridStateError(
                f"{self.grid_dir} holds state for a different spec "
                f"(hash {header.get('spec_hash')} != {self.spec.spec_hash}); "
                f"use a fresh --out directory")
        settings = resolved_settings()
        if header is None:
            _atomic_write_json(header_path, {
                "name": self.spec.name, "spec": self.spec.to_payload(),
                "spec_hash": self.spec.spec_hash, "settings": settings})
        elif header.get("settings") != settings:
            raise GridStateError(
                f"{self.grid_dir} holds runs made under other REPRO_* "
                f"settings ({header.get('settings')} != {settings}); rerun "
                f"under the recorded REPRO_SCALE/REPRO_TRAIN_SIZE/"
                f"REPRO_TEST_SIZE/REPRO_DTYPE or use a fresh --out directory")
        if not self.resume:
            stale = [run.run_id for run in self.shard_runs()
                     if (self.grid_dir / "manifest"
                         / f"{run.run_id}.json").is_file()]
            if stale:
                raise GridStateError(
                    f"{self.grid_dir} already has manifest entries for "
                    f"{len(stale)} of this shard's runs (e.g. {stale[0]}); "
                    f"pass resume=True/--resume to skip completed runs, or "
                    f"use a fresh --out directory")

    # -- execution -----------------------------------------------------
    def execute(self) -> List[RunRecord]:
        """Run this shard; returns its records in run-table order."""
        runs = self.shard_runs()
        if self.workers == 1:
            records = [execute_run(self.spec, run, self.out_dir,
                                   self.resume)[0]
                       for run in runs]
        else:
            spec_payload = self.spec.to_payload()
            out = str(self.out_dir)
            tasks = [(spec_payload, run.to_payload(), out, self.resume)
                     for run in runs]
            with multiprocessing.Pool(processes=self.workers) as pool:
                payloads = pool.map(_pool_execute, tasks, chunksize=1)
            records = [RunRecord.from_payload(p) for p in payloads]
        return sorted(records, key=lambda record: record.index)


# ----------------------------------------------------------------------
# Whole-grid convenience + the aggregate artifact payload.

@dataclass
class GridResult:
    """A completed (or partially completed) grid with its aggregates."""

    spec: GridSpec
    records: List[RunRecord]
    aggregates: List[dict]
    significance: List[dict]
    missing: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.missing and all(
            record.status == "done" for record in self.records)

    @property
    def failures(self) -> List[RunRecord]:
        return [record for record in self.records
                if record.status == "failed"]

    def find(self, **factors) -> List[RunRecord]:
        return [record for record in self.records
                if all(record.factors.get(name) == value
                       for name, value in factors.items())]

    def one(self, **factors) -> RunRecord:
        matches = self.find(**factors)
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} runs match {factors} in grid "
                           f"{self.spec.name!r} (expected exactly 1)")
        return matches[0]

    def metric(self, name: str, **factors):
        return self.one(**factors).metrics[name]

    def group(self, **factors) -> Optional[dict]:
        from repro.experiments.grid.aggregate import find_group
        return find_group(self.aggregates, **factors)

    def to_payload(self) -> dict:
        return {
            "grid": self.spec.name,
            "spec": self.spec.to_payload(),
            "spec_hash": self.spec.spec_hash,
            "complete": self.complete,
            "missing": list(self.missing),
            "runs": [record.to_payload() for record in self.records],
            "aggregates": jsonable(self.aggregates),
            "significance": jsonable(self.significance),
        }


def collect_records(spec: GridSpec,
                    out_dir) -> Tuple[List[RunRecord], List[str]]:
    """Read every manifest entry of ``spec``'s run table from ``out_dir``.

    Returns ``(records, missing_run_ids)`` — the aggregation input and
    the coverage gap (runs other shards have not finished yet).
    """
    manifest_dir = pathlib.Path(out_dir) / spec.name / "manifest"
    records: List[RunRecord] = []
    missing: List[str] = []
    for run in spec.expand():
        entry = _read_json(manifest_dir / f"{run.run_id}.json")
        if entry is None or entry.get("spec_hash") != spec.spec_hash:
            missing.append(run.run_id)
            continue
        records.append(RunRecord.from_payload(entry))
    return records, missing


def grid_result(spec: GridSpec, records: Sequence[RunRecord],
                missing: Sequence[str] = ()) -> GridResult:
    """Aggregate ``records`` into a :class:`GridResult` (one pass)."""
    ordered = sorted(records, key=lambda record: record.index)
    group_by = spec.group_factors()
    aggregates = aggregate_records(ordered, group_by=group_by)
    significance = []
    if "method" in group_by and any(
            _PRIMARY_METRIC in entry["metrics"] for entry in aggregates):
        significance = significance_matrix(aggregates, _PRIMARY_METRIC,
                                           versus="method")
    return GridResult(spec=spec, records=ordered, aggregates=aggregates,
                      significance=significance, missing=list(missing))


def run_grid(spec: GridSpec, out_dir=None, num_shards: int = 1,
             workers: int = 1, resume: bool = False,
             artifact_dir=None) -> GridResult:
    """Execute a whole grid (every shard) and aggregate it.

    ``out_dir=None`` runs fully in memory (no manifest, no per-run
    checkpoints), the mode fast tests use.  With an out directory the
    grid is durable: killing and re-invoking with ``resume=True``
    completes the remaining runs.  Either way each run's outcome is its
    JSON-ready :class:`RunRecord` (metrics and meta), and the aggregates
    are folded from those records alone.  ``artifact_dir`` additionally
    writes the ``GRID_<name>.json`` aggregate artifact via
    :mod:`~repro.experiments.grid.reporting`.
    """
    records: List[RunRecord] = []
    for shard_index in range(num_shards):
        executor = GridExecutor(
            spec, out_dir=out_dir, shard_index=shard_index,
            num_shards=num_shards, workers=workers, resume=resume)
        records.extend(executor.execute())
    missing: List[str] = []
    if out_dir is not None:
        records, missing = collect_records(spec, out_dir)
    result = grid_result(spec, records, missing)
    if artifact_dir is not None:
        from repro.experiments.grid.reporting import write_grid_artifact
        write_grid_artifact(result, directory=artifact_dir)
    return result
