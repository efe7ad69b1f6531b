"""Declarative grid specs and their deterministic run-table expansion.

A :class:`GridSpec` is a *factor table*: named factors, each with a list
of levels, optionally pruned by declarative constraints and enriched by
named cases (method + override bundles, as in the paper's Table VI
variants).  Expansion walks the cartesian product in declared factor
order and yields a stable, fully-resolved :class:`RunSpec` per surviving
cell — the *run table* every other grid component (executor, manifest,
aggregator) operates on.

Stability guarantees, relied on by the sharded executor and the
resume/aggregation tests:

* expanding the same spec always yields the same runs in the same order;
* ``run_id`` is content-derived (grid name + factor assignment + cell
  ordinal), so a run keeps its id no matter how many shards execute the
  table or which shard it lands in;
* ``spec_hash`` fingerprints the whole spec, so a resumed grid can refuse
  a directory that was produced by a different spec.

Reserved factor names: ``method``, ``scenario``, ``seed`` and ``case``
map onto :class:`RunSpec` fields; every other factor is treated as a
free-form config override (e.g. a ``gamma`` factor sweeps
``EDDEConfig.gamma`` — the paper's Table V).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

RESERVED_FACTORS = ("method", "scenario", "seed", "case")

_SPEC_FIELDS = {
    "name", "factors", "cases", "base", "constraints", "runner", "collect",
    "data_seed", "profile_ops", "checkpoint", "keep_last", "max_retries",
    "group_by",
}


class GridSpecError(ValueError):
    """A malformed spec, caught at construction/parse time."""


@dataclass(frozen=True)
class RunSpec:
    """One fully-resolved cell of the run table."""

    index: int                    # position in the expanded table
    run_id: str                   # stable content-derived identifier
    grid: str                     # owning GridSpec.name
    factors: Tuple[Tuple[str, Any], ...]   # full factor assignment
    method: str                   # resolved method ("" if runner-specific)
    scenario: str                 # scenario name (registry or protocol)
    seed: int                     # replication seed factor
    overrides: Tuple[Tuple[str, Any], ...]  # resolved config overrides
    runner: str                   # runner registry key
    collect: str                  # metric-collector registry key

    @property
    def factor_dict(self) -> Dict[str, Any]:
        return dict(self.factors)

    @property
    def override_dict(self) -> Dict[str, Any]:
        return dict(self.overrides)

    def to_payload(self) -> dict:
        payload = asdict(self)
        payload["factors"] = dict(self.factors)
        payload["overrides"] = dict(self.overrides)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "RunSpec":
        return cls(
            index=int(payload["index"]), run_id=payload["run_id"],
            grid=payload["grid"],
            factors=_freeze(payload["factors"]),
            method=payload["method"], scenario=payload["scenario"],
            seed=int(payload["seed"]),
            overrides=_freeze(payload["overrides"]),
            runner=payload["runner"], collect=payload["collect"])


def _freeze(mapping: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple((str(key), value) for key, value in mapping.items())


def canonical_json(value: Any) -> str:
    """Deterministic JSON used for hashing specs and factor assignments."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)


def stable_digest(value: Any, length: int = 10) -> str:
    """Stable hex digest of any JSON-able value (PYTHONHASHSEED-proof)."""
    return hashlib.sha1(canonical_json(value).encode("utf-8")).hexdigest()[:length]


@dataclass
class GridSpec:
    """A declarative experiment grid: factors -> runs -> aggregates.

    Attributes
    ----------
    name:
        Grid identifier; names the state directory and the
        ``results/GRID_<name>.json`` artifact.
    factors:
        Ordered mapping of factor name to its levels.  A missing ``seed``
        factor defaults to ``[0]`` so every grid aggregates over at least
        one replication seed.
    cases:
        Optional named bundles, e.g. the Table VI ablation variants: each
        value may set ``method``, ``runner`` and ``overrides`` for the
        runs of that case.  When present and no explicit ``case`` factor
        is declared, a ``case`` factor over all bundle names is appended.
    base:
        Overrides applied to every run (case/factor overrides win).
    constraints:
        Declarative pruning: each entry is a partial factor assignment
        (values may be lists, meaning membership); a cell matching *all*
        entries of any constraint is dropped from the run table.
    runner / collect:
        Registry keys (see :mod:`~repro.experiments.grid.runners` and
        :mod:`~repro.experiments.grid.collectors`).  A case bundle may
        override ``runner`` per cell.
    checkpoint / keep_last / max_retries:
        Per-run training fault tolerance, threaded into the PR 2
        machinery by the method runner.
    group_by:
        Aggregation grouping; defaults to every factor except ``seed``.
    """

    name: str
    factors: Dict[str, List[Any]]
    cases: Optional[Dict[str, dict]] = None
    base: Dict[str, Any] = field(default_factory=dict)
    constraints: List[Dict[str, Any]] = field(default_factory=list)
    runner: str = "method"
    collect: str = "standard"
    data_seed: int = 0
    profile_ops: bool = False
    checkpoint: bool = True
    keep_last: int = 1
    max_retries: Optional[int] = None
    group_by: Optional[List[str]] = None

    def __post_init__(self) -> None:
        if not self.name or not str(self.name).replace("_", "").replace(
                "-", "").isalnum():
            raise GridSpecError(
                f"grid name must be a [-_a-zA-Z0-9]+ slug, got {self.name!r}")
        self.factors = {str(k): list(v) for k, v in dict(self.factors).items()}
        if self.cases is not None and "case" not in self.factors:
            self.factors["case"] = list(self.cases)
        if "seed" not in self.factors:
            self.factors["seed"] = [0]
        for factor, levels in self.factors.items():
            if not levels:
                raise GridSpecError(f"factor {factor!r} has no levels")
        if self.cases is not None:
            unknown = [c for c in self.factors["case"] if c not in self.cases]
            if unknown:
                raise GridSpecError(
                    f"case factor references unknown bundle(s): {unknown}")
        for constraint in self.constraints:
            if not isinstance(constraint, dict) or not constraint:
                raise GridSpecError(
                    f"constraints must be non-empty dicts, got {constraint!r}")
            for factor in constraint:
                if factor not in self.factors:
                    raise GridSpecError(
                        f"constraint names unknown factor {factor!r}")

    # -- identity ------------------------------------------------------
    def to_payload(self) -> dict:
        payload = {
            "name": self.name,
            "factors": self.factors,
            "base": self.base,
            "constraints": self.constraints,
            "runner": self.runner,
            "collect": self.collect,
            "data_seed": self.data_seed,
            "profile_ops": self.profile_ops,
            "checkpoint": self.checkpoint,
            "keep_last": self.keep_last,
            "max_retries": self.max_retries,
        }
        if self.cases is not None:
            payload["cases"] = self.cases
        if self.group_by is not None:
            payload["group_by"] = self.group_by
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "GridSpec":
        if not isinstance(payload, dict):
            raise GridSpecError(f"grid spec must be an object, "
                                f"got {type(payload).__name__}")
        unknown = sorted(set(payload) - _SPEC_FIELDS)
        if unknown:
            raise GridSpecError(f"unknown spec field(s): {', '.join(unknown)}")
        missing = [key for key in ("name", "factors") if key not in payload]
        if missing:
            raise GridSpecError(f"spec is missing: {', '.join(missing)}")
        return cls(**payload)

    @classmethod
    def from_json(cls, path) -> "GridSpec":
        path = pathlib.Path(path)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise GridSpecError(f"cannot read grid spec {path}: {error}")
        return cls.from_payload(payload)

    @property
    def spec_hash(self) -> str:
        return stable_digest(self.to_payload(), length=12)

    def group_factors(self) -> List[str]:
        if self.group_by is not None:
            return list(self.group_by)
        return [factor for factor in self.factors if factor != "seed"]

    # -- expansion -----------------------------------------------------
    def expand(self) -> List[RunSpec]:
        """The deterministic run table for this spec."""
        runs: List[RunSpec] = []
        names = list(self.factors)
        for index, combo in enumerate(
                itertools.product(*(self.factors[n] for n in names))):
            assignment = dict(zip(names, combo))
            if self._pruned(assignment):
                continue
            runs.append(self._resolve(len(runs), assignment))
        if not runs:
            raise GridSpecError(
                f"grid {self.name!r}: constraints pruned every cell")
        return runs

    def _pruned(self, assignment: Dict[str, Any]) -> bool:
        for constraint in self.constraints:
            if all(assignment[factor] in value
                   if isinstance(value, (list, tuple))
                   else assignment[factor] == value
                   for factor, value in constraint.items()):
                return True
        return False

    def _resolve(self, ordinal: int, assignment: Dict[str, Any]) -> RunSpec:
        overrides = dict(self.base)
        runner = self.runner
        method = assignment.get("method", "")
        if self.cases is not None:
            bundle = self.cases[assignment["case"]]
            method = bundle.get("method", method)
            runner = bundle.get("runner", runner)
            overrides.update(bundle.get("overrides", {}))
        for factor, value in assignment.items():
            if factor not in RESERVED_FACTORS:
                overrides[factor] = value
        run_id = (f"r{ordinal:04d}-"
                  + stable_digest({"grid": self.name, "cell": assignment}))
        return RunSpec(
            index=ordinal, run_id=run_id, grid=self.name,
            factors=_freeze(assignment),
            method=str(method), scenario=str(assignment.get("scenario", "")),
            seed=int(assignment.get("seed", 0)),
            overrides=_freeze(overrides), runner=str(runner),
            collect=str(self.collect))
