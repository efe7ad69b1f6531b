"""One-pass aggregation of a run table into the paper's tables.

The aggregator folds every completed :class:`~repro.experiments.grid.
executor.RunRecord` once, grouped by the spec's non-seed factors, and
reports ``mean ± std`` (sample std, ``ddof=1``), the standard error and
the replication count per numeric metric — the statistics behind the
paper's Tables II-VI and every "EDDE beats X" claim with error bars.

Records are sorted by run-table index before folding, so the aggregate
of an n-shard execution is *bit-identical* to the single-shard aggregate
of the same spec (asserted in ``tests/experiments/test_grid.py`` and the
CI grid-smoke job).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.experiments.replication import (
    sample_std,
    standard_error,
    z_screen,
)


def _numeric(value: Any) -> Optional[float]:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float, np.integer, np.floating)):
        return float(value)
    return None


def aggregate_records(records: Iterable, group_by: Sequence[str],
                      metrics: Optional[Sequence[str]] = None) -> List[dict]:
    """Fold completed run records into per-group summary statistics.

    Parameters
    ----------
    records:
        ``RunRecord``-like objects (``.index``, ``.status``, ``.factors``,
        ``.metrics`` attributes, or plain dicts with the same keys).
    group_by:
        Factor names defining a group (typically every factor but
        ``seed``).
    metrics:
        Restrict to these metric names; by default every scalar metric
        observed in the records is aggregated.

    Returns a list (stable group order = first appearance in run-table
    order) of ``{"group": {...}, "n": int, "metrics": {name: {"mean",
    "std", "stderr", "n"}}}`` entries.
    """
    rows = sorted((_as_row(record) for record in records),
                  key=lambda row: row["index"])
    groups: Dict[str, dict] = {}
    order: List[str] = []
    for row in rows:
        if row["status"] != "done":
            continue
        group = {name: row["factors"].get(name) for name in group_by}
        key = repr(sorted(group.items(), key=lambda item: item[0]))
        if key not in groups:
            groups[key] = {"group": group, "n": 0, "values": {}}
            order.append(key)
        entry = groups[key]
        entry["n"] += 1
        for name, value in row["metrics"].items():
            if metrics is not None and name not in metrics:
                continue
            number = _numeric(value)
            if number is None:
                continue
            entry["values"].setdefault(name, []).append(number)

    aggregated = []
    for key in order:
        entry = groups[key]
        summary = {}
        for name in sorted(entry["values"]):
            values = entry["values"][name]
            summary[name] = {
                "mean": float(np.mean(values)),
                "std": sample_std(values),
                "stderr": standard_error(values),
                "n": len(values),
            }
        aggregated.append({"group": entry["group"], "n": entry["n"],
                           "metrics": summary})
    return aggregated


def find_group(aggregates: List[dict], **factors) -> Optional[dict]:
    """The aggregate entry whose group matches every given factor value."""
    for entry in aggregates:
        if all(entry["group"].get(name) == value
               for name, value in factors.items()):
            return entry
    return None


def significance_matrix(aggregates: List[dict], metric: str,
                        versus: str = "method", z: float = 1.0) -> List[dict]:
    """Pairwise z-screen outcomes between levels of ``versus`` per group.

    Groups are re-keyed by every group factor *except* ``versus``; within
    each, all ordered pairs of ``versus`` levels are screened on
    ``metric``.  Pairs where either side has fewer than 2 replications
    are omitted (one seed gives no spread estimate, so a z-screen would
    flag any nonzero difference).  Feeds the "significantly better"
    annotations of the grid artifact.
    """
    buckets: Dict[str, dict] = {}
    order: List[str] = []
    for entry in aggregates:
        stats = entry["metrics"].get(metric)
        level = entry["group"].get(versus)
        if stats is None or level is None:
            continue
        context = {name: value for name, value in entry["group"].items()
                   if name != versus}
        key = repr(sorted(context.items(), key=lambda item: item[0]))
        if key not in buckets:
            buckets[key] = {"context": context, "levels": {}}
            order.append(key)
        buckets[key]["levels"][level] = stats

    outcomes = []
    for key in order:
        bucket = buckets[key]
        pairs = {}
        for a, stats_a in bucket["levels"].items():
            for b, stats_b in bucket["levels"].items():
                if a == b:
                    continue
                if stats_a["n"] < 2 or stats_b["n"] < 2:
                    continue
                pairs[f"{a}>{b}"] = z_screen(
                    stats_a["mean"], stats_a["stderr"],
                    stats_b["mean"], stats_b["stderr"], z=z)
        outcomes.append({"context": bucket["context"], "metric": metric,
                         "z": z, "pairs": pairs})
    return outcomes


def _as_row(record) -> dict:
    if isinstance(record, dict):
        return {"index": int(record["index"]),
                "status": record.get("status", "done"),
                "factors": dict(record.get("factors", {})),
                "metrics": dict(record.get("metrics", {}))}
    return {"index": record.index, "status": record.status,
            "factors": dict(record.factors), "metrics": dict(record.metrics)}


def jsonable(value: Any):
    """Recursively coerce numpy scalars/arrays for ``json.dumps``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    return value
