"""Compare two sets of benchmark runs against the benchmark's bounds.

Each set is a JSON-lines file of runs as ``run.py`` appends them to
``history.jsonl``, optionally narrowed to one commit with ``@<sha
prefix>``::

    python3 benchmarks/e2e/compare.py history.jsonl@6dce53a history.jsonl@1a2b3c4

For every workload and end-to-end metric it prints each side's run count,
median and quartiles, how much worse the second median is than the first
(negative: better), and a verdict:

* ``unresolved`` — either side's spread (quartile distance over median)
  is wider than the metric's bound, and the runs do not separate
  completely (every run of one side better than every run of the other);
* ``worse`` — the second median is worse than the first by more than
  the bound (or, when unresolved by spread, every run is worse);
* ``better`` — the second median is better by more than both sides'
  spreads (or, when unresolved by spread, every run is better);
* ``unchanged`` — anything else.

A time metric is also shown as wall time before the host-speed
calibration (``raw_<name>``, judged against the same bound), so the
calibration's effect on a comparison is visible.  Only untraced runs of
the ``full`` preset are compared.
"""

from __future__ import annotations

import argparse
import collections
import json
import pathlib
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def load_runs(spec: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [values]}}`` from ``PATH[@SHA]``."""
    path, _, sha = spec.partition("@")
    runs: Dict[str, Dict[str, List[float]]] = collections.defaultdict(
        lambda: collections.defaultdict(list))
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("trace") or record.get("preset") != "full":
                continue
            if sha and not record["stamp"]["git_sha"].startswith(sha):
                continue
            for name, metric in record["result"]["metrics"].items():
                runs[record["workload"]][name].append(metric["value"])
            for name, value in record.get("diagnostics", {}).items():
                if name.startswith("raw_"):
                    runs[record["workload"]][name].append(value)
    return runs


def summary(values: List[float]) -> Tuple[float, float, float]:
    """Median and the first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(first: List[float], second: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """(verdict, relative change of the median, positive = worse)."""
    (m1, a1, b1), (m2, a2, b2) = summary(first), summary(second)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (m2 - m1) / m1 if m1 else 0.0
    spread = max((b1 - a1) / m1 if m1 else 0.0,
                 (b2 - a2) / m2 if m2 else 0.0)
    all_better = max(sign * v for v in second) < min(sign * v for v in first)
    all_worse = min(sign * v for v in second) > max(sign * v for v in first)
    if spread > bound:
        if all_better:
            return "better", worse_by
        if all_worse:
            return "worse", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > spread:
        return "better", worse_by
    return "unchanged", worse_by


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("first", help="PATH[@SHA] of the baseline runs")
    parser.add_argument("second", help="PATH[@SHA] of the candidate runs")
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    metrics += [dict(metric, name=f"raw_{metric['name']}")
                for metric in metrics]
    first, second = load_runs(args.first), load_runs(args.second)
    print(f"{'workload':<14}{'metric':<22}{'n1':>4}{'median1 [q1, q3]':>30}"
          f"{'n2':>4}{'median2 [q1, q3]':>30}{'worse by':>9}  verdict")
    worse = False
    for workload in sorted(set(first) | set(second)):
        for metric in metrics:
            name = metric["name"]
            a, b = first[workload][name], second[workload][name]
            if not a and not b:
                continue
            if not a or not b:
                print(f"{workload:<14}{name:<22}{len(a):>4}{'':>30}"
                      f"{len(b):>4}{'':>30}{'':>9}  missing")
                continue
            result, change = verdict(a, b, metric["better"],
                                     metric["bound"])
            if not name.startswith("raw_"):
                worse = worse or result == "worse"
            cells = []
            for values in (a, b):
                median, q1, q3 = summary(values)
                cells.append(f"{len(values):>4}"
                             f"{f'{median:.4g} [{q1:.4g}, {q3:.4g}]':>30}")
            print(f"{workload:<14}{name:<22}{cells[0]}{cells[1]}"
                  f"{change:>+9.1%}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
