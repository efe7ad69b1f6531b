"""Multi-seed replication aggregates.

Every accuracy in the paper's tables is a single training run; at the
scaled-down budgets of this reproduction, single-seed differences of
±1-2 points are within noise (EXPERIMENTS.md).  :class:`ReplicatedResult`
aggregates a method's runs across seeds as mean ± standard deviation, so
claims like "EDDE beats Snapshot" can be checked with error bars.  The
statistics behind it — :func:`sample_std`, :func:`standard_error` and the
:func:`z_screen` significance screen — live here once; the grid
aggregator one layer up folds its run tables with the same functions.

The seed loops themselves live one layer up:
:func:`repro.experiments.grid.run_replicated` and
:func:`~repro.experiments.grid.compare_replicated` execute the runs as
declarative grids and return these aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.core.results import FitResult


def sample_std(values: Sequence[float]) -> float:
    """Sample standard deviation (``ddof=1``); 0.0 for fewer than 2 values.

    The n=1 guard keeps single-seed grids (and ``ReplicatedResult`` with
    one seed) finite instead of warning-and-NaN-ing.
    """
    if len(values) < 2:
        return 0.0
    return float(np.std(np.asarray(values, dtype=np.float64), ddof=1))


def standard_error(values: Sequence[float]) -> float:
    """Standard error of the mean under the sample-std convention."""
    if not values:
        return float("nan")
    return sample_std(values) / math.sqrt(len(values))


def z_screen(mean_a: float, stderr_a: float,
             mean_b: float, stderr_b: float, z: float = 1.0) -> bool:
    """Whether mean ``a`` exceeds ``b`` by ``z`` combined standard errors.

    A coarse two-sample z-style screen, not a formal test — enough to
    separate 'real ordering' from single-seed noise in grid summaries.
    Callers must have a spread estimate on both sides: with n < 2 the
    stderr degenerates to 0 and any nonzero difference would pass, so
    :func:`~repro.experiments.grid.significance_matrix` omits such pairs
    instead of calling this.
    """
    spread = math.hypot(stderr_a, stderr_b)
    return bool(mean_a - mean_b > z * spread)


@dataclass
class ReplicatedResult:
    """Aggregate of one method across seeds."""

    method: str
    accuracies: List[float] = field(default_factory=list)
    member_averages: List[float] = field(default_factory=list)
    results: List[FitResult] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        """Sample standard deviation; see :func:`sample_std`."""
        return sample_std(self.accuracies)

    @property
    def stderr(self) -> float:
        return standard_error(self.accuracies)

    def summary(self) -> str:
        return (f"{self.method}: {self.mean:.4f} ± {self.std:.4f} "
                f"(n={len(self.accuracies)})")
