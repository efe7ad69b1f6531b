"""Accuracy-versus-epochs curve analysis (paper Fig. 7).

Fig. 7 plots each method's ensemble accuracy against cumulative training
epochs and reads off two things: who is highest at any budget, and the
speed-up ratio ("EDDE achieves 73.67% within 130 epochs while Snapshot
needs 400 to reach 72.98%" → >3× faster).  These helpers compute both from
:class:`~repro.core.results.FitResult` curves and render an ASCII chart.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.results import FitResult


def epochs_to_reach(result: FitResult, target_accuracy: float) -> Optional[int]:
    """First cumulative-epoch checkpoint whose accuracy >= target (None if never)."""
    for point in result.curve:
        if point.ensemble_accuracy >= target_accuracy:
            return point.cumulative_epochs
    return None


def speedup_over(fast: FitResult, slow: FitResult) -> Optional[float]:
    """How many times fewer epochs ``fast`` needs to match ``slow``'s best.

    Mirrors the paper's Fig. 7 reading: find the slow method's best
    accuracy and where the fast method first meets or beats it.
    """
    if not slow.curve:
        return None
    best_slow = max(point.ensemble_accuracy for point in slow.curve)
    budget_slow = max(point.cumulative_epochs for point in slow.curve)
    budget_fast = epochs_to_reach(fast, best_slow)
    if budget_fast is None or budget_fast == 0:
        return None
    return budget_slow / budget_fast


def render_curves(results: Sequence[FitResult], width: int = 72,
                  height: int = 18, title: str = "") -> str:
    """ASCII line chart of every method's accuracy-vs-epochs curve."""
    curves: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for result in results:
        epochs, acc = result.curve_arrays()
        if len(epochs):
            curves[result.method] = (epochs, acc)
    if not curves:
        return "(no curves recorded)"

    max_epoch = max(e.max() for e, _ in curves.values())
    min_acc = min(a.min() for _, a in curves.values())
    max_acc = max(a.max() for _, a in curves.values())
    span = max(max_acc - min_acc, 1e-9)

    grid = [[" "] * width for _ in range(height)]
    markers = "ox+*sdv^"
    legend = []
    for index, (method, (epochs, acc)) in enumerate(curves.items()):
        marker = markers[index % len(markers)]
        legend.append(f"{marker} = {method}")
        for e, a in zip(epochs, acc):
            col = int((e / max_epoch) * (width - 1))
            row = int((1.0 - (a - min_acc) / span) * (height - 1))
            grid[row][col] = marker

    lines = []
    if title:
        lines.append(title)
    lines.append(f"acc: {max_acc:.3f} (top) .. {min_acc:.3f} (bottom)   "
                 f"epochs: 0 .. {int(max_epoch)}")
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append("   ".join(legend))
    return "\n".join(lines)


def curve_table(results: Sequence[FitResult],
                budgets: Sequence[int]) -> List[dict]:
    """Accuracy of every method at each epoch budget (Fig. 7 as numbers)."""
    rows = []
    for result in results:
        row = {"method": result.method}
        for budget in budgets:
            acc = result.accuracy_at_budget(budget)
            row[f"@{budget}"] = float("nan") if acc is None else acc
        rows.append(row)
    return rows
