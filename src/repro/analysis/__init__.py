"""Analysis utilities behind the paper's figures and diversity tables."""

from repro.analysis.bias_variance import (
    BiasVariance,
    main_prediction,
    squared_decomposition,
    zero_one_decomposition,
)
from repro.analysis.similarity import (
    ensemble_div_h,
    ensemble_similarity_matrix,
    mean_offdiagonal_similarity,
    render_heatmap,
)
from repro.analysis.curves import (
    curve_table,
    epochs_to_reach,
    render_curves,
    speedup_over,
)
from repro.analysis.reporting import format_table, percent

__all__ = [
    "BiasVariance",
    "zero_one_decomposition",
    "squared_decomposition",
    "main_prediction",
    "ensemble_similarity_matrix",
    "ensemble_div_h",
    "render_heatmap",
    "mean_offdiagonal_similarity",
    "epochs_to_reach",
    "speedup_over",
    "render_curves",
    "curve_table",
    "format_table",
    "percent",
]
