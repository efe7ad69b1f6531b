"""Per-table/figure experiment protocols and runners."""

from repro.experiments.protocol import Scenario, build_scenario, scale
from repro.experiments.runner import (
    ALL_METHODS,
    make_edde_config,
    run_ablation,
    run_beta_sweep,
    run_bias_variance,
    run_diversity_analysis,
    run_effectiveness,
    run_gamma_sweep,
    run_method,
)
from repro.experiments.variants import (
    run_edde_correlate_previous_model,
    run_edde_cumulative_weights,
)
from repro.experiments.replication import ReplicatedResult

# run_replicated / compare_replicated moved up a layer: they are thin
# grids now — import them from repro.experiments.grid.

__all__ = [
    "Scenario",
    "build_scenario",
    "scale",
    "ALL_METHODS",
    "run_method",
    "make_edde_config",
    "run_effectiveness",
    "run_diversity_analysis",
    "run_gamma_sweep",
    "run_ablation",
    "run_bias_variance",
    "run_beta_sweep",
    "run_edde_cumulative_weights",
    "run_edde_correlate_previous_model",
    "ReplicatedResult",
]
