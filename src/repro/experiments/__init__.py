"""Per-table/figure experiment protocols and runners."""

from repro.experiments.protocol import Scenario, build_scenario, scale
from repro.experiments.runner import (
    ALL_METHODS,
    make_edde_config,
    run_effectiveness,
    run_method,
)
from repro.experiments.variants import (
    run_edde_correlate_previous_model,
    run_edde_cumulative_weights,
)

# Seed statistics (mean, sample std, stderr, the z-screen) are folded
# from run records by repro.experiments.grid's aggregate, one layer up.

__all__ = [
    "Scenario",
    "build_scenario",
    "scale",
    "ALL_METHODS",
    "run_method",
    "make_edde_config",
    "run_effectiveness",
    "run_edde_cumulative_weights",
    "run_edde_correlate_previous_model",
]
