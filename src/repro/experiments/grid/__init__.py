"""Declarative experiment grids: spec -> run table -> shards -> aggregates.

The orchestration layer above :mod:`repro.experiments`: a
:class:`GridSpec` declares factors (method, scenario, seed, any config
override), :func:`run_grid` executes the expanded run table — optionally
sharded across processes with per-run checkpoint/resume — and one
aggregation pass produces mean ± std per group plus a coarse
significance screen.  Every benchmark table/figure and the ``repro
grid`` CLI subcommand run through this package.
"""

from repro.experiments.grid.aggregate import (
    aggregate_records,
    find_group,
    significance_matrix,
)
from repro.experiments.grid.collectors import (
    record_fit_result,
    register_collector,
    resolve_collector,
)
from repro.experiments.grid.executor import (
    GridExecutor,
    GridResult,
    GridStateError,
    RunRecord,
    collect_records,
    execute_run,
    grid_result,
    run_grid,
)
from repro.experiments.grid.replicate import compare_replicated, run_replicated
from repro.experiments.grid.reporting import (
    emit,
    ensure_results_dir,
    write_grid_artifact,
    write_json,
)
from repro.experiments.grid.runners import (
    RunContext,
    RunOutput,
    beta_teacher_rng,
    register_runner,
    register_scenario,
    resolve_runner,
    resolve_scenario,
    run_rng,
    scenario_scope,
)
from repro.experiments.grid.spec import (
    GridSpec,
    GridSpecError,
    RunSpec,
    expand_runs,
    stable_digest,
)
from repro.experiments.replication import (
    sample_std,
    standard_error,
    z_screen,
)

__all__ = [
    "GridExecutor", "GridResult", "GridSpec", "GridSpecError",
    "GridStateError", "RunContext", "RunOutput", "RunRecord", "RunSpec",
    "aggregate_records", "beta_teacher_rng", "collect_records",
    "compare_replicated", "emit",
    "ensure_results_dir", "execute_run", "expand_runs", "find_group",
    "grid_result", "record_fit_result", "register_collector",
    "register_runner", "register_scenario", "resolve_collector",
    "resolve_runner", "resolve_scenario", "run_grid", "run_replicated",
    "run_rng", "sample_std", "scenario_scope", "significance_matrix",
    "stable_digest", "standard_error", "write_grid_artifact", "write_json",
    "z_screen",
]
