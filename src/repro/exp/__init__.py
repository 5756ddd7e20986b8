"""Experiment orchestration: specs, fleets, grids, and the result cache.

``repro.exp`` turns "run one simulation" into "run a fleet of them":

* :class:`ExperimentSpec` — picklable, digestable description of a run;
* :class:`ExperimentSummary` / :func:`run_spec` — the compact worker-side
  result (heavyweight ``System``/``History`` never leave the worker);
* :class:`Fleet` — serial or multiprocessing execution, ordered output;
* :class:`ResultCache` — content-addressed on-disk summary cache;
* :func:`expand_grid` / :class:`CellAggregate` — multi-parameter ×
  multi-seed studies with per-cell aggregation.
"""

from repro.exp.chaos import ChaosReport, chaos_spec, run_chaos_spec
from repro.exp.cache import (
    DEFAULT_CACHE_DIR,
    CacheStats,
    ResultCache,
    code_fingerprint,
)
from repro.exp.fleet import BACKENDS, Fleet, FleetStats, FleetTaskError
from repro.exp.grid import (
    CellAggregate,
    GridAxis,
    GridCell,
    expand_grid,
    flatten_specs,
)
from repro.exp.spec import ExperimentSpec
from repro.exp.summary import (
    ExperimentSummary,
    audit_result,
    run_spec,
    summarize,
)
from repro.parameters import (
    PARAMETERS,
    PARAMETERS_BY_FLAG,
    Parameter,
    parse_parameter_value,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_CACHE_DIR",
    "CacheStats",
    "CellAggregate",
    "ChaosReport",
    "chaos_spec",
    "ExperimentSpec",
    "ExperimentSummary",
    "Fleet",
    "FleetStats",
    "FleetTaskError",
    "GridAxis",
    "GridCell",
    "PARAMETERS",
    "PARAMETERS_BY_FLAG",
    "Parameter",
    "ResultCache",
    "code_fingerprint",
    "expand_grid",
    "flatten_specs",
    "parse_parameter_value",
    "run_chaos_spec",
    "audit_result",
    "run_spec",
    "summarize",
]
