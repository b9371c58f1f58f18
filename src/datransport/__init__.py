"""Optimal transport on networks with departure-arrival time profiles.

Boundary laws prescribe when mass may leave sources and reach sinks;
interior nodes meter throughput with per-time flow-rate caps.  The solver
couples all admissible paths through shared nodal multipliers and runs
entropic scaling sweeps over chain messages.

The dense reference oracle and the feasibility check are loaded on first
use of one of their names (PEP 562), so that importing the package or its
CLI, which solves without them, does not pay for them.
"""

import importlib

from .driver import (
    boundary_update,
    capacity_update,
    coupled_boundary_update,
    flux_profile,
    solve,
)
from .errors import (
    BadEndpointError,
    BadParamError,
    BrokenPathError,
    GridMismatchError,
    InfeasiblePreconditionError,
    MassMismatchError,
    MixtureError,
    NonFiniteError,
    NonProbabilityError,
    PlanTooLargeError,
    ScenarioFormatError,
    SizeCapError,
    TransportError,
    UnreachableMassError,
)
from .grid_measures import (
    JointMeasure,
    Measure,
    TimeGrid,
    cdf,
    gaussian_mixture,
    quantile,
)
from .kernels import PairKernel, build_pair_kernel
from .network import (
    CapacityProfile,
    Path,
    TransportNetwork,
    path_cost_terms,
    validate_paths,
)
from .plans import PlanCells, extract_plan
from .scenarios import (
    ScenarioSpec,
    check_property,
    scenario_61,
    scenario_62_line,
    scenario_63_network,
    scenario_64_convergence,
)
from .sinkhorn_engine import (
    ConvergenceReport,
    PathSystem,
    SinkhornState,
    SolverConfig,
    aggregate_marginals,
)

__version__ = "0.1.0"

# name -> the module that defines it, imported on the name's first use
_LAZY = {
    **dict.fromkeys(["FeasibilityVerdict", "TripletWitness", "check_da_feasibility",
                     "quantile_coupling_witness"], "feasibility"),
    **dict.fromkeys(["DenseTensor", "chain_cost_tensor", "dense_coupled_sinkhorn",
                     "dense_sinkhorn", "entropy"], "reference_oracle"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})

__all__ = [
    "TimeGrid", "Measure", "JointMeasure", "cdf", "quantile", "gaussian_mixture",
    "TransportNetwork", "CapacityProfile", "Path", "validate_paths", "path_cost_terms",
    "FeasibilityVerdict", "TripletWitness", "check_da_feasibility", "quantile_coupling_witness",
    "PairKernel", "build_pair_kernel",
    "PathSystem", "SinkhornState", "SolverConfig",
    "ConvergenceReport", "PlanCells", "solve", "flux_profile",
    "aggregate_marginals", "boundary_update", "capacity_update",
    "coupled_boundary_update", "extract_plan",
    "DenseTensor", "dense_sinkhorn", "dense_coupled_sinkhorn", "entropy",
    "chain_cost_tensor",
    "ScenarioSpec", "scenario_61", "scenario_62_line", "scenario_63_network",
    "scenario_64_convergence", "check_property",
    "TransportError", "BadParamError", "NonProbabilityError", "MixtureError",
    "GridMismatchError", "MassMismatchError", "BrokenPathError", "BadEndpointError",
    "InfeasiblePreconditionError", "UnreachableMassError",
    "PlanTooLargeError", "SizeCapError", "ScenarioFormatError", "NonFiniteError",
]
