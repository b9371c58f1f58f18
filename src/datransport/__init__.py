"""Optimal transport on networks with departure-arrival time profiles.

Boundary laws prescribe when mass may leave sources and reach sinks;
interior nodes meter throughput with per-time flow-rate caps.  The solver
couples all admissible paths through shared nodal multipliers and runs
entropic scaling sweeps over chain messages.
"""

from .errors import (
    BadEndpointError,
    BadParamError,
    BrokenPathError,
    GridMismatchError,
    InfeasiblePreconditionError,
    MassMismatchError,
    MixtureError,
    NonFiniteError,
    NonIncreasingTimesError,
    NonProbabilityError,
    PlanTooLargeError,
    ScenarioFormatError,
    SizeCapError,
    TransportError,
    UnreachableMassError,
)
from .feasibility import (
    FeasibilityVerdict,
    TripletWitness,
    check_da_feasibility,
    monotone_rearrangement,
    quantile_coupling_witness,
)
from .grid_measures import (
    JointMeasure,
    Measure,
    TimeGrid,
    cdf,
    gaussian_mixture,
    quantile,
)
from .kernels import (
    MongeReport,
    PairKernel,
    XTwistReport,
    build_pair_kernel,
    check_generalized_monge,
    check_xtwist,
    path_cost,
    use_log_domain,
)
from .network import (
    CapacityProfile,
    Path,
    TransportNetwork,
    path_cost_terms,
    validate_paths,
)
from .reference_oracle import (
    DenseTensor,
    chain_cost_tensor,
    dense_coupled_sinkhorn,
    dense_sinkhorn,
    entropy,
)
from .scenarios import (
    ScenarioSpec,
    check_property,
    scenario_61,
    scenario_62_line,
    scenario_63_network,
    scenario_64_convergence,
)
from .sinkhorn_engine import (
    ChainMessages,
    ConvergenceReport,
    PathSystem,
    PlanCells,
    SinkhornState,
    SolverConfig,
    aggregate_marginals,
    boundary_update,
    capacity_update,
    coupled_boundary_update,
    extract_plan,
    flux_profile,
    node_marginals,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "TimeGrid", "Measure", "JointMeasure", "cdf", "quantile", "gaussian_mixture",
    "TransportNetwork", "CapacityProfile", "Path", "validate_paths", "path_cost_terms",
    "FeasibilityVerdict", "TripletWitness", "check_da_feasibility",
    "quantile_coupling_witness", "monotone_rearrangement",
    "PairKernel", "build_pair_kernel", "path_cost", "use_log_domain",
    "MongeReport", "check_generalized_monge", "XTwistReport", "check_xtwist",
    "PathSystem", "SinkhornState", "SolverConfig", "ChainMessages",
    "ConvergenceReport", "PlanCells", "solve", "flux_profile",
    "aggregate_marginals", "boundary_update", "capacity_update",
    "coupled_boundary_update", "extract_plan", "node_marginals",
    "DenseTensor", "dense_sinkhorn", "dense_coupled_sinkhorn", "entropy",
    "chain_cost_tensor",
    "ScenarioSpec", "scenario_61", "scenario_62_line", "scenario_63_network",
    "scenario_64_convergence", "check_property",
    "TransportError", "BadParamError", "NonProbabilityError", "MixtureError",
    "GridMismatchError", "MassMismatchError", "BrokenPathError", "BadEndpointError",
    "InfeasiblePreconditionError", "NonIncreasingTimesError", "UnreachableMassError",
    "PlanTooLargeError", "SizeCapError", "ScenarioFormatError", "NonFiniteError",
]
