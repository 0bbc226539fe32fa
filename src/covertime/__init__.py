"""Cover-time bounds for random walks on finite multigraphs.

The package computes, for any connected component, an explicit upper
bound and certified lower bounds on the worst-start expected cover time
from dyadic resistance-ball covering statistics, and validates them
against seeded Monte Carlo simulation and exact small-instance oracles
across a family of random-graph models.
"""
from .bounds import (
    BoundReport,
    CoveringLevel,
    CoveringProfile,
    default_matthews_sets,
    greedy_packing,
    matthews_from_oracle,
    psi_bound,
)
from .errors import (
    ContractViolation,
    CovertimeError,
    DegenerateModelError,
    EdgeListParseError,
    StepLimitExceeded,
    VertexRangeError,
)
from .experiments import (
    CellResult,
    EdgeAdditionReport,
    ScalingReport,
    compute_bound_report,
    cooper_frieze_phi,
    edge_addition_suite,
    evaluate_cell,
    evolution_suite,
    fit_loglog,
    gw_scaling_suite,
)
from .generators import (
    BaseGraphSpec,
    GiantModelParams,
    GiantSample,
    PGWTree,
    complete_graph,
    conjugate_mu,
    cycle_graph,
    giant_model,
    gnp,
    hypercube_graph,
    path_graph,
    percolate,
    pgw_tree,
    random_regular_graph,
    star_graph,
    torus_graph,
    uniform_labeled_tree,
)
from .graphs import (
    ComponentView,
    MultiGraph,
    connected_components,
    from_edge_list,
    largest_component,
    load_edge_list,
    to_edge_list_text,
)
from .resistance import (
    DiameterResult,
    ResistanceOracle,
    hitting_time,
    resistance_diameter,
)
from .walks import (
    LocalTimeTrace,
    TailCheckPoint,
    WalkEstimate,
    exact_cover_time,
    exact_cover_time_worst,
    exact_cover_times,
    local_time_tail_check,
    simulate,
    trace_local_times,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
