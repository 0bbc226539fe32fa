"""Cover-time bounds for random walks on finite multigraphs.

The package computes, for any connected component, an explicit upper
bound and certified lower bounds on the worst-start expected cover time
from dyadic resistance-ball covering statistics, and validates them
against seeded Monte Carlo simulation and exact small-instance oracles
across a family of random-graph models.

Each public name is imported from its layer on first use (PEP 562), so
``import covertime`` loads no layer. Names are looked up on every access
and not kept here: a function replaced on its home module is seen here.
"""
import importlib

# layer -> the public names it defines
_EXPORTS = {
    "bounds": (
        "BoundReport", "CoveringLevel", "CoveringProfile", "compute_bound_report",
        "default_matthews_sets", "greedy_packing", "matthews_from_oracle", "psi_bound",
    ),
    "errors": (
        "ContractViolation", "CovertimeError", "DegenerateModelError", "EdgeListParseError",
        "StepLimitExceeded", "VertexRangeError",
    ),
    "experiments": (
        "CellResult", "EdgeAdditionReport", "ScalingReport", "cooper_frieze_phi",
        "edge_addition_suite", "evaluate_cell", "evolution_suite", "fit_loglog",
        "gw_scaling_suite",
    ),
    "generators": (
        "BaseGraphSpec", "GiantModelParams", "GiantSample", "PGWTree", "complete_graph",
        "conjugate_mu", "cycle_graph", "giant_model", "gnp", "hypercube_graph", "path_graph",
        "percolate", "pgw_tree", "random_regular_graph", "star_graph", "torus_graph",
        "uniform_labeled_tree",
    ),
    "graphs": (
        "ComponentView", "MultiGraph", "connected_components", "from_edge_list",
        "largest_component", "load_edge_list", "to_edge_list_text",
    ),
    "resistance": ("DiameterResult", "ResistanceOracle", "hitting_time", "resistance_diameter"),
    "walks": (
        "LocalTimeTrace", "TailCheckPoint", "WalkEstimate", "exact_cover_time",
        "exact_cover_time_worst", "exact_cover_times", "local_time_tail_check", "simulate",
        "trace_local_times",
    ),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}
_LAYERS = (*_EXPORTS, "blas", "forkmap", "rng")

__all__ = sorted([*_HOME, *_LAYERS])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
