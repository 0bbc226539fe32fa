"""Experiment orchestration: bound reports, scaling suites, edge addition.

Scaling suites spread their (size, seed) cells over the CPUs of the
affinity mask with ``forkmap.fork_shares``, cell i in process i mod W, each
process pinned to its CPU. A process samples its cells and computes their
bound reports, then runs the walks of all of them, worst-start and
fixed-start, in pooled batches (``walks._estimates``), which see one CPU
and stay in the process. Each cell is a pure function of the master seed,
so reports are byte-identical across reruns and process counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import forkmap
from .bounds import (
    BoundReport,
    default_matthews_sets,
    greedy_packing,
    matthews_from_oracle,
    psi_bound,
)
from .errors import ContractViolation, DegenerateModelError
from .generators import gnp, uniform_labeled_tree
from .graphs import ComponentView, MultiGraph, largest_component
from .resistance import DENSE_LIMIT, ResistanceOracle, resistance_diameter
from .rng import derive_seed
from .walks import (
    EXACT_DP_LIMIT,
    WORST_START_LIMIT,
    _estimates,
    _request,
    exact_cover_time_worst,
    simulate,
)


def compute_bound_report(
    component: ComponentView,
    *,
    dense_limit: int = DENSE_LIMIT,
    i_max: int | None = None,
) -> BoundReport:
    """Full bound pipeline: oracle, diameter, packing, bounds, Matthews."""
    oracle = ResistanceOracle(component, dense_limit=dense_limit)
    diam = resistance_diameter(oracle)
    profile = greedy_packing(oracle, diam.value, i_max=i_max)
    report = psi_bound(profile, component.graph.edge_total)
    report.diameter_pair = diam.pair
    if component.size >= 2:
        sets = default_matthews_sets(profile, diam.pair)
        report.matthews_lower = matthews_from_oracle(oracle, sets)[0]
    else:
        report.matthews_lower = 0.0
    return report


@dataclass
class CellResult:
    """One (component, seed) evaluation: bounds plus a simulated cover time."""

    size: int
    edge_total: int
    R: float
    kklv_lower: float
    matthews_lower: float
    upper_clean: float
    upper_theorem: float
    cover_mean: float
    cover_std_err: float
    trials: int
    start_policy: str

    @property
    def lower(self) -> float:
        return max(self.kklv_lower, self.matthews_lower)

    def sandwich_ok(self) -> bool:
        slack = 3.0 * self.cover_std_err
        return self.lower <= self.cover_mean + slack <= self.upper_theorem

    def to_dict(self) -> dict:
        return {
            "size": int(self.size),
            "edges": int(self.edge_total),
            "R": float(self.R),
            "kklv_lower": float(self.kklv_lower),
            "matthews_lower": float(self.matthews_lower),
            "upper_clean": float(self.upper_clean),
            "upper_theorem": float(self.upper_theorem),
            "cover_mean": float(self.cover_mean),
            "cover_std_err": float(self.cover_std_err),
            "trials": int(self.trials),
            "start_policy": self.start_policy,
            "sandwich_ok": self.sandwich_ok(),
        }


def _prepare_cell(component: ComponentView, *, trials: int, master_seed: int):
    """The bound report of one cell and the request of its cover walks.

    Components small enough for the exact worst start use it; larger ones
    start from the smaller endpoint of the resistance-diameter pair, a
    deterministic heuristic lower bound on the worst start.
    """
    report = compute_bound_report(component)
    if component.size <= WORST_START_LIMIT:
        request = _request(component, "cover", start_policy="worst_over_all_starts",
                           trials=trials, master_seed=master_seed)
    else:
        request = _request(component, "cover", start_policy="fixed",
                           start=min(report.diameter_pair), trials=trials, master_seed=master_seed)
    return report, request


def _cell_result(component: ComponentView, report: BoundReport, est) -> CellResult:
    return CellResult(
        size=component.size,
        edge_total=component.graph.edge_total,
        R=report.R,
        kklv_lower=report.kklv_lower,
        matthews_lower=report.matthews_lower,
        upper_clean=report.upper_clean,
        upper_theorem=report.upper_theorem,
        cover_mean=est.mean,
        cover_std_err=est.std_err,
        trials=est.trials,
        start_policy=est.start_policy,
    )


def evaluate_cell(
    component: ComponentView,
    *,
    trials: int,
    master_seed: int,
) -> CellResult:
    """Bounds plus simulated cover time for one component (``_prepare_cell``),
    its walks a one-request pooled batch."""
    report, request = _prepare_cell(component, trials=trials, master_seed=master_seed)
    (ok, est), = _estimates([request])
    if not ok:
        raise est
    return _cell_result(component, report, est)


def _run_cells(sample, jobs, trials):
    """One process's cells: ``(True, CellResult or None)`` or ``(False,
    error)`` for each (x, s) job, as a serial loop of sampling, bounds and
    walks would meet them. ``sample(x, s)`` draws the cell's component and
    walk seed, or None for an unusable sample. The walks of the cells run
    in pooled batches (``walks._estimates``) once the bounds are done."""
    outcomes = []
    for job in jobs:
        try:
            drawn = sample(*job)
            if drawn is not None:
                comp, seed = drawn
                drawn = (comp, *_prepare_cell(comp, trials=trials, master_seed=seed))
        except Exception as exc:
            # a serial loop stops here: the cells after it are never read
            outcomes += [(False, exc)] * (len(jobs) - len(outcomes))
            break
        outcomes.append((True, drawn))
    ready = [i for i, (ok, got) in enumerate(outcomes) if ok and got is not None]
    for i, (ok, est) in zip(ready, _estimates([outcomes[i][1][2] for i in ready])):
        comp, report, _ = outcomes[i][1]
        outcomes[i] = (True, _cell_result(comp, report, est)) if ok else (False, est)
    return outcomes


# ---------------------------------------------------------------------------
# scaling suites


@dataclass
class ScalingRow:
    x: int
    seeds: int
    median_cover: float
    median_upper_clean: float
    median_kklv_lower: float
    median_upper_theorem: float
    law: float
    reference: float | None = None

    def to_dict(self, x_name: str) -> dict:
        out = {
            x_name: int(self.x),
            "seeds": int(self.seeds),
            "median_cover": float(self.median_cover),
            "median_upper_clean": float(self.median_upper_clean),
            "median_kklv_lower": float(self.median_kklv_lower),
            "median_upper_theorem": float(self.median_upper_theorem),
            "law": float(self.law),
        }
        if self.reference is not None:
            out["cooper_frieze_reference"] = float(self.reference)
        return out


@dataclass
class ScalingReport:
    regime: str
    x_name: str
    params: dict
    rows: list[ScalingRow]
    fitted_exponent: float
    fitted_ci: tuple[float, float]
    master_seed: int
    cells: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "regime": self.regime,
            "params": self.params,
            "rows": [row.to_dict(self.x_name) for row in self.rows],
            "fitted_exponent": float(self.fitted_exponent),
            "fitted_ci": [float(self.fitted_ci[0]), float(self.fitted_ci[1])],
            "master_seed": int(self.master_seed),
            "cells": self.cells,
        }

    def all_cells_sandwiched(self) -> bool:
        return all(cell["sandwich_ok"] for cell in self.cells)


def fit_loglog(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, tuple[float, float]]:
    """Least-squares slope of log y against log x with a 95% interval."""
    if len(xs) < 3:
        raise ContractViolation("log-log fit needs >= 3 grid points")
    if min(xs) <= 0 or min(ys) <= 0:
        raise ContractViolation("log-log fit needs positive abscissae and ordinates")
    lx = np.log(np.asarray(xs, dtype=float))
    if lx.min() == lx.max():
        raise ContractViolation("log-log fit needs >= 2 distinct abscissae")
    ly = np.log(np.asarray(ys, dtype=float))
    n = len(lx)
    mx = lx.mean()
    sxx = float(((lx - mx) ** 2).sum())
    slope = float(((lx - mx) * (ly - ly.mean())).sum() / sxx)
    intercept = float(ly.mean() - slope * mx)
    resid = ly - (intercept + slope * lx)
    dof = max(n - 2, 1)
    se = math.sqrt(float((resid ** 2).sum()) / dof / sxx)
    return slope, (slope - 1.96 * se, slope + 1.96 * se)


def cooper_frieze_phi(c: float) -> float:
    """Reference constant phi(c) = c x (2 - x) / (4 (c x - ln c)) with x the
    positive root of x = 1 - e^(-c x); printed as context for supercritical
    rows, never asserted."""
    if c <= 1.0:
        raise ContractViolation("phi(c) needs c > 1")
    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - 1.0 + math.exp(-c * mid) < 0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    return c * x * (2.0 - x) / (4.0 * (c * x - math.log(c)))


_REGIME_NAMES = {"a": "subcritical", "b": "critical", "c": "supercritical"}


def _regime_settings(regime: str, n: int, lam: float, eps_power: float):
    if regime == "a":
        eps = n ** (-eps_power)
        p = (1.0 - eps) / n
        law = eps ** -3 * math.log(eps ** 3 * n) ** 1.5
    elif regime == "b":
        p = (1.0 + lam * n ** (-1.0 / 3.0)) / n
        law = float(n)
    elif regime == "c":
        eps = n ** (-eps_power)
        p = (1.0 + eps) / n
        law = n * math.log(eps ** 3 * n) ** 2
    else:
        raise ContractViolation(f"unknown regime {regime!r}")
    return p, law


def _scaling_suite(
    x_grid: Sequence[int],
    seeds: int,
    trials: int,
    sample: Callable[[int, int], tuple[ComponentView, int] | None],
    law: Callable[[int], float],
    abscissa: Callable[[int], float],
    reference: Callable[[int], float] | None,
    *,
    regime: str,
    x_name: str,
    params: dict,
    master_seed: int,
) -> ScalingReport:
    """Shared by both scaling suites: the cell of every grid point and seed
    index, ``sample(x, s)`` then bounds and walks, its processes' cells at
    once through ``forkmap.fork_shares`` (``_run_cells``), read in grid
    order (None marks an unusable sample; a cell's exception is raised where
    a serial loop meets it), per-x medians, and the log-log fit of median
    cover on ``abscissa(x)``."""
    jobs = [(x, s) for x in x_grid for s in range(seeds)]
    outcomes = iter(forkmap.fork_shares(lambda share: _run_cells(sample, share, trials), jobs))
    rows = []
    cells = []
    for x in x_grid:
        got = []
        for s in range(seeds):
            ok, result = next(outcomes)
            if not ok:
                raise result
            if result is not None:
                got.append(result)
                cells.append({x_name: x, "seed_index": s, **result.to_dict()})
        if not got:
            raise DegenerateModelError(f"no usable component at {x_name}={x}")
        rows.append(
            ScalingRow(
                x=x,
                seeds=len(got),
                median_cover=float(np.median([c.cover_mean for c in got])),
                median_upper_clean=float(np.median([c.upper_clean for c in got])),
                median_kklv_lower=float(np.median([c.kklv_lower for c in got])),
                median_upper_theorem=float(np.median([c.upper_theorem for c in got])),
                law=law(x),
                reference=None if reference is None else reference(x),
            )
        )
    slope, ci = fit_loglog([abscissa(row.x) for row in rows], [row.median_cover for row in rows])
    return ScalingReport(
        regime=regime,
        x_name=x_name,
        params=params,
        rows=rows,
        fitted_exponent=slope,
        fitted_ci=ci,
        master_seed=master_seed,
        cells=cells,
    )


def evolution_suite(
    regime: str,
    n_grid: Sequence[int],
    seeds: int,
    trials: int,
    master_seed: int,
    *,
    lam: float = 0.0,
    eps_power: float = 0.25,
) -> ScalingReport:
    """Largest-component cover-time scaling for the three density regimes:
    (a) below the window, (b) inside it, (c) above it. The predicted law
    column carries the regime's theoretical growth rate evaluated at each
    grid point; the fit is of median cover time against that law value."""
    if len(set(n_grid)) < 3:
        raise ContractViolation("n_grid needs >= 3 distinct points")
    if seeds < 1 or trials < 1:
        raise ContractViolation("seeds and trials must be >= 1")
    if regime not in _REGIME_NAMES:
        raise ContractViolation(f"unknown regime {regime!r}")
    if regime in ("a", "c") and not 0.0 < eps_power < 1.0 / 3.0:
        # both laws take log(eps^3 n) and need eps^3 n = n^(1 - 3 eps_power) > 1
        raise ContractViolation(f"eps_power must be in (0, 1/3), got {eps_power}")

    def sample(n, s):
        p, _ = _regime_settings(regime, n, lam, eps_power)
        comp = largest_component(gnp(n, p, derive_seed(master_seed, 101, n, s)))
        if comp.size < 2:
            return None
        return comp, derive_seed(master_seed, 202, n, s)

    def law(n):
        return _regime_settings(regime, n, lam, eps_power)[1]

    def cooper_frieze_reference(n):
        return cooper_frieze_phi(1.0 + n ** (-eps_power)) * n * math.log(n) ** 2

    return _scaling_suite(
        n_grid, seeds, trials, sample, law, law,
        cooper_frieze_reference if regime == "c" else None,
        regime=_REGIME_NAMES[regime],
        x_name="n",
        params={
            "regime": regime,
            "n_grid": [int(n) for n in n_grid],
            "seeds": int(seeds),
            "trials": int(trials),
            "lambda": float(lam),
            "eps_power": float(eps_power),
        },
        master_seed=master_seed,
    )


def gw_scaling_suite(
    k_grid: Sequence[int],
    seeds: int,
    trials: int,
    master_seed: int,
) -> ScalingReport:
    """Cover-time scaling on uniform labeled trees; the predicted law is
    k^(3/2)."""
    if len(set(k_grid)) < 3:
        raise ContractViolation("k_grid needs >= 3 distinct points")
    if min(k_grid) < 2:
        raise ContractViolation("k_grid points must be >= 2: a one-vertex tree covers in 0 steps")
    if seeds < 1 or trials < 1:
        raise ContractViolation("seeds and trials must be >= 1")

    def sample(k, s):
        tree = uniform_labeled_tree(k, derive_seed(master_seed, 303, k, s))
        return largest_component(tree), derive_seed(master_seed, 404, k, s)

    return _scaling_suite(
        k_grid, seeds, trials, sample, lambda k: float(k) ** 1.5, float, None,
        regime="gw_tree",
        x_name="k",
        params={
            "k_grid": [int(k) for k in k_grid],
            "seeds": int(seeds),
            "trials": int(trials),
        },
        master_seed=master_seed,
    )


# ---------------------------------------------------------------------------
# edge addition


@dataclass
class EdgeAdditionRow:
    graph_desc: dict
    added: list[tuple[int, int]]
    tcov_before: float
    tcov_after: float
    ratio: float
    bound: float
    std_err: float | None = None

    def to_dict(self) -> dict:
        out = {
            "graph": self.graph_desc,
            "added": [[int(u), int(v)] for u, v in self.added],
            "tcov_before": float(self.tcov_before),
            "tcov_after": float(self.tcov_after),
            "ratio": float(self.ratio),
            "bound": float(self.bound),
        }
        if self.std_err is not None:
            out["std_err"] = float(self.std_err)
        return out


@dataclass
class EdgeAdditionReport:
    mode: str
    k_edges: int
    rows: list[EdgeAdditionRow]
    master_seed: int
    violations: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "k_edges": int(self.k_edges),
            "rows": [row.to_dict() for row in self.rows],
            "violations": [int(i) for i in self.violations],
            "master_seed": int(self.master_seed),
        }


def _random_connected_gnp(rng: np.random.Generator, n_max: int) -> MultiGraph:
    while True:
        n = int(rng.integers(2, n_max + 1))
        p = float(rng.uniform(0.25, 0.9))
        g = gnp(n, p, int(rng.integers(0, 2 ** 63 - 1)))
        if largest_component(g).size == n:
            return g


def edge_addition_suite(
    mode: str,
    k_edges: int,
    instances: int,
    master_seed: int,
    *,
    n_max: int = 10,
    trials: int = 2000,
) -> EdgeAdditionReport:
    """Worst-start cover time before and after adding k random edges
    (including loops and parallel edges). Exact mode asserts the ratio
    bound 4 for one edge and 2k+1+2k^2/|E| for k; Monte Carlo mode reports
    ratios with standard errors."""
    if mode not in ("exact", "mc"):
        raise ContractViolation(f"unknown mode {mode!r}")
    if k_edges < 1 or instances < 1:
        raise ContractViolation("k_edges and instances must be >= 1")
    if n_max < 2:
        raise ContractViolation(f"n_max must be >= 2, got {n_max}")
    limit = EXACT_DP_LIMIT if mode == "exact" else WORST_START_LIMIT
    if n_max > limit:
        raise ContractViolation(f"{mode} mode limited to {limit} vertices, got n_max={n_max}")
    rng = np.random.default_rng(derive_seed(master_seed, 505, k_edges, instances))
    rows = []
    violations = []
    for inst in range(instances):
        g = _random_connected_gnp(rng, n_max)
        n = g.vertex_count
        added = []
        g_plus = g
        for _ in range(k_edges):
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            g_plus = g_plus.add_edge(u, v)
            added.append((u, v))
        E = g.edge_total
        bound = 4.0 if k_edges == 1 else 2 * k_edges + 1 + 2 * k_edges ** 2 / E
        if mode == "exact":
            before = exact_cover_time_worst(ComponentView.whole(g))
            after = exact_cover_time_worst(ComponentView.whole(g_plus))
            std_err = None
        else:
            est_b = simulate(
                ComponentView.whole(g), "cover", start_policy="worst_over_all_starts",
                trials=trials, master_seed=derive_seed(master_seed, 606, inst, 0),
                keep_samples=False,
            )
            est_a = simulate(
                ComponentView.whole(g_plus), "cover", start_policy="worst_over_all_starts",
                trials=trials, master_seed=derive_seed(master_seed, 606, inst, 1),
                keep_samples=False,
            )
            before, after = est_b.mean, est_a.mean
            std_err = math.hypot(est_b.std_err, est_a.std_err)
        ratio = after / before if before > 0 else float("inf")
        rows.append(
            EdgeAdditionRow(
                graph_desc={"n": n, "edges": E},
                added=added,
                tcov_before=before,
                tcov_after=after,
                ratio=ratio,
                bound=bound,
                std_err=std_err,
            )
        )
        if mode == "exact" and ratio > bound + 1e-9:
            violations.append(inst)
    return EdgeAdditionReport(
        mode=mode, k_edges=k_edges, rows=rows, master_seed=master_seed,
        violations=violations,
    )
