import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles as oc
from covertime import (
    BaseGraphSpec,
    ComponentView,
    ContractViolation,
    DegenerateModelError,
    ResistanceOracle,
    compute_bound_report,
    connected_components,
    cooper_frieze_phi,
    cycle_graph,
    edge_addition_suite,
    evaluate_cell,
    evolution_suite,
    exact_cover_time_worst,
    fit_loglog,
    gnp,
    gw_scaling_suite,
    path_graph,
    percolate,
    simulate,
    uniform_labeled_tree,
)
from covertime import blas, errors, experiments, forkmap, graphs, walks
from covertime.cli import main as cli_main
from covertime.rng import derive_seed


class TestFit:
    def test_recovers_power_law(self):
        xs = [10, 20, 40, 80]
        ys = [3 * x ** 1.5 for x in xs]
        slope, (lo, hi) = fit_loglog(xs, ys)
        assert slope == pytest.approx(1.5, abs=1e-9)
        assert lo <= 1.5 <= hi

    def test_needs_three_points(self):
        with pytest.raises(ContractViolation):
            fit_loglog([1, 2], [1, 2])

    def test_equal_abscissae_rejected(self):
        with pytest.raises(ContractViolation):
            fit_loglog([400, 400, 400], [1, 2, 3])

    @pytest.mark.parametrize("xs, ys", [([1, 2, 3], [0.0, 1.0, 2.0]),
                                        ([0, 2, 3], [1.0, 2.0, 3.0]),
                                        ([1, 2, 3], [1.0, -2.0, 3.0])])
    def test_nonpositive_values_rejected(self, xs, ys):
        # log(0) or the log of a negative number would fit NaN
        with pytest.raises(ContractViolation, match="positive"):
            fit_loglog(xs, ys)


class TestCooperFrieze:
    def test_tends_to_one_near_critical(self):
        assert cooper_frieze_phi(1.01) == pytest.approx(1.0, abs=0.02)

    def test_known_shape(self):
        # x(2) solves x = 1 - e^(-2x): x ~ 0.7968
        phi2 = cooper_frieze_phi(2.0)
        x = 0.7968121300200202
        expect = 2 * x * (2 - x) / (4 * (2 * x - math.log(2)))
        assert phi2 == pytest.approx(expect, rel=1e-6)


class TestEvaluateCell:
    def test_cell_sandwich_small(self):
        cell = evaluate_cell(ComponentView.whole(cycle_graph(9)), trials=3000, master_seed=1)
        assert cell.sandwich_ok()
        assert cell.start_policy == "worst_over_all_starts"
        exact = exact_cover_time_worst(ComponentView.whole(cycle_graph(9)))
        assert abs(cell.cover_mean - exact) <= 3 * cell.cover_std_err

    def test_two_vertex_tree_cover_is_one(self):
        comp = ComponentView.whole(uniform_labeled_tree(2, 0))
        cell = evaluate_cell(comp, trials=200, master_seed=3)
        assert cell.cover_mean == 1.0 and cell.cover_std_err == 0.0

    def test_cell_bounds_are_the_bound_report(self):
        comp = ComponentView.whole(uniform_labeled_tree(100, 7))
        cell = evaluate_cell(comp, trials=20, master_seed=4)
        report = compute_bound_report(comp)
        assert cell.R == report.R
        assert cell.kklv_lower == report.kklv_lower
        assert cell.matthews_lower == report.matthews_lower
        assert cell.upper_clean == report.upper_clean
        assert cell.upper_theorem == report.upper_theorem
        # above the worst-start limit the walk starts at the diameter pair
        est = simulate(comp, "cover", start_policy="fixed", start=min(report.diameter_pair),
                       trials=20, master_seed=4, keep_samples=False)
        assert cell.start_policy == est.start_policy == f"fixed({min(report.diameter_pair)})"
        assert cell.cover_mean == est.mean

    def test_cell_dict_keys_stable(self):
        cell = evaluate_cell(ComponentView.whole(path_graph(5)), trials=500, master_seed=2)
        d = cell.to_dict()
        assert d["sandwich_ok"] is True
        assert d["R"] == pytest.approx(4.0, abs=1e-9)


class TestSuites:
    def test_evolution_requires_grid(self):
        with pytest.raises(ContractViolation):
            evolution_suite("b", [100, 200], seeds=2, trials=2, master_seed=0)

    def test_evolution_requires_distinct_grid(self):
        with pytest.raises(ContractViolation, match="distinct"):
            evolution_suite("b", [400, 400, 400], seeds=1, trials=2, master_seed=0)

    def test_gw_scaling_requires_distinct_grid(self):
        with pytest.raises(ContractViolation, match="distinct"):
            gw_scaling_suite([16, 16, 16], seeds=1, trials=2, master_seed=0)

    def test_gw_scaling_rejects_single_vertex_trees(self, monkeypatch):
        # a one-vertex tree covers in 0 steps; rejected before any tree is drawn
        monkeypatch.setattr(experiments, "uniform_labeled_tree", None)
        with pytest.raises(ContractViolation, match=">= 2"):
            gw_scaling_suite([1, 2, 3], seeds=1, trials=2, master_seed=0)

    @pytest.mark.parametrize("regime, eps_power", [
        ("a", 0.5), ("a", 1.0 / 3.0), ("a", 0.0), ("c", 0.34), ("c", -0.1)])
    def test_eps_power_outside_window_rejected(self, regime, eps_power):
        # regimes a and c take log(eps^3 n), which needs eps_power < 1/3
        with pytest.raises(ContractViolation, match="eps_power"):
            evolution_suite(regime, [400, 800, 1600], seeds=1, trials=2,
                            master_seed=0, eps_power=eps_power)

    def test_evolution_report_roundtrip(self):
        rep = evolution_suite("b", [300, 600, 1200], seeds=3, trials=4, master_seed=5)
        d = rep.to_dict()
        assert d["regime"] == "critical"
        assert len(d["rows"]) == 3
        assert all(r["median_kklv_lower"] <= r["median_upper_theorem"] for r in d["rows"])
        assert rep.all_cells_sandwiched()

    def test_supercritical_carries_reference(self):
        rep = evolution_suite("c", [500, 1000, 2000], seeds=2, trials=4, master_seed=9)
        assert all(row.reference is not None for row in rep.rows)

    def test_gw_scaling_requires_seeds(self):
        # zero seeds would leave every row without a cell to take medians of
        with pytest.raises(ContractViolation):
            gw_scaling_suite([16, 32, 64], seeds=0, trials=5, master_seed=1)

    def test_gw_scaling_report(self):
        rep = gw_scaling_suite([16, 32, 64], seeds=4, trials=6, master_seed=3)
        assert rep.x_name == "k"
        assert rep.fitted_exponent > 1.0
        assert rep.all_cells_sandwiched()


class TestEdgeAddition:
    def test_exact_single_edge_bound(self):
        rep = edge_addition_suite("exact", 1, 40, master_seed=13)
        assert rep.violations == []
        assert all(r.ratio <= 4.0 + 1e-9 for r in rep.rows)

    def test_exact_multi_edge_bound(self):
        rep = edge_addition_suite("exact", 3, 15, master_seed=17)
        assert rep.violations == []
        for r in rep.rows:
            assert r.bound == pytest.approx(7 + 18 / r.graph_desc["edges"])
            assert r.ratio <= r.bound + 1e-9

    def test_mc_mode_reports_errors(self):
        rep = edge_addition_suite("mc", 1, 4, master_seed=19, trials=800)
        assert all(r.std_err is not None for r in rep.rows)
        for r in rep.rows:
            assert r.ratio <= 4.0 + 6 * r.std_err / max(r.tcov_before, 1e-9) + 0.5

    def test_exact_limit_checked_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a graph")

        monkeypatch.setattr(experiments, "_random_connected_gnp", no_sampling)
        with pytest.raises(ContractViolation):
            edge_addition_suite("exact", 1, 1, 0, n_max=walks.EXACT_DP_LIMIT + 1)

    def test_mc_limit_checked_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a graph")

        monkeypatch.setattr(experiments, "_random_connected_gnp", no_sampling)
        with pytest.raises(ContractViolation, match="n_max"):
            edge_addition_suite("mc", 1, 1, 0, n_max=walks.WORST_START_LIMIT + 1, trials=2)

    def test_exact_accepts_thirteen_vertices(self):
        rep = edge_addition_suite("exact", 1, 1, 0, n_max=13)
        assert len(rep.rows) == 1 and rep.violations == []

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_n_max_below_two_rejected(self, mode):
        with pytest.raises(ContractViolation):
            edge_addition_suite(mode, 1, 1, 0, n_max=1)

    def test_p3_shortcut_example(self):
        # adding the closing edge to a 3-path turns it into a triangle:
        # worst cover drops from 5 to 3
        from covertime import MultiGraph
        g = path_graph(3)
        before = exact_cover_time_worst(ComponentView.whole(g))
        after = exact_cover_time_worst(ComponentView.whole(g.add_edge(0, 2)))
        assert before == pytest.approx(5.0)
        assert after == pytest.approx(3.0)
        assert after / before == pytest.approx(0.6)

    def test_star_with_center_loop(self):
        from covertime import star_graph
        g = star_graph(3)
        before = exact_cover_time_worst(ComponentView.whole(g))
        after = exact_cover_time_worst(ComponentView.whole(g.add_edge(0, 0)))
        assert after / before <= 4.0


# sha256 of the JSON reports as the CLI prints them: the oracle's memory
# layout and the suites' shared loop may change, these bytes may not. The
# default-limit reports materialize R, the dense_limit=64 ones read rows on
# demand, and both print the same bytes.
PINNED_GRAPHS = {
    "tree200": lambda: ComponentView.whole(uniform_labeled_tree(200, 11)),
    "gnp600": lambda: connected_components(gnp(600, 1.5 / 600, 3))[0],
    "torus12": lambda: connected_components(
        percolate(BaseGraphSpec.torus(12, 2, 0.7), 5)[0])[0],
    "multigraph120": lambda: ComponentView.whole(oc.random_connected_multigraph(
        np.random.default_rng(2), 120, extra_edges=60, loops=6, max_multiplicity=3)),
}
PINNED_BOUNDS = {
    ("tree200", None): "b5e688475c80c3aa4a07c9a61c36b06aeaab02b10b342e2bb3e8aea42e898cf2",
    ("tree200", 64): "b5e688475c80c3aa4a07c9a61c36b06aeaab02b10b342e2bb3e8aea42e898cf2",
    ("gnp600", None): "8f950f4c37eeba0f54e82dd9b9b2da8606febd820ecbaa5c4a8cdbd25acbb454",
    ("gnp600", 64): "8f950f4c37eeba0f54e82dd9b9b2da8606febd820ecbaa5c4a8cdbd25acbb454",
    ("torus12", None): "2bee30c7f2266ad8ad3ca9f96d81aa32dab91f787ca27f9f94ad6de9292cb2ea",
    ("torus12", 64): "2bee30c7f2266ad8ad3ca9f96d81aa32dab91f787ca27f9f94ad6de9292cb2ea",
    ("multigraph120", None): "0f0224293a52f4ab08adce86caf47a05b69577cc364014accf41298f445d19b9",
    ("multigraph120", 64): "0f0224293a52f4ab08adce86caf47a05b69577cc364014accf41298f445d19b9",
}
PINNED_SUITES = {
    "evolution-a": (
        lambda: evolution_suite("a", [200, 400, 800], seeds=2, trials=4, master_seed=1),
        "5c164eafb971f5b53906206525286223075bbd0789b49f748431b1331b7d383f"),
    "evolution-b": (
        lambda: evolution_suite("b", [200, 400, 800], seeds=2, trials=4, master_seed=1),
        "7daeabd9f865885d41099d8d4a64aa1bc7e2169ee9a45334fa4efc0e7096ecae"),
    "evolution-c": (
        lambda: evolution_suite("c", [200, 400, 800], seeds=2, trials=4, master_seed=1),
        "f4b0010be5ce365d4acd3d384842f077dc3238fe34e2c9924783fca051b8cce3"),
    "gw": (
        lambda: gw_scaling_suite([16, 32, 64], seeds=3, trials=5, master_seed=2),
        "eac8cd8c8fb09aa461ce0d235c55af7f06cb7b67ce1eb7a437c9e4592be2c90e"),
}


def _report_sha(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()


@pytest.mark.parametrize("graph,dense_limit", sorted(PINNED_BOUNDS, key=str))
def test_pinned_bound_report(graph, dense_limit):
    comp = PINNED_GRAPHS[graph]()
    kw = {} if dense_limit is None else {"dense_limit": dense_limit}
    assert comp.size > 64  # dense_limit=64 takes the sparse path
    report = compute_bound_report(comp, **kw)
    assert _report_sha(report.to_dict()) == PINNED_BOUNDS[graph, dense_limit]


# gnp600 (a 401-vertex component) and a random 3-regular graph that is its
# own kernel, so the kernel inverse is 1199 x 1199
_THREAD_REPORTS = (
    "import json; from covertime import compute_bound_report, connected_components, gnp, "
    "random_regular_graph; "
    "print(json.dumps([compute_bound_report(connected_components(g)[0]).to_dict() "
    "for g in (gnp(600, 1.5 / 600, 3), random_regular_graph(1200, 3, 5))], indent=2))"
)


@pytest.mark.skipif(not blas.threads_pinned(),
                    reason="no OpenBLAS thread setter resolved: the dense path follows the thread count")
def test_bound_report_bytes_identical_across_blas_threads():
    # the dense factorization, its inverse and Matthews' row sums round
    # differently at one BLAS thread and at two unless pinned to one
    outs = {}
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_REPORTS], capture_output=True, text=True,
            timeout=300, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        outs[threads] = proc.stdout
    assert outs["1"] == outs["2"]
    gnp600, regular = json.loads(outs["1"])
    assert _report_sha(gnp600) == PINNED_BOUNDS["gnp600", None]
    assert regular["levels"][-1]["size"] == 1200


@pytest.mark.parametrize("case", sorted(PINNED_SUITES))
def test_pinned_suite_report(case):
    build, want = PINNED_SUITES[case]
    assert _report_sha(build().to_dict()) == want


@pytest.mark.parametrize("graph", sorted(PINNED_GRAPHS))
def test_dense_and_sparse_reports_agree(graph):
    comp = PINNED_GRAPHS[graph]()
    dense = compute_bound_report(comp)
    sparse = compute_bound_report(comp, dense_limit=64)
    assert dense.diameter_pair == sparse.diameter_pair
    assert [lvl.centers for lvl in dense.levels] == [lvl.centers for lvl in sparse.levels]
    assert json.dumps(dense.to_dict(), indent=2) == json.dumps(sparse.to_dict(), indent=2)


@pytest.mark.parametrize("graph", sorted(PINNED_GRAPHS))
def test_foster_identity_on_pinned_graphs(graph):
    comp = PINNED_GRAPHS[graph]()
    oracle = ResistanceOracle(comp)
    g = comp.graph
    assert oracle.dense
    total = sum(m * oracle.resistance_local(u, v) for u, v, m in g.edges if u != v)
    assert abs(total - (comp.size - 1)) <= 1e-9 * comp.size


def test_traced_names_resolve():
    # the benchmark's traced run wraps these names from outside the package
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    try:
        from perfbench.tracing import Tracer
    finally:
        sys.path.pop(0)
    init = ResistanceOracle.__init__
    tracer = Tracer()
    tracer.install()
    try:
        compute_bound_report(ComponentView.whole(uniform_labeled_tree(300, 5)))
    finally:
        tracer.restore()
    assert ResistanceOracle.__init__ is init
    factor = [i for i, span in enumerate(tracer.spans) if span[0] == "resistance.factor"]
    assert len(factor) == 1
    assert tracer.info[factor[0]] == {"dense": True}
    assert any(span[0] == "resistance.row" for span in tracer.spans)


# ---------------------------------------------------------------------------
# the suites' cell map: W = 1 runs in this process, W = 2 forks one child
# that runs the odd-indexed cells (grid order, seeds innermost)


_USABLE_CPUS = forkmap.usable_cpus


def _workers(monkeypatch, w: int) -> None:
    """As on a machine with w CPUs: the next map, the suite's cell map, sees
    w. Maps after it, a cell's walks in its pinned share among them, see at
    most w and at most the live mask (one CPU in a share)."""
    first = iter([w])
    monkeypatch.setattr(forkmap, "usable_cpus",
                        lambda: next(first, None) or min(w, _USABLE_CPUS()))


def _act_at(monkeypatch, tag: int, master_seed: int, actions: dict) -> None:
    """Make the cell (x, s) of a suite with this master seed run
    actions[(x, s)] first: an exception to raise or a function to call. The
    action runs where the cell's bounds and walk request are made, after
    its sampling; the cell's walk seed is derive_seed(master_seed, tag, x, s)."""
    real = experiments._prepare_cell
    by_seed = {derive_seed(master_seed, tag, x, s): act for (x, s), act in actions.items()}

    def cell(comp, *, trials, master_seed):
        act = by_seed.get(master_seed)
        if isinstance(act, BaseException):
            raise act
        if act is not None:
            act()
        return real(comp, trials=trials, master_seed=master_seed)

    monkeypatch.setattr(experiments, "_prepare_cell", cell)


@pytest.mark.parametrize("case", ["evolution-a", "evolution-b"])
def test_suite_cells_keep_only_their_induced_graph(monkeypatch, case):
    # from its sampling to its walks a cell holds a view of its own induced
    # graph, with the sampled ids, not the sampled G(n, p); the report is
    # the pinned one
    build, want = PINNED_SUITES[case]
    _workers(monkeypatch, 1)
    real = experiments._prepare_cell
    views = []

    def cell(comp, *, trials, master_seed):
        views.append((comp.parent is comp.graph, comp.vertices))
        return real(comp, trials=trials, master_seed=master_seed)

    monkeypatch.setattr(experiments, "_prepare_cell", cell)
    assert _report_sha(build().to_dict()) == want
    assert views and all(own for own, _ in views)
    assert any(ids != tuple(range(len(ids))) for _, ids in views)


MAP_SUITES = {
    **{case: build for case, (build, _) in PINNED_SUITES.items()},
    # n = 5, 6, 7 below the window: 4 of the 12 largest components are one vertex
    "evolution-a-unusable-cells": lambda: evolution_suite(
        "a", [5, 6, 7], seeds=4, trials=4, master_seed=2),
}


@pytest.mark.parametrize("case", sorted(MAP_SUITES))
def test_suite_bytes_identical_in_one_and_two_processes(monkeypatch, case):
    real_fork = os.fork
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    reports = {}
    for w in (1, 2):
        _workers(monkeypatch, w)
        reports[w] = json.dumps(MAP_SUITES[case]().to_dict(), indent=2)
        assert len(forks) == w - 1
    assert reports[1] == reports[2]
    if case == "evolution-a-unusable-cells":
        assert [row["seeds"] for row in json.loads(reports[2])["rows"]] == [1, 2, 3]
    oc.assert_no_child_left()


def test_suite_cells_pool_under_the_batch_budget(monkeypatch):
    # worst-start cells of 64, 128 and 256 walks on trees of 16, 32 and 64
    # vertices; a budget of 256 walks with the union of two 32-vertex trees
    # (64 vertices, 62 edges) fits each cell alone but no 256-walk cell
    # together with another, so each process runs several batches, and the
    # report stays that of one batch
    def suite():
        return json.dumps(gw_scaling_suite([16, 32, 64], seeds=3, trials=4,
                                           master_seed=2).to_dict(), indent=2)

    _workers(monkeypatch, 1)
    whole = suite()
    monkeypatch.setattr(errors, "MEMORY_BYTES", walks._batch_bytes(256) + graphs.graph_bytes(64, 62)
                        + graphs.walk_bytes(64, 124))
    sizes = oc.pooled_sizes(monkeypatch)
    reports = {}
    for w in (1, 2):
        _workers(monkeypatch, w)
        reports[w] = suite()
    assert reports[1] == reports[2] == whole
    # this process's batches: all nine cells at W = 1, the even ones at W = 2
    assert sizes == [192, 256, 128, 256, 256, 256] + [256, 256, 256]
    oc.assert_no_child_left()


def test_cell_over_the_batch_budget_fails_alone(monkeypatch):
    # a budget of 255 walks: each k = 64 cell (256 walks) is refused on its
    # own, the first of them in grid order raises, at every worker count
    monkeypatch.setattr(errors, "MEMORY_BYTES", walks._batch_bytes(255))
    need = f"^a batch of 256 walks needs {walks._batch_bytes(256)} bytes, over the budget of "
    for w in (1, 2):
        _workers(monkeypatch, w)
        with pytest.raises(ContractViolation, match=need):
            gw_scaling_suite([16, 32, 64], seeds=3, trials=4, master_seed=2)
        with pytest.raises(ContractViolation, match="^a batch of 256 walks"):
            evaluate_cell(connected_components(path_graph(64))[0], trials=4, master_seed=1)
    oc.assert_no_child_left()


def _gw():
    return gw_scaling_suite([16, 32, 64], seeds=3, trials=4, master_seed=2)


def _evolution_a():
    # every largest component at n = 5 is one vertex
    return evolution_suite("a", [5, 6, 7], seeds=4, trials=4, master_seed=1)


# suite, its walk-seed tag and master seed, failing cells, the error a serial
# loop raises; cell (x, s) runs in the child when its grid index is odd
CELL_ERRORS = {
    "child-contract": (
        _gw, 404, 2, {(16, 1): ContractViolation("cell (16, 1)")},
        ContractViolation, "cell (16, 1)"),
    "child-degenerate-before-parent-contract": (
        _gw, 404, 2, {(32, 0): DegenerateModelError("cell (32, 0)"),
                      (32, 1): ContractViolation("cell (32, 1)")},
        DegenerateModelError, "cell (32, 0)"),
    "no-usable-row-before-child-contract": (
        _evolution_a, 202, 1, {(6, 1): ContractViolation("cell (6, 1)")},
        DegenerateModelError, "no usable component at n=5"),
}


@pytest.mark.parametrize("case", sorted(CELL_ERRORS))
def test_cell_error_raised_as_in_a_serial_loop(monkeypatch, case):
    build, tag, master_seed, actions, want_type, want_message = CELL_ERRORS[case]
    _act_at(monkeypatch, tag, master_seed, actions)
    for w in (1, 2):
        _workers(monkeypatch, w)
        with pytest.raises(want_type) as info:
            build()
        assert type(info.value) is want_type and str(info.value) == want_message
    oc.assert_no_child_left()


def test_child_cell_error_exits_2_from_the_cli(monkeypatch, capsys):
    _workers(monkeypatch, 2)
    _act_at(monkeypatch, 404, 2, {(16, 1): ContractViolation("cell (16, 1)")})
    argv = ["--seed", "2", "gw-scaling", "--k-grid", "16,32,64", "--seeds", "3", "--trials", "4"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == "error: cell (16, 1)\n"
    oc.assert_no_child_left()


def _in_child(act):
    parent = os.getpid()

    def run():
        assert os.getpid() != parent, "the cell ran in the parent"
        act()
    return run


@pytest.mark.parametrize("code", [1, 0])
def test_child_that_dies_raises_in_the_parent(monkeypatch, code):
    # exit 1 mid-share, or exit 0 before writing anything: both leave the
    # pipe empty, and the parent names the status rather than waiting
    _workers(monkeypatch, 2)
    _act_at(monkeypatch, 404, 2, {(32, 0): _in_child(lambda: os._exit(code))})
    want = f"^worker 1 exited with status {code} after writing 0 bytes$"
    with pytest.raises(RuntimeError, match=want):
        _gw()
    oc.assert_no_child_left()


class _Unwind(BaseException):
    pass


def test_parent_unwinding_kills_the_child(monkeypatch):
    # the parent's own cell (16, 0) unwinds while the child sits in (16, 1)
    parent = os.getpid()

    def unwind():
        if os.getpid() == parent:
            raise _Unwind

    _workers(monkeypatch, 2)
    _act_at(monkeypatch, 404, 2, {(16, 0): unwind, (16, 1): _in_child(lambda: time.sleep(120))})
    t0 = time.perf_counter()
    with pytest.raises(_Unwind):
        _gw()
    assert time.perf_counter() - t0 < 60
    oc.assert_no_child_left()
