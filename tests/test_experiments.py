import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles as oc
from covertime import (
    BaseGraphSpec,
    ComponentView,
    ContractViolation,
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
from covertime import blas, experiments, walks


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
        assert cell.to_dict()["R_exact"] is True
        assert report.to_dict()["R_provenance"] == {"mode": "exact"}
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
# default-limit reports take the dense path, the dense_limit=64 ones the
# sparse path.
PINNED_GRAPHS = {
    "tree200": lambda: ComponentView.whole(uniform_labeled_tree(200, 11)),
    "gnp600": lambda: connected_components(gnp(600, 1.5 / 600, 3))[0],
    "torus12": lambda: connected_components(
        percolate(BaseGraphSpec.torus(12, 2, 0.7), 5)[0])[0],
    "multigraph120": lambda: ComponentView.whole(oc.random_connected_multigraph(
        np.random.default_rng(2), 120, extra_edges=60, loops=6, max_multiplicity=3)),
}
PINNED_BOUNDS = {
    ("tree200", None): "fc9c0501dc2f208bc9d0ab55361a88d962b0a6c4d2181c4407704b67489c658c",
    ("tree200", 64): "88200839e13b5b02e42ccdbce5fdc1a2522ea26dcf15fc5b3672d36fa6f03996",
    ("gnp600", None): "54cdf20320b65f55f23d91417eb92a51d044d96c3fc0940f0ac4d0447515c3b8",
    ("gnp600", 64): "3bc1afb51367e98643635fb36811f3b104ddf185c946271905faccdc99e42970",
    ("torus12", None): "d452a5990c9cca4ba222e3c3ca48a084552417edbcbd1b54304a1be190f152af",
    ("torus12", 64): "bcc7fa78ff6936cb7c1f17ef1daed756b88ceff6adb026cb7975ff4fdab3a4e2",
    ("multigraph120", None): "705ce52bb28a8e141cd629a6c10fe881a3b6e0376ed4043814f7558c1441b134",
    ("multigraph120", 64): "23748fbdd2c86260d726b229760bc6f64351c2f1a8304ec1a8aa8f62f3e40684",
}
PINNED_SUITES = {
    "evolution-a": (
        lambda: evolution_suite("a", [200, 400, 800], seeds=2, trials=4, master_seed=1),
        "51fe34ceef15bfe601ccdc25f55fa58609e1a8ae521989b46869f1509cdb50fb"),
    "evolution-b": (
        lambda: evolution_suite("b", [200, 400, 800], seeds=2, trials=4, master_seed=1),
        "1e3e4e5ff3b42a773c76386c2a34e2a5332ade6ec3b6e0a994be0651d61b50a8"),
    "evolution-c": (
        lambda: evolution_suite("c", [200, 400, 800], seeds=2, trials=4, master_seed=1),
        "1eeafcd4d56a907a41439d7d4aac69f18ee4830d54e27c9b1c167f3c51a22ae9"),
    "gw": (
        lambda: gw_scaling_suite([16, 32, 64], seeds=3, trials=5, master_seed=2),
        "18be8928c6b7d82f257a906cd567598891f90def65cbf1eefc5c168ccfdea171"),
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


_GNP600_REPORT = (
    "import json; from covertime import compute_bound_report, connected_components, gnp; "
    "print(json.dumps(compute_bound_report("
    "connected_components(gnp(600, 1.5 / 600, 3))[0]).to_dict(), indent=2))"
)


@pytest.mark.skipif(not blas.threads_pinned(),
                    reason="no OpenBLAS thread setter resolved: the dense path follows the thread count")
def test_bound_report_bytes_identical_across_blas_threads():
    # the dense factorization, its inverse and Matthews' row sums round
    # differently at one BLAS thread and at two unless pinned to one
    outs = {}
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _GNP600_REPORT], capture_output=True, text=True,
            timeout=300, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        outs[threads] = proc.stdout
    assert outs["1"] == outs["2"]
    assert _report_sha(json.loads(outs["1"])) == PINNED_BOUNDS["gnp600", None]


@pytest.mark.parametrize("case", sorted(PINNED_SUITES))
def test_pinned_suite_report(case):
    build, want = PINNED_SUITES[case]
    assert _report_sha(build().to_dict()) == want


def _assert_close(dense, sparse, path="report"):
    """Equal structure and non-float values, floats within 1e-9 relative."""
    if isinstance(dense, float):
        assert dense == pytest.approx(sparse, rel=1e-9, abs=0.0), path
    elif isinstance(dense, dict):
        assert dense.keys() == sparse.keys(), path
        for key in dense:
            _assert_close(dense[key], sparse[key], f"{path}.{key}")
    elif isinstance(dense, (list, tuple)):
        assert len(dense) == len(sparse), path
        for i, (a, b) in enumerate(zip(dense, sparse)):
            _assert_close(a, b, f"{path}[{i}]")
    else:
        assert dense == sparse, path


@pytest.mark.parametrize("graph", sorted(PINNED_GRAPHS))
def test_dense_and_sparse_reports_agree(graph):
    comp = PINNED_GRAPHS[graph]()
    dense = compute_bound_report(comp)
    sparse = compute_bound_report(comp, dense_limit=64)
    assert dense.diameter_pair == sparse.diameter_pair
    assert [lvl.size for lvl in dense.levels] == [lvl.size for lvl in sparse.levels]
    assert [lvl.centers for lvl in dense.levels] == [lvl.centers for lvl in sparse.levels]
    _assert_close(dense.to_dict(), sparse.to_dict())


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
