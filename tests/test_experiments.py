import hashlib
import json
import math

import numpy as np
import pytest

import oracles as oc
from covertime import (
    BaseGraphSpec,
    ComponentView,
    ContractViolation,
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
        assert cell.r_exact == (report.r_provenance["mode"] == "exact")
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
# layout and the suites' shared loop may change, these bytes may not
PINNED_GRAPHS = {
    "tree200": lambda: ComponentView.whole(uniform_labeled_tree(200, 11)),
    "gnp600": lambda: connected_components(gnp(600, 1.5 / 600, 3))[0],
    "torus12": lambda: connected_components(
        percolate(BaseGraphSpec.torus(12, 2, 0.7), 5)[0])[0],
    "multigraph120": lambda: ComponentView.whole(oc.random_connected_multigraph(
        np.random.default_rng(2), 120, extra_edges=60, loops=6, max_multiplicity=3)),
}
PINNED_BOUNDS = {
    ("tree200", None): "ecba9c72db68a44e89ddcffbd21f8b02199c0c471e93315866754b397bd46245",
    ("tree200", 64): "2853846e617883b86d8eb6b6d23288d90492ba9921ccb317845a3a6dd5e9eb2b",
    ("gnp600", None): "6795fd44fa44a306999bfe6379c184f3e4e2c7f342e32e8fc0cdd7ee8392bd3e",
    ("gnp600", 64): "0f7dcb9fca7ca80e0cafefc99c93dcb03004b6032b31eb4f818826ee027a25db",
    ("torus12", None): "686cf629a4da864f1f44c30f3ff40a5e6f8799ac04a532184e87a0e09ae4208f",
    ("torus12", 64): "eacb5ac092d420fd5c36aad8631fee50d6be52f6c51d6e8e4a79e95d698741ed",
    ("multigraph120", None): "1cc0fdd927c343e6580487b4d0bab2899d4df38db8e8aff8c78c3f22d9e5f990",
    ("multigraph120", 64): "cfc2afe4b3f6fc59678e8115bcda10f510f8662c5245a5d1941481b24670645b",
}
PINNED_SUITES = {
    "evolution-a": (
        lambda: evolution_suite("a", [200, 400, 800], seeds=2, trials=4, master_seed=1),
        "0ea6c82a49d9034104d108ca5c5eaef0a9291245a76091396483b4e1ab8c216f"),
    "evolution-b": (
        lambda: evolution_suite("b", [200, 400, 800], seeds=2, trials=4, master_seed=1),
        "b644781155549bb15151c0c3270ffa445b0e31acaaa5877cbbfcd993c96bf41a"),
    "evolution-c": (
        lambda: evolution_suite("c", [200, 400, 800], seeds=2, trials=4, master_seed=1),
        "0edd6971da594ab63750b86d6d81c252e568ea00fd9c4a0f04670450799983c2"),
    "gw": (
        lambda: gw_scaling_suite([16, 32, 64], seeds=3, trials=5, master_seed=2),
        "5332e073b6ca0f47ac9e9804cff76bf8f750f50389b65abf60c6f60d8cf17aa6"),
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


@pytest.mark.parametrize("case", sorted(PINNED_SUITES))
def test_pinned_suite_report(case):
    build, want = PINNED_SUITES[case]
    assert _report_sha(build().to_dict()) == want
