import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

import oracles as oc
from covertime import errors, generators
from covertime import (
    BaseGraphSpec,
    ContractViolation,
    GiantModelParams,
    MultiGraph,
    complete_graph,
    connected_components,
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
    to_edge_list_text,
    torus_graph,
    uniform_labeled_tree,
)


class TestGnp:
    def test_extremes(self):
        assert gnp(6, 0.0, 1).edge_total == 0
        assert gnp(6, 1.0, 1) == complete_graph(6)

    @pytest.mark.parametrize("p", [1e-12, 1e-17, 1e-20])
    def test_tiny_p_skips_past_every_pair(self, p):
        # a skip of about 1/p pair indices is far beyond int64 at p = 1e-20
        for seed in range(5):
            assert gnp(10, p, seed).edge_total == 0

    def test_seed_determinism(self):
        assert gnp(200, 0.02, 77) == gnp(200, 0.02, 77)
        assert gnp(200, 0.02, 77) != gnp(200, 0.02, 78)

    def test_edge_count_near_mean(self):
        n, p = 2000, 0.004
        counts = [gnp(n, p, s).edge_total for s in range(10)]
        expect = p * n * (n - 1) / 2
        assert abs(np.mean(counts) - expect) < 4 * math.sqrt(expect)

    def test_critical_component_scale(self):
        # calibrated: median largest component of G(n, 1/n) is within a
        # factor 8 of n^(2/3) across seeds
        n = 10_000
        sizes = [connected_components(gnp(n, 1.0 / n, s))[0].size for s in range(60)]
        med = float(np.median(sizes))
        assert n ** (2 / 3) / 8 <= med <= 8 * n ** (2 / 3)


class TestUniformTree:
    def test_tiny(self):
        assert uniform_labeled_tree(1, 0).vertex_count == 1
        assert uniform_labeled_tree(2, 0).edges == ((0, 1, 1),)

    def test_is_tree(self):
        for seed in range(5):
            t = uniform_labeled_tree(40, seed)
            assert t.edge_total == 39
            assert connected_components(t)[0].size == 40

    def test_seed_determinism(self):
        assert uniform_labeled_tree(25, 4) == uniform_labeled_tree(25, 4)
        assert pgw_tree(0.9, 6).graph == pgw_tree(0.9, 6).graph

    def test_k3_paths_equifrequent(self):
        counts = {}
        for s in range(30_000):
            key = oc.canonical_edges(uniform_labeled_tree(3, s))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 3
        expect = 30_000 / 3
        stat = sum((c - expect) ** 2 / expect for c in counts.values())
        assert chi2.sf(stat, df=2) > 1e-3

    def test_k4_all_16_uniform(self):
        trees = {t: 0 for t in oc.all_labeled_trees(4)}
        draws = 100_000
        for s in range(draws):
            trees[oc.canonical_edges(uniform_labeled_tree(4, s))] += 1
        assert all(c > 0 for c in trees.values())
        expect = draws / 16
        stat = sum((c - expect) ** 2 / expect for c in trees.values())
        assert chi2.sf(stat, df=15) > 1e-3


class TestPGW:
    def test_subcritical_small_mu_mostly_roots(self):
        singles = sum(pgw_tree(0.05, s).size == 1 for s in range(2000))
        assert abs(singles / 2000 - math.exp(-0.05)) < 0.02

    def test_offspring_mean(self):
        mu = 0.7
        degs = [pgw_tree(mu, s).graph.degree(0) for s in range(4000)]
        se = np.std(degs, ddof=1) / math.sqrt(len(degs))
        assert abs(np.mean(degs) - mu) <= 3 * se

    def test_size_law_matches_convolution_oracle(self):
        mu = 0.8
        draws = 40_000
        sizes = np.array([min(pgw_tree(mu, s, size_cap=200).size, 200) for s in range(draws)])
        q = oc.borel_pmf(mu, 12)
        for j in range(1, 13):
            emp = float(np.mean(sizes == j))
            se = math.sqrt(q[j - 1] * (1 - q[j - 1]) / draws)
            assert abs(emp - q[j - 1]) <= 4 * se + 1e-4

    def test_critical_size_interval_ratio(self):
        # P(size in [k, 2k]) scales like k^-1/2: halving when k quadruples
        k = 24
        draws = 120_000
        sizes = np.array([pgw_tree(1.0, s, size_cap=8 * k + 1).size for s in range(draws)])
        lo = float(np.mean((sizes >= k) & (sizes <= 2 * k)))
        hi = float(np.mean((sizes >= 4 * k) & (sizes <= 8 * k)))
        assert 1.5 <= lo / hi <= 2.7

    def test_truncation_flag(self):
        t = pgw_tree(1.0, 12345, size_cap=5)
        assert t.size <= 5
        if t.size == 5:
            assert t.truncated or t.graph.edge_total == 4


class TestConjugate:
    def test_residuals(self):
        for eps in (1e-3, 1e-2, 1e-1, 0.5):
            mu = conjugate_mu(eps)
            assert 0 < mu < 1
            res = abs(mu * math.exp(-mu) - (1 + eps) * math.exp(-(1 + eps)))
            assert res <= 1e-12

    def test_eps_to_zero_limit(self):
        assert 1 - 1e-7 < conjugate_mu(1e-8) < 1

    def test_bracket_at_point_two(self):
        assert 0.8 < conjugate_mu(0.2) < 0.85

    def test_strictly_decreasing(self):
        grid = [0.05 * i for i in range(1, 21)]
        vals = [conjugate_mu(e) for e in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ContractViolation):
            conjugate_mu(0.0)


class TestGiantModel:
    def test_structure(self):
        params = GiantModelParams(30_000, 0.25)
        sample = giant_model(params, 3)
        assert sample.kernel_degrees.min() >= 3
        assert int(sample.kernel_degrees.sum()) % 2 == 0
        assert len(sample.tree_sizes) == sample.core_size
        # attached tree roots are identified with core vertices
        assert sample.graph.vertex_count == sample.core_size + int(
            (sample.tree_sizes - 1).sum())

    def test_path_length_mean(self):
        params = GiantModelParams(30_000, 0.25)
        sample = giant_model(params, 5)
        lengths = sample.path_lengths
        expect = 1.0 / (1.0 - params.mu)
        se = lengths.std(ddof=1) / math.sqrt(len(lengths))
        assert abs(lengths.mean() - expect) <= 3 * se

    def test_kernel_fraction_poisson_tail(self):
        params = GiantModelParams(30_000, 0.25)
        sample = giant_model(params, 9)
        lam = sample.lambda_value
        p3 = 1.0 - math.exp(-lam) * (1 + lam + lam * lam / 2)
        frac = sample.kernel_size / params.n
        se = math.sqrt(p3 * (1 - p3) / params.n)
        assert abs(frac - p3) <= 3 * se

    def test_determinism(self):
        params = GiantModelParams(20_000, 0.3)
        assert giant_model(params, 4).graph == giant_model(params, 4).graph

    def test_conjugate_invariant_enforced(self):
        params = GiantModelParams(1000, 0.2)
        assert abs(params.mu * math.exp(-params.mu)
                   - 1.2 * math.exp(-1.2)) <= 1e-12
        assert params.lambda_var == pytest.approx(1 / (0.2 * 1000))


# sha256 of four giant-model samples (one with truncated trees) and three
# branching trees (one truncated): graph, tree sizes, height and flags
PINNED_TREES = "524a9e566c5e3604ee080639bb26ee32535692d16b1ef9dc5a22d4cb69ed0185"


def test_pinned_tree_samples():
    h = hashlib.sha256()
    for n, eps, seed, cap in [(9000, 0.3, 0, 10 ** 6), (9000, 0.3, 1, 10 ** 6),
                              (2000, 0.5, 2, 10 ** 6), (9000, 0.3, 3, 4)]:
        s = giant_model(GiantModelParams(n, eps), seed, tree_size_cap=cap)
        h.update(to_edge_list_text(s.graph).encode())
        h.update(f"{s.tree_sizes.tolist()} {s.truncated_trees}\n".encode())
    for mu, seed, cap in [(1.0, 10, 10 ** 6), (0.9, 4, 10 ** 6), (1.0, 1, 50)]:
        t = pgw_tree(mu, seed, size_cap=cap)
        h.update(to_edge_list_text(t.graph).encode())
        h.update(f"{t.size} {t.height} {t.truncated}\n".encode())
    assert h.hexdigest() == PINNED_TREES


class TestPercolation:
    def test_hypercube_full(self):
        full, big = percolate(BaseGraphSpec.hypercube(3, 1.0), 0)
        assert full.vertex_count == 8
        assert set(full.degrees.tolist()) == {3}
        assert big.size == 8

    def test_p_zero_singletons(self):
        full, big = percolate(BaseGraphSpec.torus(4, 2, 0.0), 0)
        assert full.edge_total == 0
        assert big.size == 1

    def test_torus_structure(self):
        full, _ = percolate(BaseGraphSpec.torus(5, 2, 1.0), 0)
        assert full.vertex_count == 25
        assert set(full.degrees.tolist()) == {4}

    def test_vertex_transitive_degrees(self):
        assert set(hypercube_graph(4).degrees.tolist()) == {4}
        assert set(torus_graph(3, 3).degrees.tolist()) == {6}

    def test_random_regular_base(self):
        full, _ = percolate(BaseGraphSpec.random_regular(50, 3, 1.0), 8)
        assert set(full.degrees.tolist()) == {3}
        assert full.edge_total == 75

    def test_determinism(self):
        a = percolate(BaseGraphSpec.hypercube(6, 0.4), 42)[0]
        b = percolate(BaseGraphSpec.hypercube(6, 0.4), 42)[0]
        assert a == b

    def test_retention_rate(self):
        full, _ = percolate(BaseGraphSpec.torus(20, 2, 0.5), 3)
        base_edges = 2 * 400
        assert abs(full.edge_total - 0.5 * base_edges) < 4 * math.sqrt(base_edges * 0.25)


@pytest.mark.parametrize("sample", [
    lambda: uniform_labeled_tree(10 ** 10, 0),
    lambda: gnp(10 ** 10, 1e-10, 0),
    lambda: gnp(10 ** 6, 0.5, 0),
    lambda: giant_model(GiantModelParams(10 ** 10, 0.3), 0),
    lambda: complete_graph(10 ** 5),
    lambda: hypercube_graph(40),
    lambda: torus_graph(10 ** 5, 3),
    lambda: percolate(BaseGraphSpec.random_regular(10 ** 10, 3, 0.5), 0),
    lambda: hypercube_graph(2000),  # 2^2000 vertices: past the float range
    lambda: torus_graph(10, 400),
], ids=["tree", "gnp-sparse", "gnp-dense", "giant", "complete", "hypercube", "torus",
        "regular", "hypercube-past-float", "torus-past-float"])
def test_size_over_budget_refused_before_allocating(sample):
    over = re.compile("over the budget")  # compiled before tracing
    tracemalloc.start()
    try:
        with pytest.raises(ContractViolation, match=over):
            sample()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 4, peak


def test_size_budget_is_the_stated_bytes(monkeypatch):
    # a 1000-vertex tree takes 64 * 1000 + 140 * 999 bytes by the stated rates
    need = 64 * 1000 + 140 * 999
    monkeypatch.setattr(errors, "MEMORY_BYTES", need)
    assert uniform_labeled_tree(1000, 1).vertex_count == 1000
    monkeypatch.setattr(errors, "MEMORY_BYTES", need - 1)
    with pytest.raises(ContractViolation, match="^a tree of 1000 vertices needs 203860 bytes"):
        uniform_labeled_tree(1000, 1)


# sha256 of the edge-list text of every sampler and structured graph: sparse
# and dense G(n, p), a uniform tree, a random regular graph, percolated tori
# and hypercubes (graph and largest component), complete, path, cycle, star
PINNED_SAMPLES = "15232d27ef0da707b90f5316ad4eee7c1e282dbc4d66dfa92a61eeb61bc33494"


def test_pinned_samples():
    h = hashlib.sha256()
    graphs = [gnp(3000, 1.0 / 3000, 0), gnp(3000, 1.5 / 3000, 1), gnp(200, 0.3, 2),
              gnp(60, 0.9, 3), gnp(1000, 0.05, 13), gnp(10 ** 5, 1e-10, 14),
              uniform_labeled_tree(2000, 4), uniform_labeled_tree(3, 5)]
    graphs += [random_regular_graph(300, 3, 6), random_regular_graph(40, 5, 7)]
    for spec, seed in [(BaseGraphSpec.torus(30, 2, 0.6), 8), (BaseGraphSpec.torus(7, 3, 0.3), 9),
                       (BaseGraphSpec.hypercube(8, 0.5), 10),
                       (BaseGraphSpec.hypercube(5, 1.0), 11),
                       (BaseGraphSpec.random_regular(100, 4, 0.4), 12)]:
        full, big = percolate(spec, seed)
        graphs += [full, big.graph]
    graphs += [complete_graph(12), path_graph(50), cycle_graph(17), star_graph(9),
               torus_graph(3, 2), torus_graph(2, 3), hypercube_graph(0), complete_graph(1)]
    for g in graphs:
        h.update(to_edge_list_text(g).encode())
    assert h.hexdigest() == PINNED_SAMPLES


# ---------------------------------------------------------------------------
# the array samplers against one Python loop over the edges (tests/oracles.py)


@pytest.mark.parametrize("n", [0, 1, 2, 50, 3000])
@pytest.mark.parametrize("p", [0.0, 1e-17, 1e-10, "1/n", 0.5, 1.0])
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=2, deadline=None)
def test_gnp_matches_the_skip_loop(n, p, seed):
    p = 1.0 / max(n, 1) if p == "1/n" else p
    g = gnp(n, p, seed)
    ref = np.fromiter(itertools.chain.from_iterable(oc.gnp_edges(n, p, seed)),
                      dtype=np.int64).reshape(-1, 2)
    ref = ref[np.lexsort((ref[:, 0], ref[:, 1]))]  # by (w, v): the graph's (u, v) order
    assert g.vertex_count == n
    assert np.array_equal(g.edge_array[:, 0], ref[:, 1])
    assert np.array_equal(g.edge_array[:, 1], ref[:, 0])
    assert (g.edge_array[:, 2] == 1).all()


@pytest.mark.parametrize("p", [0.5, 0.1, 1e-3, 1 / 3000, 1e-10, 1e-17, 1e-300])
def test_skips_floor_as_math_log_does(p):
    # uniforms, the uniforms whose quotient is an integer k, and the doubles
    # beside them: numpy's log may be an ulp off math.log there
    lp = math.log1p(-p)
    k = np.unique(np.geomspace(1, 1e18, 4000).astype(np.int64))
    edge = -np.expm1(k * lp)
    r = np.concatenate([np.random.default_rng(7).random(50_000), edge,
                        np.nextafter(edge, 0.0), np.nextafter(edge, 1.0),
                        np.nextafter(np.nextafter(edge, 1.0), 1.0)])
    r = r[(r >= 0.0) & (r < 1.0)]
    cap = 10 ** 15
    expect = [min(int(math.log(1.0 - x) / lp), cap) for x in r.tolist()]
    assert generators._skips(r, lp, cap).tolist() == expect


def test_pair_ends_decode_every_index_exactly():
    # indices at and beside v(v-1)/2 for v up to 2^27, past the 6.7e7
    # vertices that the memory budget admits: against the integer root
    v = np.unique(np.geomspace(2, 2 ** 27, 20_000).astype(np.int64))
    index = (v * (v - 1) // 2)[:, None] + np.arange(-2, 3)
    index = index[index >= 0]
    w, v = generators._pair_ends(index)
    root = [(1 + math.isqrt(1 + 8 * i)) // 2 for i in index.tolist()]
    assert v.tolist() == root
    assert ((0 <= w) & (w < v) & (index == v * (v - 1) // 2 + w)).all()


@pytest.mark.parametrize("m", range(8))
def test_hypercube_matches_the_bit_loop(m):
    assert hypercube_graph(m) == MultiGraph(1 << m, oc.hypercube_edges(m))


@pytest.mark.parametrize("m, d", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 3), (5, 2), (7, 1)])
def test_torus_matches_the_axis_loop(m, d):
    assert torus_graph(m, d) == MultiGraph(m ** d, oc.torus_edges(m, d))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 9])
def test_structured_graphs_match_their_loops(n):
    assert path_graph(n) == MultiGraph(n, [(i, i + 1) for i in range(n - 1)])
    assert complete_graph(n) == MultiGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    assert star_graph(n) == MultiGraph(n + 1, [(0, i) for i in range(1, n + 1)])
    if n >= 3:
        assert cycle_graph(n) == MultiGraph(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize("spec", [
    BaseGraphSpec.torus(6, 2, 0.5), BaseGraphSpec.hypercube(5, 0.4),
    BaseGraphSpec.random_regular(40, 3, 0.6), BaseGraphSpec.complete(12, 0.3),
], ids=["torus", "hypercube", "regular", "complete"])
def test_percolated_bases_draw_as_the_edge_loop(spec):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        base = generators._build_base(spec, rng)
        kept = oc.percolated_edges(base, spec.percolation_p, rng)
        assert percolate(spec, seed)[0] == MultiGraph(base.vertex_count, kept)
